"""Trapped gas: the GP functional, its scaling law, and the TF limit.

The minimizer of the GP functional depends on (N, a) only through N a:
E(N, a) = N E(1, N a).  As g = N a grows, the gradient term becomes
negligible and the explicit TF profile [mu - V]_+ / (8 pi mu a) takes over;
the energy ratio and the rescaled density distance both collapse.
"""

from bosegas.gp import (export_profile, gp_minimize, gp_tf_limit, mean_density,
                        tf_solve)
from bosegas.potentials import TrapPotential

HARM3 = TrapPotential(kind="harmonic", dimension=3)

print("-- noninteracting limit (a = 0, harmonic trap): E/N = 3 --")
state = gp_minimize(HARM3, 1.0, 0.0)
print(f"  E = {state.E:.8f}, mu = {state.mu_gp:.8f}, "
      f"residual = {state.residual:.1e}, iterations = {state.iterations}")

print("\n-- scaling law: E(N, a) vs N E(1, N a) --")
for n_part, a in ((10.0, 0.01), (100.0, 0.001), (1000.0, 0.01)):
    big = gp_minimize(HARM3, n_part, a, grid_points=1500)
    unit = gp_minimize(HARM3, 1.0, n_part * a, grid_points=1500)
    print(f"  N = {n_part:6.0f}, a = {a:6.3f}:  E = {big.E:14.6f}   "
          f"N E(1, Na) = {n_part * unit.E:14.6f}")

print("\n-- Thomas-Fermi closed forms (harmonic trap) --")
tf = tf_solve(HARM3, N=1.0, a=100.0)
print(f"  g = 100: mu_tf = {tf.mu_tf:.8f} (analytic (15 g)^(2/5) = "
      f"{(15.0 * 100.0) ** 0.4:.8f})")
print(f"  cloud radius sqrt(mu_tf) = {tf.support_radius:.6f}")

print("\n-- GP -> TF limit along g = N a --")
print(f"  {'g':>8}  {'E_gp':>12}  {'E_tf':>12}  {'ratio':>9}  {'L1 dist':>9}")
for row in gp_tf_limit(HARM3, [10.0, 100.0, 1000.0, 10000.0]):
    print(f"  {row['g']:8.0f}  {row['E_gp']:12.5f}  {row['E_tf']:12.5f}  "
          f"{row['ratio']:9.5f}  {row['l1_rescaled']:9.5f}")

print("\n-- interaction energy splits kinetic/potential via the gas profile --")
state = gp_minimize(HARM3, 1.0, 50.0, grid_points=1500)
print(f"  g = 50: kinetic = {state.kinetic:.5f}, "
      f"trap = {state.trap_energy:.5f}, interaction = {state.interaction:.5f}")
print(f"  mean density rho_bar = {mean_density(state):.6f}")

export_profile(state, "gp_profile_g50.csv")
print("  density profile written to gp_profile_g50.csv")
