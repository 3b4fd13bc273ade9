"""Zero-energy scattering tour: extracting a from the radial equation.

For a hard sphere the scattering length equals the core radius; for a
repulsive step of height V0 it interpolates between the Born value
V0 R0^3 / (6 mu) and the hard-sphere limit R0.  The energy integral over a
ball of radius R reproduces 8 pi mu a (1 - a/R), and the kinetic share s of
that energy runs from the Born regime (s ~ 0, all potential) to the hard
core (s = 1, all kinetic).
"""

import math

from bosegas.potentials import PairPotential, born_integral
from bosegas.scattering import (energy_integral, kinetic_fraction,
                                solve_zero_energy)

MU = 1.0

print("-- hard spheres: a = R0 exactly --")
for r0 in (0.1, 1.0, 10.0):
    sol = solve_zero_energy(PairPotential(kind="hard-core", core_radius=r0), MU)
    print(f"  R0 = {r0:5.1f}  ->  a = {sol.a:.12f}   s = {kinetic_fraction(sol):.6f}")

print("\n-- repulsive step r0 = 1: from Born to hard sphere --")
print(f"  {'V0':>10}  {'a':>12}  {'a_Born':>12}  {'s':>8}")
for v0 in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
    p = PairPotential(kind="square-well", core_radius=1.0, strength=v0)
    sol = solve_zero_energy(p, MU)
    a_born = born_integral(p) / (8.0 * math.pi * MU)
    print(f"  {v0:10.2f}  {sol.a:12.8f}  {a_born:12.8f}  "
          f"{kinetic_fraction(sol):8.5f}")
print("  (a < a_Born always: the first Born approximation is an upper bound)")

print("\n-- energy integral over |x| <= R vs 8 pi mu a (1 - a/R) --")
p = PairPotential(kind="square-well", core_radius=1.0, strength=5.0)
sol = solve_zero_energy(p, MU)
for ratio in (2, 10, 100):
    lhs = energy_integral(sol, float(ratio))
    rhs = 8.0 * math.pi * MU * sol.a * (1.0 - sol.a / ratio)
    print(f"  R = {ratio:4d}: integral = {lhs:.10f}   closed form = {rhs:.10f}")
print(f"  limit 8 pi mu a = {8.0 * math.pi * MU * sol.a:.10f}")

print("\n-- two dimensions: a from the logarithmic asymptote --")
sol2 = solve_zero_energy(
    PairPotential(kind="hard-core", core_radius=1.0, dimension=2), MU)
print(f"  hard disc R0 = 1  ->  a = {sol2.a:.12f} (s = 1 identically in 2D)")
