"""Charged Bose gas: pairing modes, the rho^(1/4) law, and N^(7/5).

Each (k, -k) pair of modes contributes a quadratic form
A(b*b + c*c) + B(b*c* + bc) whose completed square bounds the ground energy
by sqrt(A^2 - B^2) - A.  Integrating that gain over the Coulomb modes gives
the high-density energy per particle, whose closed form is a Gamma-function
coefficient times rho^(1/4).  Treating each component of a two-component gas
as the other's background turns the same law into the N^(7/5) instability.
"""

import math

from bosegas.bogolubov import (BogolubovMode, fock_oracle,
                               foldy_dimensionless_integral,
                               foldy_gamma_closed_form, foldy_report,
                               two_component_scaling, yukawa_ft)
from bosegas.numerics import Tolerances

print("-- one pair of modes: truncated-Fock oracle vs the closed square --")
a_val, b_val = 5.0, 3.0
mode = BogolubovMode(a_val, b_val)
exact = math.sqrt(a_val ** 2 - b_val ** 2) - a_val
print(f"  (A, B) = (5, 3): alpha = {mode.alpha:.6f}, "
      f"bound coefficient = {mode.ground_bound_coeff:.6f}")
loose = Tolerances(abs_tol=0.1, rel_tol=0.1)  # show the convergence trend
for n_max in (6, 12, 24, 60):
    print(f"  truncation n_max = {n_max:3d}: E0 = "
          f"{fock_oracle(a_val, b_val, n_max, tol=loose):+.12f}   "
          f"(exact {exact:+.1f})")

print("\n-- screened interaction --")
print(f"  Yukawa transform at k = 2, omega = 1: {yukawa_ft(2.0, 1.0):.8f} "
      f"(= 4 pi / 5)")

print("\n-- the dimensionless mode integral --")
numeric = foldy_dimensionless_integral()
closed = foldy_gamma_closed_form()
print(f"  quadrature : {numeric:.12f}")
print(f"  Gamma form : {closed:.12f}   (2^(3/4) sqrt(pi) G(3/4) / (5 G(5/4)))")

print("\n-- energy per particle at high density --")
print(f"  {'rho':>7}  {'mode integral':>14}  {'closed form':>12}  "
      f"{'l_cor':>7}  {'rho^(-1/3)':>10}")
for rho in (1.0, 16.0, 256.0):
    rep = foldy_report(rho)
    print(f"  {rho:7.0f}  {rep['mode_integral']:14.8f}  "
          f"{rep['closed_form']:12.8f}  {rep['correlation_length']:7.4f}  "
          f"{rep['mean_distance']:10.4f}")
rep = foldy_report(1.0)
print(f"  note: the alternative prefactor convention gives exactly half "
      f"(ratio {rep['closed_over_displayed']:.1f});")
print("  the factor traces to (k, -k) pair counting and is reported, "
      "not hidden")

print("\n-- two-component instability --")
res = two_component_scaling([10.0 ** e for e in range(3, 10)])
print(f"  optimal radius exponent : {res['radius_exponent']:+.6f}  (-1/5)")
print(f"  |E_opt| exponent        : {res['energy_exponent']:+.6f}  (+7/5)")
sample = res["points"][3]
print(f"  e.g. N = {sample.N:.0e}: L_opt = {sample.L_opt:.5f}, "
      f"E_opt = {sample.E_opt:.4e}")
