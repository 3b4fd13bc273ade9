"""Energy bounds for the homogeneous dilute gas.

The leading term of the ground-state energy per particle is 4 pi mu rho a in
3D.  Upper bounds come from a correlated trial state; the lower bound from
the cell method: soften the potential (Dyson substitution), estimate each
Neumann cell with Temple's inequality, and distribute particles using
superadditivity.  The ansatz eps ~ Y^(1/17), a/ell ~ Y^(6/17),
(R^3 - R0^3)/ell^3 ~ Y^(3/17) balances the five error terms.
"""

import math

import numpy as np

from bosegas.homogeneous import (DYSON_LOWER_RATIO, DiluteParams,
                                 cell_construction, cell_lower_bound,
                                 dilute_lower_ratio, dyson_upper_ratio,
                                 leading_energy, lhy_energy, schick_2d_bounds)

print("-- 3D bound sandwich: e0 / (4 pi mu rho a) --")
print(f"  {'Y':>8}  {'lower 1-8.9 Y^(1/17)':>22}  {'upper':>10}  "
      f"{'upper (finite range)':>21}")
for y in np.geomspace(1e-20, 1e-6, 8):
    print(f"  {float(y):8.0e}  {dilute_lower_ratio(float(y)):22.6f}  "
          f"{dyson_upper_ratio(float(y)):10.6f}  "
          f"{dyson_upper_ratio(float(y), True):21.6f}")
y_star = ((1.0 - DYSON_LOWER_RATIO) / 8.9) ** 17
print(f"  the Y^(1/17) bound beats the 1957 hard-sphere constant "
      f"1/(10 sqrt 2) below Y* = {y_star:.2e}")

print("\n-- second-order expansion (3D) --")
for x in (1e-8, 1e-6, 1e-4):
    p = DiluteParams(rho=x, a=1.0, mu=1.0)
    print(f"  rho a^3 = {x:0.0e}: expansion/leading = "
          f"{lhy_energy(p) / leading_energy(p):.8f}")

print("\n-- cell-method lower bound with unit ansatz constants --")
print(f"  {'Y':>8}  {'bound/leading':>14}  dominant error terms")
for y in (1e-12, 1e-20, 1e-50, 1e-100):
    a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
    p = DiluteParams(rho=1.0, a=a, mu=1.0)
    terms = cell_construction(p).terms
    top = sorted(terms.items(), key=lambda kv: -kv[1])[:2]
    summary = ", ".join(f"{k} = {v:.3f}" for k, v in top)
    print(f"  {y:8.0e}  {cell_lower_bound(p) / leading_energy(p):14.6f}  "
          f"{summary}")
print("  every error term scales like Y^(1/17): the bound creeps toward 1")

print("\n-- 2D: the logarithmic formula 4 pi mu rho / |ln(rho a^2)| --")
for rho_a2 in (1e-8, 1e-16, 1e-30):
    p = DiluteParams(rho=1.0, a=math.sqrt(rho_a2), mu=1.0, d=2)
    upper, lower = schick_2d_bounds(p)
    lead = leading_energy(p)
    print(f"  rho a^2 = {rho_a2:6.0e}: lower/leading = "
          f"{lower / lead:.4f}, upper/leading = {upper / lead:.4f}")
