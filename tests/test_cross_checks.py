"""Cross-checks against fully independent integrators and odd parameter
corners: scipy.solve_ivp as a second route to the scattering length,
tabulated potentials through the whole pipeline, and non-unit kinetic
constants and trap scales."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bosegas.gp import gp_minimize
from bosegas.potentials import PairPotential, TrapPotential, pair_value
from bosegas.scattering import energy_integral, solve_zero_energy
from bosegas.thomas_fermi import tf_chemical_identity_gap, tf_solve

TRIANGLE = PairPotential(kind="tabulated",
                         table=((0.2, 3.0), (1.0, 1.5), (1.8, 0.0)))


def ivp_scattering_length(p, mu):
    """Independent route: scipy RK45 at tight tolerance, then a = R - u/u'."""
    r_end = p.range_radius

    def rhs(r, y):
        v = pair_value(p, r) if r > 0 else 0.0
        return [y[1], v * y[0] / (2.0 * mu)]

    sol = solve_ivp(rhs, (0.0, r_end), [0.0, 1.0], rtol=1e-12, atol=1e-14,
                    dense_output=False, method="RK45")
    u, du = sol.y[0, -1], sol.y[1, -1]
    return r_end - u / du


@pytest.mark.parametrize("mu", [0.01, 1.0, 100.0])
def test_square_well_vs_solve_ivp(mu):
    p = PairPotential(kind="square-well", core_radius=1.2, strength=4.0)
    mine = solve_zero_energy(p, mu).a
    other = ivp_scattering_length(p, mu)
    assert mine == pytest.approx(other, rel=1e-9)


def test_tabulated_vs_solve_ivp():
    mine = solve_zero_energy(TRIANGLE, 1.0).a
    other = ivp_scattering_length(TRIANGLE, 1.0)
    assert mine == pytest.approx(other, rel=1e-9)
    assert 0.0 < mine < TRIANGLE.range_radius


def test_tabulated_energy_integral_identity():
    sol = solve_zero_energy(TRIANGLE, 1.0)
    for R in (3.6, 18.0):
        lhs = energy_integral(sol, R)
        rhs = 8.0 * math.pi * sol.mu * sol.a * (1.0 - sol.a / R)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_stiff_well():
    # kappa R0 ~ 30: deep inside the hard-sphere limit
    p = PairPotential(kind="square-well", core_radius=1.0, strength=1800.0)
    sol = solve_zero_energy(p, 1.0)
    kappa = math.sqrt(900.0)
    exact = 1.0 - math.tanh(kappa) / kappa
    assert sol.a == pytest.approx(exact, rel=1e-8)
    assert sol.s > 0.95          # nearly all kinetic


def test_two_dim_tail_potential():
    p = PairPotential(kind="square-well", core_radius=1.0, strength=3.0,
                      dimension=2, tail=(0.2, 5.0))
    sol = solve_zero_energy(p, 1.0)
    assert 0.0 < sol.a < 1.5


def test_energy_integral_with_tail():
    p = PairPotential(kind="square-well", core_radius=1.0, strength=2.0,
                      tail=(0.3, 6.0))
    sol = solve_zero_energy(p, 1.0)
    vals = [energy_integral(sol, R) for R in (sol.end_radius * 1.5,
                                              sol.end_radius * 4.0)]
    assert vals[1] > vals[0] > 0.0
    assert vals[1] <= 8.0 * math.pi * sol.a * 1.01


def test_energy_integral_inside_a_tail_cut_radius():
    # The potential's range is 1; the tail is integrated out to its cut
    # radius, about 2325, and every R beyond the range has an integral.
    p = PairPotential(kind="square-well", core_radius=1.0, strength=2.0,
                      tail=(0.3, 6.0))
    sol = solve_zero_energy(p, 1.0)
    cut = sol.end_radius
    radii = [1.0, 1.5, 10.0, 100.0, 2000.0, cut, 1.5 * cut, 4.0 * cut]
    vals = [energy_integral(sol, R) for R in radii]
    assert all(map(math.isfinite, vals))
    assert np.all(np.diff(vals) > 0.0)     # the integrand is nonnegative
    # the rerun out to just below the cut radius meets the reported run
    assert energy_integral(sol, float(np.nextafter(cut, 0.0))) \
        == pytest.approx(vals[5], rel=1e-10)

    # independent route at R = 10: scipy RK45 on u, int (u' - u/r)^2 and
    # int v u^2, segment by segment, normalized by the solver's slope
    def rhs(r, y):
        if r <= 0.0:
            return [y[1], 0.0, 0.0, 0.0]
        v, grad = pair_value(p, r), y[1] - y[0] / r
        return [y[1], v * y[0] / 2.0, grad * grad, v * y[0] * y[0]]

    y = [0.0, 1.0, 0.0, 0.0]
    for lo, hi in ((0.0, 1.0), (1.0, 10.0)):
        y = solve_ivp(rhs, (lo, hi), y, rtol=1e-12, atol=1e-14).y[:, -1]
    want = 4.0 * math.pi * (2.0 * y[2] + y[3]) / sol.slope ** 2
    assert vals[2] == pytest.approx(want, rel=1e-8)


def test_gp_nonunit_constants():
    # ground energy of -mu lap + c r^2 is 3 sqrt(mu c) per particle (3D)
    trap = TrapPotential(kind="power-law", dimension=3, scale=2.0)
    st = gp_minimize(trap, 1.0, 0.0, mu_const=0.5, grid_points=1500)
    assert st.E == pytest.approx(3.0 * math.sqrt(0.5 * 2.0), abs=2e-4)
    # interacting state still satisfies its invariants
    st = gp_minimize(trap, 1.0, 0.7, mu_const=0.5, grid_points=1500)
    assert st.residual <= 1e-9 and st.phi.min() > 0.0
    quartic = np.trapezoid(st.phi ** 4 * 4.0 * math.pi * st.r ** 2,
                           st.r)
    rebuilt = st.E / st.N + 4.0 * math.pi * 0.5 * 0.7 / st.N * quartic
    assert st.mu_gp == pytest.approx(rebuilt, rel=1e-6)


def test_tf_nonunit_constants():
    trap = TrapPotential(kind="power-law", dimension=3, scale=2.0)
    tf = tf_solve(trap, N=2.0, a=1.5, mu_const=0.5)
    # normalization: int (mu - 2 r^2)_+ d^3x = 4 pi mu^(5/2) 2^(-3/2) (2/15)
    # must equal 8 pi mu_c a N = 8 pi * 0.5 * 1.5 * 2
    coeff = 4.0 * math.pi * 2.0 ** -1.5 * 2.0 / 15.0
    exact_mu = (8.0 * math.pi * 0.5 * 1.5 * 2.0 / coeff) ** 0.4
    assert tf.mu_tf == pytest.approx(exact_mu, rel=1e-10)
    assert tf_chemical_identity_gap(tf) <= 1e-9


def test_gp_scaling_survives_mu_const():
    trap = TrapPotential(kind="power-law", dimension=3)
    big = gp_minimize(trap, 50.0, 0.02, mu_const=2.0, grid_points=1000)
    unit = gp_minimize(trap, 1.0, 1.0, mu_const=2.0, grid_points=1000)
    assert big.E == pytest.approx(50.0 * unit.E, rel=1e-10)
