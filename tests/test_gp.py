"""GP minimizer, TF closed forms, scaling laws, and the GP->TF limit.

Analytic oracles used here (derived by hand, unit scale, mu_const = 1):
  3D harmonic, a = 0:  E/N = 3, phi Gaussian exp(-r^2/2).
  3D harmonic TF:      mu = (15 N a)^(2/5),  E_tf = mu^(7/2)/(21 a),
                       int rho^2 = mu^(7/2)/(2 pi a^2) * 1/105 * ... checked
                       through the chemical-potential identity instead.
  2D harmonic TF (N=1, coupling 1): mu = 4, E_tf = mu^3/24 = 8/3.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest

from bosegas import gp
from bosegas.errors import DomainError, NegativeCoupling
from bosegas.gp import (_RESIDUAL_TOL, export_profile, gp_minimize,
                        gp_residual, gp_tf_limit, mean_density, tf_density,
                        tf_scaling)
from bosegas.potentials import TrapPotential, parse_trap_potential
from bosegas.thomas_fermi import tf_chemical_identity_gap, tf_solve

HARM3 = TrapPotential(kind="power-law", dimension=3)    # s = 2: harmonic
HARM2 = TrapPotential(kind="power-law", dimension=2)


def test_linear_limit_harmonic():
    st1 = gp_minimize(HARM3, 1.0, 0.0, grid_points=1000)
    st2 = gp_minimize(HARM3, 1.0, 0.0, grid_points=2000)
    extrap = (4.0 * st2.E - st1.E) / 3.0
    assert abs(extrap - 3.0) <= 1e-4
    assert st2.residual <= 1e-6
    assert st2.mu_gp == pytest.approx(st2.E, rel=1e-12)  # no interaction term
    # profile matches the Gaussian ground state on the grid
    r = st2.r
    gauss = np.exp(-0.5 * r * r)
    gauss *= math.sqrt(1.0 / (4.0 * math.pi * np.trapezoid(gauss ** 2 * r ** 2, r)))
    assert np.max(np.abs(st2.phi - gauss)) <= 1e-4


@pytest.mark.parametrize("n_part,a", [(10.0, 0.01), (100.0, 0.001)])
def test_scaling_law_energy(n_part, a):
    big = gp_minimize(HARM3, n_part, a, grid_points=1200)
    unit = gp_minimize(HARM3, 1.0, n_part * a, grid_points=1200)
    assert abs(big.E - n_part * unit.E) / abs(big.E) <= 1e-6


def test_scaling_law_minimizer():
    big = gp_minimize(HARM3, 10.0, 0.01, grid_points=1200)
    unit = gp_minimize(HARM3, 1.0, 0.1, grid_points=1200)
    r = big.r
    diff = big.phi - math.sqrt(10.0) * unit.phi
    l2 = math.sqrt(np.trapezoid(diff ** 2 * 4.0 * math.pi * r ** 2, r))
    assert l2 <= 1e-5


def test_residual_behaviour():
    st = gp_minimize(HARM3, 1.0, 0.05, grid_points=1000)
    assert gp_residual(st) <= 1e-9
    bump = np.exp(-0.5 * (st.r - 1.0) ** 2 / 0.04)
    perturbed = dataclasses.replace(st, phi=st.phi + 0.1 * bump * st.phi.max())
    assert gp_residual(perturbed) > 10.0 * gp_residual(st)


def test_energy_trace_monotone():
    st = gp_minimize(HARM3, 1.0, 2.0, grid_points=1000)
    assert st.phi.min() > 0.0


def test_normalization_invariant():
    for n_part in (1.0, 25.0):
        st = gp_minimize(HARM3, n_part, 0.3, grid_points=1500)
        r = st.r
        norm = np.trapezoid(st.phi ** 2 * 4.0 * math.pi * r ** 2, r)
        assert norm == pytest.approx(n_part, rel=1e-6)
        # chemical-potential identity holds by construction
        quartic = np.trapezoid(st.phi ** 4 * 4.0 * math.pi * r ** 2, r)
        rebuilt = st.E / st.N + 4.0 * math.pi * st.coupling / st.N * quartic
        assert st.mu_gp == pytest.approx(rebuilt, rel=1e-6)


def test_chemical_potential_derivative():
    # dE/dN at fixed a equals mu_gp
    n_part, a = 4.0, 0.05
    st = gp_minimize(HARM3, n_part, a, grid_points=1200)
    dn = 1e-3 * n_part
    up = gp_minimize(HARM3, n_part + dn, a, grid_points=1200)
    dn_state = gp_minimize(HARM3, n_part - dn, a, grid_points=1200)
    fd = (up.E - dn_state.E) / (2.0 * dn)
    assert abs(fd - st.mu_gp) / abs(fd) <= 1e-4


def test_chemical_potential_tf_trend():
    prev = math.inf
    for g in (10.0, 100.0, 1000.0):
        st = gp_minimize(HARM3, 1.0, g, grid_points=1200)
        tf = tf_solve(HARM3, 1.0, g)
        ratio = st.mu_gp / tf.mu_tf
        assert 1.0 < ratio < prev
        prev = ratio
    assert prev - 1.0 < 5e-3


def test_mean_density():
    box = TrapPotential(kind="box", dimension=3, box_side=2.0)
    st = gp_minimize(box, 5.0, 0.1)
    assert mean_density(st) == pytest.approx(5.0 / 8.0, rel=1e-12)
    # the a = 0 minimizer is the sigma = 1 Gaussian up to grid error
    st = gp_minimize(HARM3, 1.0, 0.0, grid_points=2000)
    assert mean_density(st) == pytest.approx((2.0 * math.pi) ** -1.5,
                                             rel=1e-4)
    # analytic-profile oracle: rho_bar = N (2 pi sigma^2)^(-3/2) exactly
    r = st.r
    sigma = 1.3
    phi = (math.pi * sigma ** 2) ** -0.75 * np.exp(-0.5 * (r / sigma) ** 2)
    gauss_state = dataclasses.replace(st, phi=phi, N=1.0)
    exact = (2.0 * math.pi * sigma ** 2) ** -1.5
    assert mean_density(gauss_state) == pytest.approx(exact, rel=1e-8)


@pytest.mark.parametrize("points", [500, 2000])
def test_mean_density_2d_gaussian_has_the_midpoint_error(points):
    # the 2D weights are the midpoint rule on 2 pi r phi^4, whose leading
    # error pi h^2 phi(0)^4 / 12 for a Gaussian of width sigma is
    # h^2/(6 sigma^2) of int phi^4 = 1/(2 pi sigma^2)
    st = gp_minimize(HARM2, 1.0, 0.0, grid_points=points)
    h = 2.0 * st.r[0]
    for sigma in (1.0, 1.3):
        phi = np.exp(-0.5 * (st.r / sigma) ** 2) / (math.sqrt(math.pi) * sigma)
        exact = 1.0 / (2.0 * math.pi * sigma ** 2)
        rel = (mean_density(dataclasses.replace(st, phi=phi)) - exact) / exact
        assert rel == pytest.approx(h ** 2 / (6.0 * sigma ** 2), rel=1e-3)


@pytest.mark.parametrize("trap", [HARM3, HARM2], ids=["3d", "2d"])
def test_mean_density_at_tiny_n_follows_the_scaling_law(trap):
    # phi^4 ~ N^2 = 1e-400 underflows; rho_bar(N, c) = N rho_bar(1, N c)
    tiny = gp_minimize(trap, 1e-200, 1.0, grid_points=500)
    unit = gp_minimize(trap, 1.0, 1e-200, grid_points=500)
    # compared at unit scale: approx's default abs 1e-12 would pass any value
    assert mean_density(tiny) / 1e-200 == pytest.approx(mean_density(unit),
                                                        rel=1e-12)


def test_box_mu_gp_at_tiny_n():
    # mu_gp = 8 pi mu_const c N / V; the interaction ~ N^2 underflows to 0
    box = TrapPotential(kind="box", dimension=3, box_side=2.0)
    st = gp_minimize(box, 1e-200, 1.0)
    assert st.interaction == 0.0
    assert st.mu_gp / 1e-200 == pytest.approx(math.pi, rel=1e-15)


def _tridiagonal_systems():
    """Seeded (dl, d, du, b): n from 2 to 8999, one vector or two columns,
    diagonally dominant or indefinite; 100 systems."""
    rng = np.random.default_rng(31)
    for n in (2, 3, 7, 16, 101, 500, 2000, 8000, 8999,
              *rng.integers(2, 9000, 16).tolist()):
        for shape in ((n,), (n, 2)):
            for dominant in (True, False):
                dl, du = rng.uniform(-1.0, 1.0, (2, n - 1))
                d = rng.uniform(2.0, 3.0, n) if dominant \
                    else rng.uniform(-1.0, 1.0, n)
                yield dl, d, du, rng.normal(size=shape)


def _solve_banded(dl, d, du, b):
    from scipy.linalg import solve_banded

    ab = np.zeros((3, d.size))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    return solve_banded((1, 1), ab, b)


def _raised(solve, *args):
    try:
        solve(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture(params=["numpy", "scipy"])
def dgtsv_binding(request, monkeypatch):
    """The GP solves' dgtsv bound to numpy's LAPACK, or to scipy's as on a
    numpy whose LAPACK is not scipy-openblas."""
    lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
    if request.param == "numpy" and lapack["name"] != "scipy-openblas":
        pytest.skip("numpy's LAPACK is not scipy-openblas")
    if request.param == "scipy":
        monkeypatch.setitem(lapack, "name", "accelerate")
    gp._numpy_dgtsv.cache_clear()
    assert (gp._numpy_dgtsv() is None) == (request.param == "scipy")
    yield request.param
    gp._numpy_dgtsv.cache_clear()


def test_dgtsv_matches_solve_banded_bitwise(dgtsv_binding):
    for dl, d, du, b in _tridiagonal_systems():
        kept = [v.copy() for v in (dl, d, du, b)]
        x = gp._dgtsv(dl, d, du, b)
        expected = _solve_banded(dl, d, du, b)
        assert x.shape == expected.shape and x.tobytes() == expected.tobytes()
        assert all(np.array_equal(v, w) for v, w in zip((dl, d, du, b), kept))
    # the same error class and message: two singular matrices, and a NaN or
    # an inf in each argument
    one, two, zero = np.ones(1), np.ones(2), np.zeros(2)
    nan, inf = np.array([math.nan]), np.array([math.inf, 1.0])
    for dl, d, du, b in ((one, two, one, two),
                         (zero, np.array([1.0, 0.0, 1.0]), zero, np.ones(3)),
                         (-inf[:1], two, one, two), (one, inf, -one, two),
                         (one, two, nan, two), (one, two, -one, -inf)):
        raised = _raised(gp._dgtsv, dl, d, du, b)
        assert raised is not None and raised == _raised(_solve_banded, dl, d,
                                                        du, b)


def test_tf_closed_forms_3d():
    n_part, a = 3.0, 0.4
    tf = tf_solve(HARM3, n_part, a)
    exact_mu = (15.0 * n_part * a) ** 0.4
    assert abs(tf.mu_tf - exact_mu) <= 1e-10 * exact_mu
    assert tf.support_radius == pytest.approx(math.sqrt(exact_mu), rel=1e-10)
    # E_tf = mu^(7/2) / (21 a) for the unit harmonic trap
    assert tf.E_tf == pytest.approx(exact_mu ** 3.5 / (21.0 * a), rel=1e-9)
    assert tf_chemical_identity_gap(tf) <= 1e-9
    # density nonnegative, zero outside the support
    rs = np.linspace(0.0, 2.0 * tf.support_radius, 101)
    dens = tf_density(tf, rs)
    assert np.all(dens >= 0.0)
    assert np.all(dens[rs > tf.support_radius] == 0.0)


def test_tf_closed_forms_2d():
    tf = tf_solve(HARM2, 1.0, 1.0)
    assert abs(tf.mu_tf - 4.0) <= 1e-10 * 4.0
    assert tf.E_tf == pytest.approx(8.0 / 3.0, rel=1e-9)
    assert tf_chemical_identity_gap(tf) <= 1e-9


def test_tf_scaling_law():
    vals = []
    for g in (1.0, 10.0, 100.0):
        tf = tf_solve(HARM3, 1.0, g)
        vals.append(tf.E_tf / tf_scaling(g, s=2.0, d=3))
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)
    assert vals[1] == pytest.approx(vals[2], rel=1e-9)
    # 2D exponent: s/(s+2)
    assert tf_scaling(16.0, s=2.0, d=2) == pytest.approx(4.0, rel=1e-14)


def test_gp_tf_limit_trend():
    rows = gp_tf_limit(HARM3, [10.0, 100.0, 1000.0], grid_points=1200)
    ratios = [row["ratio"] for row in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert all(r > 1.0 for r in ratios)
    l1s = [row["l1_rescaled"] for row in rows]
    assert all(b < a for a, b in zip(l1s, l1s[1:]))
    # tiny g: the gradient term dominates and the ratio is far above 1
    small = gp_tf_limit(HARM3, [0.01], grid_points=900)[0]["ratio"]
    assert small > 5.0


@pytest.mark.parametrize("trap", [HARM3, HARM2], ids=["3d", "2d"])
@pytest.mark.parametrize("gs, error, message", [
    ([0.0, 10.0], DomainError, "g must be positive"),
    ([-1.0, 10.0], NegativeCoupling, "coupling must be nonnegative")])
def test_gp_tf_limit_checks_every_g_before_a_solve(monkeypatch, trap, gs,
                                                    error, message):
    import bosegas.gp as gp_module

    def no_solve(*args, **kwargs):
        raise AssertionError("gp_minimize ran before the g check")

    monkeypatch.setattr(gp_module, "gp_minimize", no_solve)
    with pytest.raises(error, match=message):
        gp_tf_limit(trap, gs)


def test_grid_refinement_consistency():
    coarse = gp_minimize(HARM3, 1.0, 0.5, grid_points=700)
    fine = gp_minimize(HARM3, 1.0, 0.5, grid_points=1400)
    est_err = abs(coarse.E - fine.E)
    finest = gp_minimize(HARM3, 1.0, 0.5, grid_points=2800)
    assert abs(fine.E - finest.E) <= 4.0 * est_err


def test_power_trap_s4():
    # quartic trap: TF scaling exponent s/(s+3) = 4/7 and GP -> TF trend
    quartic = TrapPotential(kind="power-law", dimension=3,
                            homogeneity_degree=4.0, scale=1.0)
    tf1 = tf_solve(quartic, 1.0, 1.0)
    tf2 = tf_solve(quartic, 1.0, 100.0)
    assert tf2.E_tf / tf_scaling(100.0, s=4.0, d=3) \
        == pytest.approx(tf1.E_tf, rel=1e-9)
    assert tf_chemical_identity_gap(tf2) <= 1e-9
    rows = gp_tf_limit(quartic, [10.0, 300.0], grid_points=1200)
    assert 1.0 < rows[1]["ratio"] < rows[0]["ratio"]


def test_two_dim_gp():
    st = gp_minimize(HARM2, 1.0, 0.0, grid_points=1000)
    assert st.E == pytest.approx(2.0, abs=1e-4)
    sa = gp_minimize(HARM2, 7.0, 0.3, grid_points=900)
    sb = gp_minimize(HARM2, 1.0, 2.1, grid_points=900)
    assert abs(sa.E - 7.0 * sb.E) / abs(sa.E) <= 1e-6
    rows = gp_tf_limit(HARM2, [30.0, 300.0], grid_points=900)
    assert rows[1]["ratio"] < rows[0]["ratio"]
    assert rows[1]["ratio"] > 1.0


def test_export_profile(tmp_path):
    st = gp_minimize(HARM3, 1.0, 0.1, grid_points=800)
    path = tmp_path / "profile.csv"
    export_profile(st, str(path))
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any("trap" in ln for ln in meta)
    assert any("mu_gp" in ln for ln in meta)
    header_idx = len(meta)
    assert lines[header_idx] == "r,phi,rho"
    assert len(lines) == header_idx + 1 + st.r.size


def test_export_profile_reads_back_as_floats(tmp_path):
    st = gp_minimize(HARM2, 2.0, 0.1, mu_const=0.5, grid_points=300)
    path = tmp_path / "profile.csv"
    export_profile(st, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    meta = dict(row[0][2:].split(" = ") for row in rows if row[0].startswith("#"))
    for key in ("N", "coupling", "mu_const", "E", "mu_gp"):
        assert float(meta[key]) == getattr(st, key)
    body = rows[len(meta) + 1:]
    assert rows[len(meta)] == ["r", "phi", "rho"] and len(body) == st.r.size
    values = np.array([[float(cell) for cell in row] for row in body])
    assert np.array_equal(values[:, 0], st.r)
    assert np.array_equal(values[:, 1], st.phi)
    assert np.array_equal(values[:, 2], st.phi * st.phi)


# Energies computed by a pure normalized gradient flow, a reference
# independent of the Newton steps, as (trap, d, grid_points, N, coupling, E),
# on the shapes of the warm-sweeps benchmark.  Each pair of rows is one
# scaling pair (N, a) and (1, N a); the last two rows are at coupling 0.
_FLOW_ENERGIES = [
    ("harmonic", 3, 500, 7.0, 0.04285714285714286, 22.52555794879719),
    ("harmonic", 3, 500, 1.0, 0.3, 3.21793684982817),
    ("power:s=4", 3, 2000, 3.0, 1.0, 20.57897230964414),
    ("power:s=4", 3, 2000, 1.0, 3.0, 6.859657436548046),
    ("harmonic", 3, 8000, 40.0, 0.75, 353.79471623458346),
    ("harmonic", 3, 8000, 1.0, 30.0, 8.844867905864588),
    ("power:s=4", 2, 8000, 12.0, 25.0, 1697.4567690090619),
    ("power:s=4", 2, 8000, 1.0, 300.0, 141.45473075075517),
    ("harmonic", 2, 2000, 90.0, 33.333333333333336, 13148.55997425523),
    ("harmonic", 2, 2000, 1.0, 3000.0, 146.09511082505813),
    ("power:s=4", 2, 500, 2.5, 12000.0, 7591.317336597429),
    ("power:s=4", 2, 500, 1.0, 30000.0, 3036.526934638972),
    ("harmonic", 3, 500, 1.0, 0.0, 2.9998991501266783),
    ("power:s=4", 2, 2000, 1.0, 0.0, 2.3448190593067406),
]


@pytest.mark.parametrize("spec,d,points,n_part,coupling,energy",
                         _FLOW_ENERGIES)
def test_newton_matches_flow_energies(spec, d, points, n_part, coupling,
                                      energy):
    trap = parse_trap_potential(spec, dimension=d)
    st = gp_minimize(trap, n_part, coupling, grid_points=points)
    assert abs(st.E - energy) <= 1e-12 * abs(energy)
    assert st.residual <= 1e-9 and gp_residual(st) <= 1e-9
    assert st.phi.min() > 0.0
    assert 1 <= st.newton_steps <= 10
    assert st.newton_steps <= st.iterations


def test_box_state_takes_no_steps():
    box = TrapPotential(kind="box", dimension=2, box_side=3.0)
    st = gp_minimize(box, 4.0, 0.2)
    assert st.iterations == 0 and st.newton_steps == 0
    assert st.E == pytest.approx(4.0 * math.pi * 0.2 * 16.0 / 9.0, rel=1e-14)


def test_far_tail_may_underflow_to_zero():
    # at extreme coupling the box is far wider than the profile's decay, so
    # the tail underflows: phi >= 0, not phi > 0
    state = gp_minimize(HARM2, 1.0, 1e7, grid_points=2000)
    assert np.all(np.isfinite(state.phi))
    assert np.all(state.phi >= 0.0)
    assert state.residual <= _RESIDUAL_TOL


# Energies of the solver as it was when it worked in the caller's units, at
# trap scales and mu_const away from 1 where it converged (in 5 to 152
# passes), as (trap, d, mu_const, E) at N = 3, coupling 0.5 and 500 grid
# points.  The solve in trap units must reproduce them.
_SCALED_ENERGIES = [
    ("harmonic:scale=1e-06", 3, 1.0, 0.00911138734340291),
    ("harmonic:scale=0.001", 3, 1.0, 0.30315757707264274),
    ("harmonic:scale=1000.0", 3, 1.0, 553.6249670094171),
    ("harmonic:scale=1000000.0", 3, 1.0, 31267.104216948457),
    ("harmonic", 3, 1e-06, 0.03126710421694847),
    ("harmonic", 3, 1000000.0, 9111.38734340291),
    ("harmonic:scale=1e-06", 2, 1.0, 0.011774316708442655),
    ("harmonic:scale=0.001", 2, 1.0, 0.37233658690855476),
    ("harmonic:scale=1000.0", 2, 1.0, 372.336586908555),
    ("harmonic:scale=1000000.0", 2, 1.0, 11774.316708442653),
    ("harmonic", 2, 1e-06, 0.011774316708442659),
    ("harmonic", 2, 1000000.0, 11774.316708442655),
    ("power:s=4,scale=1e-06", 3, 1.0, 0.12084945621496682),
    ("power:s=4,scale=0.001", 3, 1.0, 1.340076645367253),
    ("power:s=4,scale=1000.0", 3, 1.0, 242.69098840568256),
    ("power:s=4,scale=1000000.0", 3, 1.0, 3987.7643205150525),
    ("power:s=4", 3, 1e-06, 0.0039877643205150515),
    ("power:s=4", 3, 1000000.0, 120849.45621496682),
    ("power:s=4,scale=1e-06", 2, 1.0, 0.16502457130125475),
    ("power:s=4,scale=0.001", 2, 1.0, 1.6502457130125474),
    ("power:s=4,scale=1000.0", 2, 1.0, 165.0245713012548),
    ("power:s=4,scale=1000000.0", 2, 1.0, 1650.2457130125472),
    ("power:s=4", 2, 1e-06, 0.0016502457130125473),
    ("power:s=4", 2, 1000000.0, 165024.57130125473),
]


@pytest.mark.parametrize("spec,d,mu_const,energy", _SCALED_ENERGIES)
def test_trap_units_keep_scaled_energies(spec, d, mu_const, energy):
    trap = parse_trap_potential(spec, dimension=d)
    st = gp_minimize(trap, 3.0, 0.5, mu_const=mu_const, grid_points=500)
    assert abs(st.E - energy) <= 1e-12 * abs(energy)
    assert st.iterations <= 15 and gp_residual(st) <= 1e-9


@pytest.mark.parametrize("d", [3, 2])
@pytest.mark.parametrize("spec,mu_const", [("harmonic:scale=1e-12", 1.0),
                                           ("power:s=4,scale=1e-12", 1.0),
                                           ("harmonic", 1e-12)])
def test_extreme_trap_scale_converges_in_few_passes(spec, d, mu_const):
    # absolute tolerances in the caller's units stall at these scales
    trap = parse_trap_potential(spec, dimension=d)
    st = gp_minimize(trap, 3.0, 0.5, mu_const=mu_const, grid_points=500)
    assert st.iterations <= 15 and gp_residual(st) <= 1e-9


def test_tf_closed_form_at_tiny_trap_scale():
    # 2D harmonic trap c r^2, N = 1, coupling 1: mu_tf = 4 sqrt(c)
    for scale in (1e-12, 1e12):
        trap = TrapPotential(kind="power-law", dimension=2, scale=scale)
        exact = 4.0 * math.sqrt(scale)
        assert abs(tf_solve(trap, 1.0, 1.0).mu_tf - exact) <= 1e-10 * exact


def test_large_grid_stops_at_its_round_off_floor():
    # at 10^5 nodes the residual cannot reach 1e-9; the gate rises to
    # 4 eps / h^2 in trap units and the solve ends in a few passes
    st = gp_minimize(HARM3, 1.0, 1.0, grid_points=100_000)
    h = st.r[0]
    assert _RESIDUAL_TOL < st.residual <= 4.0 * np.finfo(float).eps / h ** 2
    assert st.iterations <= 15
