"""Invariant battery: one fast, deterministic check per library property.

Each check returns (suite, name, passed, detail); the CLI `verify` command
renders them as report rows and fails (exit 3) if any check fails.  All
randomness is seeded, so repeated runs are identical.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple

import numpy as np

from . import bogolubov, gp, homogeneous, numerics, potentials, scattering
from .errors import BoseGasError, NoLogAsymptote
from .numerics import RadialGrid, Tolerances

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str


def _check(suite, name, fn: Callable[[], str]) -> CheckResult:
    try:
        detail = fn()
        return CheckResult(suite, name, True, detail)
    except AssertionError as exc:
        return CheckResult(suite, name, False, f"assertion: {exc}")
    except BoseGasError as exc:
        return CheckResult(suite, name, False,
                           f"{type(exc).__name__}: {exc}")


# --- numerics ------------------------------------------------------------------

def _ode_linear():
    tol = Tolerances()
    grid = RadialGrid.uniform(0.0, 1.0, 33)
    traj = numerics.integrate_ode(lambda r, y: np.array([y[1], 0.0]),
                                  [0.0, 1.0], grid.nodes, tol)
    err = float(np.max(np.abs(traj[:, 0] - grid.nodes)))
    assert err <= 1e-12, err
    return f"max error {err:.2e}"


def _ode_sinh():
    tol = Tolerances()
    grid = RadialGrid.uniform(0.0, 1.0, 33)
    traj = numerics.integrate_ode(lambda r, y: np.array([y[1], y[0]]),
                                  [0.0, 1.0], grid.nodes, tol)
    err = abs(traj[-1, 0] - math.sinh(1.0))
    assert err <= 1e-10, err
    return f"u(1)-sinh(1) = {err:.2e}"


def _ode_step_halving():
    tol = Tolerances(abs_tol=1e-10, rel_tol=1e-8)
    grid = RadialGrid.uniform(0.0, 4.0, 65)

    def rhs(r, y):
        return np.array([y[1], r * y[0]])

    coarse = numerics.integrate_ode(rhs, [1.0, 0.0], grid.nodes, tol)
    fine = numerics.integrate_ode(rhs, [1.0, 0.0], grid.refined().nodes, tol)
    rel = abs(coarse[-1, 0] - fine[-1, 0]) / abs(fine[-1, 0])
    assert rel <= 4.0 * tol.rel_tol, rel
    return f"step-halving agreement {rel:.2e}"


def _quad_basics():
    tol = Tolerances(abs_tol=1e-13, rel_tol=1e-12)
    e1 = abs(numerics.quad(lambda x: x * x, (0.0, 1.0), tol) - 1.0 / 3.0)
    e2 = abs(numerics.quad(lambda x: math.exp(-x), (0.0, math.inf), tol) - 1.0)
    assert e1 <= 1e-12 and e2 <= 1e-12, (e1, e2)
    return f"poly {e1:.1e}, exp tail {e2:.1e}"


def _quad_linearity():
    tol = Tolerances(abs_tol=1e-12, rel_tol=1e-11)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(5):
        c = rng.uniform(-1, 1, size=4)
        al, be = rng.uniform(-2, 2, size=2)

        def f(x):
            return c[0] * math.sin(x) + c[1] * x * x
        def g(x):
            return c[2] * math.exp(-x * x) + c[3] * x

        lhs = numerics.quad(lambda x: al * f(x) + be * g(x), (0.0, 2.0), tol)
        rhs = al * numerics.quad(f, (0.0, 2.0), tol) \
            + be * numerics.quad(g, (0.0, 2.0), tol)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10, worst
    return f"max linearity defect {worst:.1e}"


def _root_and_gamma():
    tol = Tolerances()
    x = numerics.find_root(lambda t: t * t - 2.0, (1.0, 2.0), tol)
    assert 1.0 <= x <= 2.0 and abs(x - math.sqrt(2.0)) <= 1e-12
    rng = np.random.default_rng(5)
    worst = 0.0
    for t in rng.uniform(0.5, 5.0, size=100):
        rel = abs(numerics.gamma_fn(t + 1.0) - t * numerics.gamma_fn(t)) \
            / numerics.gamma_fn(t + 1.0)
        worst = max(worst, rel)
    assert worst <= 1e-11, worst
    return f"gamma functional eq defect {worst:.1e}"


# --- potentials ------------------------------------------------------------------

def _potential_properties():
    p = potentials.PairPotential(kind="square-well", core_radius=1.0,
                                 strength=3.0)
    rs = np.linspace(0.1, 2.0, 50)
    vals = [potentials.pair_value(p, r) for r in rs]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    trap = potentials.TrapPotential(kind="power-law", homogeneity_degree=3.0,
                                    scale=2.0)
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, size=3)
        lam = rng.uniform(0.1, 3.0)
        lhs = potentials.trap_value(trap, lam * x)
        rhs = lam ** 3 * potentials.trap_value(trap, x)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    assert worst <= 1e-12, worst
    try:
        potentials.PairPotential(kind="tabulated", table=((1.0, -0.5),))
        raise AssertionError("negative table accepted")
    except BoseGasError:
        pass
    rep = potentials.tail_integrability(
        potentials.PairPotential(kind="square-well", core_radius=1.0,
                                 strength=1.0, tail=(1.0, 3.0)))
    assert not rep.integrable
    return f"homogeneity defect {worst:.1e}; p=3 tail flagged"


# --- scattering ------------------------------------------------------------------

def _hard_spheres():
    worst = 0.0
    for r0 in (0.1, 1.0, 10.0):
        for mu in (0.5, 1.0, 2.0):
            p = potentials.PairPotential(kind="hard-core", core_radius=r0)
            sol = scattering.solve_zero_energy(p, mu)
            worst = max(worst, abs(sol.a - r0) / r0)
            assert abs(scattering.kinetic_fraction(sol) - 1.0) <= 1e-6
    assert worst <= 1e-8, worst
    return f"max |a-R0|/R0 = {worst:.1e}, s = 1"


def _square_wells():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        v0 = rng.uniform(0.1, 40.0)
        r0 = rng.uniform(0.3, 2.0)
        mu = rng.uniform(0.5, 2.0)
        p = potentials.PairPotential(kind="square-well", core_radius=r0,
                                     strength=v0)
        sol = scattering.solve_zero_energy(p, mu)
        kappa = math.sqrt(v0 / (2.0 * mu))
        exact = r0 * (1.0 - math.tanh(kappa * r0) / (kappa * r0))
        worst = max(worst, abs(sol.a - exact) / exact)
        s = scattering.kinetic_fraction(sol)
        assert 0.0 < s <= 1.0 + 1e-12, s
        assert 8.0 * math.pi * mu * sol.a <= scattering.born_integral(p) \
            * (1.0 + 1e-12)
    assert worst <= 1e-8, worst
    return f"max closed-form deviation {worst:.1e}"


def _energy_integral_identity():
    p = potentials.PairPotential(kind="square-well", core_radius=1.0,
                                 strength=5.0)
    sol = scattering.solve_zero_energy(p, 1.0)
    worst = 0.0
    prev = -math.inf
    for ratio in (2.0, 5.0, 20.0, 100.0):
        R = ratio * p.range_radius
        lhs = scattering.energy_integral(sol, R)
        rhs = 8.0 * math.pi * sol.mu * sol.a * (1.0 - sol.a / R)
        worst = max(worst, abs(lhs / rhs - 1.0))
        assert lhs >= prev - 1e-12, "not nondecreasing in R"
        assert lhs <= 8.0 * math.pi * sol.mu * sol.a * (1.0 + 1e-12)
        prev = lhs
    assert worst <= 1e-6, worst
    return f"identity defect {worst:.1e}; nondecreasing toward 8 pi mu a"


def _two_dim_scattering():
    p = potentials.PairPotential(kind="hard-core", core_radius=1.0,
                                 dimension=2)
    sol = scattering.solve_zero_energy(p, 1.0)
    assert abs(sol.a - 1.0) <= 1e-8
    assert scattering.kinetic_fraction(sol) == 1.0
    ratio = scattering.two_dim_energy_ratio(sol, math.exp(25.0))
    assert abs(ratio - 1.0) <= 2.0 / 25.0, ratio
    try:
        scattering.solve_zero_energy(
            potentials.PairPotential(kind="square-well", core_radius=1.0,
                                     strength=0.0, dimension=2), 1.0)
        raise AssertionError("v = 0 did not raise NoLogAsymptote")
    except NoLogAsymptote:
        pass
    return f"hard disc a = 1; energy ratio {ratio:.4f} -> 1"


def _dmua_fd():
    p = potentials.PairPotential(kind="square-well", core_radius=1.0,
                                 strength=8.0)
    mu, dmu = 1.0, 1e-3
    sol = scattering.solve_zero_energy(p, mu)
    up = scattering.solve_zero_energy(p, mu + dmu)
    dn = scattering.solve_zero_energy(p, mu - dmu)
    fd = ((mu + dmu) * up.a - (mu - dmu) * dn.a) / (2.0 * dmu)
    rel = abs(fd - sol.s * sol.a) / abs(fd)
    assert rel <= 1e-5, rel
    return f"d(mu a)/dmu finite-difference match {rel:.1e}"


# --- homogeneous ------------------------------------------------------------------

def _bound_sandwich():
    ys = np.geomspace(1e-20, 1e-4, 20)
    upper = homogeneous.dyson_upper_ratio(ys)
    lower = np.array([homogeneous.dilute_lower_ratio(y).value for y in ys])
    assert np.all(lower <= 1.0) and np.all(upper >= 1.0)
    return "lower <= 1 <= upper on 20 log-spaced Y"


def _variance_substitution():
    # recompute the Temple factor of the cell formula from its ingredients:
    # <W> upper bound, <W^2> <= 3n/(R^3-R0^3) <W>, gap eps pi mu / ell^2
    p = homogeneous.DiluteParams(rho=1.0, a=1e-5, mu=1.7)
    params = homogeneous.cell_params_from_ansatz(p)
    n, ell = params.n, params.ell
    shell = params.R ** 3 - params.R0 ** 3
    w_mean = 4.0 * math.pi * n * (n - 1.0) / ell ** 3
    w2_mean = 3.0 * n / shell * w_mean
    gap = params.eps * math.pi * p.mu / ell ** 2
    temple_factor = 1.0 - p.mu * p.a * w2_mean \
        / (w_mean * (gap - p.mu * p.a * w_mean))
    k = homogeneous.cell_energy_factor(params, a=p.a, d=3)
    direct = (1.0 - params.eps) * (1.0 - 2.0 * params.R / ell) ** 3 \
        / (1.0 + 4.0 * math.pi / 3.0 * (n / ell ** 3) * (1.0 - 1.0 / n)
           * shell) * temple_factor
    rel = abs(k - direct) / abs(k)
    assert rel <= 1e-12, rel
    return f"Temple-factor reassembly matches to {rel:.1e}"


def _xb_battery():
    rng = np.random.default_rng(14)
    x = rng.uniform(1e-9, 1.0 - 1e-9, 1000)
    b = rng.uniform(1e-9, 1.0 - 1e-9, 1000)
    k = rng.uniform(1.0, 10.0, 1000)
    gap = homogeneous.log_quadratic_gap(x, b, k)
    assert float(np.min(gap)) >= -1e-14
    return f"min gap {float(np.min(gap)):.2e} over 1000 triples"


def _occupation():
    for k in range(1, 21):
        val = homogeneous.occupation_minimum(float(k), 4 * k)
        assert val == float(k * (k - 1)), (k, val)
    return "k(k-1) exact for p = 4k, k = 1..20"


def _cell_k_monotone():
    p = homogeneous.DiluteParams(rho=1.0, a=2e-5, mu=1.0)
    params = homogeneous.cell_params_from_ansatz(p)
    ns = np.arange(2, 2001, dtype=float)
    ks = homogeneous.cell_energy_factor(params, a=p.a, n=ns)
    assert np.all(np.diff(ks) <= 1e-12)
    return f"K(2) = {ks[0]:.4f} down to K(2000) = {ks[-1]:.4f}"


def _temple_vs_eigs():
    rng = np.random.default_rng(33)
    for _ in range(100):
        m = rng.normal(size=(5, 5))
        h = 0.5 * (m + m.T)
        evals, evecs = np.linalg.eigh(h)
        v = evecs[:, 0] + 0.05 * rng.normal(size=5)
        v /= np.linalg.norm(v)
        h_mean = float(v @ h @ v)
        if evals[1] <= h_mean:
            continue
        bound = homogeneous.temple_bound(h_mean, float(v @ h @ h @ v),
                                         float(evals[1]))
        assert bound <= evals[0] + 1e-12, (bound, evals[0])
    return "bound below lowest eigenvalue on random 5x5 states"


def _schick_consistency():
    p = homogeneous.DiluteParams(rho=1.0, a=math.sqrt(1e-12), mu=1.0, d=2)
    upper, lower = homogeneous.schick_2d_bounds(p)
    lead = homogeneous.leading_energy(p).value
    assert lower.value <= lead <= upper.value
    inter = homogeneous.intermediate_2d_upper(p)
    log = abs(math.log(p.rho_a2))
    assert abs(inter / lead - 1.0) <= 5.0 / log
    return f"bracket holds; intermediate-b bound within {abs(inter/lead-1):.3f}"


# --- gp ----------------------------------------------------------------------------

def _gp_linear_limit():
    trap = potentials.TrapPotential(kind="harmonic", dimension=3)
    st1 = gp.gp_minimize(trap, 1.0, 0.0, grid_points=900)
    st2 = gp.gp_minimize(trap, 1.0, 0.0, grid_points=1800)
    extrap = (4.0 * st2.E - st1.E) / 3.0
    assert abs(extrap - 3.0) <= 1e-4, extrap
    assert gp.gp_residual(st2) <= 1e-6
    return f"E/N extrapolates to {extrap:.8f}; residual {st2.residual:.1e}"


def _gp_scaling():
    trap = potentials.TrapPotential(kind="harmonic", dimension=3)
    sa = gp.gp_minimize(trap, 10.0, 0.01, grid_points=900)
    sb = gp.gp_minimize(trap, 1.0, 0.1, grid_points=900)
    rel = abs(sa.E - 10.0 * sb.E) / abs(sa.E)
    assert rel <= 1e-6, rel
    return f"E(N,a) = N E(1,Na) to {rel:.1e}"


def _tf_closed_forms():
    trap3 = potentials.TrapPotential(kind="harmonic", dimension=3)
    tf3 = gp.tf_solve(trap3, N=2.0, a=0.5)
    rel3 = abs(tf3.mu_tf - 15.0 ** 0.4) / 15.0 ** 0.4
    trap2 = potentials.TrapPotential(kind="harmonic", dimension=2)
    tf2 = gp.tf_solve(trap2, N=1.0, a=1.0)
    rel2 = abs(tf2.mu_tf - 4.0) / 4.0
    gap = gp.tf_chemical_identity_gap(tf3)
    assert rel3 <= 1e-10 and rel2 <= 1e-10 and gap <= 1e-9, (rel3, rel2, gap)
    return f"mu_tf deviations {rel3:.1e} (3D), {rel2:.1e} (2D); identity {gap:.1e}"


def _gp_tf_trend():
    trap = potentials.TrapPotential(kind="harmonic", dimension=3)
    rows = gp.gp_tf_limit(trap, [10.0, 100.0], grid_points=900)
    r1, r2 = rows[0]["ratio"], rows[1]["ratio"]
    assert r1 > r2 > 1.0
    assert rows[1]["l1_rescaled"] < rows[0]["l1_rescaled"]
    return f"ratio {r1:.4f} -> {r2:.4f}; L1 distance shrinks"


# --- bogolubov ----------------------------------------------------------------------

def _pair_identities():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        a_val = rng.uniform(0.1, 10.0)
        b_val = a_val * rng.uniform(1e-3, 1.0)
        mode = bogolubov.pair_mode_bound(a_val, b_val)
        worst = max(worst,
                    abs(mode.D * (1 + mode.alpha ** 2) - a_val),
                    abs(2.0 * mode.D * mode.alpha - b_val))
        assert 0.0 < mode.alpha <= 1.0
        assert mode.ground_bound_coeff >= 0.0
    assert worst <= 1e-12, worst
    return f"completed-square identities to {worst:.1e}"


def _fock_sandwich():
    e = bogolubov.fock_oracle(5.0, 3.0, 60)
    assert abs(e + 1.0) <= 1e-6, e
    rng = np.random.default_rng(8)
    for _ in range(10):
        a_val = rng.uniform(0.5, 8.0)
        b_val = a_val * rng.uniform(0.05, 0.9)
        exact = math.sqrt(a_val ** 2 - b_val ** 2) - a_val
        got = bogolubov.fock_oracle(a_val, b_val, 160)
        assert exact - 1e-9 <= got <= 0.0, (got, exact)
    return "(5,3) -> -1; oracle within [exact, 0] on 10 random pairs"


def _foldy_identity():
    numeric = bogolubov.foldy_dimensionless_integral()
    closed = bogolubov.foldy_gamma_closed_form()
    rel = abs(numeric / closed - 1.0)
    assert rel <= 1e-9, rel
    rep = bogolubov.foldy_report(3.7)
    assert abs(rep["numeric_over_closed"] - 1.0) <= 1e-8
    assert abs(rep["closed_over_displayed"] - 2.0) <= 1e-12
    return f"integral-vs-Gamma defect {rel:.1e}; convention ratio 2 exact"


def _two_component():
    res = bogolubov.two_component_scaling([1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9])
    e_exp, l_exp = res["energy_exponent"], res["radius_exponent"]
    assert abs(e_exp - 1.4) <= 1e-6 and abs(l_exp + 0.2) <= 1e-6
    assert all(p.E_opt < 0.0 for p in res["points"])
    return f"exponents {e_exp:.8f}, {l_exp:.8f}"


def _cutoff_bounds():
    params = bogolubov.FoldyParams(rho=2.0, t=0.2, C_univ=1.0)
    rng = np.random.default_rng(77)
    for v in rng.uniform(0.0, 1e4, 1000):
        f = bogolubov.kinetic_cutoff(float(v), params)
        assert 0.0 <= f <= (1.0 - 0.2) * v + 1e-30
    return "0 <= F(v) <= (1 - C t) v on 1000 samples"


ALL_CHECKS = [
    ("numerics", "ode_linear", _ode_linear),
    ("numerics", "ode_sinh", _ode_sinh),
    ("numerics", "ode_step_halving", _ode_step_halving),
    ("numerics", "quad_basics", _quad_basics),
    ("numerics", "quad_linearity", _quad_linearity),
    ("numerics", "root_and_gamma", _root_and_gamma),
    ("potentials", "properties", _potential_properties),
    ("scattering", "hard_spheres", _hard_spheres),
    ("scattering", "square_wells", _square_wells),
    ("scattering", "energy_integral", _energy_integral_identity),
    ("scattering", "two_dimensional", _two_dim_scattering),
    ("scattering", "dmua_finite_difference", _dmua_fd),
    ("homogeneous", "bound_sandwich", _bound_sandwich),
    ("homogeneous", "variance_substitution", _variance_substitution),
    ("homogeneous", "log_quadratic_gap", _xb_battery),
    ("homogeneous", "occupation_minimum", _occupation),
    ("homogeneous", "cell_factor_monotone", _cell_k_monotone),
    ("homogeneous", "temple_vs_eigensolver", _temple_vs_eigs),
    ("homogeneous", "two_dim_bounds", _schick_consistency),
    ("gp", "linear_limit", _gp_linear_limit),
    ("gp", "scaling_identity", _gp_scaling),
    ("gp", "tf_closed_forms", _tf_closed_forms),
    ("gp", "tf_trend", _gp_tf_trend),
    ("bogolubov", "pair_identities", _pair_identities),
    ("bogolubov", "fock_sandwich", _fock_sandwich),
    ("bogolubov", "foldy_identity", _foldy_identity),
    ("bogolubov", "two_component", _two_component),
    ("bogolubov", "kinetic_cutoff", _cutoff_bounds),
]


def run_all() -> List[CheckResult]:
    return [_check(suite, name, fn) for suite, name, fn in ALL_CHECKS]
