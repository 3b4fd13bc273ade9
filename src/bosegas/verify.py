"""Invariant registry: each library property is checked once, here.

An entry's check takes a generator seeded with the entry's seed (None if
it draws nothing) and a sample size, and returns (observed, detail); it
passes when observed <= tolerance.  A failed structural condition (an
inequality, a monotone sequence, an error not raised) raises
AssertionError.  The test suite runs every entry at `n`; the CLI `verify`
command runs it at `quick_n`, a prefix of the same seeded sample, where
the full one is costly.  Repeated runs are identical.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from . import bogolubov, gp, homogeneous, numerics, potentials, scattering
from .errors import BoseGasError, NoLogAsymptote, NonIntegrableTail
from .numerics import Tolerances
from .potentials import PairPotential, TrapPotential

__all__ = ["Entry", "CheckResult", "REGISTRY", "run_entry", "run_all"]


class Entry(NamedTuple):
    suite: str
    name: str
    check: Callable
    tolerance: float
    n: Optional[int] = None           # None: the check has no sample to size
    seed: Optional[int] = None
    number: Optional[int] = None      # acceptance criterion number
    quick_n: Optional[int] = None     # the sample `verify` draws, if < n
    budget_s: Optional[float] = None  # the criterion's runtime budget


class CheckResult(NamedTuple):
    entry: Entry
    passed: bool
    observed: float
    detail: str


REGISTRY: List[Entry] = []


def _entry(suite, name, tolerance, **fields):
    """Register the decorated check as an entry of REGISTRY."""
    def register(check):
        REGISTRY.append(Entry(suite, name, check, tolerance, **fields))
        return check
    return register


def run_entry(entry: Entry, n: Optional[int]) -> CheckResult:
    """Run one entry on a sample of size n drawn from its seed."""
    rng = None if entry.seed is None else np.random.default_rng(entry.seed)
    try:
        observed, detail = entry.check(rng, n)
    except (AssertionError, BoseGasError) as exc:
        observed, detail = math.nan, f"{type(exc).__name__}: {exc}"
    observed = float(observed)
    return CheckResult(entry, observed <= entry.tolerance, observed, detail)


def run_all() -> List[CheckResult]:
    """Every entry at its quick sample, or at n where it has none."""
    return [run_entry(e, e.quick_n or e.n) for e in REGISTRY]


def _worst(*values) -> float:
    """The largest of values, NaN if any is NaN, so that a NaN anywhere in a
    sample fails the gate `observed <= tolerance` (builtin max drops it)."""
    return float(np.max(values))


_HARM3 = TrapPotential(kind="power-law", dimension=3)


# --- numerics ------------------------------------------------------------------

def _walk(rhs, initial, nodes, tol):
    """The states at an array of nodes, one integrate_ode span per gap."""
    states, nodes = [initial], nodes.tolist()
    for lo, hi in zip(nodes, nodes[1:]):
        states.append(numerics.integrate_ode(rhs, states[-1], (lo, hi), tol))
    return states


@_entry("numerics", "ode_linear", 1e-12, n=49)
def _ode_linear(rng, n):
    nodes = np.linspace(0.0, 3.0, n)
    states = _walk(lambda r, y: (y[1], 0.0), [0.0, 1.0], nodes, Tolerances())
    err = max(abs(y[0] - r) for y, r in zip(states, nodes))
    return err, f"max |u(r) - r| on {n} nodes"


@_entry("numerics", "ode_sinh", 1e-11, n=33)
def _ode_sinh(rng, n):
    states = _walk(lambda r, y: (y[1], y[0]), [0.0, 1.0],
                   np.linspace(0.0, 1.0, n), Tolerances())
    err = abs(states[-1][0] - math.sinh(1.0))
    return err, f"|u(1) - sinh(1)| on {n} nodes"


@_entry("numerics", "ode_step_halving", 4e-8, n=65)
def _ode_step_halving(rng, n):
    tol = Tolerances(abs_tol=1e-10, rel_tol=1e-8)

    def rhs(r, y):
        return (y[1], r * y[0])

    coarse = _walk(rhs, [1.0, 0.0], np.linspace(0.0, 4.0, n), tol)
    fine = _walk(rhs, [1.0, 0.0], np.linspace(0.0, 4.0, 2 * n - 1), tol)
    rel = abs(coarse[-1][0] - fine[-1][0]) / abs(fine[-1][0])
    return rel, f"{n} nodes against {2 * n - 1}"


@_entry("numerics", "quad_closed_forms", 1e-13)
def _quad_closed_forms(rng, n):
    e1 = abs(numerics.quad(lambda x: x * x, (0.0, 1.0), Tolerances())
             - 1.0 / 3.0)
    e2 = abs(numerics.quad(lambda x: math.exp(-x), (0.0, math.inf),
                           Tolerances()) - 1.0)
    return _worst(e1, e2), "x^2 on [0, 1] and exp(-x) on [0, inf)"


@_entry("numerics", "quad_linearity", 1e-10, n=10, seed=1)
def _quad_linearity(rng, n):
    tol = Tolerances()
    worst = 0.0
    for _ in range(n):
        c = rng.uniform(-1.0, 1.0, size=4)
        al, be = rng.uniform(-2.0, 2.0, size=2)

        def f(x):
            return c[0] * math.sin(3.0 * x) + c[1] * x ** 3

        def g(x):
            return c[2] * math.exp(-x) + c[3] * math.cos(x)

        combo = numerics.quad(lambda x: al * f(x) + be * g(x), (0.0, 2.0), tol)
        parts = al * numerics.quad(f, (0.0, 2.0), tol) \
            + be * numerics.quad(g, (0.0, 2.0), tol)
        worst = _worst(worst, abs(combo - parts))
    return worst, f"linearity defect over {n} combinations"


# --- potentials ------------------------------------------------------------------

@_entry("potentials", "properties", 1e-12, n=100, seed=9)
def _potential_properties(rng, n):
    p = PairPotential(kind="square-well", core_radius=1.0, strength=3.0)
    vals = [potentials.pair_value(p, r) for r in np.linspace(0.1, 2.0, 50)]
    assert all(b <= a for a, b in zip(vals, vals[1:])), "step not monotone"
    trap = TrapPotential(kind="power-law", homogeneity_degree=3.0, scale=2.0)
    worst = 0.0
    for _ in range(n):
        x = rng.uniform(-2, 2, size=3)
        lam = rng.uniform(0.1, 3.0)
        lhs = potentials.trap_value(trap, lam * x)
        rhs = lam ** 3 * potentials.trap_value(trap, x)
        worst = _worst(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    try:
        PairPotential(kind="tabulated", table=((1.0, -0.5),))
        raise AssertionError("negative table accepted")
    except BoseGasError:
        pass
    try:
        potentials.tail_cut_radius(
            PairPotential(kind="square-well", core_radius=1.0, strength=1.0,
                          tail=(1.0, 3.0)))
        raise AssertionError("p = 3 tail not flagged in 3D")
    except NonIntegrableTail:
        pass
    return worst, f"trap homogeneity on {n} points; p = 3 tail flagged"


# --- scattering ------------------------------------------------------------------

@_entry("scattering", "hard_sphere_scattering_length", 1e-8, number=1,
        budget_s=1.0)
def _hard_spheres(rng, n):
    worst = 0.0
    for r0 in (0.1, 1.0, 10.0):
        for mu in (0.5, 1.0, 2.0):
            sol = scattering.solve_zero_energy(
                PairPotential(kind="hard-core", core_radius=r0), mu)
            worst = _worst(worst, abs(sol.a - r0) / r0)
            s = scattering.kinetic_fraction(sol)
            assert abs(s - 1.0) <= 1e-6, s
    return worst, "|a - R0|/R0 over 9 spheres; s = 1"


@_entry("scattering", "square_well_oracle", 1e-8, n=100, seed=2024,
        number=2, quick_n=5)
def _square_wells(rng, n):
    worst = 0.0
    for _ in range(n):
        v0 = rng.uniform(0.05, 40.0)
        r0 = rng.uniform(0.3, 2.0)
        mu = rng.uniform(0.5, 2.0)
        p = PairPotential(kind="square-well", core_radius=r0, strength=v0)
        sol = scattering.solve_zero_energy(p, mu)
        kappa = math.sqrt(v0 / (2.0 * mu))
        exact = r0 * (1.0 - math.tanh(kappa * r0) / (kappa * r0))
        worst = _worst(worst, abs(sol.a - exact) / exact)
        assert 0.0 <= sol.a <= r0, (sol.a, r0)        # convexity of u
        assert 8.0 * math.pi * mu * sol.a \
            <= potentials.born_integral(p) * (1.0 + 1e-12), "Born bound"
    return worst, f"closed form over {n} wells; 0 <= a <= R0; Born bound"


@_entry("scattering", "energy_integral_identity", 1e-6, number=3)
def _energy_integral_identity(rng, n):
    worst = 0.0
    for p in (PairPotential(kind="hard-core", core_radius=1.0),
              PairPotential(kind="square-well", core_radius=1.0,
                            strength=5.0)):
        sol = scattering.solve_zero_energy(p, 1.0)
        limit = 8.0 * math.pi * sol.mu * sol.a
        prev = -math.inf
        for ratio in (2.0, 5.0, 20.0, 100.0):
            R = ratio * p.range_radius
            lhs = scattering.energy_integral(sol, R)
            worst = _worst(worst,
                           abs(lhs / (limit * (1.0 - sol.a / R)) - 1.0))
            assert prev - 1e-12 <= lhs <= limit * (1.0 + 1e-12), (R, lhs)
            prev = lhs
    return worst, "identity; nondecreasing in R toward 8 pi mu a"


@_entry("scattering", "two_dimensional_scattering", 1e-8, number=4)
def _two_dimensional(rng, n):
    sol = scattering.solve_zero_energy(
        PairPotential(kind="hard-core", core_radius=1.0, dimension=2), 1.0)
    assert scattering.kinetic_fraction(sol) == 1.0, "2D s is not 1"
    ratio = scattering.two_dim_energy_ratio(sol, math.exp(25.0))
    assert abs(ratio - 1.0) <= 2.0 / 25.0, ratio
    try:
        scattering.solve_zero_energy(
            PairPotential(kind="square-well", core_radius=1.0, strength=0.0,
                          dimension=2), 1.0)
        raise AssertionError("v = 0 did not raise NoLogAsymptote")
    except NoLogAsymptote:
        pass
    return abs(sol.a - 1.0), (f"hard disc |a - R0|; energy ratio "
                              f"{ratio:.4f}; v = 0 raised NoLogAsymptote")


@_entry("scattering", "kinetic_fraction", 1e-5, n=5, seed=55, number=5,
        quick_n=1)
def _kinetic_fraction(rng, n):
    hard = scattering.solve_zero_energy(
        PairPotential(kind="hard-core", core_radius=1.0), 1.0)
    s_hard = scattering.kinetic_fraction(hard)
    assert abs(s_hard - 1.0) <= 1e-6, s_hard
    worst = 0.0
    for _ in range(n):
        v0 = rng.uniform(0.5, 25.0)
        r0 = rng.uniform(0.4, 1.5)
        mu = rng.uniform(0.6, 1.8)
        p = PairPotential(kind="square-well", core_radius=r0, strength=v0)
        sol = scattering.solve_zero_energy(p, mu)
        s = scattering.kinetic_fraction(sol)
        assert 0.0 < s <= 1.0 + 1e-12, s
        # d(mu a)/dmu = s a; central difference
        dmu = 1e-3 * mu
        up = scattering.solve_zero_energy(p, mu + dmu)
        dn = scattering.solve_zero_energy(p, mu - dmu)
        fd = ((mu + dmu) * up.a - (mu - dmu) * dn.a) / (2.0 * dmu)
        worst = _worst(worst, abs(fd - s * sol.a) / abs(fd))
    return worst, f"d(mu a)/dmu = s a over {n} wells; hard-sphere s = 1"


# --- homogeneous ------------------------------------------------------------------

@_entry("homogeneous", "bound_sandwich_sweep", 1.0 + 1e-12, n=50, number=12)
def _bound_sandwich(rng, n):
    ys = np.geomspace(1e-20, 1e-4, n).tolist()
    sandwich = [homogeneous.bound_sandwich(y, 8.9) for y in ys]
    assert all(lower <= 1.0 <= upper for upper, _, lower, _ in sandwich), \
        sandwich
    # the cell ratio is 0 where the ansatz fails
    return _worst(0.0, *(cell for *_, cell in sandwich)), \
        f"max cell ratio; lower <= 1 <= upper on {n} points"


@_entry("homogeneous", "variance_substitution", 1e-12)
def _variance_substitution(rng, n):
    # recompute the Temple factor of the cell formula from its ingredients:
    # <W> upper bound, <W^2> <= 3n/(R^3-R0^3) <W>, gap eps pi mu / ell^2
    p = homogeneous.DiluteParams(rho=1.0, a=1e-5, mu=1.7)
    cell = homogeneous.cell_construction(p)
    nc, ell = cell.n, cell.ell
    shell = cell.R ** 3 - cell.R0 ** 3
    w_mean = 4.0 * math.pi * nc * (nc - 1.0) / ell ** 3
    w2_mean = 3.0 * nc / shell * w_mean
    gap = cell.eps * math.pi * p.mu / ell ** 2
    temple_factor = 1.0 - p.mu * p.a * w2_mean \
        / (w_mean * (gap - p.mu * p.a * w_mean))
    direct = (1.0 - cell.eps) * (1.0 - 2.0 * cell.R / ell) ** 3 \
        / (1.0 + 4.0 * math.pi / 3.0 * (nc / ell ** 3) * (1.0 - 1.0 / nc)
           * shell) * temple_factor
    rel = abs(cell.k - direct) / abs(cell.k)
    return rel, "Temple factor rebuilt from <W>, <W^2> and the gap"


@_entry("homogeneous", "temple_property", 1e-12, n=1000, seed=13, number=13,
        quick_n=100)
def _temple(rng, n):
    worst = 0.0
    tested = 0
    while tested < n:
        m = rng.normal(size=(5, 5))
        h = 0.5 * (m + m.T)
        evals, evecs = np.linalg.eigh(h)
        v = evecs[:, 0] + 0.1 * rng.normal(size=5)
        v /= np.linalg.norm(v)
        h_mean = float(v @ h @ v)
        if evals[1] <= h_mean:
            continue
        bound = homogeneous.temple_bound(h_mean, float(v @ h @ h @ v),
                                         float(evals[1]))
        worst = _worst(worst, bound - evals[0])
        tested += 1
    return worst, f"bound minus ground energy over {n} random 5x5 states"


@_entry("homogeneous", "log_quadratic_gap_battery", 1e-14, n=10_000, seed=14,
        number=14)
def _log_quadratic_gap(rng, n):
    x = rng.uniform(1e-12, 1.0 - 1e-12, n)
    b = rng.uniform(1e-12, 1.0 - 1e-12, n)
    k = rng.uniform(1.0, 10.0, n)
    gap = float(np.min(list(map(homogeneous.log_quadratic_gap, x.tolist(),
                                b.tolist(), k.tolist()))))
    return _worst(0.0, -gap), f"min gap {gap:.2e} over {n} triples"


@_entry("homogeneous", "occupation_minimization", 1e-6, n=20, seed=15,
        number=15, quick_n=5)
def _occupation(rng, n):
    for k in range(1, 21):
        val = homogeneous.occupation_minimum(float(k), 4 * k)
        assert val == float(k * (k - 1)), (k, val)
    worst = 0.0
    for _ in range(n):
        k = float(rng.integers(2, 20))
        p = int(rng.integers(2, int(4 * k)))
        ts = np.linspace(1.0, k, 200001)
        oracle = float(np.min(ts * (ts - 1.0) + 0.5 * (k - ts) * (p - 1.0)))
        worst = _worst(worst,
                       abs(homogeneous.occupation_minimum(k, p) - oracle))
    return worst, f"brute force over {n} cases with p < 4k; p = 4k exact"


@_entry("homogeneous", "cell_factor_monotonicity", 1e-12, n=10_000, number=17)
def _cell_factor_monotone(rng, n):
    worst = 0.0
    for y in (1e-12, 1e-14, 1e-16):
        a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
        cell = homogeneous.cell_construction(
            homogeneous.DiluteParams(rho=1.0, a=a, mu=1.0))
        ks = np.array([homogeneous.cell_energy_factor(cell, count)
                       for count in range(2, n + 1)])
        worst = _worst(worst, np.max(np.diff(ks)))
        positive = ks[ks > 0.0]
        assert np.all(np.diff(positive) < 0.0), f"K not decreasing at Y={y}"
    return worst, f"max rise of K over n = 2..{n}; decreasing while positive"


@_entry("homogeneous", "two_dim_bounds", 5.0 / abs(math.log(1e-12)))
def _schick_consistency(rng, n):
    p = homogeneous.DiluteParams(rho=1.0, a=math.sqrt(1e-12), mu=1.0, d=2)
    upper, lower = homogeneous.schick_2d_bounds(p)
    lead = homogeneous.leading_energy(p)
    assert lower <= lead <= upper, (lower, lead, upper)
    dev = abs(homogeneous.intermediate_2d_upper(p) / lead - 1.0)
    return dev, "intermediate-b bound against leading term; bracket holds"


# --- gp ----------------------------------------------------------------------------

@_entry("gp", "gp_linear_limit", 1e-4, n=1000, number=8)
def _gp_linear_limit(rng, n):
    st1 = gp.gp_minimize(_HARM3, 1.0, 0.0, grid_points=n)
    st2 = gp.gp_minimize(_HARM3, 1.0, 0.0, grid_points=2 * n)
    extrap = (4.0 * st2.E - st1.E) / 3.0
    resid = gp.gp_residual(st2)
    assert resid <= 1e-6, resid
    return abs(extrap - 3.0), f"E/N -> {extrap:.8f}; residual {resid:.2e}"


@_entry("gp", "gp_scaling_law", 1e-6, n=1500, number=9)
def _gp_scaling(rng, n):
    worst = 0.0
    for n_part, a in ((10.0, 0.01), (100.0, 0.001)):
        big = gp.gp_minimize(_HARM3, n_part, a, grid_points=n)
        unit = gp.gp_minimize(_HARM3, 1.0, n_part * a, grid_points=n)
        worst = _worst(worst, abs(big.E - n_part * unit.E) / abs(big.E))
    return worst, "E(N, a) = N E(1, Na) at two (N, a)"


@_entry("gp", "gp_chemical_identity", 1e-13, n=500)
def _gp_chemical_identity(rng, n):
    worst = 0.0
    for spec, d, (n_part, c, mu) in itertools.product(
            ("harmonic:scale=3.7", "power:s=4,scale=0.3"), (3, 2),
            ((1.0, 0.5, 2.5), (7.3, 1.1, 0.4), (30.0, 300.0, 1.7),
             (1.0, 1e4, 0.8))):
        st = gp.gp_minimize(potentials.parse_trap_potential(spec, d), n_part,
                            c, mu_const=mu, grid_points=n)
        rebuilt = st.E / n_part + 4.0 * math.pi * mu * c * gp.mean_density(st)
        worst = _worst(worst, abs(st.mu_gp - rebuilt) / st.mu_gp)
    return worst, "mu_gp = E/N + 4 pi mu_const c rho_bar, 8 solves a dimension"


@_entry("gp", "tf_closed_forms", 1e-10, number=10)
def _tf_closed_forms(rng, n):
    tf3 = gp.tf_solve(_HARM3, N=2.0, a=0.5)
    rel3 = abs(tf3.mu_tf - 15.0 ** 0.4) / 15.0 ** 0.4
    tf2 = gp.tf_solve(TrapPotential(kind="power-law", dimension=2), N=1.0, a=1.0)
    rel2 = abs(tf2.mu_tf - 4.0) / 4.0
    gap = _worst(gp.tf_chemical_identity_gap(tf3),
                 gp.tf_chemical_identity_gap(tf2))
    assert gap <= 1e-9, f"chemical identity gap {gap:.2e}"
    return _worst(rel3, rel2), f"mu_tf in 3D and 2D; identity gap {gap:.2e}"


# the gate is strict, ratio - 1 < 0.05: the largest float below 0.05
@_entry("gp", "gp_tf_limit", math.nextafter(0.05, 0.0), n=2000, number=11,
        budget_s=60.0)
def _gp_tf_limit(rng, n):
    rows = gp.gp_tf_limit(_HARM3, [10.0, 100.0, 1000.0, 10000.0],
                          grid_points=n)
    ratios = [float(row["ratio"]) for row in rows]
    l1 = [row["l1_rescaled"] for row in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:])), ratios
    assert all(r > 1.0 for r in ratios), ratios
    assert all(b < a for a, b in zip(l1, l1[1:])), l1
    return ratios[-1] - 1.0, f"ratios {[round(r, 5) for r in ratios]}"


# --- bogolubov ----------------------------------------------------------------------

@_entry("bogolubov", "pair_identities", 1e-12, n=1000, seed=2)
def _pair_identities(rng, n):
    worst = 0.0
    for _ in range(n):
        a_val = rng.uniform(0.1, 10.0)
        b_val = a_val * rng.uniform(1e-3, 1.0)
        mode = bogolubov.BogolubovMode(a_val, b_val)
        worst = _worst(worst,
                       abs(mode.D * (1 + mode.alpha ** 2) - a_val),
                       abs(2.0 * mode.D * mode.alpha - b_val))
        assert 0.0 < mode.alpha <= 1.0, mode
        assert mode.ground_bound_coeff >= 0.0, mode
    return worst, f"completed-square identities over {n} pairs"


@_entry("bogolubov", "foldy_integral_identity", 1e-9, number=6, budget_s=1.0)
def _foldy_identity(rng, n):
    numeric = bogolubov.foldy_dimensionless_integral()
    closed = bogolubov.foldy_gamma_closed_form()
    rel = abs(numeric / closed - 1.0)
    rep = bogolubov.foldy_report(3.7)
    assert abs(rep["numeric_over_closed"] - 1.0) <= 1e-8, rep
    assert abs(rep["closed_over_displayed"] - 2.0) <= 1e-12, rep
    return rel, "quadrature against Gamma closed form; convention ratio 2"


@_entry("bogolubov", "bogolubov_oracle", 1e-6, n=50, seed=777, number=7,
        quick_n=10)
def _fock_oracle(rng, n):
    e = bogolubov.fock_oracle(5.0, 3.0, 60)
    assert abs(e + 1.0) <= 1e-6, e
    worst = 0.0
    for _ in range(n):
        a_val = rng.uniform(0.5, 10.0)
        b_val = a_val * rng.uniform(0.05, 0.95)
        exact = math.sqrt(a_val ** 2 - b_val ** 2) - a_val
        e = bogolubov.fock_oracle(a_val, b_val, 200)
        worst = _worst(worst, abs(e - exact))
        assert exact - 1e-9 <= e <= 0.0, (e, exact)   # never below the bound
    return worst, f"|E - exact| over {n} pairs; (5, 3) -> -1"


def _golden_min(f, a, b, iters: int = 200):
    """The minimizer of a unimodal f on [a, b] by golden-section search."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@_entry("bogolubov", "two_component_scaling", 1e-6, number=16)
def _two_component(rng, n):
    res = bogolubov.two_component_scaling([10.0 ** e for e in range(3, 10)])
    e_exp, l_exp = res["energy_exponent"], res["radius_exponent"]
    assert all(p.E_opt < 0.0 for p in res["points"]), "E_opt >= 0"
    for p in res["points"]:     # the closed-form minimizer, found numerically
        found = _golden_min(lambda L: p.N / L ** 2 - p.N ** 1.25 * L ** -0.75,
                            0.2 * p.L_opt, 5.0 * p.L_opt)
        assert abs(found - p.L_opt) <= 1e-6 * p.L_opt, (p, found)
    return _worst(abs(e_exp - 1.4), abs(l_exp + 0.2)), \
        f"exponents {e_exp:.8f}, {l_exp:.8f}"


@_entry("bogolubov", "kinetic_cutoff", 1e-30, n=1000, seed=77)
def _cutoff_bounds(rng, n):
    worst = 0.0
    for v in rng.uniform(0.0, 1e4, n):
        f = bogolubov.kinetic_cutoff(float(v), t=0.2, C_univ=1.0)
        assert f >= 0.0, (v, f)
        worst = _worst(worst, f - (1.0 - 0.2) * v)
    return worst, f"0 <= F(v) <= (1 - C t) v on {n} samples"
