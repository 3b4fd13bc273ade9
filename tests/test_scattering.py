"""Zero-energy scattering tests against independently derived closed forms.

Square-well oracle (3D), derived by matching the interior solution of
-2 mu u'' + V0 u = 0 (u = sinh(kappa r), kappa = sqrt(V0/2mu)) to the exterior
line u = c (r - a) at R0:   a = R0 (1 - tanh(kappa R0)/(kappa R0)).
The 2D analogue matches I0(kappa r) to c ln(r/a):
    a = R0 exp(-I0(kappa R0) / (kappa R0 I1(kappa R0))).
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import i0, i1

from bosegas import scattering
from bosegas.errors import NonFiniteRhs
from bosegas.numerics import Tolerances
from bosegas.potentials import (HARD_CORE, PairPotential, born_integral,
                                pair_piece, parse_pair_potential)
from bosegas.scattering import (energy_integral, kinetic_fraction,
                                solve_zero_energy, two_dim_energy_ratio)


def square_well_a(v0, r0, mu):
    kappa = math.sqrt(v0 / (2.0 * mu))
    return r0 * (1.0 - math.tanh(kappa * r0) / (kappa * r0))


def disc_well_a(v0, r0, mu):
    kappa = math.sqrt(v0 / (2.0 * mu))
    return r0 * math.exp(-i0(kappa * r0) / (kappa * r0 * i1(kappa * r0)))


@pytest.mark.parametrize("r0", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_hard_sphere(r0, mu):
    sol = solve_zero_energy(PairPotential(kind="hard-core", core_radius=r0), mu)
    assert abs(sol.a - r0) <= 1e-8 * r0
    assert abs(kinetic_fraction(sol) - 1.0) <= 1e-6


@pytest.mark.parametrize("r0", [1e-320, 1e-300, 0.1, 1.0, 10.0, 1e200, 1e308])
def test_pure_hard_core_is_exact(r0):
    # u = r - R0 outside the core: a = R0 and s = 1 with no rounding, from
    # subnormal radii (where R0^2 underflows) up to the largest floats
    sol = solve_zero_energy(PairPotential(kind="hard-core", core_radius=r0), 1.0)
    assert sol.a == r0
    assert sol.s == 1.0 and kinetic_fraction(sol) == 1.0


def test_free_case_3d():
    sol = solve_zero_energy(
        PairPotential(kind="square-well", core_radius=1.0, strength=0.0), 1.0)
    assert abs(sol.a) <= 1e-12


@pytest.mark.parametrize("v0", [400.0, 4000.0])
@pytest.mark.parametrize("r0", [0.3, 2.0])
@pytest.mark.parametrize("mu", [0.5, 2.0])
def test_stiff_square_well_oracle(v0, r0, mu):
    sol = solve_zero_energy(
        PairPotential(kind="square-well", core_radius=r0, strength=v0), mu)
    exact = square_well_a(v0, r0, mu)
    assert abs(sol.a - exact) <= 1e-8 * exact


def test_overflowing_stiff_well_fails_fast(monkeypatch):
    # u ~ sinh(kappa r) with kappa = 707 overflows inside the well; the solver
    # must stop with a named error, not a RuntimeWarning or a long stall.
    # The stall used to cost about 380k potential evaluations; now about 26k.
    # Each right-hand side reads v through its segment's piece: count those.
    calls = []

    def counted(*args):
        piece = pair_piece(*args)

        def counted_piece(r):
            calls.append(None)
            return piece(r)
        return counted_piece

    monkeypatch.setattr(scattering, "pair_piece", counted)
    p = PairPotential(kind="square-well", core_radius=1.0, strength=1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteRhs):
            solve_zero_energy(p, 1.0)
    assert len(calls) < 40_000


def test_soft_sphere_born_limit():
    # a -> Born/(8 pi mu) as V0 -> 0 (perturbative limit of the closed form)
    r0, mu = 1.0, 1.0
    deviations = []
    for v0 in (1e-2, 1e-4):
        p = parse_pair_potential(f"softsphere:r0={r0},v0={v0}")
        sol = solve_zero_energy(p, mu)
        born_a = born_integral(p) / (8.0 * math.pi * mu)
        deviations.append(abs(sol.a / born_a - 1.0))
    assert deviations[0] <= 5e-3 and deviations[1] <= 5e-5
    assert deviations[1] < deviations[0]


def test_monotone_in_strength():
    r0, mu = 1.0, 1.0
    prev = -1.0
    for v0 in (0.1, 0.5, 2.0, 8.0, 32.0, 128.0):
        sol = solve_zero_energy(
            PairPotential(kind="square-well", core_radius=r0, strength=v0), mu)
        assert sol.a >= prev
        prev = sol.a


def test_born_inequality():
    rng = np.random.default_rng(12)
    for _ in range(10):
        v0 = rng.uniform(0.1, 30.0)
        r0 = rng.uniform(0.3, 1.5)
        mu = rng.uniform(0.5, 2.0)
        p = PairPotential(kind="square-well", core_radius=r0, strength=v0)
        sol = solve_zero_energy(p, mu)
        assert 8.0 * math.pi * mu * sol.a <= born_integral(p) * (1.0 + 1e-12)


def test_born_integral_values():
    p = PairPotential(kind="square-well", core_radius=1.0, strength=3.0)
    assert born_integral(p) == pytest.approx(4.0 * math.pi, rel=1e-13)
    assert born_integral(PairPotential(kind="hard-core", core_radius=1.0)) \
        == HARD_CORE


def test_energy_integral_hard_core():
    sol = solve_zero_energy(PairPotential(kind="hard-core", core_radius=1.0),
                            1.0)
    assert energy_integral(sol, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-12)
    # R -> infinity limit approaches 8 pi mu a from below
    vals = [energy_integral(sol, R) for R in (2.0, 10.0, 1e3, 1e6)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(8.0 * math.pi, rel=1e-5)
    assert all(v <= 8.0 * math.pi * (1 + 1e-12) for v in vals)


def test_energy_integral_identity_square_well():
    sol = solve_zero_energy(
        PairPotential(kind="square-well", core_radius=1.0, strength=5.0), 1.0)
    for ratio in (2.0, 7.0, 100.0):
        R = ratio * 1.0
        lhs = energy_integral(sol, R)
        rhs = 8.0 * math.pi * sol.mu * sol.a * (1.0 - sol.a / R)
        assert abs(lhs / rhs - 1.0) <= 1e-6


def test_kinetic_fraction_range_and_derivative():
    rng = np.random.default_rng(13)
    for _ in range(6):
        v0 = rng.uniform(0.5, 25.0)
        r0 = rng.uniform(0.4, 1.5)
        mu = rng.uniform(0.6, 1.8)
        p = PairPotential(kind="square-well", core_radius=r0, strength=v0)
        sol = solve_zero_energy(p, mu)
        s = kinetic_fraction(sol)
        assert 0.0 < s <= 1.0 + 1e-12
        # d(mu a)/dmu = s a by the derivative identity; central difference
        dmu = 1e-3 * mu
        up = solve_zero_energy(p, mu + dmu)
        dn = solve_zero_energy(p, mu - dmu)
        fd = ((mu + dmu) * up.a - (mu - dmu) * dn.a) / (2.0 * dmu)
        assert abs(fd - s * sol.a) / abs(fd) <= 1e-5


def test_2d_square_well_vs_bessel_oracle():
    rng = np.random.default_rng(14)
    for _ in range(8):
        v0 = rng.uniform(0.2, 20.0)
        r0 = rng.uniform(0.4, 1.5)
        mu = rng.uniform(0.5, 2.0)
        p = PairPotential(kind="square-well", core_radius=r0, strength=v0,
                          dimension=2)
        sol = solve_zero_energy(p, mu)
        exact = disc_well_a(v0, r0, mu)
        assert abs(sol.a - exact) <= 1e-8 * exact


def test_2d_kinetic_dominance():
    # the 2D energy share of the kinetic term approaches 1 like 1/ln(R/a)
    p = PairPotential(kind="square-well", core_radius=1.0, strength=6.0,
                      dimension=2)
    sol = solve_zero_energy(p, 1.0)
    for log_scale in (15.0, 25.0):
        ratio = two_dim_energy_ratio(sol, sol.a * math.exp(log_scale))
        assert abs(ratio - 1.0) <= 2.0 / log_scale


def test_tail_potential_and_nonintegrable():
    p = PairPotential(kind="square-well", core_radius=1.0, strength=2.0,
                      tail=(0.3, 6.0))
    sol = solve_zero_energy(p, 1.0)
    assert 0.0 < sol.a < 1.2


@pytest.mark.parametrize("r0, strength, mu, tail", [
    (1.0, 20.0, 1.0, (0.3, 6.0)),
    (1.0, 2.0, 0.5, (0.3, 6.0)),
    (1.1, 1.5, 1.5, (1.25, 4.35)),    # the tail is cut near r = 1e8
])
def test_step_plus_tail_well(r0, strength, mu, tail):
    # a step followed by a tail cut far out used to end in StepSizeUnderflow
    # at the step edge, or in cancellation when a was read off at the cut
    p = PairPotential(kind="square-well", core_radius=r0, strength=strength,
                      tail=tail)
    sol = solve_zero_energy(p, mu)
    assert sol.a >= square_well_a(strength, r0, mu)    # a is monotone in v
    assert 8.0 * math.pi * mu * sol.a <= born_integral(p)


def test_zero_table_keeps_its_result():
    # v = 0 identically: a = 0 in 3D, and no logarithmic asymptote in 2D
    table = ((0.5, 0.0), (1.0, 0.0))
    sol = solve_zero_energy(PairPotential(kind="tabulated", table=table), 1.0)
    assert sol.a == 0.0 and math.isnan(sol.s)
    assert math.copysign(1.0, sol.a) == 1.0


def test_tailed_disc_matches_tight_solve():
    # psi ~ chi ln r grows out to the tail's cut radius near 3.6e10; in that
    # state the per-step error scale grew with it and a came out 8.5e-11
    # (relative) off, against the gate's 1e-10
    p = PairPotential(kind="hard-core", dimension=2, core_radius=0.520865,
                      tail=(1.74258, 3.04403))
    mu = 1.87159
    a = solve_zero_energy(p, mu).a
    ref = solve_zero_energy(p, mu, tol=Tolerances(abs_tol=1e-15, rel_tol=1e-13)).a
    assert abs(a - ref) <= 1e-11 * ref


def test_2d_energy_ratio_inside_a_tail_cut_radius():
    # inside the cut radius the ratio comes from a rerun out to R, which
    # meets the reported run at the cut radius
    p = PairPotential(kind="hard-core", dimension=2, core_radius=1.0,
                      tail=(0.5, 4.0))
    sol = solve_zero_energy(p, 1.0)
    cut = sol.end_radius
    assert 0.0 < two_dim_energy_ratio(sol, 2.0) < 1.0
    inside = two_dim_energy_ratio(sol, math.nextafter(cut, 0.0))
    at_cut = two_dim_energy_ratio(sol, cut)
    assert abs(inside - at_cut) <= math.ulp(at_cut)


@pytest.mark.parametrize("tail", [None, (1.0, 4.0)])
def test_energy_integral_at_the_hard_core_radius_is_zero(tail):
    p = PairPotential(kind="hard-core", core_radius=1.0, tail=tail)
    assert energy_integral(solve_zero_energy(p, 1.0), 1.0) == 0.0


@pytest.mark.parametrize("dimension", [2, 3])
def test_a_zero_tail_gives_the_tailless_bits(dimension):
    # a tail with coefficient 0 is stored as None: no ZeroDivisionError from
    # the Born integral and no float-range error from the solve, even at
    # p = d, where a nonzero tail would not be integrable
    hard = solve_zero_energy(PairPotential(
        kind="hard-core", core_radius=1.5, dimension=dimension,
        tail=(0.0, 4.0)), 1.0)
    assert hard.a == 1.5 and hard.s == 1.0 and hard.end_radius == 1.5
    well = dict(kind="square-well", core_radius=1.0, strength=1.0,
                dimension=dimension)
    bare = solve_zero_energy(PairPotential(**well), 1.0)
    zero = solve_zero_energy(PairPotential(**well, tail=(0.0, dimension)), 1.0)
    fields = ("a", "s", "slope", "end_radius", "kin_interior", "pot_interior")
    assert [float(getattr(zero, f)).hex() for f in fields] \
        == [float(getattr(bare, f)).hex() for f in fields]
    closed = (square_well_a if dimension == 3 else disc_well_a)(1.0, 1.0, 1.0)
    assert abs(zero.a - closed) <= 1e-8 * closed


# float.hex of (a, s, kin_interior, pot_interior, slope, end_radius) for
# one potential of each kind the solver branches on, fixed when the
# integration path was last restructured: any change to the bits of the
# integration, the quadrature components included, fails here by name
_GOLDEN = {
    "well3d": (dict(kind="square-well", core_radius=1.0, strength=5.0), 1.0,
               "0x1.acf77924dab3ep-2", "0x1.f84355ba7790bp-2",
               "0x1.94cbf7e27ed7bp-3", "0x1.5d4432d6768f0p+1",
               "0x1.443d16d8abd93p+1", "0x1.0000000000000p+0"),
    "stiff3d": (dict(kind="square-well", core_radius=1.0, strength=1800.0),
                1.0, "0x1.eeeeeeeeeef1cp-1", "0x1.f72c234f72c9ep-1",
                "0x1.782dde94e2deap+78", "0x1.930c930d3b8f4p+79",
                "0x1.370470aecab46p+42", "0x1.0000000000000p+0"),
    "table3d": (dict(kind="tabulated",
                     table=((0.4, 6.0), (0.8, 2.5), (1.2, 0.7))), 0.8,
                "0x1.af13c0b6510b4p-2", "0x1.e5ac1cc57bd73p-2",
                "0x1.78939ed4bc24bp-2", "0x1.40a83d2ba39bap+1",
                "0x1.5475745c77216p+1", "0x1.3333333333333p+0"),
    "hardcore_tail3d": (dict(kind="hard-core", core_radius=1.0,
                             tail=(0.5, 6.0)), 1.0,
                        "0x1.021e95d0d446fp+0", "0x1.fbd2b9355fb0ep-1",
                        "0x1.06613cec0e834p+0", "0x1.145622db0793ap-6",
                        "0x1.03360c8bb9b59p+0", "0x1.588ef57e9f2cbp+11"),
    "well2d": (dict(kind="square-well", dimension=2, core_radius=1.0,
                    strength=6.0), 1.0,
               "0x1.a46272d96ae5ap-2", "0x1.0000000000000p+0",
               "0x1.d6f30a75cdf8cp-1", "0x1.92de5cded3ca7p+2",
               "0x1.11958995e3472p+1", "0x1.0000000000000p+0"),
    "disc_tail2d": (dict(kind="hard-core", dimension=2, core_radius=1.0,
                         tail=(1.0, 4.0)), 1.0,
                    "0x1.1f7caca031527p+0", "0x1.0000000000000p+0",
                    "0x1.e3c86c41ddb57p+3", "0x1.19245cfa41629p-2",
                    "0x1.2103955dfca3fp+0", "0x1.5a2eb14aa5ae9p+17"),
    # a well whose power tail runs on as a second segment in w, and in 2D
    # the switch from psi to q = psi - chi ln r where the tail attaches
    "welltail3d": (dict(kind="square-well", core_radius=1.0, strength=5.0,
                        tail=(0.5, 6.0)), 1.0,
                   "0x1.d46506e3bb472p-2", "0x1.f5ed7dc48eaacp-2",
                   "0x1.8f9959fee5605p+0", "0x1.9fc70914cc83ap+1",
                   "0x1.51cab583aba31p+1", "0x1.588ef57e9f2cbp+11"),
    "welltail2d": (dict(kind="square-well", dimension=2, core_radius=1.0,
                        strength=6.0, tail=(1.0, 4.0)), 1.0,
                   "0x1.42c262ba61c12p-1", "0x1.0000000000000p+0",
                   "0x1.93887b3309dd1p+6", "0x1.81dc2a9c06ed2p+3",
                   "0x1.75a514e053506p+1", "0x1.5a2eb14aa5ae9p+17"),
}


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_scattering_golden_bits(name):
    kwargs, mu, *golden = _GOLDEN[name]
    sol = solve_zero_energy(PairPotential(**kwargs), mu)
    assert [float(x).hex() for x in (sol.a, sol.s, sol.kin_interior,
                                      sol.pot_interior, sol.slope,
                                      sol.end_radius)] == golden


def test_energy_diagnostics_name_a_nan_radius_and_reach_their_limits():
    # R = nan is no radius (a row of tests/test_errors.py); R = inf gives
    # each diagnostic's limit: 8 pi mu a in 3D, a kinetic share of 1 in 2D
    sol3 = solve_zero_energy(
        PairPotential(kind="square-well", core_radius=1.0, strength=1.0), 1.0)
    sol2 = solve_zero_energy(
        PairPotential(kind="square-well", dimension=2, core_radius=1.0,
                      strength=1.0), 1.0)
    assert energy_integral(sol3, math.inf) == 3.492014152252422
    assert two_dim_energy_ratio(sol2, math.inf) == 1.0
    assert two_dim_energy_ratio(sol2, 1e300) < 1.0
