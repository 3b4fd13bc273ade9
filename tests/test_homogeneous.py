"""Homogeneous-gas bounds and Temple/cell-method machinery tests."""

import inspect
import math
import struct
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, linprog

from bosegas.errors import AnsatzInfeasible, DomainError
from bosegas.homogeneous import (ANSATZ_EXPONENTS, DYSON_LOWER_RATIO,
                                 DiluteParams, bound_sandwich,
                                 cell_construction, cell_energy_factor,
                                 cell_lower_bound, intermediate_2d_upper,
                                 leading_energy, lhy_energy, log_quadratic_gap,
                                 occupation_minimum, schick_2d_bounds,
                                 temple_bound)


def test_dilute_params_derived_fields():
    p = DiluteParams(rho=2.0, a=0.1, mu=1.5)
    assert p.y == pytest.approx(4.0 * math.pi * 2.0 * 0.001 / 3.0, rel=1e-14)
    p2 = DiluteParams(rho=0.5, a=0.2, mu=1.0, d=2)
    assert p2.rho_a2 == pytest.approx(0.02, rel=1e-14)


def test_leading_energy():
    p = DiluteParams(rho=1.0, a=0.01, mu=1.0)
    assert leading_energy(p) == pytest.approx(0.04 * math.pi, rel=1e-14)
    # a -> 0 sends the leading term to 0
    tiny = DiluteParams(rho=1.0, a=1e-300, mu=1.0)
    assert leading_energy(tiny) <= 1e-290
    p2 = DiluteParams(rho=1.0, a=math.exp(-5.0), mu=1.0, d=2)
    assert leading_energy(p2) == pytest.approx(0.4 * math.pi, rel=1e-14)


def test_lhy_energy():
    # ratio to the leading term tends to 1 from above as rho a^3 -> 0
    ratios = []
    for rho in (1e-6, 1e-10):
        p = DiluteParams(rho=rho, a=1.0, mu=1.0)
        ratios.append(lhy_energy(p) / leading_energy(p))
    assert ratios[1] < ratios[0] and abs(ratios[1] - 1.0) < 1e-4
    # coefficient 128/(15 sqrt pi) cross-checked by independent arithmetic:
    # 128 / (15 * 1.7724538509055159) = 128 / 26.586807763582738
    assert 128.0 / (15.0 * math.sqrt(math.pi)) == pytest.approx(
        128.0 / 26.586807763582738, rel=1e-13)
    assert 128.0 / (15.0 * math.sqrt(math.pi)) == pytest.approx(
        4.814417779607521, rel=1e-12)
    # frozen plug-in value at rho a^3 = 1e-6, mu = a = 1 (direct arithmetic)
    p = DiluteParams(rho=1e-6, a=1.0, mu=1.0)
    assert lhy_energy(p) == pytest.approx(1.2623458240023944e-05, rel=1e-12)


def test_dyson_upper_ratio():
    assert bound_sandwich(1e-18)[0] == pytest.approx(1.0, abs=1e-5)
    # frozen plug-in values, independently evaluated
    upper, improved, *_ = bound_sandwich(1e-3)
    assert upper == pytest.approx(2.112820625756837, rel=1e-13)
    assert improved == pytest.approx(1.5096784026825179, rel=1e-13)


def test_lower_ratio_and_crossover():
    assert bound_sandwich(1e-60)[2] == pytest.approx(1.0, abs=1e-2)
    assert bound_sandwich(1e-3)[2] < 0.0
    # crossover against the hard-sphere lower constant 1/(10 sqrt 2),
    # verified with SciPy's root finder
    y_star = ((1.0 - DYSON_LOWER_RATIO) / 8.9) ** 17
    root = brentq(lambda y: bound_sandwich(y)[2] - DYSON_LOWER_RATIO,
                  y_star * 0.1, min(1.0, y_star * 10.0))
    assert root == pytest.approx(y_star, rel=1e-6)


Y_GRID = np.geomspace(1e-14, 0.9, 3001).tolist()


def test_upper_and_lower_ratios_are_python_floats():
    for c in (8.9, 2.0):      # C = 2 moves the validity edge onto the grid
        sandwiches = [bound_sandwich(y, c) for y in Y_GRID]
        assert all(type(v) is float for sw in sandwiches for v in sw)
    lower = [sw[2] for sw in sandwiches]
    assert 0 < sum(v > 0.0 for v in lower) < len(Y_GRID)
    # the cube root goes through the C library's pow, as Y ** (1/3)
    upper, improved, *_ = bound_sandwich(1e-3)
    assert upper.hex() == "0x1.0e70e800f84dbp+1"
    assert improved.hex() == "0x1.827a48a6ffba1p+0"


# below Y_GRID down to subnormal Y, where every cell gives a bound: the
# sandwich reads one error term, and cell_lower_bound all five
Y_DEEP = np.geomspace(1e-320, 1e-14, 3001).tolist()


def test_cell_ratio_array_matches_cell_lower_bound_bitwise():
    # the ratio over a Y grid, one Y per call, against the bound it reads
    def matched(grid):
        scalars = []
        for y in grid:
            a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
            try:
                value = cell_lower_bound(DiluteParams(rho=1.0, a=a, mu=1.0))
                scalars.append(value / (4.0 * math.pi * a))
            except AnsatzInfeasible:
                scalars.append(0.0)
        ratios = [bound_sandwich(y)[3] for y in grid]
        assert all(type(v) is float for v in ratios)
        assert list(map(float.hex, ratios)) == list(map(float.hex, scalars))
        return ratios

    ratios = matched(Y_GRID)
    assert 0 < sum(v > 0.0 for v in ratios) < len(Y_GRID)
    assert all(v > 0.0 for v in matched(Y_DEEP))


def _unit_cell(y):
    """cell_construction at rho = 1, a = (3Y/(4 pi))^(1/3), or the message
    of the error it raises."""
    a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
    try:
        return cell_construction(DiluteParams(rho=1.0, a=a))
    except (AnsatzInfeasible, DomainError) as exc:
        return str(exc)


def _unit_ratio(y):
    """cell_lower_bound / (4 pi a) at the unit-scale instantiation of Y, 0
    where it raises."""
    a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
    try:
        return cell_lower_bound(DiluteParams(rho=1.0, a=a)) / (4.0 * math.pi * a)
    except (AnsatzInfeasible, DomainError):
        return 0.0


def _void_by_occupancy(y):
    """Whether the unit-scale cell of Y fails the ansatz or has occupancy
    >= 1."""
    cell = _unit_cell(y)
    return isinstance(cell, str) or cell.terms["occupancy"] >= 1.0


def _flip(pred, lo, hi):
    """Adjacent positive floats y0 < y1 in [lo, hi] with pred(y0) !=
    pred(y1), by bisection on the bit patterns, which order positive
    floats as their values."""
    def bits(x):
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def value(i):
        return struct.unpack("<d", struct.pack("<q", i))[0]
    i, j = bits(lo), bits(hi)
    assert pred(lo) != pred(hi)
    while j - i > 1:
        m = (i + j) // 2
        if pred(value(m)) == pred(lo):
            i = m
        else:
            j = m
    return value(i), value(j)


def test_cell_ratio_at_each_exit_matches_cell_lower_bound_bitwise():
    # the sweep stops at the first failed ansatz condition or error term;
    # at the adjacent pair of Y where each exit flips, which a grid steps
    # over, its ratio is the construction's own, bit for bit
    def fails(prefix):
        return lambda y: str(_unit_cell(y)).startswith(prefix)

    def no_cell(y):
        return isinstance(_unit_cell(y), str)

    top = math.nextafter(1.0, 0.0)
    # per exit: a predicate that holds past it, a range where it flips,
    # and how cell_construction begins its text on the side past it
    exits = {
        # eps > 0 fails where a^3 underflows; DiluteParams raises first
        "eps > 0": (no_cell, 5e-324, 1e-300, "rho, a, mu must"),
        "eps < 1": (fails("eps = "), 0.5, top, "eps = 1.0 outside"),
        "R0 < R < ell/2": (fails("ansatz violates"), 1e-6, 0.5,
                           "ansatz violates"),
        "n >= 2": (no_cell, 1e-6, 0.5, "fewer than 2"),
        "occupancy < 1": (_void_by_occupancy, 1e-14, 1e-6, "CellConstruction"),
    }
    flips = {}
    for way, (pred, lo, hi, name) in exits.items():
        y0, y1 = flips[way] = _flip(pred, lo, hi)
        assert math.nextafter(y0, 1.0) == y1, way
        for y in (y0, y1):
            assert bound_sandwich(y)[3].hex() == _unit_ratio(y).hex(), (way, y)
        assert str(_unit_cell(y1 if pred(y1) else y0)).startswith(name), way
    y0, y1 = flips["occupancy < 1"]
    assert bound_sandwich(y0)[3] > 0.0 == bound_sandwich(y1)[3]

    # the other exits never come first in this ansatz.  With s = Y^(1/17),
    # n = 3/(pi s), and n >= 2 caps s at 3/(2 pi):
    #   eps < 1 and 2R/ell < 1 are ansatz conditions themselves;
    #   local_density = 4 s^2 <= 9/pi^2 < 1;
    #   temple = (9/pi^2) s / D <= 0.55, D = 1 - (12/pi) s^3 (3/pi - s);
    #   the Temple denominator, s D / ell^2, is positive for all 0 < s < 1
    last = flips["n >= 2"][0]
    for y in np.geomspace(1e-14, last, 50).tolist() + [last]:
        cell = _unit_cell(y)
        s = y ** (1.0 / 17.0)
        d = 1.0 - 12.0 / math.pi * s ** 3 * (3.0 / math.pi - s)
        assert cell.terms["local_density"] == pytest.approx(4.0 * s * s)
        assert cell.terms["temple"] == pytest.approx(9.0 / math.pi ** 2 * s / d)
        assert cell.eps / cell.ell ** 2 - 4.0 * cell.R0 / cell.ell ** 3 \
            * cell.n * (cell.n - 1.0) == pytest.approx(s * d / cell.ell ** 2)
    assert cell.terms["local_density"] == pytest.approx(9.0 / math.pi ** 2)
    assert cell.terms["local_density"] < 1.0
    assert cell.terms["temple"] < 0.55
    assert min(1.0 - 12.0 / math.pi * s ** 3 * (3.0 / math.pi - s)
               for s in np.linspace(0.0, 1.0, 1001).tolist()) > 0.6


def test_void_cell_shortcut_edge_matches_cell_lower_bound_bitwise(monkeypatch):
    # past a Y just above (3/(4 pi))^17 the sweep builds no cell, since
    # occupancy = (4 pi/3) Y^(1/17) >= 1 there; at the adjacent pair of Y
    # where that starts, and across a band around the threshold, its ratio
    # is still the construction's own, bit for bit
    from bosegas import homogeneous
    built, real = [], homogeneous._cell

    def spy(rho, a):
        built.append(a)
        return real(rho, a)
    monkeypatch.setattr(homogeneous, "_cell", spy)

    def skipped(y):
        built.clear()
        bound_sandwich(y)
        return not built

    threshold = (3.0 / (4.0 * math.pi)) ** 17
    y0, y1 = _flip(skipped, 1e-14, 1e-6)
    assert math.nextafter(y0, 1.0) == y1 and skipped(y1)
    for y in (y0, y1):
        assert bound_sandwich(y)[3].hex() == _unit_ratio(y).hex(), y
    v0, v1 = _flip(_void_by_occupancy, 1e-14, 1e-6)
    assert (y0 - v1) / (y1 - y0) >= 1000       # in ulps of Y, one binade
    band = np.linspace(-1e-6, 1e-6, 2000) * threshold + threshold
    for y in band.tolist():
        assert bound_sandwich(y)[3].hex() == _unit_ratio(y).hex(), y

    # the derivation: ell^3 = (3/(4 pi)) Y^(1 - 3 beta) at rho = 1, and
    # beta = 6/17
    assert 3.0 * ANSATZ_EXPONENTS[1] - 1.0 == pytest.approx(1.0 / 17.0)
    for y in np.geomspace(1e-14, v0, 50).tolist():
        assert _unit_cell(y).terms["occupancy"] \
            == pytest.approx(4.0 * math.pi / 3.0 * y ** (1.0 / 17.0))


def test_cell_and_lower_ratio_golden_bits():
    # pinned bit for bit at non-unit rho and mu, where the unit-scale
    # ratio-against-bound test does not look
    for (rho, a, mu), bits in (((2.5, 1e-6, 0.7), "0x1.58faa233d54bep-18"),
                               ((1e-3, 3e-7, 1.9), "0x1.f511eea0b6ad2p-29"),
                               ((37.0, 1e-40, 2.2e-3),
                                "0x1.1d24a9a7eef19p-133")):
        value = cell_lower_bound(DiluteParams(rho=rho, a=a, mu=mu))
        assert value.hex() == bits
    *_, lower, cell = bound_sandwich(1e-20)
    assert cell.hex() == "0x1.9ea3f241d5d54p-2"
    assert lower.hex() == "0x1.a0f5055227e6ep-2"
    assert bound_sandwich(1e-3)[3] == 0.0
    assert bound_sandwich(1e-3, 2.0)[2].hex() == "-0x1.54242d922aa5cp-2"


def test_cell_construction_raises_no_float_error_past_a_failed_condition():
    # far beyond the ansatz, at Y = 1e300, K's (1 - 2R/ell)^3 would
    # overflow: the construction names the failed condition, and the sweep
    # reads 0 where the ansatz fails
    a = (3.0 * 1e300 / (4.0 * math.pi)) ** (1.0 / 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AnsatzInfeasible, match="^eps = "):
            cell_construction(DiluteParams(rho=1.0, a=a))
        assert bound_sandwich(0.99)[3] == 0.0
        assert bound_sandwich(1e-20)[3] > 0.0


def test_cell_construction_is_python_floats():
    cell = cell_construction(DiluteParams(rho=2.5, a=1e-6, mu=0.7))
    fields = [v for v in cell if not isinstance(v, dict)]
    assert all(type(v) is float for v in fields + list(cell.terms.values()))


def test_schick_bounds_bracket():
    for x in np.geomspace(1e-30, 1e-4, 50):
        p = DiluteParams(rho=1.0, a=math.sqrt(float(x)), mu=1.0, d=2)
        upper, lower = schick_2d_bounds(p)
        lead = leading_energy(p)
        assert lower <= lead <= upper
        assert lower <= upper


def test_intermediate_2d_upper_consistency():
    # at b = (2 pi rho)^(-1/2) the leading term reduces to the log formula
    # up to O(1/|ln|) corrections
    p = DiluteParams(rho=1.0, a=math.sqrt(1e-12), mu=1.0, d=2)
    lead = leading_energy(p)
    log = abs(math.log(p.rho_a2))
    assert abs(intermediate_2d_upper(p) / lead - 1.0) <= 5.0 / log


def test_temple_bound_basics():
    assert temple_bound(2.0, 4.0, 7.0) == 2.0        # zero variance


def test_temple_two_level_oracle():
    # H = diag(0, 1), state (cos t, sin t): <H> = <H^2> = sin^2 t, E1 = 1;
    # the bound must stay below the true ground energy 0
    for t in np.linspace(0.05, 1.2, 25):
        s2 = math.sin(t) ** 2
        bound = temple_bound(s2, s2, 1.0)
        assert bound <= 1e-12


def test_cell_factor_limits_and_monotonicity():
    a = 2e-5
    cell = cell_construction(DiluteParams(rho=1.0, a=a, mu=1.0))
    # eps -> 1 kills K through the (1 - eps) factor
    assert cell_energy_factor(cell._replace(eps=1.0 - 1e-15)) <= 1e-14
    ks = [cell_energy_factor(cell, n) for n in range(2, 10001)]
    assert np.all(np.diff(ks) <= 1e-12)
    assert ks[0] > 0.0 and ks[-1] == 0.0


def test_cell_energy_factor_has_no_mu_parameter():
    # K depends on the cell geometry only (a is the cell's R0); mu scales
    # the bound outside, and the factor is three-dimensional, so no d either
    assert list(inspect.signature(cell_energy_factor).parameters) \
        == ["cell", "n"]


def test_cell_factor_frozen_sample():
    # ansatz defaults at Y = 1e-10 (plug-in regression value)
    y = 1e-10
    a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
    # the error terms rule the bound out here, but not the ansatz
    cell = cell_construction(DiluteParams(rho=1.0, a=a, mu=1.0))
    assert max(cell.terms.values()) >= 1.0
    assert cell_energy_factor(cell) == cell.k == pytest.approx(
        0.0529997707334302, rel=1e-10)


def test_cell_lower_bound_ansatz():
    exponents = ANSATZ_EXPONENTS
    assert exponents == (1.0 / 17.0, 6.0 / 17.0, 3.0 / 17.0)
    y = 1e-12
    a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
    p = DiluteParams(rho=1.0, a=a, mu=1.0)
    cell = cell_construction(p)
    # length-scale ordering a << R << rho^(-1/3) << ell << (rho a)^(-1/2)
    assert cell.R0 == a < cell.R < 1.0 < cell.ell < (p.rho * a) ** -0.5
    assert 0.0 < cell_lower_bound(p) == cell.bound <= leading_energy(p)
    assert all(t < 1.0 for t in cell.terms.values())


def test_cell_lower_bound_names_an_underflowed_y():
    # a^3 below the float range gives Y = 0, where the ansatz would take
    # 0 * inf: cell_lower_bound names the underflow, not "Y too large"
    p = DiluteParams(rho=1.0, a=1e-300, mu=1.0)
    assert p.y == 0.0


def test_cell_lower_bound_ratio_to_one():
    ratios = []
    for y in (1e-50, 1e-100, 1e-200):
        a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
        p = DiluteParams(rho=1.0, a=a, mu=1.0)
        ratios.append(cell_lower_bound(p) / leading_energy(p))
    assert ratios[0] < ratios[1] < ratios[2] <= 1.0
    assert ratios[2] > 0.9999


def test_cell_lower_bound_fitted_constant():
    ys = np.geomspace(1e-200, 1e-12, 30)
    ratios = []
    for y in ys:
        a = (3.0 * float(y) / (4.0 * math.pi)) ** (1.0 / 3.0)
        p = DiluteParams(rho=1.0, a=a, mu=1.0)
        ratios.append(cell_lower_bound(p) / leading_energy(p))
    c_fit = max((1.0 - r) / float(y) ** (1.0 / 17.0)
                for r, y in zip(ratios, ys))
    for r, y in zip(ratios, ys):
        assert r >= 1.0 - c_fit * float(y) ** (1.0 / 17.0) - 1e-12


def test_superadditivity_surrogate():
    # E_est(n) = n(n-1)K(n) >= (n/2p) E_est(p) wherever K has not collapsed:
    # for K(n) >= K(p)/2 the ratio is >= (n-1)/(p-1) >= 1
    y = 1e-14
    a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
    cell = cell_construction(DiluteParams(rho=1.0, a=a, mu=1.0))
    for p_idx in (2, 3, 5):
        k_p = cell_energy_factor(cell, n=float(p_idx))
        e_p = p_idx * (p_idx - 1) * k_p
        n = p_idx
        while True:
            k_n = cell_energy_factor(cell, n=float(n))
            if k_n < 0.5 * k_p:
                break
            e_n = n * (n - 1) * k_n
            assert e_n >= (n / (2.0 * p_idx)) * e_p - 1e-12
            n += 1
        assert n > p_idx + 3     # the regime is nonempty


def test_occupation_minimum():
    for k in range(1, 21):
        assert occupation_minimum(float(k), 4 * k) == float(k * (k - 1))
    assert occupation_minimum(1.0, 2) == 0.0


def test_occupation_minimum_lp_lower_bound():
    # the reduced value lower-bounds the full occupation LP (which approaches
    # it from above as the occupancy cutoff grows)
    for k, p in ((5.0, 7), (3.0, 4), (10.0, 11)):
        ns = np.arange(0, 3001)
        cost = np.where(ns < p, ns * (ns - 1.0), 0.5 * ns * (p - 1.0))
        res = linprog(cost,
                      A_eq=np.vstack([np.ones_like(ns, dtype=float),
                                      ns.astype(float)]),
                      b_eq=[1.0, k], bounds=(0, None), method="highs")
        assert res.status == 0
        assert res.fun >= occupation_minimum(k, p) - 1e-9


def test_log_quadratic_gap():
    b = 0.37
    expected = b * b / (4.0 * abs(math.log(b)) ** 3)
    assert log_quadratic_gap(b, b, 1.0) == pytest.approx(expected, rel=1e-12)
    # x -> 0: only the k^2 term survives
    log_b = abs(math.log(0.5))
    limit = (0.25 / log_b) * (1.0 + 1.0 / (2.0 * log_b) ** 2) * 4.0
    assert log_quadratic_gap(1e-12, 0.5, 2.0) == pytest.approx(limit, rel=1e-6)
    rng = np.random.default_rng(17)
    x = rng.uniform(1e-12, 1.0 - 1e-12, 10000)
    bb = rng.uniform(1e-12, 1.0 - 1e-12, 10000)
    kk = rng.uniform(1.0, 10.0, 10000)
    assert min(map(log_quadratic_gap, x.tolist(), bb.tolist(), kk.tolist())) \
        >= -1e-14


def test_estimate_kinds_ordered():
    # lower estimates never exceed upper estimates at identical parameters
    for y in np.geomspace(1e-30, 1e-12, 10):
        a = (3.0 * float(y) / (4.0 * math.pi)) ** (1.0 / 3.0)
        p = DiluteParams(rho=1.0, a=a, mu=1.0)
        lead = leading_energy(p)
        upper = lead * bound_sandwich(float(y))[0]
        lower = cell_lower_bound(p)
        assert lower <= upper
