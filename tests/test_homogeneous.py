"""Homogeneous-gas bounds and Temple/cell-method machinery tests."""

import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, linprog

from bosegas.errors import (AnsatzInfeasible, DomainError, GapViolation,
                            VarianceNegative)
from bosegas.homogeneous import (ANSATZ_EXPONENTS, DYSON_LOWER_RATIO,
                                 DiluteParams, cell_construction,
                                 cell_energy_factor, cell_lower_bound,
                                 cell_lower_ratio, dilute_lower_ratio,
                                 dyson_upper_ratio,
                                 intermediate_2d_upper, leading_energy,
                                 lhy_energy, log_quadratic_gap,
                                 occupation_minimum, schick_2d_bounds,
                                 temple_bound)


def test_dilute_params_derived_fields():
    p = DiluteParams(rho=2.0, a=0.1, mu=1.5)
    assert p.y == pytest.approx(4.0 * math.pi * 2.0 * 0.001 / 3.0, rel=1e-14)
    p2 = DiluteParams(rho=0.5, a=0.2, mu=1.0, d=2)
    assert p2.rho_a2 == pytest.approx(0.02, rel=1e-14)
    with pytest.raises(DomainError):
        DiluteParams(rho=-1.0, a=0.1)


def test_leading_energy():
    p = DiluteParams(rho=1.0, a=0.01, mu=1.0)
    assert leading_energy(p) == pytest.approx(0.04 * math.pi, rel=1e-14)
    # a -> 0 sends the leading term to 0
    tiny = DiluteParams(rho=1.0, a=1e-300, mu=1.0)
    assert leading_energy(tiny) <= 1e-290
    p2 = DiluteParams(rho=1.0, a=math.exp(-5.0), mu=1.0, d=2)
    assert leading_energy(p2) == pytest.approx(0.4 * math.pi, rel=1e-14)
    with pytest.raises(DomainError):
        leading_energy(DiluteParams(rho=1.0, a=2.0, mu=1.0, d=2))


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
    assert dyson_upper_ratio(1e-18) == pytest.approx(1.0, abs=1e-5)
    # frozen plug-in values, independently evaluated
    assert dyson_upper_ratio(1e-3) == pytest.approx(2.112820625756837,
                                                    rel=1e-13)
    assert dyson_upper_ratio(1e-3, finite_range_improved=True) \
        == pytest.approx(1.5096784026825179, rel=1e-13)
    with pytest.raises(DomainError):
        dyson_upper_ratio(1.0)
    with pytest.raises(DomainError):
        dyson_upper_ratio(0.0)


def test_lower_ratio_and_crossover():
    assert dilute_lower_ratio(1e-60) == pytest.approx(1.0, abs=1e-2)
    assert dilute_lower_ratio(1e-3) < 0.0
    # crossover against the hard-sphere lower constant 1/(10 sqrt 2),
    # verified with SciPy's root finder
    y_star = ((1.0 - DYSON_LOWER_RATIO) / 8.9) ** 17
    root = brentq(lambda y: dilute_lower_ratio(y) - DYSON_LOWER_RATIO,
                  y_star * 0.1, min(1.0, y_star * 10.0))
    assert root == pytest.approx(y_star, rel=1e-6)


def test_lower_ratio_rejects_nonfinite_constant():
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            dilute_lower_ratio(1e-6, c)
        with pytest.raises(DomainError):
            dilute_lower_ratio(np.array([1e-6, 1e-5]), c)


# crosses from the feasible cell ansatz into the AnsatzInfeasible region
# (near Y = 2.7e-11) and ends close to the Y < 1 edge of the upper bound
ARRAY_GRID = np.geomspace(1e-14, 0.9, 3001)


def _same_bits(array, scalars):
    return array.tobytes() == np.array(scalars, dtype=float).tobytes()


def test_upper_and_lower_ratio_arrays_match_scalars_bitwise():
    ys = [float(y) for y in ARRAY_GRID]
    for improved in (False, True):
        scalars = [dyson_upper_ratio(y, improved) for y in ys]
        assert all(type(v) is float for v in scalars)
        assert _same_bits(dyson_upper_ratio(ARRAY_GRID, improved), scalars)
    for c in (8.9, 2.0):      # C = 2 moves the validity edge onto the grid
        scalars = [dilute_lower_ratio(y, c) for y in ys]
        assert all(type(v) is float for v in scalars)
        arrays = dilute_lower_ratio(ARRAY_GRID, c)
        assert _same_bits(arrays, scalars)
    assert 0 < int(np.count_nonzero(arrays > 0.0)) < ARRAY_GRID.size


def test_cell_ratio_array_matches_cell_lower_bound_bitwise():
    scalars = []
    for y in ARRAY_GRID.tolist():
        a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
        try:
            value = cell_lower_bound(DiluteParams(rho=1.0, a=a, mu=1.0))
            scalars.append(value / (4.0 * math.pi * a))
        except AnsatzInfeasible:
            scalars.append(0.0)
    ratios = cell_lower_ratio(ARRAY_GRID)
    assert _same_bits(ratios, scalars)
    assert 0 < np.count_nonzero(ratios) < ARRAY_GRID.size
    one = cell_lower_ratio(float(ARRAY_GRID[500]))
    assert type(one) is float and one == scalars[500] > 0.0
    with pytest.raises(DomainError):
        cell_lower_ratio(np.array([1e-8, 0.0]))


def test_cell_and_lower_ratio_golden_bits():
    # pinned bit for bit at non-unit rho and mu, where the unit-scale
    # array-against-scalar test does not look
    for (rho, a, mu), bits in (((2.5, 1e-6, 0.7), "0x1.58faa233d54bep-18"),
                               ((1e-3, 3e-7, 1.9), "0x1.f511eea0b6ad2p-29"),
                               ((37.0, 1e-40, 2.2e-3),
                                "0x1.1d24a9a7eef19p-133")):
        value = cell_lower_bound(DiluteParams(rho=rho, a=a, mu=mu))
        assert value.hex() == bits
    assert cell_lower_ratio(1e-20).hex() == "0x1.9ea3f241d5d54p-2"
    assert cell_lower_ratio(1e-3) == 0.0
    assert dilute_lower_ratio(1e-20).hex() == "0x1.a0f5055227e6ep-2"
    assert dilute_lower_ratio(1e-3, 2.0).hex() == "-0x1.54242d922aa5cp-2"


def test_cell_construction_raises_no_float_error_past_a_failed_condition():
    # far beyond the ansatz, K's (1 - 2R/ell)^3 would overflow: the failed
    # condition is named, and the sweep reads 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (1e90, 1e99):
            with pytest.raises(AnsatzInfeasible, match="^eps = "):
                cell_lower_bound(DiluteParams(rho=1.0, a=a, mu=1e300))
        assert cell_lower_ratio(1e300) == 0.0
        assert cell_lower_ratio(np.array([1e-20, 1e300])).tolist() \
            == [cell_lower_ratio(1e-20), 0.0]


def test_cell_construction_is_python_floats():
    cell = cell_construction(DiluteParams(rho=2.5, a=1e-6, mu=0.7))
    fields = [v for v in cell if not isinstance(v, dict)]
    assert all(type(v) is float for v in fields + list(cell.terms.values()))
    with pytest.raises(DomainError, match="three-dimensional"):
        cell_construction(DiluteParams(rho=1.0, a=1e-6, d=2))


def test_schick_bounds_bracket():
    for x in np.geomspace(1e-30, 1e-4, 50):
        p = DiluteParams(rho=1.0, a=math.sqrt(float(x)), mu=1.0, d=2)
        upper, lower = schick_2d_bounds(p)
        lead = leading_energy(p)
        assert lower <= lead <= upper
        assert lower <= upper
    with pytest.raises(DomainError):
        schick_2d_bounds(DiluteParams(rho=1.0, a=0.7, mu=1.0, d=2))


def test_intermediate_2d_upper_consistency():
    # at b = (2 pi rho)^(-1/2) the leading term reduces to the log formula
    # up to O(1/|ln|) corrections
    p = DiluteParams(rho=1.0, a=math.sqrt(1e-12), mu=1.0, d=2)
    lead = leading_energy(p)
    log = abs(math.log(p.rho_a2))
    assert abs(intermediate_2d_upper(p) / lead - 1.0) <= 5.0 / log


def test_temple_bound_basics():
    assert temple_bound(2.0, 4.0, 7.0) == 2.0        # zero variance
    with pytest.raises(GapViolation):
        temple_bound(2.0, 5.0, 2.0)
    with pytest.raises(VarianceNegative):
        temple_bound(2.0, 2.0, 5.0)


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
    ns = np.arange(2.0, 10001.0)
    ks = cell_energy_factor(cell, n=ns)
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
    # infeasible at large Y
    with pytest.raises(AnsatzInfeasible):
        cell_lower_bound(DiluteParams(rho=1.0, a=0.1, mu=1.0))


def test_cell_lower_bound_names_an_underflowed_y():
    # a^3 below the float range gives Y = 0, where the ansatz would take
    # 0 * inf: a DomainError naming the underflow, not "Y too large"
    p = DiluteParams(rho=1.0, a=1e-300, mu=1.0)
    assert p.y == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="underflows to 0"):
            cell_lower_bound(p)


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
    with pytest.raises(DomainError):
        occupation_minimum(0.5, 4)


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
    assert float(np.min(log_quadratic_gap(x, bb, kk))) >= -1e-14
    with pytest.raises(DomainError):
        log_quadratic_gap(0.5, 0.5, 0.5)


def test_estimate_kinds_ordered():
    # lower estimates never exceed upper estimates at identical parameters
    for y in np.geomspace(1e-30, 1e-12, 10):
        a = (3.0 * float(y) / (4.0 * math.pi)) ** (1.0 / 3.0)
        p = DiluteParams(rho=1.0, a=a, mu=1.0)
        lead = leading_energy(p)
        upper = lead * dyson_upper_ratio(float(y))
        lower = cell_lower_bound(p)
        assert lower <= upper


def test_dilute_params_reject_overflow_and_nonfinite_inputs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kwargs in ({"rho": 1.0, "a": 1e200}, {"rho": 1e300, "a": 1e10},
                       {"rho": 1.0, "a": 1e200, "d": 2}):
            with pytest.raises(DomainError, match="overflows"):
                DiluteParams(**kwargs)
        for kwargs, name in (({"rho": math.nan, "a": 1.0}, "rho"),
                             ({"rho": 1.0, "a": math.inf}, "a"),
                             ({"rho": 1.0, "a": 1.0, "mu": math.nan}, "mu")):
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                DiluteParams(**kwargs)

