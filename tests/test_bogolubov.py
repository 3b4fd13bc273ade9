"""Pair-mode diagonalization, Foldy integral, and two-component scaling."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from bosegas.bogolubov import (BogolubovMode,
                               displayed_prefactor_energy, fock_oracle,
                               foldy_dimensionless_integral, foldy_energy,
                               foldy_gamma_closed_form, foldy_mode_integrand,
                               foldy_report, kinetic_cutoff,
                               mode_integral_energy, two_component_scaling,
                               yukawa_ft)
from bosegas.errors import DomainError, TruncationNotConverged


def test_pair_mode_examples():
    mode = BogolubovMode(5.0, 3.0)
    assert mode.ground_bound_coeff == pytest.approx(0.5, rel=1e-14)
    tiny = BogolubovMode(5.0, 1e-10)
    assert tiny.ground_bound_coeff <= 1e-20     # B -> 0+ limit
    equal = BogolubovMode(4.0, 4.0)
    assert equal.ground_bound_coeff == pytest.approx(2.0, rel=1e-14)
    assert equal.alpha == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(DomainError):
        BogolubovMode(3.0, 4.0)
    with pytest.raises(DomainError):
        BogolubovMode(3.0, 0.0)


def test_completed_square_identities():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a_val = rng.uniform(0.01, 20.0)
        b_val = a_val * rng.uniform(1e-6, 1.0)
        mode = BogolubovMode(a_val, b_val)
        assert abs(mode.D * (1.0 + mode.alpha ** 2) - a_val) <= 1e-12 * a_val
        assert abs(2.0 * mode.D * mode.alpha - b_val) <= 1e-12 * max(b_val, 1.0)
        assert 0.0 < mode.alpha <= 1.0


def test_fock_oracle_examples():
    assert abs(fock_oracle(5.0, 3.0, 60) + 1.0) <= 1e-6
    assert fock_oracle(5.0, 0.0, 10) == 0.0
    with pytest.raises(DomainError):
        fock_oracle(5.0, 3.0, 3)
    # the B = 0 shortcut once returned 0.0 before checking A
    for a_val in (-1.0, math.nan):
        with pytest.raises(DomainError):
            fock_oracle(a_val, 0.0, 10)


def test_fock_oracle_sandwich_and_monotonicity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a_val = rng.uniform(0.5, 10.0)
        b_val = a_val * rng.uniform(0.05, 0.95)
        exact = math.sqrt(a_val ** 2 - b_val ** 2) - a_val
        coeff = BogolubovMode(a_val, b_val).ground_bound_coeff
        prev = math.inf
        for n_max in (60, 100, 160):
            e = fock_oracle(a_val, b_val, n_max)
            assert exact - 1e-9 <= e <= 0.0
            assert e >= -2.0 * coeff - 1e-9      # the operator bound
            assert e <= prev + 1e-12             # nonincreasing in n_max
            prev = e
        assert abs(prev - exact) <= 1e-6


def test_fock_oracle_bisection_agrees_with_lapack():
    # LAPACK's tridiagonal eigensolver, imported by this test alone, on the
    # matrix written out directly; A spans six decades
    from scipy.linalg import eigh_tridiagonal
    rng = np.random.default_rng(41)
    eps = np.finfo(float).eps
    for _ in range(40):
        a_val = 10.0 ** rng.uniform(-3.0, 3.0)
        b_val = a_val * rng.uniform(0.05, 0.95)
        n_max = int(rng.integers(60, 400))
        n = np.arange(n_max + 1, dtype=float)
        lapack = eigh_tridiagonal(2.0 * a_val * n, b_val * n[1:], select="i",
                                  select_range=(0, 0))[0][0]
        e = fock_oracle(a_val, b_val, n_max)
        assert abs(e - lapack) <= 4.0 * a_val * n_max * eps, \
            (a_val, b_val, n_max, e, lapack)
        # criterion 07: never below the exact pair energy by more than 1e-9
        assert e >= math.sqrt(a_val ** 2 - b_val ** 2) - a_val - 1e-9


def test_fock_oracle_at_the_float_range_ends():
    # A and B are scaled by a power of two: (B n)^2 no longer overflows,
    # where LAPACK's bisection once failed to converge at A = 1e154
    for scale in (1e-300, 1e154):
        assert fock_oracle(5.0 * scale, 3.0 * scale, 200) \
            == pytest.approx(-scale, rel=1e-14)
    with pytest.raises(DomainError):
        fock_oracle(math.inf, 1.0, 10)


def test_fock_oracle_truncation_gate():
    # B/A -> 1 converges slowly; a small cutoff must be flagged
    with pytest.raises(TruncationNotConverged):
        fock_oracle(1.0, 0.999999, 40, )


def test_yukawa_ft():
    assert yukawa_ft(0.0, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-14)
    # k >> omega asymptote
    assert yukawa_ft(100.0, 1.0) == pytest.approx(4.0 * math.pi / 1e4,
                                                  rel=1e-3)
    # radial quadrature oracle: FT = (4 pi / k) int exp(-w r) sin(k r) dr
    k, w = 2.0, 1.0
    val, _ = scipy_quad(lambda r: math.exp(-w * r) * math.sin(k * r), 0.0,
                        60.0, limit=400)
    assert yukawa_ft(k, w) == pytest.approx(4.0 * math.pi / k * val, rel=1e-8)
    # k = 0: int Y_omega = 4 pi / omega^2 by radial quadrature
    w = 1.7
    val, _ = scipy_quad(lambda r: r * math.exp(-w * r), 0.0, 80.0)
    assert yukawa_ft(0.0, w) == pytest.approx(4.0 * math.pi * val, rel=1e-10)


def test_kinetic_cutoff():
    params = dict(ell=2.0, t=0.25, C_univ=1.0)
    assert kinetic_cutoff(0.0, **params) == 0.0
    big = 1e12
    assert kinetic_cutoff(big, **params) / big == pytest.approx(0.75, rel=1e-6)
    rng = np.random.default_rng(41)
    for _ in range(1000):
        v = float(rng.uniform(0.0, 1e5))
        t = float(rng.uniform(0.01, 0.9))
        f = kinetic_cutoff(v, ell=2.0, t=t, C_univ=1.0)
        assert 0.0 <= f <= (1.0 - t) * v + 1e-30
    with pytest.raises(DomainError):
        kinetic_cutoff(1.0, t=1.5, C_univ=1.0)
    # a NaN v or ell is named, not passed on as a NaN cutoff
    with pytest.raises(DomainError, match="v must be nonnegative"):
        kinetic_cutoff(math.nan)
    with pytest.raises(DomainError, match="ell must be positive"):
        kinetic_cutoff(1.0, ell=math.nan)


def test_foldy_params_correlation_length():
    # the correlation length rho^(-1/4) is a column of the Foldy report
    assert foldy_report(16.0)["correlation_length"] == 0.5


def test_mode_integrand_properties():
    for k in (0.01, 0.5, 1.0, 10.0):
        assert foldy_mode_integrand(k, 1.0) > 0.0
    # large-k asymptote g^2/(2 f) with f ~ mu k^2 / rho: decays like k^-6
    for k in (30.0, 100.0):
        g = 4.0 * math.pi / k ** 2
        f = g + k * k
        assert foldy_mode_integrand(k, 1.0) / (g * g / (2.0 * f)) \
            == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(DomainError):
        foldy_mode_integrand(0.0, 1.0)


def test_mode_integrand_change_of_variables():
    # k = (4 pi rho / mu)^(1/4) x maps the integrand onto
    # (4 pi / k^2) (1 + x^4 - x^2 sqrt(2 + x^4))
    rho, mu = 2.3, 0.7
    scale = (4.0 * math.pi * rho / mu) ** 0.25
    for x in np.linspace(0.05, 3.0, 20):
        k = scale * x
        g = 4.0 * math.pi / k ** 2
        x4 = x ** 4
        dimensionless = 1.0 / ((1.0 + x4) + x * x * math.sqrt(2.0 + x4))
        assert foldy_mode_integrand(k, rho, mu) \
            == pytest.approx(g * dimensionless, rel=1e-12)


def test_dimensionless_integral():
    # integrand equals 1 at x = 0 and x^4 * integrand -> 1/2 at infinity
    def integrand(x):
        x4 = x ** 4
        return 1.0 + x4 - x * x * math.sqrt(2.0 + x4)

    def rationalized(x):
        x4 = x ** 4
        return 1.0 / ((1.0 + x4) + x * x * math.sqrt(2.0 + x4))

    assert integrand(0.0) == 1.0
    # the two forms agree where the direct form is still well conditioned
    for x in np.linspace(0.0, 2.5, 11):
        assert integrand(x) == pytest.approx(rationalized(x), rel=1e-9)
    assert rationalized(40.0) * 40.0 ** 4 == pytest.approx(0.5, rel=1e-5)
    value = foldy_dimensionless_integral()
    closed = foldy_gamma_closed_form()
    assert abs(value / closed - 1.0) <= 1e-9


def test_foldy_energy():
    assert foldy_energy(16.0) / foldy_energy(1.0) == pytest.approx(2.0,
                                                                   rel=1e-14)
    assert foldy_energy(1.0, mu_const=1e12) == pytest.approx(0.0, abs=1e-3)
    assert foldy_energy(1.0, mu_const=1e12) < 0.0
    # frozen value at rho = mu = 1, cross-checked through math.gamma
    expected = -0.4 * math.gamma(0.75) / math.gamma(1.25) \
        * (2.0 / math.pi) ** 0.25
    assert foldy_energy(1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(-0.48305072007119604, rel=1e-12)


def test_mode_integral_vs_closed_form():
    rep = foldy_report(1.0)
    assert rep["numeric_over_closed"] == pytest.approx(1.0, abs=1e-8)
    assert rep["closed_over_displayed"] == pytest.approx(2.0, rel=1e-12)
    assert displayed_prefactor_energy(1.0) == pytest.approx(
        foldy_energy(1.0) / 2.0, rel=1e-12)


def test_foldy_rejects_nonfinite_inputs_by_name():
    for rho, mu_const, name in ((math.nan, 1.0, "rho"),
                                (math.inf, 1.0, "rho"),
                                (1.0, math.nan, "mu_const"),
                                (1.0, -math.inf, "mu_const")):
        for fn in (mode_integral_energy, foldy_report):
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                fn(rho, mu_const)
    with pytest.raises(DomainError):
        mode_integral_energy(1.0, -1.0)


def test_mode_integral_density_exponent():
    rhos = [1.0, 16.0, 256.0]
    es = [abs(mode_integral_energy(r)) for r in rhos]
    slope = np.polyfit(np.log(rhos), np.log(es), 1)[0]
    assert abs(slope - 0.25) <= 1e-6


def test_two_component_scaling():
    res = two_component_scaling([1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9])
    assert abs(res["energy_exponent"] - 1.4) <= 1e-6
    assert abs(res["radius_exponent"] + 0.2) <= 1e-6
    assert all(p.E_opt < 0.0 for p in res["points"])
    with pytest.raises(DomainError):
        two_component_scaling([1e3, 1e2, 1e4])


def test_mode_integral_range_edges():
    # the integral depends on mu_const/rho alone; at the edges of the
    # accepted range it still meets the closed form
    for rho, mu_const in ((1.0, 1e-9), (1.0, 1e22), (1e3, 1e25),
                          (1e300, 1e300)):
        report = foldy_report(rho, mu_const)
        assert report["numeric_over_closed"] == pytest.approx(1.0, abs=1e-11)
    # beyond them the quadrature once returned 0 (ratio 1e23 and up) or
    # failed its tail test (1e-10 and below)
    for mu_const in (1e-10, 1e23, 1e300, 1e308):
        with pytest.raises(DomainError, match="mu_const/rho"):
            mode_integral_energy(1.0, mu_const)
    # mu_const k^2 overflows at the largest nodes
    with pytest.raises(DomainError, match="leaves the float range"):
        mode_integral_energy(1e308, 1e308)


def test_pair_mode_out_of_float_range():
    # A^2 overflows, or alpha = B/(A + sqrt(A^2 - B^2)) underflows to 0
    for a, b in ((1e200, 1e199), (1e308, 1e307), (5.0, 5e-324)):
        with pytest.raises(DomainError, match="leaves the float range"):
            BogolubovMode(a, b)
    mode = BogolubovMode(1e150, 3e149)       # A^2 still finite
    assert mode.ground_bound_coeff == pytest.approx(0.5e150 * (1 - 0.91 ** 0.5))
