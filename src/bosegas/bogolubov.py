"""Charged-Bose-gas toolkit: pair-mode diagonalization and the rho^(1/4) law.

Bogolubov's completed square for one (k, -k) pair of modes, an exactly
diagonalizable truncated-Fock oracle for the same quadratic form, the Yukawa
transform, the kinetic-energy cutoff used to localize the Coulomb problem,
and the high-density mode integral whose closed form is the Gamma-function
coefficient of the jellium ground-state energy.  A two-component helper
reproduces the N^(7/5) instability exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .errors import (DomainError, TruncationNotConverged, float_range,
                     require_finite)
from .numerics import Tolerances, quad

__all__ = [
    "BogolubovMode",
    "fock_oracle",
    "yukawa_ft",
    "kinetic_cutoff",
    "foldy_mode_integrand",
    "foldy_dimensionless_integral",
    "foldy_energy",
    "mode_integral_energy",
    "displayed_prefactor_energy",
    "foldy_report",
    "two_component_scaling",
]


@dataclass(frozen=True)
class BogolubovMode:
    """Completed-square coefficients for one (k, -k) mode pair, the form
    A(b*b + c*c) + B(b*c* + bc) with A >= B > 0.

    The quadratic form is bounded below by -ground_bound_coeff times the sum
    of the two mode commutators; for unit commutators that is
    sqrt(A^2 - B^2) - A.
    """

    A: float
    B: float
    alpha: float = field(init=False)
    D: float = field(init=False)
    ground_bound_coeff: float = field(init=False)

    @float_range
    def __post_init__(self):
        if not (self.A >= self.B > 0.0):
            raise DomainError("need A >= B > 0")
        require_finite(A=self.A)
        root = math.sqrt(self.A ** 2 - self.B ** 2)
        # A/B - sqrt(A^2/B^2 - 1), rationalized to avoid cancellation at B << A
        alpha = self.B / (self.A + root)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "D", self.B / (2.0 * alpha))
        object.__setattr__(self, "ground_bound_coeff", 0.5 * (self.A - root))


def fock_oracle(A: float, B: float, n_max: int,
                tol: Optional[Tolerances] = None) -> float:
    """Lowest eigenvalue of A(b*b + c*c) + B(b*c* + bc) on the truncated
    equal-pair-number Fock space span{|n, n> : n <= n_max}.

    The matrix T is tridiagonal with entries built from the elementary
    ladder coefficients sqrt(n+1): diagonal 2An, off-diagonal B(n+1).  In
    exact arithmetic its lowest eigenvalue converges monotonically from
    above to sqrt(A^2 - B^2) - A as n_max grows.  Sturm-sequence bisection
    on Python floats finds it, down to adjacent floats: T - x has a pivot
    <= 0 exactly when an eigenvalue lies at or below x, and a count stops at
    the first.  The smallest cutoff starts from the two-mode cutoff n <= 1,
    each larger one from the eigenvalue before it (upper bounds by Cauchy
    interlacing), and both bracket ends are checked by a count.  A and B are
    scaled by a power of two, so (Bn)^2 cannot overflow.  Round-off of order
    A n_max eps may put the result below the exact value;
    fock_oracle(5, 3, 100000) returns -0.9999999999999999, above the exact
    -1.  Raises TruncationNotConverged if the last two cutoff increments
    still move the eigenvalue by more than the tolerance.
    """
    if not (A >= 0.0 and (B == 0.0 or math.inf > A >= B > 0.0)):
        raise DomainError("need A >= B >= 0, and A finite")
    if B == 0.0:
        return 0.0
    if n_max < 4:
        raise DomainError("need n_max >= 4")
    tol = tol or Tolerances(abs_tol=1e-9, rel_tol=1e-9)
    scale = math.frexp(A)[1]
    a, b = math.ldexp(A, -scale), math.ldexp(B, -scale)

    def lowest(m, hi):
        """The lowest eigenvalue at cutoff m, from a bound hi above it."""
        rows = [(2.0 * a * n, (b * n) ** 2) for n in range(m + 1)]

        def below(x):
            q = 1.0
            for d, e2 in rows:
                q = d - x - e2 / q
                if q <= 0.0:
                    return True
            return False

        width = math.ulp(hi)
        while not below(hi):        # hi rounded below the eigenvalue
            hi, width = hi + width, 2.0 * width
        lo = hi - width
        while below(lo):            # a failed lo is the better hi
            hi, lo, width = lo, lo - 2.0 * width, 2.0 * width
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if below(mid) else (mid, hi)
        return hi

    step = max(4, n_max // 8)
    e2 = lowest(max(4, n_max - 2 * step), -b * b / (a + math.hypot(a, b)))
    e1 = lowest(max(4, n_max - step), e2)
    e2, e1, e0 = (math.ldexp(e, scale) for e in (e2, e1, lowest(n_max, e1)))
    budget = max(tol.abs_tol, tol.rel_tol * abs(e0))
    if abs(e0 - e1) > budget or abs(e1 - e2) > budget:
        raise TruncationNotConverged(
            f"eigenvalue still moving by {abs(e0 - e1):.3e} at n_max={n_max}")
    return e0


def yukawa_ft(k: float, omega: float) -> float:
    """Fourier transform 4 pi/(k^2 + omega^2) of exp(-omega r)/r."""
    if omega <= 0:
        raise DomainError("omega must be positive")
    return 4.0 * math.pi / (k * k + omega * omega)


def kinetic_cutoff(v: float, ell: float = 1.0, t: float = 0.1,
                   C_univ: float = 1.0) -> float:
    """Cutoff function F(v) = (1 - C t) v^2 / (v + (ell t^3)^-2) of the
    localized charged-gas construction: ell is the cell side, t the
    smoothing parameter and C_univ the unquantified universal constant.

    Satisfies 0 <= F(v) <= (1 - C t) v with F(0) = 0.
    """
    if not ell > 0:     # NaN too
        raise DomainError("ell must be positive")
    if C_univ <= 0 or not (0.0 < t < 1.0 / C_univ):
        raise DomainError("need 0 < t < 1/C_univ")
    if not v >= 0:
        raise DomainError("v must be nonnegative")
    return (1.0 - C_univ * t) * v * v / (v + (ell * t ** 3) ** -2.0)


def foldy_mode_integrand(k: float, rho: float, mu_const: float = 1.0) -> float:
    """Per-mode pairing energy f - sqrt(f^2 - g^2) with g = 4 pi/k^2 and
    f = g + mu k^2/rho, evaluated in cancellation-free form."""
    if k <= 0:
        raise DomainError("k must be positive")
    g = 4.0 * math.pi / (k * k)
    f = g + mu_const * k * k / rho
    # f - sqrt(f^2-g^2) = g^2 / (f + sqrt((f-g)(f+g)))
    return g * g / (f + math.sqrt((f - g) * (f + g)))


def foldy_dimensionless_integral() -> float:
    """Quadrature of int_0^inf (1 + x^4 - x^2 sqrt(2 + x^4)) dx.

    Closed form: 2^(3/4) sqrt(pi) Gamma(3/4) / (5 Gamma(5/4)).  The integrand
    is evaluated as 1/((1 + x^4) + x^2 sqrt(2 + x^4)), the rationalized form
    with no large-x cancellation.
    """
    def integrand(x):
        x2 = x * x
        x4 = x2 * x2
        return 1.0 / ((1.0 + x4) + x2 * math.sqrt(2.0 + x4))

    return quad(integrand, (0.0, math.inf),
                Tolerances(abs_tol=1e-13, rel_tol=1e-12))


def foldy_gamma_closed_form() -> float:
    """2^(3/4) sqrt(pi) Gamma(3/4) / (5 Gamma(5/4))."""
    return (2.0 ** 0.75 * math.sqrt(math.pi) * math.gamma(0.75)
            / (5.0 * math.gamma(1.25)))


def foldy_energy(rho: float, mu_const: float = 1.0) -> float:
    """High-density jellium energy per particle:
    -(2/5)(Gamma(3/4)/Gamma(5/4)) (2/(mu pi))^(1/4) rho^(1/4)."""
    if rho <= 0:
        raise DomainError("rho must be positive")
    coeff = 0.4 * math.gamma(0.75) / math.gamma(1.25) \
        * (2.0 / (mu_const * math.pi)) ** 0.25
    return -coeff * rho ** 0.25


@float_range
def mode_integral_energy(rho: float, mu_const: float = 1.0) -> float:
    """Numeric per-particle energy -1/2 (2 pi)^-3 int (f - sqrt(f^2-g^2)) d^3k
    over the pairing modes (radial measure 4 pi k^2 dk)."""
    require_finite(rho=rho, mu_const=mu_const)
    if rho <= 0 or mu_const <= 0:
        raise DomainError("rho and mu_const must be positive")
    # The integrand depends on mu_const/rho alone; outside this range the
    # quadrature misses the mode peak and returns 0, or fails its tail test.
    if not 1e-9 <= mu_const / rho <= 1e22:
        raise DomainError("need 1e-9 <= mu_const/rho <= 1e22")

    def radial(k):
        if mu_const * k * k == math.inf:    # the mode peak is lost
            raise OverflowError("mu_const k^2 overflows")
        return k * k * foldy_mode_integrand(k, rho, mu_const)

    integral = quad(radial, (0.0, math.inf),
                    Tolerances(abs_tol=1e-13, rel_tol=1e-11))
    return -integral / (4.0 * math.pi ** 2)


def displayed_prefactor_energy(rho: float, mu_const: float = 1.0) -> float:
    """Per-particle energy implied by the 2^(-1/2) pi^(-3/4) (rho/mu)^(1/4)
    prefactor convention for the dimensionless integral (half the closed-form
    law; the two conventions differ by the (k, -k) pair-counting factor 2)."""
    if rho <= 0:
        raise DomainError("rho must be positive")
    return -(2.0 ** -0.5 * math.pi ** -0.75 * (rho / mu_const) ** 0.25
             * foldy_gamma_closed_form())


def foldy_report(rho: float, mu_const: float = 1.0) -> dict:
    """Side-by-side values of the numeric mode integral, the closed-form law,
    and the displayed-prefactor variant, plus length-scale diagnostics.

    ``correlation_length`` (rho^(-1/4)) and the mean particle distance
    rho^(-1/3) are reported, not asserted: the balance heuristic behind them
    is qualitative.
    """
    numeric = mode_integral_energy(rho, mu_const)
    law = foldy_energy(rho, mu_const)
    displayed = displayed_prefactor_energy(rho, mu_const)
    return {
        "rho": rho,
        "mode_integral": numeric,
        "closed_form": law,
        "displayed_prefactor_form": displayed,
        "numeric_over_closed": numeric / law,
        "closed_over_displayed": law / displayed,
        "correlation_length": rho ** -0.25,
        "mean_distance": rho ** (-1.0 / 3.0),
        "correlation_over_mean": rho ** -0.25 / rho ** (-1.0 / 3.0),
    }


class TwoComponentPoint(NamedTuple):
    N: float
    L_opt: float
    E_opt: float


def two_component_scaling(N_sequence: Sequence[float]):
    """Optimal radius and energy of the two-component energy model
    E(L) = N L^-2 - N^(5/4) L^(-3/4) per N, plus fitted log-log exponents.

    The closed-form minimizer L = (3/8)^(-4/5) N^(-1/5) is cross-checked
    against a numeric golden-section minimizer; E_opt < 0 always and
    |E_opt| grows like N^(7/5).
    """
    ns = [float(n) for n in N_sequence]
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("need an increasing sequence of at least 3 sizes")
    points = []
    for n in ns:
        def energy(L):
            return n / L ** 2 - n ** 1.25 * L ** -0.75

        l_closed = (3.0 / 8.0) ** -0.8 * n ** -0.2
        l_numeric = _golden_min(energy, 0.2 * l_closed, 5.0 * l_closed)
        if abs(l_numeric - l_closed) > 1e-6 * l_closed:
            raise DomainError("closed-form and numeric minimizers disagree")
        points.append(TwoComponentPoint(N=n, L_opt=l_closed,
                                        E_opt=energy(l_closed)))
    import numpy as np      # for the fits; no other function here needs it
    logs_n = np.log([p.N for p in points])
    slope_e = np.polyfit(logs_n, np.log([abs(p.E_opt) for p in points]), 1)[0]
    slope_l = np.polyfit(logs_n, np.log([p.L_opt for p in points]), 1)[0]
    return {"points": points, "energy_exponent": float(slope_e),
            "radius_exponent": float(slope_l)}


def _golden_min(f, lo, hi, iters: int = 200):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
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
