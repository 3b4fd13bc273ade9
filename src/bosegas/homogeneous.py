"""Closed-form energy bounds for the homogeneous dilute gas (3D and 2D).

Leading-order asymptotics, the hard-sphere upper bound, the Y^(1/17) lower
bound, the 3D Temple/cell-method machinery that produces it, and the 2D
logarithmic bounds in closed form.  Everything here is formula evaluation:
pure, deterministic, and cheap enough for dense parameter sweeps.

The paper leaves the constants inside its O(.) remainders unquantified;
here each is fixed at 1, and only the exponents carry the theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (AnsatzInfeasible, DomainError, GapViolation,
                     VarianceNegative, require_finite)

__all__ = [
    "DiluteParams",
    "CellConstruction",
    "DYSON_LOWER_RATIO",
    "LOWER_RATIO_C",
    "ANSATZ_EXPONENTS",
    "leading_energy",
    "lhy_energy",
    "dyson_upper_ratio",
    "dilute_lower_ratio",
    "schick_2d_bounds",
    "temple_bound",
    "cell_energy_factor",
    "cell_lower_bound",
    "cell_lower_ratio",
    "cell_construction",
    "occupation_minimum",
    "log_quadratic_gap",
]

# Hard-sphere lower-bound ratio of Dyson (1957): e0/(4 pi mu rho a) >= 1/(10 sqrt 2)
DYSON_LOWER_RATIO = 1.0 / (10.0 * math.sqrt(2.0))

# Best published constant in the (1 - C Y^(1/17)) lower bound
LOWER_RATIO_C = 8.9

# Cell-method ansatz exponents for (eps, a/ell, (R^3-R0^3)/ell^3) in powers of Y
ANSATZ_EXPONENTS = (1.0 / 17.0, 6.0 / 17.0, 3.0 / 17.0)


@dataclass(frozen=True)
class DiluteParams:
    """Density, scattering length, and kinetic constant for one gas state.

    ``y`` is the 3D diluteness parameter 4 pi rho a^3 / 3; ``rho_a2`` its 2D
    analogue rho a^2.  Both are derived and kept consistent with the fields.
    """

    rho: float
    a: float
    mu: float = 1.0
    d: int = 3
    y: float = field(init=False)
    rho_a2: float = field(init=False)

    def __post_init__(self):
        require_finite(rho=self.rho, a=self.a, mu=self.mu)
        if self.rho <= 0 or self.a <= 0 or self.mu <= 0:
            raise DomainError("rho, a, mu must all be positive")
        if self.d not in (2, 3):
            raise DomainError("d must be 2 or 3")
        try:
            with np.errstate(over="ignore"):
                y = float(_diluteness(self.rho, self.a))
                rho_a2 = self.rho * self.a ** 2
        except OverflowError:           # a ** 3 beyond the float range
            y = rho_a2 = math.inf
        if not (math.isfinite(y) and math.isfinite(rho_a2)):
            raise DomainError(f"rho = {self.rho!r}, a = {self.a!r}: "
                              "Y = 4 pi rho a^3 / 3 overflows")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "rho_a2", rho_a2)


class CellConstruction(NamedTuple):
    """One 3D Temple cell of the Y-power ansatz and the bound it gives:
    n = 4 rho ell^3 particles (not necessarily integral) in a box of side
    ell, the soft interaction on the shell R0 = a < r < R, eps the kinetic
    fraction withheld from the Dyson substitution, the five relative error
    terms, K(n, ell) and the bound 4 pi mu a rho (1 - 1/(rho ell^3)) K."""

    eps: float
    ell: float
    R: float
    R0: float
    n: float
    terms: dict
    k: float
    bound: float


def leading_energy(p: DiluteParams) -> float:
    """Leading low-density energy per particle: 4 pi mu rho a, or its 2D
    analogue 4 pi mu rho / |ln(rho a^2)|."""
    if p.d == 3:
        return 4.0 * math.pi * p.mu * p.rho * p.a
    if p.rho_a2 >= 1.0:
        raise DomainError("2D leading term needs rho a^2 < 1")
    return 4.0 * math.pi * p.mu * p.rho / abs(math.log(p.rho_a2))


def lhy_energy(p: DiluteParams) -> float:
    """Leading term times the Lee-Huang-Yang correction series
    1 + (128/15 sqrt(pi)) x^(1/2) + 8(4 pi/3 - sqrt 3) x ln x, x = rho a^3."""
    if p.d != 3:
        raise DomainError("the expansion is three-dimensional")
    x = p.rho * p.a ** 3
    if x >= 1.0:
        raise DomainError("expansion needs rho a^3 < 1")
    series = (1.0
              + 128.0 / (15.0 * math.sqrt(math.pi)) * math.sqrt(x)
              + 8.0 * (4.0 * math.pi / 3.0 - math.sqrt(3.0)) * x * math.log(x))
    return 4.0 * math.pi * p.mu * p.rho * p.a * series


def _libm_pow(x, e):
    """Elementwise ``x ** e`` through the C library's ``pow``, as Python
    floats compute it; returns an array shaped like ``x``.

    numpy's float64 ``power`` may take a SIMD path (AVX-512 builds do) that
    differs from libm ``pow`` by 1 ulp on a few percent of inputs.  The
    scalar entry points have always computed their powers with libm, so the
    array formulas route every power through here and match them bit for
    bit.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter((v ** e for v in x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def dyson_upper_ratio(y, finite_range_improved: bool = False):
    """Hard-sphere-style upper bound on e0/(4 pi mu rho a) as a function of
    Y = 4 pi rho a^3 / 3 (valid for Y < 1); array-valued for array ``Y``.

    The improved variant assumes finite range R0 < b = (4 pi rho/3)^(-1/3),
    for which a/b = Y^(1/3).  The cube root is numpy's power for scalars
    and arrays alike; the later powers go through libm (`_libm_pow`), as
    they always have for scalar ``Y``, so both give the same bits.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0) or np.any(y >= 1.0):
        raise DomainError("upper bound valid for 0 < Y < 1")
    t = y ** (1.0 / 3.0)
    if finite_range_improved:
        out = (1.0 - _libm_pow(t, 2) + 0.5 * _libm_pow(t, 3)) \
            / _libm_pow(1.0 - t, 4)
    else:
        out = (1.0 - t + _libm_pow(t, 2) - 0.5 * _libm_pow(t, 3)) \
            / _libm_pow(1.0 - t, 8)
    return out if out.ndim else float(out)


def dilute_lower_ratio(y, c: float = LOWER_RATIO_C):
    """Lower bound ratio 1 - C Y^(1/17), unclamped.

    The bound is vacuous (value <= 0) for large Y; returning the raw value
    keeps the crossover against DYSON_LOWER_RATIO visible.  Array ``Y``
    gives an array; scalar ``Y`` a Python float.
    """
    require_finite(C=c)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise DomainError("Y must be positive")
    value = 1.0 - c * _libm_pow(y, 1.0 / 17.0)
    return value if value.ndim else float(value)


def schick_2d_bounds(p: DiluteParams):
    """2D bounds (upper, lower) around 4 pi mu rho / |ln(rho a^2)|.

    upper: leading * (1 + 1/|ln|); lower: leading * (1 - |ln|^(-1/5)), with
    the remainder constants fixed at 1.
    """
    if p.d != 2:
        raise DomainError("2D operation")
    if p.rho_a2 >= 1.0 or abs(math.log(p.rho_a2)) <= 1.0:
        raise DomainError("need rho a^2 small enough that |ln(rho a^2)| > 1")
    log = abs(math.log(p.rho_a2))
    lead = leading_energy(p)
    return lead * (1.0 + 1.0 / log), lead * (1.0 - log ** -0.2)


def intermediate_2d_upper(p: DiluteParams) -> float:
    """2D upper bound 2 pi mu rho / (ln(b/a) - pi rho b^2) at the cutoff
    b = (2 pi rho)^(-1/2) that minimizes its leading term, where it reduces
    to 4 pi mu rho / |ln(rho a^2)| up to O(1/|ln|) corrections.
    """
    if p.d != 2:
        raise DomainError("2D operation")
    b = (2.0 * math.pi * p.rho) ** -0.5
    denom = math.log(b / p.a) - math.pi * p.rho * b * b
    if denom <= 0:
        raise DomainError("cutoff b too large for the bound to hold")
    return 2.0 * math.pi * p.mu * p.rho / denom


def temple_bound(h_mean: float, h2_mean: float, e1: float) -> float:
    """Variational lower bound <H> - Var(H)/(E1 - <H>) for the lowest
    eigenvalue, valid when the second eigenvalue estimate E1 exceeds <H>.

    A variance below -1e-12 max(1, <H>^2) raises VarianceNegative; a smaller
    negative one is rounding and counts as 0."""
    variance = h2_mean - h_mean * h_mean
    if variance < -1e-12 * max(1.0, h_mean * h_mean):
        raise VarianceNegative(f"<H^2> - <H>^2 = {variance!r} < 0")
    variance = max(variance, 0.0)
    gap = e1 - h_mean
    if gap <= 0:
        raise GapViolation("Temple bound needs E1 > <H>")
    return h_mean - variance / gap


def cell_energy_factor(cell: CellConstruction, n=None):
    """The dimensionless factor K(n, ell) of the 3D cell-method lower bound:

         (1-eps) (1-2R/ell)^3 (1 + 4 pi/3 rho (1-1/n)(R^3-R0^3))^(-1)
         * (1 - (3/pi) R0 n / ((R^3-R0^3)(eps ell^-2 - 4 R0 ell^-3 n(n-1))))

    with rho = n/ell^3 and the scattering length a = R0.  Returns 0
    whenever the Temple denominator is nonpositive or the product turns
    negative (0 is the documented trivial lower bound).  ``n`` may be an
    array for sweeps; defaults to cell.n.
    """
    n = cell.n if n is None else n
    n = np.asarray(n, dtype=float)
    if np.any(n < 2):
        raise DomainError("need n >= 2")
    t = _temple(cell.R0, cell.eps, cell.ell, cell.R, n)
    k = _k_factor_3d(cell.eps, cell.ell, cell.R, n, t)
    return k if k.ndim else float(k)


def cell_construction(p: DiluteParams) -> CellConstruction:
    """The cell of the Y-power ansatz at p, as Python floats.

    eps = Y^(1/17), a/ell = Y^(6/17), (R^3 - R0^3)/ell^3 = Y^(3/17) with
    R0 = a (the hard-core convention, where range and scattering length
    coincide); the constants of the three powers are fixed at 1.  Raises
    AnsatzInfeasible when one of the three ansatz conditions fails, but not
    on the error terms: K stays readable where the bound is void.
    """
    if p.d != 3:
        raise DomainError("the Y-power ansatz is three-dimensional")
    if p.y == 0.0:      # a^3 below the float range: the ansatz takes 0 * inf
        raise DomainError(f"rho = {p.rho!r}, a = {p.a!r}: "
                          "Y = 4 pi rho a^3 / 3 underflows to 0")
    cell, checks = _construct(p.rho, p.a, p.mu)
    for holds, message in checks:
        if not holds:
            raise AnsatzInfeasible(message.format(eps=float(cell.eps)))
    return cell._make({name: float(t) for name, t in v.items()}
                      if isinstance(v, dict) else float(v) for v in cell)


def cell_lower_bound(p: DiluteParams) -> float:
    """Cell-method lower bound 4 pi mu a rho (1 - 1/(rho ell^3)) K(4 rho ell^3, ell)
    of the ansatz cell (`cell_construction`).

    Raises AnsatzInfeasible when the ansatz or one of the five relative
    error terms rules the construction out.
    """
    cell = cell_construction(p)
    if any(t >= 1.0 for t in cell.terms.values()):
        raise AnsatzInfeasible(f"error terms not all < 1: {cell.terms}")
    return cell.bound


def cell_lower_ratio(y):
    """Cell-method lower bound over 4 pi mu rho a as a function of Y, for
    scalar or array ``Y``, and 0 wherever `cell_lower_bound` would raise
    AnsatzInfeasible (0 is the trivial lower bound).

    Evaluated at the unit-scale instantiation rho = mu = 1,
    a = (3Y/(4 pi))^(1/3); each value is bit for bit
    ``cell_lower_bound(DiluteParams(1.0, a)) / (4 pi a)``.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise DomainError("Y must be positive")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = _libm_pow(3.0 * y / (4.0 * math.pi), 1.0 / 3.0)
        cell, checks = _construct(1.0, a, 1.0)
        feasible = np.logical_and.reduce(
            [holds for holds, _ in checks]
            + [~(t >= 1.0) for t in cell.terms.values()])
        ratio = cell.bound / (4.0 * math.pi * a)
    out = np.where(feasible, ratio, 0.0)
    return out if out.ndim else float(out)


# --- the cell construction, elementwise on scalars or arrays -----------------------
#
# `_construct` is the one evaluation of the construction: `cell_construction`
# and `cell_lower_bound` read it at one (rho, a, mu), `cell_lower_ratio` at a
# whole Y sweep.  Every power goes through `_libm_pow`, so an array element
# carries the same bits as the scalar evaluation.


def _diluteness(rho, a):
    """Y = 4 pi rho a^3 / 3."""
    return 4.0 * math.pi * rho * _libm_pow(a, 3) / 3.0


def _construct(rho, a, mu):
    """The ansatz cell at (rho, a, mu), R0 = a, with its three ansatz
    conditions as (holds, message) pairs in checking order.  Where one
    fails, ell and what is built on it are NaN, which raises no float error."""
    y = _diluteness(rho, a)
    alpha, beta, gamma = ANSATZ_EXPONENTS
    eps = _libm_pow(y, alpha)
    with np.errstate(divide="ignore"):      # y = 0 (a^3 underflows): ell = inf
        ell = a / _libm_pow(y, beta)
    ell3 = _libm_pow(ell, 3)
    R = _libm_pow(_libm_pow(a, 3) + _libm_pow(y, gamma) * ell3, 1.0 / 3.0)
    n = 4.0 * rho * ell3
    checks = [((0.0 < eps) & (eps < 1.0),
               "eps = {eps!r} outside (0, 1); Y too large"),
              ((a < R) & (R < 0.5 * ell),
               "ansatz violates R0 < R < ell/2; Y too large"),
              (np.logical_not(n < 2),
               "fewer than 2 particles per cell; Y too large")]
    ansatz = np.logical_and.reduce([holds for holds, _ in checks])
    ell = np.where(ansatz, ell, math.nan)
    t = _temple(a, eps, ell, R, n)
    terms = {"eps": eps, "occupancy": 1.0 / (rho * t.ell3),
             "boundary": 2.0 * R / ell,
             "local_density": 4.0 * math.pi / 3.0 * (4.0 * rho) * t.shell,
             "temple": t.error}
    k = _k_factor_3d(eps, ell, R, n, t)
    bound = 4.0 * math.pi * mu * a * rho * (1.0 - terms["occupancy"]) * k
    return CellConstruction(eps, ell, R, a, n, terms, k, bound), checks


class _Temple(NamedTuple):
    """The pieces of the 3D Temple denominator shared by the error terms and
    K, for a cell with R0 = a."""

    ell3: np.ndarray
    shell: np.ndarray       # R^3 - R0^3
    denom: np.ndarray       # eps ell^-2 - 4 a ell^-3 n(n-1)
    error: np.ndarray       # (3/pi) a n / (shell denom); +inf where denom <= 0


def _temple(a, eps, ell, R, n) -> _Temple:
    ell3 = _libm_pow(ell, 3)
    shell = _libm_pow(R, 3) - _libm_pow(a, 3)
    denom = eps / _libm_pow(ell, 2) - 4.0 * a / ell3 * n * (n - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        error = (3.0 / math.pi) * a * n / (shell * denom)
    return _Temple(ell3, shell, denom, np.where(denom <= 0.0, math.inf, error))


def _k_factor_3d(eps, ell, R, n, t: _Temple):
    local = 1.0 + 4.0 * math.pi / 3.0 * (n / t.ell3) * (1.0 - 1.0 / n) \
        * t.shell
    with np.errstate(invalid="ignore"):
        k = (1.0 - eps) * _libm_pow(1.0 - 2.0 * R / ell, 3) / local \
            * (1.0 - t.error)
    return np.where(t.denom > 0.0, np.maximum(k, 0.0), 0.0)


def occupation_minimum(k: float, p: int) -> float:
    """Minimum of the reduced cell-occupation objective
    t(t-1) + (k-t)(p-1)/2 over t in [1, k] (k = rho ell^d particles per cell
    on average, p the superadditivity splitting index).

    Equals k(k-1) whenever p >= 4k (minimum at t = k).
    """
    if k < 1:
        raise DomainError("need k >= 1")
    if p < 2:
        raise DomainError("need p >= 2")

    def objective(t):
        return t * (t - 1.0) + 0.5 * (k - t) * (p - 1.0)

    t_star = (p + 1.0) / 4.0
    candidates = [1.0, float(k)]
    if 1.0 < t_star < k:
        candidates.append(t_star)
    return min(objective(t) for t in candidates)


def log_quadratic_gap(x, b, k):
    """LHS - RHS of the inequality
    x^2/|ln x| - 2 (b/|ln b|) x k >= -(b^2/|ln b|)(1 + (2|ln b|)^-2) k^2,
    for 0 < x, b < 1 and k >= 1.  Nonnegative throughout that domain."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    k = np.asarray(k, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1) or np.any(b <= 0) or np.any(b >= 1):
        raise DomainError("need 0 < x, b < 1")
    if np.any(k < 1):
        raise DomainError("need k >= 1")
    log_x = np.abs(np.log(x))
    log_b = np.abs(np.log(b))
    gap = (x * x / log_x
           - 2.0 * (b / log_b) * x * k
           + (b * b / log_b) * (1.0 + 1.0 / (2.0 * log_b) ** 2) * k * k)
    return gap if gap.ndim else float(gap)
