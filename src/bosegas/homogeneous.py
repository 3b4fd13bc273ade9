"""Closed-form energy bounds for the homogeneous dilute gas (3D and 2D).

Leading-order asymptotics, the hard-sphere upper bound, the Y^(1/17) lower
bound, the 3D Temple/cell-method machinery that produces it, and the 2D
logarithmic bounds in closed form.  Everything here is formula evaluation
on Python floats, one point per call: pure, deterministic, and cheap enough
for dense parameter sweeps.

The paper leaves the constants inside its O(.) remainders unquantified;
here each is fixed at 1, and only the exponents carry the theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "bound_sandwich",
    "schick_2d_bounds",
    "temple_bound",
    "cell_energy_factor",
    "cell_lower_bound",
    "cell_construction",
    "occupation_minimum",
    "log_quadratic_gap",
]

# Hard-sphere lower-bound ratio of Dyson (1957): e0/(4 pi mu rho a) >= 1/(10 sqrt 2)
DYSON_LOWER_RATIO = 1.0 / (10.0 * math.sqrt(2.0))

# Best published constant in the (1 - C Y^(1/17)) lower bound
LOWER_RATIO_C = 8.9

# Cell-method ansatz exponents for (eps, a/ell, (R^3-R0^3)/ell^3) in powers of Y
# (the paper's fixed ansatz).  `bound_sandwich` tests only the occupancy error
# term: that the others stay below 1 is proved for these exponents alone
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
            y = 4.0 * math.pi * self.rho * self.a ** 3 / 3.0
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
        return _finite(4.0 * math.pi * p.mu * p.rho * p.a)
    if p.rho_a2 >= 1.0:
        raise DomainError("2D leading term needs rho a^2 < 1")
    return _finite(4.0 * math.pi * p.mu * p.rho / abs(math.log(p.rho_a2)))


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
    return _finite(4.0 * math.pi * p.mu * p.rho * p.a * series)


def _finite(energy: float) -> float:
    """`energy`, or DomainError where its product left the float range."""
    if not math.isfinite(energy):
        raise DomainError(f"energy {energy!r} leaves the float range")
    return energy


def bound_sandwich(y: float, c: float = LOWER_RATIO_C) -> tuple:
    """The 3D bounds on e0/(4 pi mu rho a) at Y = 4 pi rho a^3 / 3, in the
    report's column order: (dyson_upper, dyson_upper_improved, lower_ratio,
    cell_lower_ratio).  C is checked first, then 0 < Y < 1.

    Dyson's upper bound, and its improvement for a finite range
    R0 < b = (4 pi rho/3)^(-1/3), for which a/b = Y^(1/3): where Y^(1/3)
    rounds to 1 both divide by zero, and DomainError says so.  The lower
    bound 1 - C Y^(1/17), unclamped: vacuous (<= 0) for large Y, and above
    DYSON_LOWER_RATIO below Y* = ((1 - DYSON_LOWER_RATIO)/C)^17 (demo 02).
    The cell-method bound at the unit-scale instantiation rho = mu = 1,
    a = (3Y/(4 pi))^(1/3), bit for bit
    ``cell_lower_bound(DiluteParams(1.0, a)) / (4 pi a)``, and 0 wherever
    that would raise AnsatzInfeasible (0 is the trivial lower bound).
    """
    # require_finite's message, without the cost of its keyword call in a
    # sweep
    if not math.isfinite(c):
        raise DomainError(f"C must be finite, got {c!r}")
    if y <= 0:
        raise DomainError("Y must be positive")
    if y >= 1.0:
        raise DomainError("upper bound valid for 0 < Y < 1")
    t = y ** (1.0 / 3.0)
    if t == 1.0:
        raise DomainError(f"Y = {y!r}: 1 - Y^(1/3) rounds to 0")
    cell = 0.0
    if y < _VOID_Y:         # at and past it the cell is void (`_VOID_Y`)
        a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
        try:
            a3, eps, ell, ell3, R, n = _cell(1.0, a)
        except AnsatzInfeasible:
            pass
        else:
            # the one error term of `_construct` that can reach 1 (below)
            occupancy = 1.0 / ell3
            if occupancy < 1.0:     # `_construct`'s bound over 4 pi a
                k = _temple(a, eps, ell, ell3, R, R ** 3 - a3, n)[1]
                lead = 4.0 * math.pi * a
                cell = lead * (1.0 - occupancy) * k / lead
    return ((1.0 - t + t ** 2 - 0.5 * t ** 3) / (1.0 - t) ** 8,
            (1.0 - t ** 2 + 0.5 * t ** 3) / (1.0 - t) ** 4,
            1.0 - c * y ** (1.0 / 17.0), cell)


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


def cell_energy_factor(cell: CellConstruction, n=None) -> float:
    """The dimensionless factor K(n, ell) of the 3D cell-method lower bound:

         (1-eps) (1-2R/ell)^3 (1 + 4 pi/3 rho (1-1/n)(R^3-R0^3))^(-1)
         * (1 - (3/pi) R0 n / ((R^3-R0^3)(eps ell^-2 - 4 R0 ell^-3 n(n-1))))

    with rho = n/ell^3 and the scattering length a = R0.  Returns 0
    whenever the Temple denominator is nonpositive or the product turns
    negative (0 is the documented trivial lower bound).  ``n`` defaults to
    cell.n.
    """
    n = cell.n if n is None else n
    if n < 2:
        raise DomainError("need n >= 2")
    a, ell, R = cell.R0, cell.ell, cell.R
    return _temple(a, cell.eps, ell, ell ** 3, R, R ** 3 - a ** 3, n)[1]


def cell_construction(p: DiluteParams) -> CellConstruction:
    """The cell of the Y-power ansatz at p.

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
    eps, ell, R, n, terms, k, bound = _construct(p.rho, p.a, p.mu)
    return CellConstruction(eps, ell, R, p.a, n, dict(zip(_TERMS, terms)), k,
                            bound)


def cell_lower_bound(p: DiluteParams) -> float:
    """Cell-method lower bound 4 pi mu a rho (1 - 1/(rho ell^3)) K(4 rho ell^3, ell)
    of the ansatz cell (`cell_construction`).

    Raises AnsatzInfeasible when the ansatz or an error term >= 1 rules the
    construction out.  Of the five terms only `occupancy` can, since the
    ansatz conditions (n >= 2 among them) keep the other four below 1.
    """
    cell = cell_construction(p)
    if max(cell.terms.values()) >= 1.0:
        raise AnsatzInfeasible(f"error terms not all < 1: {cell.terms}")
    return _finite(cell.bound)


# --- the cell construction ----------------------------------------------------------
#
# `_cell` is the one evaluation of the cell's geometry and its three ansatz
# conditions.  `_construct` adds all five error terms, K and the bound, for
# `cell_construction` and `cell_lower_bound` at one (rho, a, mu), which read
# K even where the bound is void.  `bound_sandwich`, at the unit-scale
# instantiation of one Y, reads only the occupancy term, so that a sweep
# pays for K only where the bound is not void.  With s = Y^(1/17), the
# boundary term is below 1 by the ansatz condition R < ell/2, and in every
# cell local_density = 4 s^2 <= 9/pi^2 and temple <= 0.55 (proved by the
# exit test of tests/test_homogeneous.py).  Both reach K through `_temple`.
#
# At rho = 1, ell^3 = a^3 / Y^(3 beta) with beta = ANSATZ_EXPONENTS[1], so
# the occupancy term 1/ell^3 is (4 pi/3) Y^(3 beta - 1) = (4 pi/3) Y^(1/17),
# >= 1 from Y = (3/(4 pi))^17 = 2.66e-11 on: there the bound is void, or the
# ansatz fails first.  `bound_sandwich` builds no cell from _VOID_Y on, that
# Y raised by a relative 1e-8, far more than the rounded term can stray.

_TERMS = ("eps", "occupancy", "boundary", "local_density", "temple")
_VOID_Y = ((3.0 / (4.0 * math.pi)) ** (1.0 / (3.0 * ANSATZ_EXPONENTS[1] - 1.0))
           * (1.0 + 1e-8))


def _cell(rho, a):
    """The geometry (a^3, eps, ell, ell^3, R, n) of the ansatz cell at
    (rho, a), R0 = a.  The three ansatz conditions are checked in order,
    each before anything that needs it is computed; the first that fails
    raises AnsatzInfeasible."""
    a3 = a ** 3
    y = 4.0 * math.pi * rho * a3 / 3.0
    alpha, beta, gamma = ANSATZ_EXPONENTS
    eps = y ** alpha
    if not 0.0 < eps < 1.0:
        raise AnsatzInfeasible(f"eps = {eps!r} outside (0, 1); Y too large")
    ell = a / y ** beta
    try:
        ell3 = ell ** 3
    except OverflowError:       # then R is infinite too, and R < ell/2 fails
        ell3 = math.inf
    R = (a3 + y ** gamma * ell3) ** (1.0 / 3.0)
    if not a < R < 0.5 * ell:
        raise AnsatzInfeasible("ansatz violates R0 < R < ell/2; Y too large")
    n = 4.0 * rho * ell3
    if n < 2:
        raise AnsatzInfeasible("fewer than 2 particles per cell; Y too large")
    return a3, eps, ell, ell3, R, n


def _construct(rho, a, mu):
    """The ansatz cell at (rho, a, mu) (`_cell`) as the tuple
    (eps, ell, R, n, terms, k, bound) with the five error terms in `_TERMS`
    order."""
    a3, eps, ell, ell3, R, n = _cell(rho, a)
    shell = R ** 3 - a3
    temple, k = _temple(a, eps, ell, ell3, R, shell, n)
    occupancy = 1.0 / (rho * ell3)
    terms = (eps, occupancy, 2.0 * R / ell,
             4.0 * math.pi / 3.0 * (4.0 * rho) * shell, temple)
    bound = 4.0 * math.pi * mu * a * rho * (1.0 - occupancy) * k
    return eps, ell, R, n, terms, k, bound


def _temple(a, eps, ell, ell3, R, shell, n):
    """(Temple error term, K) of a cell with R0 = a holding n particles,
    shell = R^3 - R0^3: the error is (3/pi) a n / (shell denom) with the
    Temple denominator denom = eps ell^-2 - 4 a ell^-3 n(n-1), and +inf,
    with K = 0, where denom is not positive."""
    denom = eps / ell ** 2 - 4.0 * a / ell3 * n * (n - 1.0)
    if not denom > 0.0:
        return math.inf, 0.0
    error = (3.0 / math.pi) * a * n / (shell * denom)
    local = 1.0 + 4.0 * math.pi / 3.0 * (n / ell3) * (1.0 - 1.0 / n) * shell
    k = (1.0 - eps) * (1.0 - 2.0 * R / ell) ** 3 / local * (1.0 - error)
    return error, max(k, 0.0)


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


def log_quadratic_gap(x: float, b: float, k: float) -> float:
    """LHS - RHS of the inequality
    x^2/|ln x| - 2 (b/|ln b|) x k >= -(b^2/|ln b|)(1 + (2|ln b|)^-2) k^2,
    for 0 < x, b < 1 and k >= 1.  Nonnegative throughout that domain."""
    if x <= 0 or x >= 1 or b <= 0 or b >= 1:
        raise DomainError("need 0 < x, b < 1")
    if k < 1:
        raise DomainError("need k >= 1")
    log_x = abs(math.log(x))
    log_b = abs(math.log(b))
    return (x * x / log_x
            - 2.0 * (b / log_b) * x * k
            + (b * b / log_b) * (1.0 + 1.0 / (2.0 * log_b) ** 2) * k * k)
