"""Zero-energy two-body scattering in 3D and 2D.

Solves -2*mu*u'' + v*u = 0 (3D, u = r*psi) and the radial equation for psi
(2D) outward from the regular solution, continues analytically beyond the
interaction range (linear in 3D, logarithmic in 2D), and extracts the
scattering length from the asymptote.  Energy integrals are accumulated as
extra ODE components, so they inherit the integrator's accuracy;
`_energy_parts` splits them at a radius R for both energy diagnostics.

The integration ends at the interaction range, or for a tail at the radius
`_end_radius` picks.  `_by_segments` runs it one integrate_ode span per
segment between the potential's breakpoints (the knots and the point where
a tail attaches), and every stage reads its segment's own piece of v, so no
step straddles a jump.  Each state is chosen to stay bounded where the
solution grows without bound: w = u - r u' in 3D, and on the 2D tail
segment, which reaches out to the tail's cut radius, q = psi - chi ln r.
A bare hard core and a vanishing potential are exact, with no integration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    GridTooCoarse,
    NoLogAsymptote,
    NonIntegrableTail,
    RadiusInsideRange,
    ScatteringLengthUnderflow,
    ZeroScatteringLength,
    float_range,
    require_finite,
)
from .numerics import Tolerances, integrate_ode, quad
from .potentials import (
    PairPotential,
    born_integral,
    pair_piece,
    pair_value,
    tail_integrability,
)

__all__ = [
    "DEFAULT_TOL",
    "ScatteringSolution",
    "solve_zero_energy",
    "energy_integral",
    "kinetic_fraction",
    "two_dim_energy_ratio",
]


# the integrator tolerances of a solve that sets none
DEFAULT_TOL = Tolerances(abs_tol=1e-13, rel_tol=1e-11)


@dataclass(frozen=True)
class ScatteringSolution:
    """Radial zero-energy solution with derived quantities; its dimension is
    that of ``potential``.

    ``s`` is the kinetic fraction: 1 in 2D, and in 3D NaN exactly where it
    is undefined, at a <= 1e-12 end_radius.  ``slope`` is the asymptotic
    scale (u' beyond the range in 3D, r*psi' in 2D), so dividing by it gives
    the u ~ r - a (3D) or psi ~ ln(r/a) (2D) normalization.
    ``end_radius`` is where the integration ends and that asymptote is read
    off: the interaction range (the potential's ``range_radius``), or
    further out for a tail.  ``tol`` holds the tolerances the
    reported run used.  Every solution has passed the convergence gate: a
    solve that misses it raises GridTooCoarse.
    """

    mu: float
    a: float
    s: float
    potential: PairPotential
    end_radius: float
    slope: float
    kin_interior: float   # int (u' - u/r)^2 dr (3D) / int psi'^2 r dr (2D), raw
    pot_interior: float   # int v u^2 dr (3D) / int v psi^2 r dr (2D), raw
    tol: Tolerances


def _end_radius(p: PairPotential, mu: float) -> float:
    """Where the integration ends: the range, or for a tail the largest of
    twice the range, ten a-estimates and the cut radius.  The a-estimate is
    the Born bound on a plus 1e-3 range, capped at the range, which is where
    a hard core's infinite Born integral puts it."""
    report = tail_integrability(p)
    if not report.integrable:
        raise NonIntegrableTail(
            "potential tail decays too slowly; scattering length infinite")
    if p.tail is None:
        return p.range_radius
    r0 = p.range_radius
    a_estimate = min(r0, born_integral(p) / (8.0 * math.pi * mu) + 1e-3 * r0)
    return max(2.0 * r0, 10.0 * a_estimate, report.cut_radius)


def _edges(p: PairPotential, r_start: float, r_end: float) -> list:
    """r_start, the potential's breakpoints strictly between, and r_end."""
    return [r_start, *(b for b in p.breakpoints if r_start < b < r_end), r_end]


def _by_segments(rhs, state, p, edges, tol) -> list:
    """Integrate rhs(piece, r, y) one integrate_ode span per segment [lo, hi]
    of `edges`, and return the state at edges[-1]: the one place that decides
    where an integration stops.  Every stage sees its segment's own piece of
    v, pair_piece(p, lo, hi), which takes the left limit at hi; rhs gets only
    y's first two components, as kin and pot are quadratures.
    """
    for lo, hi in zip(edges[:-1], edges[1:]):
        state = integrate_ode(functools.partial(rhs, pair_piece(p, lo, hi)),
                              state, (lo, hi), tol, quadratures=2)
    return state


def _solve_3d(p, mu, r_end, tol) -> ScatteringSolution:
    # The state is (w, u', kin, pot) with w = u - r u', so that a = -w/u'
    # beyond the range: w stays bounded where u ~ r grows, and a far cut
    # radius costs no cancellation in r_end - u/u'.
    if tol.abs_tol == 0.0:
        # the integrals kin and pot start at exactly 0, so a purely relative
        # error scale is 0 there
        raise DomainError("abs_tol must be positive for a 3D solve")
    r_start = p.range_radius if p.has_hard_core() else 0.0
    state = [-r_start, 1.0, 0.0, 0.0]    # u = 0, u' = 1

    def rhs(piece, r, y):
        w, du = y
        if r <= 0.0:
            # regular solution: u ~ r, so u'' and w/r vanish at 0
            return (0.0, 0.0, 0.0, 0.0)
        v = piece(r)
        u = w + r * du
        curv = v * u / (2.0 * mu)
        grad = w / r     # u/r - u'
        return (-r * curv, curv, grad * grad, v * u * u)

    w_range, du_range, kin, pot = _by_segments(
        rhs, state, p, _edges(p, r_start, r_end), tol)
    if du_range <= 0.0:
        raise DomainError("u' <= 0 at the range; potential not nonnegative?")
    a = -w_range / du_range

    if p.tail is not None:
        # first-order tail correction: neglected repulsion beyond the cut
        # radius adds int v r^2 dr / (2 mu) to a (psi ~ 1 out there)
        c_t, exponent = p.tail
        a += c_t * r_end ** (3 - exponent) / ((exponent - 3) * 2.0 * mu)

    # kinetic fraction s = int |grad psi0|^2 / (4 pi a), psi0 -> 1 at infinity
    s = math.nan
    if a > 1e-12 * r_end:
        s = (kin / (du_range * du_range) + a * a / r_end) / a
    return ScatteringSolution(mu, a, s, p, r_end, du_range, kin, pot, tol)


def _solve_2d(p, mu, r_end, tol) -> ScatteringSolution:
    # The state is (psi, chi, kin, pot) with chi = r psi'.  On the tail
    # segment psi ~ chi ln r grows out to the cut radius, so the state there
    # is (q, chi, kin, pot) with q = psi - chi ln r, q' = -chi' ln r, and
    # a = exp(-q/chi) beyond the range.
    hard, r_tail = p.has_hard_core(), p.range_radius
    r_start = r_tail if hard else 1e-9 * r_tail
    if hard:
        state = [0.0, 1.0, 0.0, 0.0]
    else:
        v0 = pair_value(p, r_start)
        state = [1.0, v0 * r_start * r_start / (4.0 * mu), 0.0, 0.0]

    def rhs(piece, r, y):
        psi, chi = y
        v = piece(r)
        return (chi / r, r * v * psi / (2.0 * mu), chi * chi / r, v * psi * psi * r)

    def tail_rhs(piece, r, y):
        q, chi = y
        v = piece(r)
        log_r = math.log(r)
        psi = q + chi * log_r
        dchi = r * v * psi / (2.0 * mu)
        return (-dchi * log_r, dchi, chi * chi / r, v * psi * psi * r)

    tailed = r_end > r_tail     # the tail runs in q from where it attaches
    edges = _edges(p, r_start, r_end)
    state = _by_segments(rhs, state, p, [e for e in edges if e <= r_tail], tol)
    if tailed:
        state[0] -= state[1] * math.log(r_tail)
        state = _by_segments(tail_rhs, state, p, [r_tail, r_end], tol)
    lead, chi_range, kin, pot = state     # lead is q on a tail, else psi
    # psi = chi ln(r/a) beyond the range: a = r exp(-psi/chi) = exp(-q/chi);
    # chi underflows to 0 only where a does
    a = (math.exp(-lead / chi_range) * (1.0 if tailed else r_end)
         if chi_range > 0.0 else 0.0)
    # s = 1: the 2D interaction energy is purely kinetic
    return ScatteringSolution(mu, a, 1.0, p, r_end, chi_range, kin, pot, tol)


@float_range
def solve_zero_energy(p: PairPotential, mu: float,
                      tol: Tolerances = DEFAULT_TOL) -> ScatteringSolution:
    """Solve the zero-energy scattering problem and extract a (and s in 3D).

    Parameters
    ----------
    p : pair potential (its dimension tag selects the 3D or 2D equation)
    mu : the kinetic coefficient hbar^2 / 2m
    tol : integrator tolerances.  A rerun at abs_tol/10 and rel_tol/10
        gates the result: if a moves by more than
        10 * max(rel_tol * max(|a|, range), abs_tol), GridTooCoarse is raised.
        A 3D integration needs abs_tol > 0.

    The 3D state is (u - r u', u', ...) throughout; the 2D state is
    (psi, r psi', ...) inside the range and (psi - r psi' ln r, r psi', ...)
    on a tail, so that neither grows with the radius where a is read off.
    A potential that vanishes identically has the exact a = 0.0 in 3D, with
    no integration, and raises NoLogAsymptote in 2D; any other potential
    whose a comes out <= 0, below the float range, raises
    ScatteringLengthUnderflow.
    """
    require_finite(mu=mu)
    if mu <= 0:
        raise DomainError("mu must be positive")
    r_end = _end_radius(p, mu)
    if p.has_hard_core() and p.tail is None:
        # u = r - R0 (3D) and psi = ln(r/R0) (2D) solve the exterior
        # equation exactly: a = R0 and s = 1, with no rounding
        return ScatteringSolution(mu, p.range_radius, 1.0, p, r_end, 1.0, 0.0, 0.0,
                                  tol)
    if p.vanishes():
        if p.dimension == 2:
            raise NoLogAsymptote(
                "no logarithmic asymptote: v vanishes identically")
        # u = r solves the 3D equation exactly: a = +0.0, and s is undefined
        return ScatteringSolution(mu, 0.0, math.nan, p, r_end, 1.0, 0.0, 0.0, tol)
    solve = _solve_3d if p.dimension == 3 else _solve_2d
    sol = solve(p, mu, r_end, tol)
    if sol.a <= 0.0:
        raise ScatteringLengthUnderflow(
            f"a = {sol.a!r} for a nonzero potential: the scattering "
            f"length lies below the float range")
    tighter = Tolerances(tol.abs_tol / 10.0, tol.rel_tol / 10.0)
    a, a2 = sol.a, solve(p, mu, r_end, tighter).a
    scale = max(abs(a), p.range_radius)
    if not abs(a - a2) <= 10.0 * max(tol.rel_tol * scale, tol.abs_tol):
        raise GridTooCoarse(
            f"scattering length moved by {abs(a - a2):.3e} under a "
            f"tenfold tighter tolerance")
    return sol


def _energy_parts(sol: ScatteringSolution, R: float):
    """The interior (kin, pot) integrals out to R, over slope^2: from a
    rerun of the solve out to R inside the end radius, else the solve's own
    plus the exterior kinetic term, a^2 (1/r_end - 1/R) in 3D and
    ln(R/r_end) in 2D.  A tail's exterior potential term is the caller's."""
    p = sol.potential
    if math.isnan(R):
        raise DomainError(f"need a radius R, got R={R!r}")
    if R < p.range_radius:
        raise RadiusInsideRange(
            f"R={R!r} lies inside the interaction range {p.range_radius!r}")
    c2 = sol.slope * sol.slope
    r_end = sol.end_radius
    if R < r_end:    # a tail is integrated out to its end radius
        solve = _solve_3d if p.dimension == 3 else _solve_2d
        run = solve(p, sol.mu, R, sol.tol)
        return run.kin_interior / c2, run.pot_interior / c2
    outer = (sol.a * sol.a * (1.0 / r_end - 1.0 / R) if p.dimension == 3
             else math.log(R / r_end))
    return sol.kin_interior / c2 + outer, sol.pot_interior / c2


def energy_integral(sol: ScatteringSolution, R: float) -> float:
    """int_{|x|<=R} (2 mu |grad psi0|^2 + v psi0^2) d^3x, psi0 -> 1 at infinity.

    Equals 8 pi mu a (1 - a/R) for finite-range potentials.  R may be any
    radius from the potential's range on (`_energy_parts`); at the radius of
    a bare hard core, where psi0 vanishes, the integral is 0.
    """
    p = sol.potential
    if p.dimension != 3:
        raise DomainError("energy_integral is a 3D operation")
    if R == p.range_radius and p.has_hard_core():    # psi0 = 0 on the core
        return 0.0
    kin, pot = _energy_parts(sol, R)
    if p.tail is not None and R > sol.end_radius:
        a = sol.a

        def tail_term(r):
            return pair_value(p, r) * (1.0 - a / r) ** 2 * r * r

        pot += quad(tail_term, (sol.end_radius, R),
                    Tolerances(abs_tol=1e-13, rel_tol=1e-10))
    return 4.0 * math.pi * (2.0 * sol.mu * kin + pot)


def kinetic_fraction(sol: ScatteringSolution) -> float:
    """s = int |grad psi0|^2 d^3x / (4 pi a); equals 1 identically in 2D.
    Raises ZeroScatteringLength where sol.s is NaN: in 3D, at a <= 1e-12
    end_radius, where s is undefined."""
    if math.isnan(sol.s):
        raise ZeroScatteringLength("kinetic fraction undefined for a = 0")
    return sol.s


def two_dim_energy_ratio(sol: ScatteringSolution, R: float) -> float:
    """Kinetic share of the 2D energy integral over a disc of radius R.

    Tends to 1 like 1/ln(R/a), the value at R = inf: the logarithmically
    growing kinetic part dominates the finite potential part.  R may be any
    radius from the potential's range on (`_energy_parts`).  At the radius
    of a hard disc both parts vanish, and the ratio 0/0 raises DomainError.
    """
    p = sol.potential
    if p.dimension != 2:
        raise DomainError("two_dim_energy_ratio is a 2D diagnostic")
    if R == p.range_radius and p.has_hard_core():
        raise DomainError(
            f"the energy ratio is 0/0 at the hard-disc radius R={R!r}")
    kin, pot = _energy_parts(sol, R)
    return 1.0 if kin == math.inf else 2.0 * sol.mu * kin / (2.0 * sol.mu * kin + pot)
