"""Zero-energy two-body scattering in 3D and 2D.

Solves -2*mu*u'' + v*u = 0 (3D, u = r*psi) and the radial equation for psi
(2D) outward from the regular solution, continues analytically beyond the
interaction range (linear in 3D, logarithmic in 2D), and extracts the
scattering length from the asymptote.  Energy integrals are accumulated as
extra ODE components, so they inherit the integrator's accuracy.

The integration runs one segment at a time between the potential's
breakpoints (the step edge, the table knots and the point where a tail
attaches), so every integrator stage sees a smooth piece of v and no step
straddles a jump.  The reported run stops only at those segment ends; the
trajectory on the grid nodes (`ScatteringSolution.u_values`) is integrated
on first access.  Each state is chosen to stay bounded where the solution
grows without bound: w = u - r u' in 3D, and on the 2D tail segment, which
reaches out to the tail's cut radius, q = psi - chi ln r.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DomainError,
    GridTooCoarse,
    NoLogAsymptote,
    NonIntegrableTail,
    NotConverged,
    RadiusInsideRange,
    ZeroScatteringLength,
    float_range,
    require_finite,
)
from .numerics import RadialGrid, Tolerances, integrate_ode, quad
from .potentials import (
    PairPotential,
    born_pair_integral,
    pair_value,
    tail_integrability,
)

__all__ = [
    "ScatteringSolution",
    "scattering_grid",
    "solve_zero_energy",
    "scattering_length",
    "energy_integral",
    "kinetic_fraction",
    "two_dim_energy_ratio",
    "born_integral",
]


@dataclass(frozen=True)
class ScatteringSolution:
    """Radial zero-energy solution with derived quantities.

    ``slope`` is the asymptotic scale (u' beyond the range in 3D, r*psi' in
    2D), so dividing by it gives the u ~ r - a (3D) or psi ~ ln(r/a) (2D)
    normalization.  ``range_radius`` is where that asymptote is read off:
    the interaction range, or the cut radius of a tail.  ``tol`` holds the
    tolerances the reported run used.
    """

    dimension: int
    mu: float
    grid: RadialGrid
    a: float
    s: float
    converged: bool
    potential: PairPotential
    range_radius: float
    slope: float
    kin_interior: float   # int (u' - u/r)^2 dr (3D) / int psi'^2 r dr (2D), raw
    pot_interior: float   # int v u^2 dr (3D) / int v psi^2 r dr (2D), raw
    tol: Tolerances

    @property
    def has_kinetic_fraction(self) -> bool:
        """Whether kinetic_fraction defines s: in 2D, or for a > 1e-12 range."""
        return self.dimension == 2 or self.a > 1e-12 * self.range_radius

    @functools.cached_property
    def u_values(self) -> np.ndarray:
        """u(r) in 3D and psi(r) in 2D on the grid nodes, in the raw
        normalization of the outward integration.

        Computed on first access, by rerunning the reported integration with
        a forced stop at every node, so the values are exact there; a solve
        whose caller never reads them never pays for the stops.
        """
        solve = _solve_3d if self.dimension == 3 else _solve_2d
        run = solve(self.potential, self.mu, self.grid, self.tol, self.grid.nodes)
        r = self.grid.nodes
        with np.errstate(divide="ignore"):
            outer = (run.slope * (r - run.a) if self.dimension == 3
                     else run.u[-1] + run.slope * np.log(r / run.r_end))
        return np.where(r >= run.r_end, outer, np.interp(r, run.radii, run.u))


class _Run(NamedTuple):
    """One outward integration: a, s, the asymptotic slope, the raw interior
    energy integrals, the radius where the asymptote starts, and u (3D) or
    psi (2D) at the radii where the integration stopped."""

    a: float
    s: float
    slope: float
    kin: float
    pot: float
    r_end: float
    radii: np.ndarray
    u: np.ndarray


def _a_estimate(p: PairPotential, mu: float) -> float:
    if p.has_hard_core():
        return p.core_radius
    born = born_pair_integral(p)
    return min(p.range_radius, born / (8.0 * math.pi * mu) + 1e-3 * p.range_radius)


def scattering_grid(p: PairPotential, mu: float, n: int = 256) -> RadialGrid:
    """Default solver grid: r_max = max(2*range, 10*a-estimate), tail-aware."""
    rng = p.range_radius
    r_max = max(2.0 * rng, 10.0 * _a_estimate(p, mu))
    if p.tail is not None:
        report = tail_integrability(p)
        if not report.integrable:
            raise NonIntegrableTail("tail exponent <= dimension")
        r_max = max(r_max, report.cut_radius)
    return RadialGrid.uniform(0.0, r_max, n)


def _integration_radius(p: PairPotential, grid: RadialGrid) -> float:
    """Radius up to which the ODE must actually be integrated."""
    if p.tail is None:
        return p.range_radius
    return grid.r_max


def _edges(p: PairPotential, r_start: float, r_end: float) -> list:
    """r_start, the potential's breakpoints strictly between, and r_end."""
    return [r_start, *(b for b in p.breakpoints if r_start < b < r_end), r_end]


def _by_segments(rhs, init, edges, stops, tol):
    """Integrate rhs(last, r, y) one segment [lo, hi] of `edges` at a time.

    Every stage inside a segment sees that segment's own piece of the
    potential: `last` is the float just below hi, so the right end takes the
    left limit, and rhs evaluates v at min(r, last).  Each segment stops at
    its ends and at the `stops` strictly inside it.  Returns the radii and
    the states there, starting with edges[0] and init.
    """
    radii, states = [edges[0]], [np.asarray(init, dtype=float)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        last = float(np.nextafter(hi, lo))
        nodes = np.concatenate(([lo], stops[(stops > lo) & (stops < hi)], [hi]))
        traj = integrate_ode(functools.partial(rhs, last), states[-1], nodes, tol)
        radii.extend(nodes[1:])
        states.extend(traj[1:])
    return np.array(radii), np.array(states)


def _solve_3d(p, mu, grid, tol, stops) -> _Run:
    # The state is (w, u', kin, pot) with w = u - r u', so that a = -w/u'
    # beyond the range: w stays bounded where u ~ r grows, and a far cut
    # radius costs no cancellation in r_end - u/u'.
    r_end = _integration_radius(p, grid)
    r_start = p.core_radius if p.has_hard_core() else 0.0
    init = [-r_start, 1.0, 0.0, 0.0]    # u = 0, u' = 1
    if r_end <= r_start:   # pure hard core: exterior is exactly u = r - R0
        radii, traj = np.array([r_start]), np.array([init])
    else:
        def rhs(last, r, y):
            w, du, _, _ = y.tolist()
            if r <= 0.0:
                # regular solution: u ~ r, so u'' and w/r vanish at 0
                return (0.0, 0.0, 0.0, 0.0)
            v = pair_value(p, min(r, last))
            u = w + r * du
            curv = v * u / (2.0 * mu)
            grad = w / r     # u/r - u'
            return (-r * curv, curv, grad * grad, v * u * u)

        radii, traj = _by_segments(rhs, init, _edges(p, r_start, r_end),
                                   stops, tol)
    w_range, du_range, kin, pot = traj[-1]
    if du_range <= 0.0:
        raise DomainError("u' <= 0 at the range; potential not nonnegative?")
    a = -w_range / du_range

    if p.tail is not None:
        # first-order tail correction: neglected repulsion beyond the cut
        # radius adds int v r^2 dr / (2 mu) to a (psi ~ 1 out there)
        c_t, exponent = p.tail
        a += c_t * r_end ** (3 - exponent) / ((exponent - 3) * 2.0 * mu)

    # kinetic fraction s = int |grad psi0|^2 / (4 pi a), psi0 -> 1 at infinity
    c2 = du_range * du_range
    if a > 0.0:
        kin_total = kin / c2 + a * a / r_end
        s = kin_total / a
    else:
        s = math.nan
    return _Run(a, s, du_range, kin, pot, r_end, radii,
                traj[:, 0] + radii * traj[:, 1])


def _solve_2d(p, mu, grid, tol, stops) -> _Run:
    # The state is (psi, chi, kin, pot) with chi = r psi'.  On the tail
    # segment psi ~ chi ln r grows out to the cut radius, so the state there
    # is (q, chi, kin, pot) with q = psi - chi ln r, q' = -chi' ln r, and
    # a = exp(-q/chi) beyond the range.
    r_end = _integration_radius(p, grid)
    hard = p.has_hard_core()
    if hard and p.tail is None:
        # psi = ln(r/R0) solves the exterior equation exactly
        r0 = p.core_radius
        return _Run(r0, 1.0, 1.0, 0.0, 0.0, r0, np.array([r0]), np.zeros(1))

    r_start = p.core_radius if hard else 1e-9 * p.range_radius
    if hard:
        init = [0.0, 1.0, 0.0, 0.0]
    else:
        v0 = pair_value(p, r_start)
        init = [1.0, v0 * r_start * r_start / (4.0 * mu), 0.0, 0.0]

    def rhs(last, r, y):
        psi, chi, _, _ = y.tolist()
        v = pair_value(p, min(r, last))
        return (chi / r, r * v * psi / (2.0 * mu), chi * chi / r, v * psi * psi * r)

    def tail_rhs(last, r, y):
        q, chi, _, _ = y.tolist()
        v = pair_value(p, min(r, last))
        log_r = math.log(r)
        psi = q + chi * log_r
        dchi = r * v * psi / (2.0 * mu)
        return (-dchi * log_r, dchi, chi * chi / r, v * psi * psi * r)

    r_tail = p.range_radius
    tailed = r_end > r_tail     # the tail runs in q from where it attaches
    edges = _edges(p, r_start, r_end)
    radii, traj = _by_segments(rhs, init, [e for e in edges if e <= r_tail],
                               stops, tol)
    psi = traj[:, 0]
    if tailed:
        start = traj[-1].copy()
        start[0] -= start[1] * math.log(r_tail)
        tail_radii, traj = _by_segments(tail_rhs, start, [r_tail, r_end],
                                        stops, tol)
        radii = np.concatenate((radii, tail_radii[1:]))
        psi = np.concatenate(
            (psi, traj[1:, 0] + traj[1:, 1] * np.log(tail_radii[1:])))
    lead, chi_range, kin, pot = traj[-1]     # lead is q on a tail, else psi
    if chi_range <= 0.0:
        raise NoLogAsymptote("no logarithmic asymptote: v vanishes identically")
    # psi = chi ln(r/a) beyond the range: a = r exp(-psi/chi) = exp(-q/chi)
    a = math.exp(-lead / chi_range) * (1.0 if tailed else r_end)
    # s = 1: the 2D interaction energy is purely kinetic
    return _Run(a, 1.0, chi_range, kin, pot, r_end, radii, psi)


@float_range
def solve_zero_energy(p: PairPotential, mu: float, grid: Optional[RadialGrid] = None,
                      tol: Optional[Tolerances] = None) -> ScatteringSolution:
    """Solve the zero-energy scattering problem and extract a (and s in 3D).

    Parameters
    ----------
    p : pair potential (its dimension tag selects the 3D or 2D equation)
    mu : the kinetic coefficient hbar^2 / 2m
    grid : output grid; defaults to `scattering_grid(p, mu)`.  A tail is
        integrated out to its r_max.  The solve itself stops only at the
        potential's breakpoints, so the node count costs nothing until
        `u_values` is read: that integrates onto the nodes on first access.
    tol : integrator tolerances.  A rerun at abs_tol/10 and rel_tol/10
        gates `converged`: if a moves by more than
        10 * max(rel_tol * max(|a|, range), abs_tol), GridTooCoarse is raised.

    The 3D state is (u - r u', u', ...) throughout; the 2D state is
    (psi, r psi', ...) inside the range and (psi - r psi' ln r, r psi', ...)
    on a tail, so that neither grows with the radius where a is read off.
    """
    require_finite(mu=mu)
    if mu <= 0:
        raise DomainError("mu must be positive")
    report = tail_integrability(p)
    if not report.integrable:
        raise NonIntegrableTail(
            "potential tail decays too slowly; scattering length infinite")
    tol = tol or Tolerances(abs_tol=1e-13, rel_tol=1e-11)
    grid = grid or scattering_grid(p, mu)
    if p.core_radius >= grid.r_max:
        raise DomainError("hard-core radius must lie inside the grid")

    tighter = Tolerances(abs_tol=tol.abs_tol / 10.0, rel_tol=tol.rel_tol / 10.0,
                         max_iterations=tol.max_iterations)
    solve = _solve_3d if p.dimension == 3 else _solve_2d
    segment_ends_only = np.empty(0)
    run = solve(p, mu, grid, tol, segment_ends_only)
    a, a2 = run.a, solve(p, mu, grid, tighter, segment_ends_only).a

    scale = max(abs(a), p.range_radius)
    converged = abs(a - a2) <= 10.0 * max(tol.rel_tol * scale, tol.abs_tol)
    if not converged:
        raise GridTooCoarse(
            f"scattering length moved by {abs(a - a2):.3e} under a tenfold "
            f"tighter tolerance")

    return ScatteringSolution(
        dimension=p.dimension, mu=mu, grid=grid, a=a, s=run.s,
        converged=converged, potential=p, range_radius=run.r_end,
        slope=run.slope, kin_interior=run.kin, pot_interior=run.pot, tol=tol)


def scattering_length(sol: ScatteringSolution) -> float:
    """The scattering length extracted from the asymptote."""
    if not sol.converged:
        raise NotConverged("solution did not pass the convergence gate")
    return sol.a


def energy_integral(sol: ScatteringSolution, R: float) -> float:
    """int_{|x|<=R} (2 mu |grad psi0|^2 + v psi0^2) d^3x, psi0 -> 1 at infinity.

    Equals 8 pi mu a (1 - a/R) for finite-range potentials.  R may lie
    anywhere beyond the potential's range: inside a tail's cut radius the
    interior integrals come from a rerun of the solve out to R.
    """
    if sol.dimension != 3:
        raise DomainError("energy_integral is a 3D operation")
    if not sol.converged:
        raise NotConverged("solution did not pass the convergence gate")
    p = sol.potential
    if R < p.range_radius:
        raise RadiusInsideRange(
            f"R={R!r} lies inside the interaction range {p.range_radius!r}")
    mu, a, c = sol.mu, sol.a, sol.slope
    c2 = c * c
    if R < sol.range_radius:    # a tail is integrated out to the grid's end
        run = _solve_3d(p, mu, RadialGrid.uniform(0.0, R, 16), sol.tol,
                        np.empty(0))
        return 4.0 * math.pi * (2.0 * mu * run.kin + run.pot) / c2
    kin = sol.kin_interior / c2 + a * a * (1.0 / sol.range_radius - 1.0 / R)
    pot = sol.pot_interior / c2
    if p.tail is not None and R > sol.range_radius:
        def tail_term(r):
            return pair_value(p, r) * (1.0 - a / r) ** 2 * r * r

        pot += quad(tail_term, (sol.range_radius, R),
                    Tolerances(abs_tol=1e-13, rel_tol=1e-10))
    return 4.0 * math.pi * (2.0 * mu * kin + pot)


def kinetic_fraction(sol: ScatteringSolution) -> float:
    """s = int |grad psi0|^2 d^3x / (4 pi a); equals 1 identically in 2D."""
    if sol.dimension == 2:
        return 1.0
    if not sol.converged:
        raise NotConverged("solution did not pass the convergence gate")
    if not sol.has_kinetic_fraction:
        raise ZeroScatteringLength("kinetic fraction undefined for a = 0")
    return sol.s


def two_dim_energy_ratio(sol: ScatteringSolution, R: float) -> float:
    """Kinetic share of the 2D energy integral over a disc of radius R.

    Tends to 1 like 1/ln(R/a): the logarithmically growing kinetic part
    dominates the finite potential part.
    """
    if sol.dimension != 2:
        raise DomainError("two_dim_energy_ratio is a 2D diagnostic")
    if R < sol.range_radius:
        raise RadiusInsideRange("R inside the interaction range")
    c2 = sol.slope * sol.slope
    kin = 2.0 * sol.mu * (sol.kin_interior / c2 + math.log(R / sol.range_radius))
    pot = sol.pot_interior / c2
    return kin / (kin + pot)


def born_integral(p: PairPotential, d: Optional[int] = None) -> float:
    """First Born integral int v(|x|) d^dx (an upper bound for 8 pi mu a in 3D)."""
    if d is not None and d != p.dimension:
        p = dataclasses.replace(p, dimension=d)
    return born_pair_integral(p)
