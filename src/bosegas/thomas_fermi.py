"""Thomas-Fermi closed forms for power-law traps, and the trap units that
the GP solver shares, on Python floats: the `tf` command loads no numpy."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, float_range, require_finite
from .numerics import Tolerances, quad
from .potentials import TrapPotential, _omega

__all__ = ["TfState", "tf_solve", "tf_scaling", "tf_chemical_identity_gap"]


@dataclass(frozen=True)
class TfState:
    """Closed-form Thomas-Fermi minimizer parameters; the dimension is that
    of ``trap``."""

    trap: TrapPotential
    N: float
    a: float                   # coupling: a in 3D, 1 in the 2D convention
    mu_const: float
    mu_tf: float
    support_radius: float
    E_tf: float


def _trap_units(trap: TrapPotential, mu_const: float):
    """The trap length ell, scale ell^(s+2) = mu_const, and the energy unit
    mu_const / ell^2 of a power-law trap."""
    ell = (mu_const / trap.scale) ** (1.0 / (trap.homogeneity_degree + 2.0))
    if not 0.0 < ell < math.inf:        # float_range names the solve
        raise OverflowError(f"trap length (mu_const/scale)^(1/(s+2)) = {ell!r}")
    return ell, mu_const / ell ** 2


def _tf_mu_closed(s: float, d: int, g: float) -> float:
    """Closed-form TF chemical potential in trap units for the trap x^s at
    N=1, coupling g (3D: a = g; 2D: coupling-1 functional scaled by g)."""
    # int (mu - x^s)_+ d^dx = omega * mu^(1+d/s) * s / (d (d+s))
    coeff = _omega(d) * s / (d * (d + s))
    return (8.0 * math.pi * g / coeff) ** (s / (s + d))


@float_range
def tf_solve(trap: TrapPotential, N: float, a: float,
             mu_const: float = 1.0) -> TfState:
    """Thomas-Fermi minimizer for a power-law trap, in closed form.

    The density is [mu_tf - V]_+ / (8 pi mu_const c), c = a in 3D and 1 in
    the 2D coupling-1 convention.  In trap units (coupling g = c ell^(2-d))
    the support radius is R = (8 pi N g d (d+s) / (Omega_d s))^(1/(s+d)),
    mu = R^s and E_tf = N mu (s+d)/(2s+d).  R comes first, as a product of
    powers that each stay in range: mu^(1/s) loses its digits as s -> 0.
    """
    if trap.kind == "box":
        raise DomainError("TF closed forms are for power-law traps")
    require_finite(N=N, coupling=a, mu_const=mu_const)
    if mu_const <= 0:
        raise DomainError("mu_const must be positive")
    d = trap.dimension
    coupling = a if d == 3 else 1.0
    if not (N > 0 and 0.0 < 8.0 * math.pi * mu_const * coupling < math.inf):
        raise DomainError("need N > 0 and 0 < 8 pi mu_const coupling < inf")
    s = trap.homogeneity_degree
    ell, unit = _trap_units(trap, mu_const)
    g = coupling * ell ** (2 - d)                # the coupling in trap units
    p = 1.0 / (s + d)
    radius = (N ** p * g ** p
              * (8.0 * math.pi * d * (d + s) / _omega(d)) ** p / s ** p)
    mu = radius ** s
    mu_tf, support = unit * mu, ell * radius
    e_tf = N * mu_tf * ((s + d) / (2.0 * s + d))
    if not all(0.0 < v < math.inf for v in (mu_tf, support, e_tf)):
        raise ArithmeticError(f"mu_tf, support_radius, E_tf = {mu_tf!r}, "
                              f"{support!r}, {e_tf!r} leave (0, inf)")
    return TfState(trap=trap, N=N, a=coupling, mu_const=mu_const,
                   mu_tf=mu_tf, support_radius=support, E_tf=e_tf)


def tf_scaling(g: float, s: float, d: int = 3) -> float:
    """Exponent-law prediction E_TF(1, g) / E_TF(1, 1) = g^(s/(s+d))."""
    if g <= 0:
        raise DomainError("g must be positive")
    if d not in (2, 3):
        raise DomainError("d must be 2 or 3")
    return g ** (s / (s + d))


@float_range
def tf_chemical_identity_gap(state: TfState) -> float:
    """Relative gap in mu_tf = E_tf/N + (4 pi mu c / N) int rho^2, int rho^2
    by quadrature of the density over its support in trap units, scaled by
    mu and R so the integrand is of order one: (4 pi g / N) int rho^2 =
    Omega_d mu^2 R^d / (16 pi g N) int_0^1 (1 - (R t)^s / mu)^2 t^(d-1) dt."""
    tol = Tolerances(abs_tol=1e-13, rel_tol=1e-12)
    d = state.trap.dimension
    s = state.trap.homogeneity_degree
    ell, unit = _trap_units(state.trap, state.mu_const)
    g = state.a * ell ** (2 - d)
    mu, radius = state.mu_tf / unit, state.support_radius / ell
    shape = quad(lambda t: (1.0 - (radius * t) ** s / mu) ** 2 * t ** (d - 1),
                 (0.0, 1.0), tol)
    quartic = _omega(d) * (mu / g) * (mu / (16.0 * math.pi * state.N)) \
        * radius ** d * shape
    rhs = state.E_tf / unit / state.N + quartic
    return abs(mu - rhs) / mu
