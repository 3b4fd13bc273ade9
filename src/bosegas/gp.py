"""Gross-Pitaevskii and Thomas-Fermi solvers on radial grids (3D and 2D).

The GP minimizer runs Newton's method on the discrete eigenproblem
H(u) u = lambda u with the particle-number constraint <u, u>_W = N: each
step is one tridiagonal solve with two right-hand sides.  A Newton step is
kept only if it is finite, does not change sign in the bulk and does not
raise the discrete energy; otherwise the step is a normalized gradient flow
step (linearized backward Euler in imaginary time, renormalized, with
backtracking so the energy never increases between accepted iterations).
The flow is the globalizer, Newton gives the fast local convergence.  In 3D
the substitution w = r*phi turns the radial problem into a plain 1D
Dirichlet problem; in 2D a cell-centered conservative stencil handles the
r = 0 axis.

Box traps use the closed-form constant profile (the gradient-term subtlety
of true Dirichlet boxes is out of scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DomainError, NegativeCoupling, NoConvergence,
                     NotConverged, float_range, require_finite)
from .numerics import RadialGrid, Tolerances, find_root, quad
from .potentials import TrapPotential

__all__ = [
    "GpState",
    "TfState",
    "gp_minimize",
    "gp_residual",
    "chemical_potential",
    "mean_density",
    "coupling_2d",
    "two_dim_coupling",
    "tf_solve",
    "tf_energy",
    "tf_density",
    "tf_scaling",
    "gp_tf_limit",
    "export_profile",
]


def _omega(d: int) -> float:
    return 4.0 * math.pi if d == 3 else 2.0 * math.pi


@dataclass(frozen=True)
class GpState:
    """Converged GP minimizer on a radial grid with its energy breakdown."""

    dimension: int
    trap: TrapPotential
    N: float
    coupling: float           # scattering length a (3D) or alpha (2D)
    mu_const: float
    grid: RadialGrid
    phi: np.ndarray
    kinetic: float
    trap_energy: float
    interaction: float
    E: float
    mu_gp: float
    residual: float
    converged: bool
    iterations: int
    residual_trace: tuple
    energy_trace: tuple = ()
    newton_steps: int = 0     # accepted Newton steps among the iterations

    @property
    def energy_breakdown(self):
        return self.kinetic, self.trap_energy, self.interaction

    def density(self) -> np.ndarray:
        return self.phi ** 2


@dataclass(frozen=True)
class TfState:
    """Closed-form Thomas-Fermi minimizer parameters."""

    dimension: int
    trap: TrapPotential
    N: float
    a: float                   # coupling: a in 3D, 1 in the 2D convention
    mu_const: float
    mu_tf: float
    support_radius: float
    E_tf: float


# --- discrete operators --------------------------------------------------------


class _Discretization:
    """Uniform radial discretization with SPD kinetic + potential operator."""

    def __init__(self, trap: TrapPotential, mu_const: float, d: int,
                 r_max: float, n: int):
        # LAPACK is loaded by the first GP solve, not by importing bosegas
        from scipy.linalg import solve_banded

        self.solve_banded = solve_banded
        self.d = d
        self.mu = mu_const
        self.trap = trap
        h = r_max / (n + 1) if d == 3 else r_max / n
        self.h = h
        if d == 3:
            self.r = h * np.arange(1, n + 1)
        else:
            self.r = h * (np.arange(n) + 0.5)
        self.V = np.asarray(trap.radial(self.r), dtype=float)
        # quadrature weights for int f(r) Omega_d r^(d-1) dr
        if d == 3:
            self.weights = 4.0 * math.pi * h * np.ones(n)   # acts on w = r*phi
        else:
            self.weights = 2.0 * math.pi * h * self.r
        if d == 3:
            main = 2.0 * np.ones(n) * mu_const / h ** 2
            off = -np.ones(n - 1) * mu_const / h ** 2
        else:
            e = h * np.arange(n + 1)        # edge radii, e[0] = 0
            main = mu_const * (e[:-1] + e[1:]) / (self.r * h ** 2)
            off = -mu_const * e[1:-1] / (np.sqrt(self.r[:-1] * self.r[1:]) * h ** 2)
            # symmetrize in the weighted inner product: work with y = sqrt(r) u
        self.main = main
        # LAPACK band storage; only the diagonal row changes between solves
        self._band = np.zeros((3, n))
        self._band[0, 1:] = off
        self._band[2, :-1] = off
        self._sqrt_r = np.sqrt(self.r)

    def kinetic_quadratic(self, u: np.ndarray) -> float:
        """<u, A u> with the kinetic stencil (dimensionful energy)."""
        if self.d == 3:
            diffs = np.diff(np.concatenate(([0.0], u, [0.0])))
            return 4.0 * math.pi * self.mu * np.sum(diffs ** 2) / self.h
        e = self.h * np.arange(len(u) + 1)
        diffs = np.diff(np.concatenate((u, [0.0])))   # inner edge flux-free
        return 2.0 * math.pi * self.mu * (
            np.sum(e[1:] * diffs ** 2) / self.h)

    def apply_kinetic(self, u: np.ndarray) -> np.ndarray:
        if self.d == 3:
            out = 2.0 * u.copy()
            out[:-1] -= u[1:]
            out[1:] -= u[:-1]
            return self.mu * out / self.h ** 2
        n = len(u)
        e = self.h * np.arange(n + 1)
        up = np.concatenate((u, [0.0]))
        outward = e[1:] * (u - up[1:])                       # edge e_{i+1}
        inward = np.concatenate(([0.0], e[1:-1] * (u[1:] - u[:-1])))
        return self.mu * (outward + inward) / (self.r * self.h ** 2)

    def solve(self, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve (A + diag) x = rhs; rhs is one vector or a column stack.

        In 2D the conservative stencil is symmetric only in the r-weighted
        inner product, so the similarity-transformed symmetric system in
        y = sqrt(r) x is solved (main and the band hold its coefficients).
        With a positive diag the matrix is an M-matrix and keeps rhs > 0
        positive.
        """
        band = self._band.copy()
        band[1] = self.main + diag
        if self.d == 3:
            return self.solve_banded((1, 1), band, rhs)
        s = self._sqrt_r if rhs.ndim == 1 else self._sqrt_r[:, None]
        return self.solve_banded((1, 1), band, rhs * s) / s


def _interaction_coeff(mu_const: float, coupling: float) -> float:
    return 4.0 * math.pi * mu_const * coupling


def _auto_extent(trap: TrapPotential, mu_const: float, d: int,
                 g_eff: float) -> float:
    """Domain radius covering the linear ground state and the TF cloud."""
    s = trap.homogeneity_degree
    c = trap.scale
    w0 = (mu_const / c) ** (1.0 / (s + 2.0))
    r_max = 9.0 * w0
    if g_eff > 0:
        mu_tf = _tf_mu_closed(trap, mu_const, d, max(g_eff, 1e-12))
        r_tf = (mu_tf / c) ** (1.0 / s)
        r_max = max(r_max, 1.35 * r_tf + 4.0 * w0)
    return r_max


def _tf_mu_closed(trap: TrapPotential, mu_const: float, d: int,
                  g: float) -> float:
    """Closed-form TF chemical potential for the power trap c r^s at N=1,
    coupling g (3D: a = g; 2D: coupling-1 functional scaled by g)."""
    s = trap.homogeneity_degree
    c = trap.scale
    omega = _omega(d)
    # int (mu - c r^s)_+ d^dx = omega * mu^(1+d/s) c^(-d/s) * s / (d (d+s))
    coeff = omega * c ** (-d / s) * s / (d * (d + s))
    target = 8.0 * math.pi * mu_const * g
    return (target / coeff) ** (s / (s + d))


# --- the minimizer ---------------------------------------------------------------


@float_range
def gp_minimize(trap: TrapPotential, N: float, coupling: float,
                mu_const: float = 1.0, grid_points: int = 2000,
                tol: Optional[Tolerances] = None,
                r_max: Optional[float] = None,
                residual_tol: float = 1e-9) -> GpState:
    """Minimize the GP functional at particle number N.

    Returns a state with phi >= 0 on the grid, positive except where the
    far tail underflows to 0 at extreme coupling, the energy breakdown, the
    chemical potential E/N + (4 pi mu c/N) int phi^4, and the relative
    residual of the discrete GP equation.  The solve stops at the first
    accepted step (Newton or flow) whose residual is <= residual_tol and
    whose energy change is at most rel_tol |E| + abs_tol.  `iterations`
    counts the passes of the solver loop, `newton_steps` the accepted Newton
    steps among them.  The domain radius and spacing depend on the trap and
    the product N*coupling only, so states related by the (N, a) -> (1, N a)
    scaling share one discretization exactly.
    """
    if not all(map(math.isfinite, (N, coupling, mu_const))):
        raise DomainError("N, coupling and mu_const must be finite")
    if mu_const <= 0:
        raise DomainError("mu_const must be positive")
    if coupling < 0:
        raise NegativeCoupling("coupling must be nonnegative")
    if N <= 0:
        raise DomainError("N must be positive")
    if grid_points < 16:
        raise DomainError("grid needs at least 16 nodes")
    d = trap.dimension
    tol = tol or Tolerances(abs_tol=1e-12, rel_tol=1e-13, max_iterations=20000)

    if trap.kind == "box":
        return _box_state(trap, N, coupling, mu_const)

    g_eff = N * coupling
    if r_max is None:
        r_max = _auto_extent(trap, mu_const, d, g_eff)
    disc = _Discretization(trap, mu_const, d, r_max, grid_points)
    r, V = disc.r, disc.V
    g_int = _interaction_coeff(mu_const, coupling)

    def interaction_diag(u):
        dens = (u / r) ** 2 if d == 3 else u ** 2
        return 2.0 * g_int * dens     # 8 pi mu c |phi|^2 in the GP operator

    def energy(u):
        dens = (u / r) ** 2 if d == 3 else u ** 2
        kin = disc.kinetic_quadratic(u)
        trap_e = float(np.sum(disc.weights * V * u ** 2))
        inter = float(np.sum(disc.weights * g_int * dens * u ** 2))
        return kin + trap_e + inter, (kin, trap_e, inter)

    def normalize(u):
        norm = float(np.sum(disc.weights * u ** 2))
        return u * math.sqrt(N / norm)

    def newton_candidate(u, h_u, lam):
        """One Newton step on H(u) u = lam u, <u, u>_W = N, or None.

        The Jacobian is A + V + 3 int(u) - lam; its solves against F and u
        give dlam from the linearized constraint <u, du>_W = 0.  A candidate
        that changes sign in the bulk or is not finite is refused; the
        round-off sign flips of the far tail are dropped by |u|.
        """
        rhs = np.column_stack((h_u - lam * u, u))
        try:
            sol = disc.solve(V + 3.0 * interaction_diag(u) - lam, rhs)
        except np.linalg.LinAlgError:       # lam hit an eigenvalue exactly
            return None
        step_a, step_b = sol[:, 0], sol[:, 1]
        with np.errstate(all="ignore"):     # a nearly singular solve
            dlam = np.sum(disc.weights * u * step_a) \
                / np.sum(disc.weights * u * step_b)
            cand = u - step_a + dlam * step_b
        if not np.all(np.isfinite(cand)):
            return None
        # |min(cand, 0)|_W <= 1e-10 |cand|_W, squared
        neg = np.sum(disc.weights * np.minimum(cand, 0.0) ** 2)
        if neg > 1e-20 * np.sum(disc.weights * cand ** 2):
            return None
        return normalize(np.abs(cand))

    u = _initial_profile(disc, trap, mu_const, g_eff)
    u = normalize(u)
    e_old, _ = energy(u)
    h_u, lam, _ = _rayleigh(disc, u, V, interaction_diag)
    tau = 0.2 / max(1.0, abs(e_old) / N)
    resid_hist = []
    e_hist = [e_old]
    converged = False
    iterations = newton_steps = 0
    try_newton = True

    for iterations in range(1, tol.max_iterations + 1):
        trial = newton_candidate(u, h_u, lam) if try_newton else None
        if trial is not None:
            e_new, _ = energy(trial)
            if e_new > e_old + 1e-14 * abs(e_old):
                trial = None
        if trial is None:
            # fall back on a backtracking flow step: linearized backward
            # Euler, (A + V + int(u) + 1/tau) u_new = u / tau
            trial = normalize(disc.solve(V + interaction_diag(u) + 1.0 / tau,
                                         u / tau))
            e_new, _ = energy(trial)
            if e_new > e_old + 1e-14 * abs(e_old):
                try_newton = False
                tau *= 0.5
                if tau < 1e-14:
                    raise NoConvergence("step size underflow in gradient flow")
                continue
            tau = min(tau * 1.1, 2.0)
        else:
            newton_steps += 1
        try_newton = True
        u = trial
        flat = abs(e_new - e_old) <= tol.rel_tol * abs(e_new) + tol.abs_tol
        e_old = min(e_new, e_old)
        e_hist.append(e_new)
        h_u, lam, res = _rayleigh(disc, u, V, interaction_diag)
        resid_hist.append(res)
        if res <= residual_tol and flat:
            converged = True
            break
    if not converged:
        raise NoConvergence(
            f"GP residual {resid_hist[-1]:.3e} after "
            f"{iterations} iterations")

    e_total = e_hist[-1]
    _, (kin, trap_e, inter) = energy(u)
    phi = u / r if d == 3 else u.copy()
    quartic = float(np.sum(disc.weights * (phi * r) ** 4 / r ** 2)) if d == 3 \
        else float(np.sum(disc.weights * phi ** 4))
    mu_gp = e_total / N + g_int / N * quartic
    grid = RadialGrid(r_min=float(r[0]), r_max=float(r[-1]), nodes=r)
    return GpState(
        dimension=d, trap=trap, N=N, coupling=coupling, mu_const=mu_const,
        grid=grid, phi=phi, kinetic=kin, trap_energy=trap_e,
        interaction=inter, E=e_total, mu_gp=mu_gp,
        residual=resid_hist[-1], converged=True, iterations=iterations,
        residual_trace=tuple(resid_hist[-32:]),
        energy_trace=tuple(e_hist[-64:]), newton_steps=newton_steps)


def _initial_profile(disc, trap, mu_const, g_eff):
    r = disc.r
    s = trap.homogeneity_degree
    w0 = (mu_const / trap.scale) ** (1.0 / (s + 2.0))
    gauss = np.exp(-0.5 * (r / (1.5 * w0)) ** 2)
    if g_eff > 10.0:
        mu_tf = _tf_mu_closed(trap, mu_const, disc.d, g_eff)
        dens = np.maximum(mu_tf - np.asarray(trap.radial(r)), 0.0)
        prof = np.sqrt(dens) + 1e-6 * math.sqrt(mu_tf) * gauss
    else:
        prof = gauss
    return prof * r if disc.d == 3 else prof


def _rayleigh(disc, u, V, interaction_diag):
    """H(u) u, the Rayleigh quotient lam and the relative residual
    |H(u) u - lam u|_W / (|lam| |u|_W) of the discrete GP equation."""
    h_u = disc.apply_kinetic(u) + (V + interaction_diag(u)) * u
    lam = float(np.sum(disc.weights * u * h_u) / np.sum(disc.weights * u * u))
    num = np.sqrt(np.sum(disc.weights * (h_u - lam * u) ** 2))
    den = abs(lam) * np.sqrt(np.sum(disc.weights * u * u))
    return h_u, lam, float(num / den)


def _box_state(trap, N, coupling, mu_const):
    d = trap.dimension
    L = trap.box_side
    volume = L ** d
    value = math.sqrt(N / volume)
    g_int = _interaction_coeff(mu_const, coupling)
    inter = g_int * N * N / volume
    n_nodes = 33
    nodes = np.linspace(L / n_nodes, L, n_nodes)
    grid = RadialGrid(r_min=float(nodes[0]), r_max=L, nodes=nodes)
    mu_gp = 2.0 * inter / N
    return GpState(dimension=d, trap=trap, N=N, coupling=coupling,
                   mu_const=mu_const, grid=grid,
                   phi=np.full(n_nodes, value), kinetic=0.0, trap_energy=0.0,
                   interaction=inter, E=inter, mu_gp=mu_gp, residual=0.0,
                   converged=True, iterations=0, residual_trace=(0.0,))


def gp_residual(state: GpState) -> float:
    """Relative L2 residual of the discrete GP equation at the stored profile."""
    if state.trap.kind == "box":
        return 0.0
    d = state.dimension
    n = len(state.grid)
    # both discretizations place the outer Dirichlet edge one spacing unit
    # beyond/at the last node: R = r_max + r_min (h or h/2 offset)
    r_max = state.grid.r_max + state.grid.r_min
    disc = _Discretization(state.trap, state.mu_const, d, r_max, n)
    u = state.phi * disc.r if d == 3 else np.asarray(state.phi, dtype=float)
    g_int = _interaction_coeff(state.mu_const, state.coupling)

    def interaction_diag(w):
        dens = (w / disc.r) ** 2 if d == 3 else w ** 2
        return 2.0 * g_int * dens

    return _rayleigh(disc, u, disc.V, interaction_diag)[2]


def chemical_potential(state: GpState) -> float:
    """mu_GP = E/N + (4 pi mu c / N) int phi^4 (c = a in 3D, alpha in 2D)."""
    if not state.converged:
        raise NotConverged("state is not converged")
    return state.mu_gp


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule for n >= 3 samples y at strictly increasing x.

    A 1-D port of SciPy's `integrate.simpson(y, x=x)` (scipy/integrate/
    _quadrature.py, BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc.
    and 2003-2024 SciPy Developers), same operations in the same order, so
    the value agrees bit for bit.  Each pair of intervals gets the
    uneven-spacing parabola; for an even number of samples the last interval
    gets Cartwright's (2017) correction.
    """
    n = y.size
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                  + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                                  + y[2:stop + 2:2] * (2.0 - h0divh1)))
    if n % 2 == 0:
        p, q = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = (2 * q ** 2 + 3 * p * q) / (6 * (q + p))
        beta = (q ** 2 + 3.0 * p * q) / (6 * p)
        eta = q ** 3 / (6 * p * (p + q))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(result)


@float_range
def mean_density(state: GpState) -> float:
    """Mean density (1/N) int |phi|^4 d^dx (Simpson quadrature)."""
    if not state.converged:
        raise NotConverged("state is not converged")
    if state.trap.kind == "box":
        return state.N / state.trap.box_side ** state.dimension
    d = state.dimension
    r = state.grid.nodes
    jac = _omega(d) * r ** (d - 1)
    body = _simpson(state.phi ** 4 * jac, r)
    # the grid starts off-axis; phi is flat at the origin, so the missing
    # [0, r_min) piece integrates to phi(r_min)^4 Omega r_min^d / d
    origin = float(state.phi[0]) ** 4 * _omega(d) * r[0] ** d / d
    return (body + origin) / state.N


def coupling_2d(rho_bar_N: float, a: float) -> float:
    """2D coupling alpha = 1/|ln(rho_bar_N a^2)| from a coupling-1 mean density."""
    x = rho_bar_N * a * a
    if not (0.0 < x < 1.0):
        raise DomainError("need 0 < rho_bar_N a^2 < 1")
    return 1.0 / abs(math.log(x))


def two_dim_coupling(trap: TrapPotential, N: float, a: float,
                     mu_const: float = 1.0, grid_points: int = 1500) -> float:
    """alpha for a 2D gas: solve the coupling-1 functional once, then apply
    the mean-density formula.  No self-consistency loop."""
    if trap.dimension != 2:
        raise DomainError("two_dim_coupling is a 2D operation")
    state = gp_minimize(trap, N, 1.0, mu_const, grid_points=grid_points)
    return coupling_2d(mean_density(state), a)


# --- Thomas-Fermi -----------------------------------------------------------------


@float_range
def tf_solve(trap: TrapPotential, N: float, a: float, mu_const: float = 1.0,
             tol: Optional[Tolerances] = None) -> TfState:
    """Thomas-Fermi minimizer for a power-law trap.

    The density is [mu_tf - V]_+ / (8 pi mu c) with c = a in 3D and c = 1 in
    the 2D coupling-1 convention; mu_tf is found by root-finding the
    normalization integral (evaluated by quadrature).
    """
    if trap.kind == "box":
        raise DomainError("TF closed forms are for power-law traps")
    require_finite(N=N, coupling=a, mu_const=mu_const)
    if mu_const <= 0:
        raise DomainError("mu_const must be positive")
    d = trap.dimension
    coupling = a if d == 3 else 1.0
    denom = 8.0 * math.pi * mu_const * coupling
    if not (N > 0 and 0.0 < denom < math.inf):
        raise DomainError("need N > 0 and 0 < 8 pi mu_const coupling < inf")
    tol = tol or Tolerances(abs_tol=1e-13, rel_tol=1e-12)
    s = trap.homogeneity_degree
    c = trap.scale
    omega = _omega(d)

    def norm_residual(mu):
        r_edge = (mu / c) ** (1.0 / s)
        integral = quad(lambda r: (mu - c * r ** s) * r ** (d - 1),
                        (0.0, r_edge), tol)
        return omega * integral / denom - N

    mu_hi = _tf_mu_closed(trap, mu_const, d, N * coupling) * 2.0 + 1.0
    while norm_residual(mu_hi) < 0.0:
        mu_hi *= 2.0
    mu_tf = find_root(norm_residual, (1e-300, mu_hi), tol)
    support = (mu_tf / c) ** (1.0 / s)

    def energy_density(r):
        rho = (mu_tf - c * r ** s) / denom
        v = c * r ** s
        return (v * rho + 4.0 * math.pi * mu_const * coupling * rho * rho) \
            * r ** (d - 1)

    e_tf = omega * quad(energy_density, (0.0, support), tol)
    return TfState(dimension=d, trap=trap, N=N, a=coupling,
                   mu_const=mu_const, mu_tf=mu_tf, support_radius=support,
                   E_tf=e_tf)


def tf_density(state: TfState, r) -> np.ndarray:
    """TF density profile [mu_tf - V(r)]_+ / (8 pi mu c); zero outside support."""
    r = np.asarray(r, dtype=float)
    v = state.trap.scale * r ** state.trap.homogeneity_degree
    denom = 8.0 * math.pi * state.mu_const * state.a
    return np.maximum(state.mu_tf - v, 0.0) / denom


def tf_energy(state: TfState) -> float:
    return state.E_tf


def tf_scaling(g: float, s: float, d: int = 3) -> float:
    """Exponent-law prediction E_TF(1, g) / E_TF(1, 1) = g^(s/(s+d))."""
    if g <= 0:
        raise DomainError("g must be positive")
    if d not in (2, 3):
        raise DomainError("d must be 2 or 3")
    return g ** (s / (s + d))


def tf_chemical_identity_gap(state: TfState) -> float:
    """Relative gap in mu_tf = E_tf/N + (4 pi mu c / N) int rho^2."""
    tol = Tolerances(abs_tol=1e-13, rel_tol=1e-12)
    d = state.dimension
    omega = _omega(d)
    quartic = omega * quad(
        lambda r: tf_density(state, r) ** 2 * r ** (d - 1),
        (0.0, state.support_radius), tol)
    rhs = state.E_tf / state.N \
        + 4.0 * math.pi * state.mu_const * state.a / state.N * quartic
    return abs(state.mu_tf - rhs) / abs(state.mu_tf)


# --- GP -> TF limit ---------------------------------------------------------------


def gp_tf_limit(trap: TrapPotential, g_sequence: Sequence[float],
                grid_points: int = 2000):
    """Energy ratios and rescaled-density L1 distances along increasing g.

    3D: ratio E_GP(1, g)/E_TF(1, g); rescaled density g^(3/(s+3))
    rho_GP(g^(1/(s+3)) x) against rho_TF(1,1).  2D: E_GP(1, g)/(g^(s/(s+2))
    E_TF(1,1)) with the g^(2/(s+2)) density rescaling.
    """
    gs = list(g_sequence)
    if any(b <= a for a, b in zip(gs, gs[1:])):
        raise DomainError("g_sequence must be increasing")
    d = trap.dimension
    s = trap.homogeneity_degree
    tf_unit = tf_solve(trap, 1.0, 1.0)
    rows = []
    for g in gs:
        state = gp_minimize(trap, 1.0, g, grid_points=grid_points)
        if d == 3:
            tf = tf_solve(trap, 1.0, g)
            ratio = state.E / tf.E_tf
            scale = g ** (1.0 / (s + 3.0))
            dens_scale = g ** (3.0 / (s + 3.0))
        else:
            ratio = state.E / (g ** (s / (s + 2.0)) * tf_unit.E_tf)
            scale = g ** (1.0 / (s + 2.0))
            dens_scale = g ** (2.0 / (s + 2.0))
        r_ref = np.linspace(0.0, 1.4 * tf_unit.support_radius, 800)
        rho_ref = tf_density(tf_unit, r_ref)
        rho_gp = dens_scale * np.interp(scale * r_ref, state.grid.nodes,
                                        state.phi ** 2, right=0.0)
        jac = _omega(d) * r_ref ** (d - 1)
        l1 = float(np.trapezoid(np.abs(rho_gp - rho_ref) * jac, r_ref))
        rows.append({"g": g, "E_gp": state.E,
                     "E_tf": (tf.E_tf if d == 3
                              else g ** (s / (s + 2.0)) * tf_unit.E_tf),
                     "ratio": ratio, "l1_rescaled": l1})
    return rows


def export_profile(state: GpState, path: str) -> None:
    """Write the density profile as CSV (r, phi, rho) with # metadata lines."""
    trap = state.trap
    if trap.kind == "box":
        trap_spec = f"box:l={trap.box_side!r}"
    elif trap.kind == "harmonic":
        trap_spec = f"harmonic:scale={trap.scale!r}"
    else:
        trap_spec = f"power:s={trap.homogeneity_degree!r},scale={trap.scale!r}"
    lines = [
        f"# trap = {trap_spec}",
        f"# dimension = {state.dimension}",
        f"# N = {state.N!r}",
        f"# coupling = {state.coupling!r}",
        f"# mu_const = {state.mu_const!r}",
        f"# E = {state.E!r}",
        f"# mu_gp = {state.mu_gp!r}",
        "r,phi,rho",
    ]
    for r, phi in zip(state.grid.nodes, state.phi):
        lines.append(f"{r!r},{phi!r},{phi * phi!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
