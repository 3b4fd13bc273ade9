"""Gross-Pitaevskii and Thomas-Fermi solvers on radial grids (3D and 2D).

A trap is a box or a power law V = scale r^s, of which the harmonic trap
is s = 2: the solvers read only s and scale, and branch only on the box.
Both solve in trap units: for V = scale r^s, with scale ell^(s+2) = mu_const,
x = r/ell and phi = ell^(-d/2) psi, the GP energy is mu_const/ell^2 times
the one with unit kinetic and trap coefficients and coupling c ell^(2-d)
(Lieb, Seiringer & Yngvason, PRA 61, 043602 (2000)).  The results are
mapped back; at ell = 1 and mu_const = 1 every factor is exactly 1.

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

import ctypes
import functools
import glob
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NoConvergence, float_range
from .numerics import Tolerances
from .potentials import TrapPotential, _omega, trap_spec
# re-exported; the `tf` command imports their numpy-free module alone
from .thomas_fermi import (TfState, _tf_mu_closed, _trap_units,
                           check_gp_arguments, check_gp_tf_limit_arguments,
                           tf_scaling, tf_solve)

__all__ = [
    "GpState",
    "TfState",
    "gp_minimize",
    "gp_residual",
    "mean_density",
    "tf_solve",
    "tf_density",
    "tf_scaling",
    "gp_tf_limit",
    "export_profile",
]


@dataclass(frozen=True)
class GpState:
    """Converged GP minimizer on a radial grid with its energy breakdown.

    Every state has passed the stopping rule of `gp_minimize`: a solve that
    misses it raises NoConvergence.  The dimension is that of ``trap``.
    """

    trap: TrapPotential
    N: float
    coupling: float           # scattering length a (3D) or alpha (2D)
    mu_const: float
    r: np.ndarray             # the grid: increasing radii of phi, r[0] > 0
    phi: np.ndarray
    kinetic: float
    trap_energy: float
    interaction: float
    E: float
    mu_gp: float
    residual: float
    iterations: int
    newton_steps: int = 0     # accepted Newton steps among the iterations


@functools.cache
def _numpy_dgtsv():
    """numpy's LAPACK dgtsv and its integer type, bound on the first GP solve
    from the scipy-openblas that numpy ships and has loaded; None on another
    LAPACK, or where that library or its symbol is not found exactly once."""
    lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
    wide = "USE64BITINT" in lapack.get("openblas configuration", "")
    suffix, integer = ("64_", ctypes.c_int64) if wide else ("", ctypes.c_int32)
    libs = glob.glob(f"{np.__path__[0]}.libs/libscipy_openblas{suffix}-*")
    if lapack.get("name") != "scipy-openblas" or len(libs) != 1:
        return None
    routine = getattr(ctypes.CDLL(libs[0]), f"scipy_dgtsv_{suffix}", None)
    if routine is None:
        return None
    ref = ctypes.POINTER(integer)
    routine.argtypes = [ref, ref] + [ctypes.c_void_p] * 4 + [ref, ref]
    routine.restype = None
    return routine, integer


def _dgtsv(dl, d, du, b):
    """Solve the tridiagonal system (dl, d, du) x = b, b one vector or a
    column stack, by LAPACK dgtsv (Anderson et al., LAPACK Users' Guide,
    SIAM 1999) with scipy.linalg.solve_banded's checks and errors."""
    # float64 Fortran-ordered copies: dgtsv overwrites all four
    dl, d, du, x = (np.array(v, float, order="F") for v in (dl, d, du, b))
    n = d.size
    # arguments that do not match crash the interpreter inside dgtsv
    if not (n >= 1 and dl.shape == du.shape == (n - 1,) and x.ndim in (1, 2)
            and x.shape[0] == n):
        raise ValueError(f"dgtsv shapes do not match: n = {n}, b {x.shape}")
    if not all(np.isfinite(v).all() for v in (dl, d, du, x)):
        raise ValueError("array must not contain infs or NaNs")
    if (bound := _numpy_dgtsv()) is None:
        from scipy.linalg.lapack import dgtsv
        *_, x, info = dgtsv(dl, d, du, x, True, True, True, True)
    else:
        routine, integer = bound
        size, nrhs, status = integer(n), integer(x.size // n), integer(0)
        routine(ctypes.byref(size), ctypes.byref(nrhs), dl.ctypes.data,
                d.ctypes.data, du.ctypes.data, x.ctypes.data,
                ctypes.byref(size), ctypes.byref(status))
        info = status.value
    if info:
        raise (np.linalg.LinAlgError("singular matrix") if info > 0 else
               ValueError(f"dgtsv argument {-info} has an illegal value"))
    return x


# --- the discrete GP energy in trap units ----------------------------------------


class _Discretization:
    """Uniform radial grid in trap units (kinetic coefficient 1, trap x^s,
    interaction 4 pi c psi^4) on u = x psi in 3D and u = psi in 2D: the one
    owner of the discrete GP energy, the interaction diagonal, the Rayleigh
    residual and int psi^4, which mu_gp and the mean density both read."""

    def __init__(self, s: float, d: int, coupling: float, r_max: float,
                 n: int):
        self.d = d
        self.g = 4.0 * math.pi * coupling
        h = r_max / (n + 1) if d == 3 else r_max / n
        self.h = h
        if d == 3:
            self.r = h * np.arange(1, n + 1)
        else:
            self.r = h * (np.arange(n) + 0.5)
        self.V = self.r ** s
        # quadrature weights for int f(r) Omega_d r^(d-1) dr
        if d == 3:
            self.weights = 4.0 * math.pi * h * np.ones(n)   # acts on w = r*phi
            main = 2.0 * np.ones(n) / h ** 2
            off = -np.ones(n - 1) / h ** 2
        else:
            self.weights = 2.0 * math.pi * h * self.r
            self.edges = e = h * np.arange(n + 1)    # edge radii, e[0] = 0
            main = (e[:-1] + e[1:]) / (self.r * h ** 2)
            # symmetrize in the weighted inner product: work with y = sqrt(r) u
            off = -e[1:-1] / (np.sqrt(self.r[:-1] * self.r[1:]) * h ** 2)
        self.main, self.off = main, off
        self._sqrt_r = np.sqrt(self.r)

    def density(self, u: np.ndarray) -> np.ndarray:
        return (u / self.r) ** 2 if self.d == 3 else u ** 2

    def interaction_diag(self, u: np.ndarray) -> np.ndarray:
        return 2.0 * self.g * self.density(u)    # 8 pi c |psi|^2

    def energy(self, u: np.ndarray):
        """The discrete GP energy and its (kinetic, trap, interaction) parts."""
        if self.d == 3:
            diffs = np.diff(np.concatenate(([0.0], u, [0.0])))
            kin = 4.0 * math.pi * np.sum(diffs ** 2) / self.h
        else:
            diffs = np.diff(np.concatenate((u, [0.0])))   # inner edge flux-free
            kin = 2.0 * math.pi * (np.sum(self.edges[1:] * diffs ** 2) / self.h)
        trap_e = float(np.sum(self.weights * self.V * u ** 2))
        inter = float(np.sum(self.weights * self.g * self.density(u) * u ** 2))
        return kin + trap_e + inter, (kin, trap_e, inter)

    def quartic(self, psi: np.ndarray) -> float:
        """int psi^4 d^dx on the energy's weights, psi = u/x in 3D."""
        if self.d == 3:
            return float(np.sum(self.weights * (psi * self.r) ** 4
                                / self.r ** 2))
        return float(np.sum(self.weights * psi ** 4))

    def apply_kinetic(self, u: np.ndarray) -> np.ndarray:
        if self.d == 3:
            out = 2.0 * u.copy()
            out[:-1] -= u[1:]
            out[1:] -= u[:-1]
            return out / self.h ** 2
        e = self.edges
        up = np.concatenate((u, [0.0]))
        outward = e[1:] * (u - up[1:])                       # edge e_{i+1}
        inward = np.concatenate(([0.0], e[1:-1] * (u[1:] - u[:-1])))
        return (outward + inward) / (self.r * self.h ** 2)

    def rayleigh(self, u: np.ndarray):
        """H(u) u, the Rayleigh quotient lam and the relative residual
        |H(u) u - lam u|_W / (|lam| |u|_W) of the discrete GP equation."""
        h_u = self.apply_kinetic(u) + (self.V + self.interaction_diag(u)) * u
        lam = float(np.sum(self.weights * u * h_u)
                    / np.sum(self.weights * u * u))
        num = np.sqrt(np.sum(self.weights * (h_u - lam * u) ** 2))
        den = abs(lam) * np.sqrt(np.sum(self.weights * u * u))
        return h_u, lam, float(num / den)

    def solve(self, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve (A + diag) x = rhs; rhs is one vector or a column stack.

        In 2D the conservative stencil is symmetric only in the r-weighted
        inner product, so the similarity-transformed symmetric system in
        y = sqrt(r) x is solved (main and the band hold its coefficients).
        With a positive diag the matrix is an M-matrix and keeps rhs > 0
        positive.
        """
        if self.d == 3:
            return _dgtsv(self.off, self.main + diag, self.off, rhs)
        s = self._sqrt_r if rhs.ndim == 1 else self._sqrt_r[:, None]
        return _dgtsv(self.off, self.main + diag, self.off, rhs * s) / s


def _auto_extent(s: float, d: int, g_eff: float) -> float:
    """Domain radius in trap units covering the linear ground state (width
    1) and the TF cloud of the coupling N c."""
    r_max = 9.0
    if g_eff > 0:
        mu_tf = _tf_mu_closed(s, d, max(g_eff, 1e-12))
        r_max = max(r_max, 1.35 * mu_tf ** (1.0 / s) + 4.0)
    return r_max


# --- the minimizer ---------------------------------------------------------------

# the minimizer's pass budget and stopping rule (see gp_minimize)
_TOL = Tolerances(abs_tol=1e-12, rel_tol=1e-13)
_MAX_PASSES = 20000
_RESIDUAL_TOL = 1e-9


@float_range
def gp_minimize(trap: TrapPotential, N: float, coupling: float,
                mu_const: float = 1.0, grid_points: int = 2000) -> GpState:
    """Minimize E = int mu_const |grad phi|^2 + V phi^2 + 4 pi mu_const c
    phi^4 at N = int phi^2 (c = a in 3D, alpha in 2D), in trap units.

    Returns phi >= 0 on the grid (the far tail may underflow to 0 at extreme
    coupling), the energy breakdown, mu_gp = E/N + (4 pi mu_const c/N)
    int phi^4 and the relative residual of the discrete GP equation.  The
    solve stops at the first accepted step (Newton or flow) with residual
    <= max(1e-9, 4 eps/h^2), the round-off floor of the kinetic stencil at
    spacing h in trap units (above 1e-9 only beyond 8000 points), and an
    energy change of at most 1e-13 |E| + 1e-12 in trap units, within 20000
    passes.  `iterations` counts the passes, `newton_steps` the accepted
    Newton steps among them.  The grid depends on the trap and N*coupling
    only, so (N, a) and (1, N a) share one discretization exactly.
    """
    check_gp_arguments(N, coupling, mu_const, grid_points)
    d = trap.dimension

    if trap.kind == "box":
        # the constant profile: all of the energy is interaction
        L = trap.box_side
        volume = L ** d
        inter = 4.0 * math.pi * mu_const * coupling * N * N / volume
        return GpState(
            trap=trap, N=N, coupling=coupling, mu_const=mu_const,
            r=np.linspace(L / 33, L, 33), phi=np.full(33, math.sqrt(N / volume)),
            kinetic=0.0, trap_energy=0.0, interaction=inter, E=inter,
            mu_gp=8.0 * math.pi * mu_const * coupling * N / volume,
            residual=0.0, iterations=0)

    s = trap.homogeneity_degree
    ell, unit = _trap_units(trap, mu_const)
    g_eff = N * coupling * ell ** (2 - d)       # N c in trap units
    disc = _Discretization(s, d, coupling * ell ** (2 - d),
                           _auto_extent(s, d, g_eff), grid_points)
    if disc.V[-1] == disc.V[0] < math.inf:  # x^s rounds to one value
        raise DomainError(f"trap is flat on the grid: x^s = "
                          f"{float(disc.V[0])!r} at every node (s = {s!r})")
    resid_tol = max(_RESIDUAL_TOL, 4.0 * np.finfo(float).eps / disc.h ** 2)

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
            sol = disc.solve(disc.V + 3.0 * disc.interaction_diag(u) - lam, rhs)
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

    u = normalize(_initial_profile(disc, s, g_eff))
    e_old, _ = disc.energy(u)
    h_u, lam, res = disc.rayleigh(u)
    tau = 0.2 / max(1.0, abs(e_old) / N)
    iterations = newton_steps = 0
    try_newton = True

    for iterations in range(1, _MAX_PASSES + 1):
        trial = newton_candidate(u, h_u, lam) if try_newton else None
        if trial is not None:
            e_new, _ = disc.energy(trial)
            if e_new > e_old + 1e-14 * abs(e_old):
                trial = None
        if trial is None:
            # fall back on a backtracking flow step: linearized backward
            # Euler, (A + V + int(u) + 1/tau) u_new = u / tau
            trial = normalize(disc.solve(
                disc.V + disc.interaction_diag(u) + 1.0 / tau, u / tau))
            e_new, _ = disc.energy(trial)
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
        flat = abs(e_new - e_old) <= _TOL.rel_tol * abs(e_new) + _TOL.abs_tol
        e_old = min(e_new, e_old)
        h_u, lam, res = disc.rayleigh(u)
        if res <= resid_tol and flat:
            break
    else:
        raise NoConvergence(f"GP residual {res:.3e} after {iterations} iterations")

    e_total, parts = disc.energy(u)
    phi = u / disc.r if d == 3 else u.copy()
    mu_gp = e_total / N + disc.g / N * disc.quartic(phi)
    kin, trap_e, inter = (float(unit * e) for e in parts)
    return GpState(
        trap=trap, N=N, coupling=coupling, mu_const=mu_const, r=ell * disc.r,
        phi=ell ** (-d / 2) * phi, kinetic=kin, trap_energy=trap_e,
        interaction=inter, E=float(unit * e_total), mu_gp=float(unit * mu_gp),
        residual=res, iterations=iterations, newton_steps=newton_steps)


def _initial_profile(disc, s, g_eff):
    r = disc.r
    gauss = np.exp(-0.5 * (r / 1.5) ** 2)
    if g_eff > 10.0:
        mu_tf = _tf_mu_closed(s, disc.d, g_eff)
        dens = np.maximum(mu_tf - disc.V, 0.0)
        prof = np.sqrt(dens) + 1e-6 * math.sqrt(mu_tf) * gauss
    else:
        prof = gauss
    return prof * r if disc.d == 3 else prof


def _trap_unit_state(state: GpState):
    """The discretization of a power-law state, rebuilt from its grid with
    the outer Dirichlet edge R = r[-1] + r[0] (h or h/2 past the last node),
    the trap length ell and the profile psi = ell^(d/2) phi in trap units."""
    d = state.trap.dimension
    ell, _ = _trap_units(state.trap, state.mu_const)
    disc = _Discretization(state.trap.homogeneity_degree, d,
                           state.coupling * ell ** (2 - d),
                           (state.r[-1] + state.r[0]) / ell, state.r.size)
    return disc, ell, ell ** (d / 2) * np.asarray(state.phi, dtype=float)


def gp_residual(state: GpState) -> float:
    """Relative L2 residual of the discrete GP equation at the stored profile."""
    if state.trap.kind == "box":
        return 0.0
    disc, _, psi = _trap_unit_state(state)
    return disc.rayleigh(psi * disc.r if disc.d == 3 else psi)[2]


@float_range
def mean_density(state: GpState) -> float:
    """Mean density (1/N) int |phi|^4 d^dx on the discrete energy's weights,
    so that mu_gp = E/N + 4 pi mu_const c rho_bar to rounding; taken on the
    unit-norm profile in trap units, whose fourth power stays in range."""
    if state.trap.kind == "box":
        return state.N / state.trap.box_side ** state.trap.dimension
    disc, ell, psi = _trap_unit_state(state)
    return float(state.N * disc.quartic(psi / math.sqrt(state.N))
                 / ell ** disc.d)


# --- Thomas-Fermi -----------------------------------------------------------------


def tf_density(state: TfState, r) -> np.ndarray:
    """TF density profile [mu_tf - V(r)]_+ / (8 pi mu c); zero outside support."""
    r = np.asarray(r, dtype=float)
    v = state.trap.scale * r ** state.trap.homogeneity_degree
    denom = 8.0 * math.pi * state.mu_const * state.a
    return np.maximum(state.mu_tf - v, 0.0) / denom


# --- GP -> TF limit ---------------------------------------------------------------


def gp_tf_limit(trap: TrapPotential, g_sequence: Sequence[float],
                grid_points: int = 2000):
    """Energy ratios and rescaled-density L1 distances along increasing g.

    3D: ratio E_GP(1, g)/E_TF(1, g); rescaled density g^(3/(s+3))
    rho_GP(g^(1/(s+3)) x) against rho_TF(1,1).  2D: E_GP(1, g)/(g^(s/(s+2))
    E_TF(1,1)) with the g^(2/(s+2)) density rescaling.  Every argument is
    checked, by `check_gp_tf_limit_arguments`, before the first GP solve.
    """
    gs = list(g_sequence)
    tf_unit = check_gp_tf_limit_arguments(trap, gs, grid_points)
    d = trap.dimension
    s = trap.homogeneity_degree
    r_ref = np.linspace(0.0, 1.4 * tf_unit.support_radius, 800)
    rho_ref = tf_density(tf_unit, r_ref)
    jac = _omega(d) * r_ref ** (d - 1)
    rows = []
    for g in gs:
        state = gp_minimize(trap, 1.0, g, grid_points=grid_points)
        # 2D: the coupling-1 TF energy, scaled by its exponent law
        e_tf = (tf_solve(trap, 1.0, g).E_tf if d == 3
                else tf_scaling(g, s, d) * tf_unit.E_tf)
        rho_gp = g ** (d / (s + d)) * np.interp(
            g ** (1.0 / (s + d)) * r_ref, state.r, state.phi ** 2, right=0.0)
        l1 = float(np.trapezoid(np.abs(rho_gp - rho_ref) * jac, r_ref))
        rows.append({"g": g, "E_gp": state.E, "E_tf": e_tf,
                     "ratio": state.E / e_tf, "l1_rescaled": l1})
    return rows


def export_profile(state: GpState, path: str) -> None:
    """Write the density profile as CSV (r, phi, rho) with # metadata lines."""
    lines = [
        f"# trap = {trap_spec(state.trap)}",
        f"# dimension = {state.trap.dimension}",
        *(f"# {key} = {float(getattr(state, key))!r}"
          for key in ("N", "coupling", "mu_const", "E", "mu_gp")),
        "r,phi,rho",
    ]
    # plain float reprs: np.float64's repr is not a number
    for r, phi in zip(state.r.tolist(), state.phi.tolist()):
        lines.append(f"{r!r},{phi!r},{phi * phi!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
