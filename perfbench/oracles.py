"""Closed-form oracles and the tolerance gate the benchmark applies to outputs.

Nothing here calls bosegas: every expected value is a closed form, so an
oracle stays independent of the solver it checks.  The tolerances are copied
unchanged from the acceptance tests (tests/test_acceptance.py, and
tests/test_bogolubov.py for the Foldy ratio).
"""

from __future__ import annotations

import math

HARD_CORE_TOL = 1e-8        # criterion 01 (and 04 for the hard disc)
SQUARE_WELL_TOL = 1e-8      # criterion 02
ENERGY_IDENTITY_TOL = 1e-6  # criterion 03
KINETIC_HARD_TOL = 1e-6     # criterion 05
FOLDY_TOL = 1e-8            # foldy numeric over closed form
FOCK_TOL = 1e-6             # criterion 07
FOCK_BELOW_TOL = 1e-9       # criterion 07: never further below the exact value
GP_SCALING_TOL = 1e-6       # criterion 09
TF_CLOSED_TOL = 1e-10       # criterion 10
TF_IDENTITY_TOL = 1e-9      # criterion 10
CELL_RATIO_SLACK = 1e-12    # criterion 12
KINETIC_FRACTION_SLACK = 1e-12  # criterion 05

# A check whose observed error is exactly zero has an unbounded margin.
MARGIN_CAP = 1e12


class Gate:
    """Collects the outcome of every check made on one op."""

    def __init__(self):
        self.breaches = []
        self.min_margin = MARGIN_CAP

    def close(self, what: str, error: float, tol: float) -> None:
        """Require error <= tol; record tol / error as the margin."""
        if not math.isfinite(error):
            self.breaches.append(f"{what}: error is {error!r}")
            self.min_margin = 0.0
            return
        margin = MARGIN_CAP if error == 0.0 else min(MARGIN_CAP, tol / error)
        self.min_margin = min(self.min_margin, margin)
        if error > tol:
            self.breaches.append(f"{what}: error {error:.3e} > {tol:.0e}")

    def holds(self, what: str, condition: bool) -> None:
        if not condition:
            self.breaches.append(what)


def rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


# --- scattering --------------------------------------------------------------

def square_well_a(r0: float, v0: float, mu: float) -> float:
    """3D scattering length of v0 * 1[r < r0]: r0 (1 - tanh(k r0) / (k r0))."""
    x = math.sqrt(v0 / (2.0 * mu)) * r0
    return r0 * (1.0 - math.tanh(x) / x)


def _bessel_i01(x: float):
    """Modified Bessel functions I0(x), I1(x) by their power series."""
    q = 0.25 * x * x
    t0, t1 = 1.0, 0.5 * x
    s0, s1 = [t0], [t1]
    k = 0
    while t0 > 1e-18 * sum(s0):
        k += 1
        t0 *= q / (k * k)
        t1 *= q / (k * (k + 1))
        s0.append(t0)
        s1.append(t1)
    return math.fsum(s0), math.fsum(s1)


def square_well_log_2d(r0: float, v0: float, mu: float) -> float:
    """ln(r0 / a) for the 2D well: I0(k r0) / (k r0 I1(k r0))."""
    x = math.sqrt(v0 / (2.0 * mu)) * r0
    i0, i1 = _bessel_i01(x)
    return i0 / (x * i1)


def born_3d(table=None, step=None, tail=None) -> float:
    """int v d^3x for a step (r0, v0) or a piecewise-linear table, plus an
    optional power tail C r^-p attached at the range."""
    body = 0.0
    if step is not None:
        r0, v0 = step
        body = v0 * r0 ** 3 / 3.0
        edge = r0
    else:
        knots = [(0.0, table[0][1])] + [tuple(k) for k in table]
        for (ra, va), (rb, vb) in zip(knots, knots[1:]):
            slope = (vb - va) / (rb - ra)
            body += (va - slope * ra) * (rb ** 3 - ra ** 3) / 3.0
            body += slope * (rb ** 4 - ra ** 4) / 4.0
        edge = table[-1][0]
    if tail is not None:
        c_t, p = tail
        body += c_t * edge ** (3.0 - p) / (p - 3.0)
    return 4.0 * math.pi * body


def energy_identity(mu: float, a: float, R: float) -> float:
    """8 pi mu a (1 - a/R), the energy integral over the ball of radius R."""
    return 8.0 * math.pi * mu * a * (1.0 - a / R)


# --- trapped gas ---------------------------------------------------------------

def tf_mu(N: float, g: float, d: int, s: float) -> float:
    """Thomas-Fermi chemical potential for the trap r^s in d dimensions
    (mu_const = 1): (N 8 pi g d (s + d) / (Omega_d s))^(s / (s + d))."""
    omega = 4.0 * math.pi if d == 3 else 2.0 * math.pi
    return (N * 8.0 * math.pi * g * d * (s + d) / (omega * s)) ** (s / (s + d))


def tf_energy(N: float, mu: float, d: int, s: float) -> float:
    """E_TF = N mu (s + d) / (2 s + d)."""
    return N * mu * (s + d) / (2.0 * s + d)


# --- charged gas ---------------------------------------------------------------

def pair_energy(A: float, B: float) -> float:
    """Exact lowest energy sqrt(A^2 - B^2) - A of one Bogolubov mode pair."""
    return math.sqrt(A * A - B * B) - A
