"""Nonnegative pair potentials v(r) and trap potentials V(x).

A hard core is encoded as the exact marker ``HARD_CORE`` (float infinity);
solvers branch on it instead of integrating through a large float.  All
potentials are immutable after construction and safe to share.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, NonIntegrableTail, require_finite

__all__ = [
    "HARD_CORE",
    "PairPotential",
    "TrapPotential",
    "TailReport",
    "pair_value",
    "trap_value",
    "tail_integrability",
    "parse_pair_potential",
    "parse_trap_potential",
]

HARD_CORE = math.inf

_PAIR_KINDS = ("hard-core", "square-well", "tabulated")
_TRAP_KINDS = ("box", "harmonic", "power-law")


@dataclass(frozen=True)
class PairPotential:
    """Radially symmetric two-body potential, tagged with its dimension.

    ``square-well`` is the repulsive step V0 * 1[r < R0] (the spec parser
    also reads it as ``softsphere``).
    An optional tail adds C_t * r^-p beyond the finite range.
    """

    kind: str
    dimension: int = 3
    core_radius: float = 0.0
    strength: float = 0.0
    table: Optional[Tuple[Tuple[float, float], ...]] = None
    tail: Optional[Tuple[float, float]] = None  # (C_t, p)

    def __post_init__(self):
        if self.kind not in _PAIR_KINDS:
            raise DomainError(f"unknown pair potential kind {self.kind!r}")
        if self.dimension not in (2, 3):
            raise DomainError("dimension must be 2 or 3")
        require_finite(core_radius=self.core_radius, strength=self.strength)
        for r, v in self.table or ():
            require_finite(table_radius=r, table_value=v)
        if self.tail is not None:
            require_finite(tail_coefficient=self.tail[0],
                           tail_exponent=self.tail[1])
        if self.core_radius < 0:
            raise DomainError("core radius must be nonnegative")
        if self.strength < 0:
            raise DomainError("strength must be nonnegative (v >= 0)")
        if self.kind == "hard-core" and self.core_radius <= 0:
            raise DomainError("hard core needs core_radius > 0")
        if self.kind == "square-well" and self.core_radius <= 0:
            raise DomainError("step potential needs core_radius > 0")
        if self.kind == "tabulated":
            if not self.table:
                raise DomainError("tabulated potential needs a table")
            radii = [r for r, _ in self.table]
            values = [v for _, v in self.table]
            if any(v < 0 for v in values):
                raise DomainError("tabulated values must be nonnegative")
            if any(r <= 0 for r in radii) or any(
                    b <= a for a, b in zip(radii, radii[1:])):
                raise DomainError("table radii must be positive and strictly increasing")
            object.__setattr__(self, "table", tuple(
                (float(r), float(v)) for r, v in self.table))
            # the knot arrays pair_value interpolates, built once
            object.__setattr__(self, "_knots", (
                np.array(radii, dtype=float), np.array(values, dtype=float)))
        if self.tail is not None:
            c_t, p = self.tail
            if c_t < 0:
                raise DomainError("tail coefficient must be nonnegative")
            if self.range_radius <= 0:
                raise DomainError("a tail needs a positive finite range to attach to")
            object.__setattr__(self, "tail", (float(c_t), float(p)))

    @property
    def range_radius(self) -> float:
        """Radius beyond which only the (optional) tail remains."""
        if self.kind == "tabulated":
            return self.table[-1][0]
        return self.core_radius

    def has_hard_core(self) -> bool:
        return self.kind == "hard-core"

    def vanishes(self) -> bool:
        """Whether v is identically zero: a zero step or table, no tail."""
        values = [v for _, v in self.table] if self.kind == "tabulated" \
            else [self.strength]
        return (not self.has_hard_core() and not any(values)
                and (self.tail is None or self.tail[0] == 0.0))

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        """Increasing radii where v or its slope may jump: the step edge or
        the table knots, the last of which is where a tail attaches."""
        if self.kind == "tabulated":
            return tuple(r for r, _ in self.table)
        return (self.core_radius,)


def pair_value(p: PairPotential, r: float) -> float:
    """v(r); returns the HARD_CORE marker inside a hard core."""
    if r <= 0:
        raise DomainError("pair_value requires r > 0")
    if p.kind == "hard-core":
        base = HARD_CORE if r < p.core_radius else 0.0
    elif p.kind == "square-well":
        base = p.strength if r < p.core_radius else 0.0
    else:
        (r_first, v_first), (r_last, _) = p.table[0], p.table[-1]
        if r >= r_last:
            base = 0.0
        elif r <= r_first:
            base = v_first  # constant extension left of the first sample
        else:
            base = float(np.interp(r, *p._knots))
    if p.tail is not None and r >= p.range_radius:
        c_t, exponent = p.tail
        return base + c_t * r ** (-exponent)
    return base


@dataclass(frozen=True)
class TailReport:
    finite_range: bool
    integrable: bool
    tail_integral: float
    cut_radius: float


def tail_integrability(p: PairPotential) -> TailReport:
    """Diagnose the large-r decay of v.

    For a tail C_t r^-p the integral int_R^inf v(r) r^(d-1) dr is finite only
    for p > d; slower decay means an infinite scattering length.  The report's
    cut radius bounds the neglected Born-integral contribution below 1e-10.
    """
    if p.tail is None:
        return TailReport(finite_range=True, integrable=True,
                          tail_integral=0.0, cut_radius=p.range_radius)
    c_t, exponent = p.tail
    d = p.dimension
    if c_t == 0.0:
        return TailReport(True, True, 0.0, p.range_radius)
    if exponent <= d:
        return TailReport(False, False, math.inf, math.inf)
    r0 = p.range_radius
    tail_integral = c_t * r0 ** (d - exponent) / (exponent - d)
    omega = 4.0 * math.pi if d == 3 else 2.0 * math.pi
    # Omega_d * C_t * R^(d-p) / (p-d) <= 1e-10  fixes the cut radius
    cut = (omega * c_t / (1e-10 * (exponent - d))) ** (1.0 / (exponent - d))
    return TailReport(False, True, tail_integral, max(cut, 2.0 * r0))


@dataclass(frozen=True)
class TrapPotential:
    """Confining potential: box, harmonic, or general power law |x|^s."""

    kind: str
    dimension: int = 3
    box_side: float = 0.0
    homogeneity_degree: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _TRAP_KINDS:
            raise DomainError(f"unknown trap kind {self.kind!r}")
        if self.dimension not in (2, 3):
            raise DomainError("dimension must be 2 or 3")
        require_finite(box_side=self.box_side,
                       homogeneity_degree=self.homogeneity_degree,
                       scale=self.scale)
        if self.kind == "box" and self.box_side <= 0:
            raise DomainError("box trap needs a positive side length")
        if self.kind != "box":
            if self.scale <= 0:
                raise DomainError("power-law trap needs positive scale")
            if self.kind == "harmonic":
                object.__setattr__(self, "homogeneity_degree", 2.0)
            elif self.homogeneity_degree <= 0:
                raise DomainError("homogeneity degree must be positive")


def trap_value(t: TrapPotential, x) -> float:
    """V(x) for a position vector (or scalar radius)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if t.kind == "box":
        return 0.0 if np.max(np.abs(x)) <= 0.5 * t.box_side else HARD_CORE
    r = float(np.linalg.norm(x))
    return float(t.scale * r ** t.homogeneity_degree)


def born_pair_integral(p: PairPotential) -> float:
    """int v(|x|) d^dx; HARD_CORE for hard cores, error for non-integrable tails.

    Computed exactly: the step and interpolated-table bodies integrate in
    closed form, and so does the power tail.
    """
    if p.has_hard_core():
        return HARD_CORE
    if p.vanishes():        # exact, and no r^d to overflow at a huge radius
        return 0.0
    report = tail_integrability(p)
    if not report.integrable:
        raise NonIntegrableTail("Born integral diverges: tail exponent <= dimension")
    d = p.dimension
    omega = 4.0 * math.pi if d == 3 else 2.0 * math.pi

    if p.kind == "square-well":
        body = p.strength * p.core_radius ** d / d * omega
    else:  # tabulated: exact integral of the linear interpolant
        radii, values = p._knots
        rs = np.concatenate(([0.0], radii)) if radii[0] > 0 else radii
        vs = np.concatenate(([values[0]], values)) if radii[0] > 0 else values
        body = 0.0
        for (ra, va), (rb, vb) in zip(zip(rs, vs), zip(rs[1:], vs[1:])):
            # integrate (va + (vb-va)(r-ra)/(rb-ra)) r^(d-1) dr exactly
            slope = (vb - va) / (rb - ra)
            const = va - slope * ra
            body += const * (rb ** d - ra ** d) / d
            body += slope * (rb ** (d + 1) - ra ** (d + 1)) / (d + 1)
        body *= omega
    if p.tail is not None:
        c_t, exponent = p.tail
        r0 = p.range_radius
        body += omega * c_t * r0 ** (d - exponent) / (exponent - d)
    return body


# --- CLI-facing spec strings ---------------------------------------------------

def _parse_kv(body: str, allowed: frozenset, spec: str) -> dict:
    out = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise DomainError(f"malformed parameter {item!r} in {spec!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise DomainError(f"unknown parameter {key!r} in {spec!r}; "
                              f"valid: {', '.join(sorted(allowed))}")
        out[key] = value.strip()
    return out


def _require(kv: dict, key: str, spec: str,
             default: Optional[float] = None) -> float:
    if key not in kv:
        if default is not None:
            return default
        raise DomainError(f"spec {spec!r} is missing {key}=...")
    try:
        return float(kv[key])
    except ValueError:
        raise DomainError(f"spec {spec!r}: {key}={kv[key]!r} is not a number")


def parse_pair_potential(spec: str, dimension: int = 3) -> PairPotential:
    """Parse `hardcore:r0=..`, `squarewell:r0=..,v0=..`, `softsphere:...`,
    or `table:path=file.csv` (two-column CSV radius,value; header optional)."""
    name, _, body = spec.partition(":")
    name = name.strip().lower()
    if name == "hardcore":
        kv = _parse_kv(body, frozenset({"r0"}), spec)
        return PairPotential(kind="hard-core", dimension=dimension,
                             core_radius=_require(kv, "r0", spec))
    if name in ("squarewell", "softsphere"):
        kv = _parse_kv(body, frozenset({"r0", "v0"}), spec)
        return PairPotential(kind="square-well", dimension=dimension,
                             core_radius=_require(kv, "r0", spec),
                             strength=_require(kv, "v0", spec))
    if name == "table":
        kv = _parse_kv(body, frozenset({"path"}), spec)
        # an empty or absent path raises _require's missing-key error
        path = kv.get("path") or _require({}, "path", spec)
        rows = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip():
                    continue
                if len(row) < 2:
                    raise DomainError(f"table {path!r}: row {row!r} lacks a value")
                try:
                    rows.append((float(row[0]), float(row[1])))
                except ValueError:
                    continue  # header line
        return PairPotential(kind="tabulated", dimension=dimension,
                             table=tuple(rows))
    raise DomainError(f"unknown pair potential spec {spec!r}")


def parse_trap_potential(spec: str, dimension: int = 3) -> TrapPotential:
    """Parse `harmonic[:scale=..]`, `box:l=..`, or `power:s=..[,scale=..]`."""
    name, _, body = spec.partition(":")
    name = name.strip().lower()
    if name == "harmonic":
        kv = _parse_kv(body, frozenset({"scale"}), spec)
        return TrapPotential(kind="harmonic", dimension=dimension,
                             scale=_require(kv, "scale", spec, 1.0))
    if name == "box":
        kv = _parse_kv(body, frozenset({"l"}), spec)
        return TrapPotential(kind="box", dimension=dimension,
                             box_side=_require(kv, "l", spec))
    if name == "power":
        kv = _parse_kv(body, frozenset({"s", "scale"}), spec)
        return TrapPotential(kind="power-law", dimension=dimension,
                             homogeneity_degree=_require(kv, "s", spec),
                             scale=_require(kv, "scale", spec, 1.0))
    raise DomainError(f"unknown trap spec {spec!r}")
