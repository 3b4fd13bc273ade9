"""Nonnegative pair potentials v(r) and trap potentials V(x).

A hard core of radius R0 is the one knot (R0, HARD_CORE), with the exact
marker ``HARD_CORE`` (float infinity) as its value; solvers branch on it
instead of integrating through a large float.  A trap is a box or a power
law, whose default s = 2 is the harmonic trap.  All potentials are immutable
after construction and safe to share.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import InitVar, dataclass
from typing import Optional, Tuple

from .errors import DomainError, NonIntegrableTail, float_range, require_finite

__all__ = [
    "HARD_CORE",
    "PairPotential",
    "TrapPotential",
    "born_integral",
    "pair_value",
    "tail_cut_radius",
    "parse_pair_potential",
    "parse_trap_potential",
    "trap_spec",
]

HARD_CORE = math.inf

# each pair kind with the fields it does not read, which keep their defaults
_PAIR_KINDS = {"hard-core": ("strength", "table"), "square-well": ("table",),
               "tabulated": ("core_radius", "strength")}
# each trap kind with the fields it does not read, which keep their defaults
_TRAP_KINDS = {"box": ("homogeneity_degree", "scale"),
               "power-law": ("box_side",)}


@dataclass(frozen=True)
class PairPotential:
    """Radially symmetric two-body potential v >= 0, tagged with its dimension.

    Stored as its knot table and optional tail, and nothing else: v is
    constant up to the first knot, linear between knots and 0 from the last
    knot on, where a tail C_t * r^-p attaches.  A hard core of radius R0 is
    the one knot ((R0, HARD_CORE),), and a tail with C_t = 0 is stored as
    None.  The constructor-only `kind` is ``tabulated`` (with `table`),
    ``hard-core`` (with `core_radius`) or ``square-well`` (core_radius R0,
    strength V0: the table ((R0, V0),)); an argument that the kind does not
    read must keep its default.
    """

    kind: InitVar[str]
    dimension: int = 3
    core_radius: InitVar[float] = 0.0
    strength: InitVar[float] = 0.0
    table: Optional[Tuple[Tuple[float, float], ...]] = None
    tail: Optional[Tuple[float, float]] = None  # (C_t, p)

    def __post_init__(self, kind, core_radius, strength):
        if not (isinstance(kind, str) and kind in _PAIR_KINDS):
            raise DomainError(f"unknown pair potential kind {kind!r}")
        if self.dimension not in (2, 3):
            raise DomainError("dimension must be 2 or 3")
        require_finite(core_radius=core_radius, strength=strength)
        for r, v in self.table or ():
            require_finite(table_radius=r, table_value=v)
        if self.tail is not None:
            require_finite(tail_coefficient=self.tail[0],
                           tail_exponent=self.tail[1])
        if core_radius < 0:
            raise DomainError("core radius must be nonnegative")
        if strength < 0:
            raise DomainError("strength must be nonnegative (v >= 0)")
        given = {"core_radius": core_radius != 0.0,
                 "strength": strength != 0.0, "table": self.table is not None}
        for name in _PAIR_KINDS[kind]:
            if given[name]:
                raise DomainError(f"{name} is not read by a {kind} potential")
        table = self.table
        if kind == "hard-core":
            if core_radius <= 0:
                raise DomainError("hard core needs core_radius > 0")
            table = ((core_radius, HARD_CORE),)
        if kind == "square-well":
            if core_radius <= 0:
                raise DomainError("step potential needs core_radius > 0")
            table = ((core_radius, strength),)
        if not table:
            raise DomainError("tabulated potential needs a table")
        knots = tuple((float(r), float(v)) for r, v in table)
        object.__setattr__(self, "table", knots)
        if any(v < 0 for _, v in knots):
            raise DomainError("tabulated values must be nonnegative")
        if knots[0][0] <= 0 or any(
                b <= a for (a, _), (b, _) in zip(knots, knots[1:])):
            raise DomainError("table radii must be positive and strictly increasing")
        if self.tail is not None:
            c_t, p = self.tail
            if c_t < 0:
                raise DomainError("tail coefficient must be nonnegative")
            # the tail 0 r^-p is no tail
            object.__setattr__(self, "tail", (float(c_t), float(p)) if c_t else None)

    @property
    def range_radius(self) -> float:
        """Radius beyond which only the (optional) tail remains: the last
        knot, which for a hard core is its radius."""
        return self.table[-1][0]

    def has_hard_core(self) -> bool:
        return self.table[0][1] == HARD_CORE

    def vanishes(self) -> bool:
        """Whether v is identically zero: all knot values zero, no tail."""
        return self.tail is None and not any(v for _, v in self.table)

    @property
    def breakpoints(self) -> Tuple[float, ...]:
        """Increasing radii where v or its slope may jump: the knots, the
        last of which is where a tail attaches."""
        return tuple(r for r, _ in self.table)


del PairPotential.core_radius, PairPotential.strength  # constructor-only


def pair_value(p: PairPotential, r: float) -> float:
    """v(r); returns the HARD_CORE marker inside a hard core."""
    if not r > 0:
        raise DomainError("pair_value requires r > 0")
    return pair_piece(p, r, math.inf)(r)


def pair_piece(p: PairPotential, lo: float, hi: float):
    """The piece of v that starts at lo, as a function of r on [lo, hi]: a
    constant before the first knot, linear between two, 0 or the tail beyond
    the last; all but the constant read r at min(r, the float below hi)."""
    table = p.table
    j = bisect.bisect_right(table, lo, key=lambda knot: knot[0])
    if j == 0:
        v_first = table[0][1]
        return lambda r: v_first
    last = math.nextafter(hi, lo)
    if j == len(table):
        c_t, power = p.tail or (0.0, 0.0)     # no tail is the tail 0 r^0
        return lambda r: c_t * (r if r < last else last) ** -power
    (xa, va), (xb, vb) = table[j - 1], table[j]
    slope = (vb - va) / (xb - xa)

    def linear(r):      # np.interp's arithmetic, bit for bit
        x = r if r < last else last
        y = va if x == xa else slope * (x - xa) + va
        return y if y == y else slope * (x - xb) + vb     # NaN: from xb
    return linear


def _omega(d: int) -> float:
    """The solid angle Omega_d of the unit sphere in d = 3 or 2 dimensions."""
    return 4.0 * math.pi if d == 3 else 2.0 * math.pi


def tail_cut_radius(p: PairPotential) -> float:
    """The range without a tail; for a tail C_t r^-p, the radius beyond which
    its Born integral is below 1e-10, and at least twice the range.  The
    integral int_R^inf v(r) r^(d-1) dr is finite only for p > d: slower
    decay means an infinite scattering length, and raises NonIntegrableTail.
    """
    if p.tail is None:
        return p.range_radius
    c_t, exponent = p.tail
    d = p.dimension
    if exponent <= d:
        raise NonIntegrableTail(f"tail exponent {exponent!r} <= dimension "
                                f"{d}: the scattering length is infinite")
    # Omega_d * C_t * R^(d-p) / (p-d) <= 1e-10  fixes the cut radius
    cut = (_omega(d) * c_t / (1e-10 * (exponent - d))) ** (1.0 / (exponent - d))
    return max(cut, 2.0 * p.range_radius)


@dataclass(frozen=True)
class TrapPotential:
    """Confining potential: a box (`box_side`) or a power law `scale` |x|^s
    with s = `homogeneity_degree`, whose default 2 is the harmonic trap.  A
    field that the kind does not read must keep its default.
    """

    kind: str
    dimension: int = 3
    box_side: float = 0.0
    homogeneity_degree: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _TRAP_KINDS):
            raise DomainError(f"unknown trap kind {self.kind!r}")
        if self.dimension not in (2, 3):
            raise DomainError("dimension must be 2 or 3")
        require_finite(box_side=self.box_side,
                       homogeneity_degree=self.homogeneity_degree,
                       scale=self.scale)
        for name in _TRAP_KINDS[self.kind]:
            if getattr(self, name) != getattr(TrapPotential, name):
                raise DomainError(f"{name} is not read by a {self.kind} trap")
        if self.kind == "box" and self.box_side <= 0:
            raise DomainError("box trap needs a positive side length")
        if self.scale <= 0:     # a box keeps the defaults, scale 1 and s 2
            raise DomainError("power-law trap needs positive scale")
        if self.homogeneity_degree <= 0:
            raise DomainError("homogeneity degree must be positive")


@float_range
def born_integral(p: PairPotential) -> float:
    """First Born integral int v(|x|) d^dx, an upper bound for 8 pi mu a in 3D;
    HARD_CORE for hard cores, error for non-integrable tails, DomainError
    where a power r^d leaves the float range.

    Computed exactly: the interpolated knot table integrates in closed form,
    and so does the power tail.
    """
    if p.has_hard_core():
        return HARD_CORE
    if p.vanishes():        # exact, and no r^d to overflow at a huge radius
        return 0.0
    tail_cut_radius(p)      # raises NonIntegrableTail for a slow tail
    d = p.dimension
    omega = _omega(d)

    # exact integral of the linear interpolant, constant from r = 0 to the first knot
    knots = ((0.0, p.table[0][1]),) + p.table
    body = 0.0
    for (ra, va), (rb, vb) in zip(knots, knots[1:]):
        if va == vb:
            body += va * (rb ** d - ra ** d) / d
        elif d == 3:    # va W_a + vb W_b, weights >= 0: no large terms cancel
            body += (rb - ra) * (va * (rb * rb + 2.0 * ra * rb + 3.0 * ra * ra)
                                 + vb * (3.0 * rb * rb + 2.0 * ra * rb + ra * ra)) / 12.0
        else:
            body += (rb - ra) * (va * (rb + 2.0 * ra) + vb * (2.0 * rb + ra)) / 6.0
    body *= omega
    if p.tail is not None:
        c_t, exponent = p.tail
        r0 = p.range_radius
        body += omega * c_t * r0 ** (d - exponent) / (exponent - d)
    return float(body)


# --- CLI-facing spec strings ---------------------------------------------------

def _parse_kv(body: str, allowed: frozenset, spec: str) -> dict:
    out = {}
    for item in body.split(",") if body else ():
        if "=" not in item:
            raise DomainError(f"malformed parameter {item!r} in {spec!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise DomainError(f"unknown parameter {key!r} in {spec!r}; "
                              f"valid: {', '.join(sorted(allowed))}")
        if key in out:
            raise DomainError(f"parameter {key!r} given twice in {spec!r}")
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
        try:    # utf-8-sig: a byte-order mark would read as a header
            with open(path, newline="", encoding="utf-8-sig") as fh:
                lines = fh.readlines()
        except ValueError as exc:   # not UTF-8, or a NUL byte in the path
            raise DomainError(f"table {path!r}: {exc}") from None
        rows = []
        reader = csv.reader(lines)
        for n, row in enumerate(r for r in reader if any(map(str.strip, r))):
            try:
                knot = tuple(map(float, row))
            except ValueError:
                if n == 0:
                    continue  # the first non-blank row may be a header
                knot = ()
            if len(knot) != 2:
                raise DomainError(
                    f"table {path!r} line {reader.line_num}: row {row!r} "
                    + ("lacks a value" if len(row) < 2 else "is not two numbers"))
            rows.append(knot)
        return PairPotential(kind="tabulated", dimension=dimension,
                             table=tuple(rows))
    raise DomainError(f"unknown pair potential spec {spec!r}")


def parse_trap_potential(spec: str, dimension: int = 3) -> TrapPotential:
    """Parse `harmonic[:scale=..]`, `box:l=..`, or `power:s=..[,scale=..]`."""
    name, _, body = spec.partition(":")
    name = name.strip().lower()
    if name == "harmonic":
        kv = _parse_kv(body, frozenset({"scale"}), spec)
        return TrapPotential(kind="power-law", dimension=dimension,
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


def trap_spec(t: TrapPotential) -> str:
    """The spec that parse_trap_potential reads back as t, in t's dimension."""
    if t.kind == "box":
        return f"box:l={t.box_side!r}"
    if t.homogeneity_degree == 2.0:
        return f"harmonic:scale={t.scale!r}"
    return f"power:s={t.homogeneity_degree!r},scale={t.scale!r}"
