"""Pair- and trap-potential representation tests."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bosegas.errors import DomainError
from bosegas.potentials import (HARD_CORE, PairPotential, TrapPotential,
                                born_integral, pair_piece, pair_value,
                                parse_pair_potential, parse_trap_potential,
                                tail_cut_radius, trap_spec)


def test_hard_core_marker():
    p = PairPotential(kind="hard-core", core_radius=1.0)
    assert pair_value(p, 0.5) == HARD_CORE
    assert pair_value(p, 1.5) == 0.0


def test_step_values():
    p = PairPotential(kind="square-well", core_radius=1.0, strength=10.0)
    assert pair_value(p, 0.5) == 10.0
    assert pair_value(p, 2.0) == 0.0
    assert p.breakpoints == (1.0,)


def test_table_interp():
    p = PairPotential(kind="tabulated", table=((1.0, 2.0), (2.0, 0.0)))
    assert p.breakpoints == (1.0, 2.0)
    assert pair_value(p, 1.5) == pytest.approx(1.0, abs=1e-15)
    assert pair_value(p, 0.3) == 2.0      # constant extension to the left
    assert pair_value(p, 5.0) == 0.0      # zero beyond the last radius


def _interp_oracle(p, r):
    """v(r) through np.interp over lists of the table's own radii and values:
    constant before the first knot, 0 from the last on, plus the tail."""
    radii, values = [x for x, _ in p.table], [v for _, v in p.table]
    ref = (0.0 if r >= radii[-1] else values[0] if r <= radii[0]
           else float(np.interp(r, radii, values)))
    if p.tail is not None and r >= radii[-1]:
        ref += p.tail[0] * r ** -p.tail[1]
    return ref


def test_table_values_unchanged_over_a_radius_grid():
    # every value, at the knots, between them, outside them and on the tail,
    # through pair_value and through each segment's piece (read at the float
    # below the segment's end), equals np.interp bit for bit; the second
    # table's slope overflows to inf
    for table in (((0.2, 3.0), (0.5, 1.25), (0.9, 0.0), (1.3, 2.5), (1.4, 0.75)),
                  ((1.0, 0.0), (1.0 + 1e-12, 1e300))):
        radii = [x for x, _ in table]
        grid = sorted({*np.linspace(0.01, 2.0, 397).tolist(), *radii,
                       *np.linspace(radii[0], radii[-1], 33).tolist()})
        edges = [grid[0], *radii, grid[-1]]
        for tail in (None, (0.5, 4.0)):
            p = PairPotential(kind="tabulated", table=table, tail=tail)
            for r in grid:
                assert pair_value(p, r) == _interp_oracle(p, r)
            for lo, hi in zip(edges, edges[1:]):
                piece, last = pair_piece(p, lo, hi), math.nextafter(hi, lo)
                for r in (x for x in grid if lo <= x <= hi):
                    assert piece(r) == _interp_oracle(p, min(r, last))


def test_step_monotone_nonincreasing():
    for spec in ("squarewell:r0=1.3,v0=4", "softsphere:r0=1.3,v0=4"):
        p = parse_pair_potential(spec)
        vals = [pair_value(p, r) for r in np.linspace(0.05, 3.0, 60)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_tail_cut_radius_cases():
    # no tail: the cut radius is the range
    finite = PairPotential(kind="square-well", core_radius=1.0, strength=2.0)
    assert tail_cut_radius(finite) == 1.0

    # int_1^inf r^-4 r^2 dr = 1 for C_t = 1, p = 4, attached at R0 = 1:
    # the Born integral is 4 pi (1/3 + 1) = 16 pi/3
    p4 = PairPotential(kind="square-well", core_radius=1.0, strength=1.0,
                       tail=(1.0, 4.0))
    # the tail's Born integral beyond the cut radius, 4 pi / R, is 1e-10
    assert tail_cut_radius(p4) == pytest.approx(4e10 * math.pi, rel=1e-14)
    assert born_integral(p4) == 16.0 * math.pi / 3.0
    # a tail that falls below 1e-10 inside twice the range is cut there
    steep = PairPotential(kind="square-well", core_radius=1.0, strength=1.0,
                          tail=(1e-12, 40.0))
    assert tail_cut_radius(steep) == 2.0
    # in 2D, int_1^inf r^-3 r dr = 1 for p = 3: 2 pi (1/2 + 1) = 3 pi
    disc = PairPotential(kind="square-well", core_radius=1.0, strength=1.0,
                         tail=(1.0, 3.0), dimension=2)
    assert tail_cut_radius(disc) > 2.0
    assert born_integral(disc) == 3.0 * math.pi


def test_born_integral_closed_forms():
    p = PairPotential(kind="square-well", core_radius=1.0, strength=3.0)
    assert born_integral(p) == pytest.approx(4.0 * math.pi, rel=1e-14)
    hc = PairPotential(kind="hard-core", core_radius=1.0)
    assert born_integral(hc) == HARD_CORE


def test_born_integral_of_a_zero_potential_is_exact():
    # r^3 at the last radius once overflowed for a potential that is zero
    table = PairPotential(kind="tabulated", table=((1.0, 0.0), (1e200, 0.0)))
    assert born_integral(table) == 0.0
    well = PairPotential(kind="square-well", core_radius=1e200, strength=0.0)
    assert born_integral(well) == 0.0


def test_born_integral_table_vs_trapezoid_oracle():
    # triangle potential: v = 2 at r = 1 falling to 0 at r = 2
    p = PairPotential(kind="tabulated", table=((1.0, 2.0), (2.0, 0.0)))
    rs = np.linspace(1e-9, 2.0, 400001)
    vals = np.array([pair_value(p, r) for r in rs])
    oracle = 4.0 * math.pi * np.trapezoid(vals * rs ** 2, rs)
    assert abs(born_integral(p) - oracle) <= 1e-8 * oracle


def test_spec_string_parsing(tmp_path):
    p = parse_pair_potential("hardcore:r0=2")
    assert p.table == ((2.0, HARD_CORE),) and p.has_hard_core()
    q = parse_pair_potential("squarewell:r0=1,v0=10", dimension=2)
    assert q == PairPotential(kind="tabulated", table=((1.0, 10.0),),
                              dimension=2)
    assert parse_pair_potential("softsphere:r0=1,v0=10", dimension=2) == q

    csv_path = tmp_path / "pot.csv"
    csv_path.write_text("radius,value\n1.0,2.0\n2.0,0.0\n")
    t = parse_pair_potential(f"table:path={csv_path}")
    assert t.table == ((1.0, 2.0), (2.0, 0.0)) and not t.has_hard_core()
    # a byte-order mark once made the first knot read as a header
    csv_path.write_bytes(b"\xef\xbb\xbf1.0,2.0\n2.0,0.0\n")
    assert parse_pair_potential(f"table:path={csv_path}") == t

    trap = parse_trap_potential("power:s=3,scale=2")
    assert trap.homogeneity_degree == 3.0 and trap.scale == 2.0


def test_unread_fields_at_their_defaults_are_accepted():
    # a caller that passes every field needs the defaults accepted; with
    # another value, each of these is a row of tests/test_errors.py
    PairPotential(kind="hard-core", core_radius=1.0, strength=0.0)
    PairPotential(kind="hard-core", core_radius=1.0, table=None)
    PairPotential(kind="square-well", core_radius=1.0, strength=2.0,
                  table=None)
    PairPotential(kind="tabulated", table=((1.0, 2.0),), strength=0.0)
    PairPotential(kind="tabulated", table=((1.0, 2.0),), core_radius=0.0)
    TrapPotential(kind="box", dimension=2, box_side=2.0)
    TrapPotential(kind="power-law", dimension=2)
    TrapPotential(kind="power-law", dimension=2, homogeneity_degree=3.0)


def test_trap_spec_reads_back_as_its_trap():
    # repr writes each float in as few digits as read back to it: 17 for
    # 0.1 + 0.2 and for the float above 2, which is no harmonic trap
    odd, above_two = 0.1 + 0.2, math.nextafter(2.0, 3.0)
    assert len(repr(odd)) - 2 == len(repr(above_two)) - 1 == 17
    for d in (2, 3):
        for t in (TrapPotential(kind="box", dimension=d, box_side=3.0),
                  TrapPotential(kind="box", dimension=d, box_side=odd),
                  TrapPotential(kind="power-law", dimension=d),
                  TrapPotential(kind="power-law", dimension=d, scale=odd),
                  TrapPotential(kind="power-law", dimension=d,
                                homogeneity_degree=4.0, scale=2.0),
                  TrapPotential(kind="power-law", dimension=d,
                                homogeneity_degree=above_two, scale=1e-300)):
            assert parse_trap_potential(trap_spec(t), d) == t
    assert [trap_spec(parse_trap_potential(spec)) for spec in (
        "box:l=3", "harmonic", "power:s=2,scale=3", "power:s=4,scale=2")] \
        == ["box:l=3.0", "harmonic:scale=1.0", "harmonic:scale=3.0",
            "power:s=4.0,scale=2.0"]


def test_square_well_is_its_one_knot_table():
    rng = np.random.default_rng(17)
    for _ in range(50):
        r0, v0 = float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.0, 50.0))
        for d in (2, 3):
            for tail in (None, (float(rng.uniform(0.1, 2.0)), 4.5)):
                well = PairPotential(kind="square-well", core_radius=r0,
                                     strength=v0, dimension=d, tail=tail)
                table = PairPotential(kind="tabulated", table=((r0, v0),),
                                      dimension=d, tail=tail)
                assert well == table and hash(well) == hash(table)
                assert well.range_radius == r0 and well.breakpoints == (r0,)
                for r in (0.5 * r0, r0, 2.0 * r0):
                    assert pair_value(well, r) == (v0 if r < r0 else 0.0) + (
                        tail[0] * r ** -tail[1] if tail and r >= r0 else 0.0)


def test_pair_potential_stores_only_its_knots_and_tail():
    # kind, core_radius and strength are constructor-only arguments
    assert [f.name for f in dataclasses.fields(PairPotential)] \
        == ["dimension", "table", "tail"]
    hard = PairPotential(kind="hard-core", core_radius=2.0)
    assert hard.table == ((2.0, HARD_CORE),) and hard.has_hard_core()
    assert hard.range_radius == 2.0 and hard.breakpoints == (2.0,)
    for p in (hard, PairPotential(kind="square-well", core_radius=1.0,
                                  strength=3.0),
              PairPotential(kind="tabulated", table=((1.0, 2.0), (2.0, 0.0)))):
        for name in ("kind", "core_radius", "strength"):
            with pytest.raises(AttributeError):
                getattr(p, name)
        assert p.has_hard_core() == (p is hard)


@pytest.mark.parametrize("kwargs", [
    {"kind": "hard-core", "core_radius": 1.0},
    {"kind": "square-well", "core_radius": 1.0, "strength": 1.0},
    {"kind": "tabulated", "table": ((0.5, 2.0), (1.0, 0.0)), "dimension": 2},
])
def test_a_zero_tail_is_stored_as_none(kwargs):
    # the tail 0 r^-p is no tail, whatever p: the same v in the same shape
    bare = PairPotential(**kwargs)
    for tail in ((0.0, 3.0), (-0.0, 4.0), (0.0, 1.0), (0, 2)):
        p = PairPotential(**kwargs, tail=tail)
        assert p.tail is None and p == bare and hash(p) == hash(bare)
        assert tail_cut_radius(p) == tail_cut_radius(bare)
        assert born_integral(p) == born_integral(bare)


# every family of the benchmark's scatter mix, in the one spelling it uses:
# all six keywords, with the defaults for those the kind does not read
_FULL_KEYWORD_FAMILIES = {
    "well3d": ("square-well", 3, 1.2, 5.0, None, None),
    "well2d": ("square-well", 2, 1.2, 5.0, None, None),
    "table3d": ("tabulated", 3, 0.0, 0.0, ((0.4, 6.0), (1.2, 0.7)), None),
    "hardcore3d": ("hard-core", 3, 1.2, 0.0, None, None),
    "steptail3d": ("square-well", 3, 1.2, 5.0, None, (0.5, 6.0)),
    "disc2d": ("hard-core", 2, 1.2, 0.0, None, (0.5, 4.0)),
}


@pytest.mark.parametrize("family", list(_FULL_KEYWORD_FAMILIES))
def test_benchmark_families_build_through_the_full_keyword_call(family):
    kind, d, r0, v0, table, tail = _FULL_KEYWORD_FAMILIES[family]
    p = PairPotential(kind=kind, dimension=d, core_radius=r0, strength=v0,
                      table=table, tail=tail)
    value = HARD_CORE if kind == "hard-core" else v0
    assert p.table == (table or ((r0, value),)) and p.tail == tail
    assert p.dimension == d and p.has_hard_core() == (kind == "hard-core")


def test_born_integral_of_a_flat_piece_at_a_huge_radius():
    # the zero-slope piece from r = 0 has no r^(d+1) term to overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = PairPotential(kind="tabulated", table=((1e100, 1.0),))
        assert born_integral(table) == 4.188790204786391e+300


def test_born_integral_of_a_sloped_piece_at_a_huge_radius():
    # the sloped piece's r^4 overflows at r = 1e81, slope * r^4 does not:
    # 4 pi (1e240/3 + (10/9)(1e243 - 1e240)/3 - (10/9)(1e243 - 1e239)/4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = PairPotential(kind="tabulated",
                              table=((1e80, 1.0), (1e81, 0.0)))
        assert born_integral(table) == pytest.approx(
            1111.0 * math.pi / 3.0 * 1e240, rel=1e-14)    # 1.16344e243


def _born_exact(p):
    """The Born integral of a table in exact rational arithmetic, from the
    antiderivative of each linear piece, times the float Omega_d."""
    d = p.dimension
    knots = [(Fraction(0), Fraction(p.table[0][1]))] + [
        (Fraction(r), Fraction(v)) for r, v in p.table]
    body = Fraction(0)
    for (ra, va), (rb, vb) in zip(knots, knots[1:]):
        slope = (vb - va) / (rb - ra)
        body += ((va - slope * ra) * (rb ** d - ra ** d) / d
                 + slope * (rb ** (d + 1) - ra ** (d + 1)) / (d + 1))
    return Fraction(4.0 * math.pi if d == 3 else 2.0 * math.pi) * body


def test_born_integral_of_sloped_tables_vs_exact_arithmetic():
    # the tables the tests build, and seeded ones drawn as the scattering
    # laws draw theirs (2 to 8 knots in [0.05, 2], values in [0, 20]): each
    # piece is va W_a + vb W_b with weights >= 0, so no large terms cancel
    # on a steep piece, where a split into r^d and r^(d+1) terms loses up to
    # 9.4e-15 on these tables
    tables = [((1.0, 2.0), (2.0, 0.0)), ((0.2, 3.0), (1.0, 1.5), (1.8, 0.0)),
              ((0.4, 6.0), (0.8, 2.5), (1.2, 0.7)),
              ((0.2, 3.0), (0.5, 1.25), (0.9, 0.0), (1.3, 2.5), (1.4, 0.75)),
              ((1e80, 1.0), (1e81, 0.0))]
    rng = np.random.default_rng(19)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        radii = np.sort(rng.choice(rng.uniform(0.05, 2.0, 20), n, replace=False))
        tables.append(tuple(zip(radii.tolist(), rng.uniform(0.0, 20.0, n).tolist())))
    for table in tables:
        for d in (2, 3):
            p = PairPotential(kind="tabulated", table=table, dimension=d)
            exact = _born_exact(p)
            assert abs(Fraction(born_integral(p)) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("text,line", [
    ("1.0,2.0\n1.5,2..0\n2.0,0.0\n", 2),
    ("1.0,2.0,7\n2.0,0.0\n", 1),
    ("radius,value\n1.0,2.0\nradius,value\n2.0,0.0\n", 3),
])
def test_table_rows_are_two_numbers_after_one_header(tmp_path, text, line):
    path = tmp_path / "pot.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=f"^table .* line {line}: row "):
        parse_pair_potential(f"table:path={path}")
