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
                                tail_integrability, trap_value)


def test_hard_core_marker():
    p = PairPotential(kind="hard-core", core_radius=1.0)
    assert pair_value(p, 0.5) == HARD_CORE
    assert pair_value(p, 1.5) == 0.0
    with pytest.raises(DomainError):
        pair_value(p, 0.0)


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


def test_nonnegativity_enforced():
    with pytest.raises(DomainError):
        PairPotential(kind="tabulated", table=((1.0, 1.0), (2.0, -0.1)))
    with pytest.raises(DomainError):
        PairPotential(kind="square-well", core_radius=1.0, strength=-1.0)
    with pytest.raises(DomainError):
        PairPotential(kind="tabulated", table=((2.0, 1.0), (1.0, 0.0)))


def test_step_monotone_nonincreasing():
    for spec in ("squarewell:r0=1.3,v0=4", "softsphere:r0=1.3,v0=4"):
        p = parse_pair_potential(spec)
        vals = [pair_value(p, r) for r in np.linspace(0.05, 3.0, 60)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_trap_values():
    harm = TrapPotential(kind="harmonic", scale=1.0)
    assert trap_value(harm, [0.0, 0.0, 2.0]) == pytest.approx(4.0)
    box = TrapPotential(kind="box", box_side=1.0)
    assert trap_value(box, [0.2, -0.3, 0.1]) == 0.0
    assert trap_value(box, [0.2, 0.9, 0.0]) == HARD_CORE
    power = TrapPotential(kind="power-law", homogeneity_degree=3.0, scale=2.0)
    assert trap_value(power, [0.0, 0.0, 2.0]) == pytest.approx(16.0)


def test_trap_homogeneity_property():
    trap = TrapPotential(kind="power-law", homogeneity_degree=2.7, scale=1.3)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, size=3)
        lam = rng.uniform(0.05, 4.0)
        lhs = trap_value(trap, lam * x)
        rhs = lam ** 2.7 * trap_value(trap, x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_tail_integrability_cases():
    finite = PairPotential(kind="square-well", core_radius=1.0, strength=2.0)
    rep = tail_integrability(finite)
    assert rep.integrable and rep.cut_radius == 1.0

    # int_1^inf r^-4 r^2 dr = 1 for C_t = 1, p = 4, attached at R0 = 1:
    # the Born integral is 4 pi (1/3 + 1) = 16 pi/3
    p4 = PairPotential(kind="square-well", core_radius=1.0, strength=1.0,
                       tail=(1.0, 4.0))
    rep4 = tail_integrability(p4)
    assert rep4.integrable
    assert rep4.cut_radius > 2.0
    assert born_integral(p4) == 16.0 * math.pi / 3.0
    # in 2D, int_1^inf r^-3 r dr = 1 for p = 3: 2 pi (1/2 + 1) = 3 pi
    disc = PairPotential(kind="square-well", core_radius=1.0, strength=1.0,
                         tail=(1.0, 3.0), dimension=2)
    assert born_integral(disc) == 3.0 * math.pi

    p3 = PairPotential(kind="square-well", core_radius=1.0, strength=1.0,
                       tail=(1.0, 3.0))
    rep3 = tail_integrability(p3)
    assert not rep3.integrable and math.isinf(rep3.cut_radius)


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
    with pytest.raises(DomainError):
        PairPotential(kind="soft-sphere", core_radius=1.0, strength=10.0)

    csv_path = tmp_path / "pot.csv"
    csv_path.write_text("radius,value\n1.0,2.0\n2.0,0.0\n")
    t = parse_pair_potential(f"table:path={csv_path}")
    assert t.table == ((1.0, 2.0), (2.0, 0.0)) and not t.has_hard_core()

    trap = parse_trap_potential("power:s=3,scale=2")
    assert trap.homogeneity_degree == 3.0 and trap.scale == 2.0
    with pytest.raises(DomainError):
        parse_pair_potential("squarewell:ro=1,v0=3")
    with pytest.raises(DomainError):
        parse_trap_potential("funnel:s=1")


def test_missing_spec_keys_name_the_key():
    for spec, key in (("table:", "path"), ("table:path=", "path"),
                      ("hardcore:", "r0"), ("squarewell:r0=1", "v0"),
                      ("power:scale=2", "s")):
        parse = parse_trap_potential if spec.startswith("power") \
            else parse_pair_potential
        with pytest.raises(DomainError) as err:
            parse(spec)
        assert str(err.value) == f"spec {spec!r} is missing {key}=..."


@pytest.mark.parametrize("kwargs,name", [
    ({"kind": "hard-core", "core_radius": math.inf}, "core_radius"),
    ({"kind": "square-well", "core_radius": math.nan, "strength": 1.0},
     "core_radius"),
    ({"kind": "square-well", "core_radius": 1.0, "strength": math.inf},
     "strength"),
    ({"kind": "tabulated", "table": ((1.0, 2.0), (math.inf, 0.0))},
     "table_radius"),
    ({"kind": "tabulated", "table": ((1.0, math.nan), (2.0, 0.0))},
     "table_value"),
    ({"kind": "square-well", "core_radius": 1.0, "strength": 1.0,
      "tail": (math.inf, 4.0)}, "tail_coefficient"),
    ({"kind": "square-well", "core_radius": 1.0, "strength": 1.0,
      "tail": (1.0, math.nan)}, "tail_exponent"),
])
def test_pair_potential_rejects_nonfinite_fields(kwargs, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            PairPotential(**kwargs)


@pytest.mark.parametrize("kwargs,name", [
    ({"kind": "box", "box_side": math.inf}, "box_side"),
    ({"kind": "harmonic", "scale": math.nan}, "scale"),
    ({"kind": "power-law", "homogeneity_degree": math.inf},
     "homogeneity_degree"),
    ({"kind": "power-law", "homogeneity_degree": 4.0, "scale": -math.inf},
     "scale"),
])
def test_trap_potential_rejects_nonfinite_fields(kwargs, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            TrapPotential(**kwargs)


@pytest.mark.parametrize("kwargs,name", [
    ({"kind": "harmonic", "homogeneity_degree": 3.0}, "homogeneity_degree"),
    ({"kind": "harmonic", "box_side": 2.0}, "box_side"),
    ({"kind": "box", "box_side": 2.0, "homogeneity_degree": 4.0},
     "homogeneity_degree"),
    ({"kind": "box", "box_side": 2.0, "scale": 3.0}, "scale"),
    ({"kind": "power-law", "homogeneity_degree": 3.0, "box_side": 2.0},
     "box_side"),
])
def test_trap_potential_rejects_a_field_its_kind_does_not_read(kwargs, name):
    # stored and ignored, a harmonic trap's s = 3 would solve with s = 2
    with pytest.raises(DomainError, match=f"^{name} is not read by a "
                                          f"{kwargs['kind']} trap$"):
        TrapPotential(**kwargs)
    # a field at its default is not given
    TrapPotential(kind=kwargs["kind"], dimension=2,
                  **{k: v for k, v in kwargs.items() if k not in (name, "kind")})


def test_trap_potential_names_an_unknown_kind():
    for kind in ("cubic", ["box"], None):
        with pytest.raises(DomainError, match="^unknown trap kind"):
            TrapPotential(kind=kind)


def test_nonfinite_specs_fail_before_any_numerics():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, name in (("hardcore:r0=inf", "core_radius"),
                           ("squarewell:r0=1,v0=nan", "strength"),
                           ("softsphere:r0=1,v0=inf", "strength")):
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                parse_pair_potential(spec)
        with pytest.raises(DomainError, match="^homogeneity_degree must be"):
            parse_trap_potential("power:s=inf")
        for spec in ("harmonic:scale=abc", "power:s=4,scale=x"):
            with pytest.raises(DomainError, match="is not a number"):
                parse_trap_potential(spec)


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
        assert tail_integrability(p) == tail_integrability(bare)
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


@pytest.mark.parametrize("kwargs,name", [
    ({"kind": "hard-core", "core_radius": 1.0, "strength": 2.0}, "strength"),
    ({"kind": "hard-core", "core_radius": 1.0, "table": ((1.0, 2.0),)},
     "table"),
    ({"kind": "square-well", "core_radius": 1.0, "strength": 2.0,
      "table": ((1.0, 2.0),)}, "table"),
    ({"kind": "tabulated", "table": ((1.0, 2.0),), "strength": 2.0},
     "strength"),
    ({"kind": "tabulated", "table": ((1.0, 2.0),), "core_radius": 0.5},
     "core_radius"),
])
def test_pair_potential_rejects_fields_its_kind_does_not_read(kwargs, name):
    with pytest.raises(DomainError, match=f"^{name} is not read by a "):
        PairPotential(**kwargs)
    # the defaults stay accepted, as a caller that passes every field needs
    defaults = {"core_radius": 0.0, "strength": 0.0, "table": None}
    PairPotential(**{**kwargs, name: defaults[name]})


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
