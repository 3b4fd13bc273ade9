"""The library's error contract in one table.

Each row is (id, call, "ErrorName: message"): a zero-argument call, the
exact class of the error it raises and its whole message.  A float-range
message is matched up to and including "leaves the float range: ", since
numpy or the C library writes the rest.  Rows run with every warning an
error.  The CLI's exit codes have their own table in tests/test_cli.py.

A second test keeps the rule: every `raise` in the library modules (all
but `cli` and `verify`) is executed by a row, or is named in `_ELSEWHERE`
with the test that reaches it.
"""

import ast
import dataclasses
import itertools
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest

import bosegas
from bosegas import errors, gp, numerics, scattering
from bosegas.bogolubov import (BogolubovMode, displayed_prefactor_energy,
                               fock_oracle, foldy_energy, foldy_mode_integrand,
                               foldy_report, mode_integral_energy,
                               two_component_scaling, yukawa_ft)
from bosegas.gp import gp_minimize, gp_tf_limit
from bosegas.homogeneous import (DiluteParams, bound_sandwich,
                                 cell_construction, cell_energy_factor,
                                 cell_lower_bound, intermediate_2d_upper,
                                 leading_energy, lhy_energy, log_quadratic_gap,
                                 occupation_minimum, schick_2d_bounds,
                                 temple_bound)
from bosegas.numerics import Tolerances, integrate_ode, quad
from bosegas.potentials import (PairPotential, TrapPotential, born_integral,
                                pair_value, parse_pair_potential,
                                parse_trap_potential, tail_cut_radius)
from bosegas.scattering import (energy_integral, kinetic_fraction,
                                solve_zero_energy, two_dim_energy_ratio)
from bosegas.thomas_fermi import tf_scaling, tf_solve

TOL = Tolerances()
HARM3 = TrapPotential(kind="power-law", dimension=3)    # s = 2: harmonic
HARM2 = TrapPotential(kind="power-law", dimension=2)
BOX = TrapPotential(kind="box", dimension=3, box_side=2.0)
_FLOAT_RANGE = "leaves the float range: "


def _walk(rhs, initial, nodes):
    """The state at the last of an array of nodes, one integrate_ode span
    per gap."""
    nodes = nodes.tolist()
    for lo, hi in zip(nodes, nodes[1:]):
        initial = integrate_ode(rhs, initial, (lo, hi), TOL)
    return initial


def _fails_beyond_half(r, y):
    if r > 0.5:
        raise ValueError("rhs's own failure")
    return (y[1], -y[0])


def _oscillator(r, y):
    """(u, u', int u^2, int u'^2) for u'' = -u."""
    return (y[1], -y[0], y[0] * y[0], y[1] * y[1])


def _well(**kwargs):
    return PairPotential(kind="square-well", core_radius=1.0, **kwargs)


def _solved(**kwargs):
    return solve_zero_energy(PairPotential(**kwargs), 1.0)


def _cell(y):
    """The ansatz cell at rho = mu = 1 and diluteness Y."""
    a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
    return cell_construction(DiluteParams(rho=1.0, a=a, mu=1.0))


ROWS = [
    # --- potentials: pair potentials ----------------------------------------
    ("pair-table-negative-value", lambda: PairPotential(
        kind="tabulated", table=((1.0, 1.0), (2.0, -0.1))),
     "DomainError: tabulated values must be nonnegative"),
    ("pair-negative-strength", lambda: PairPotential(
        kind="square-well", core_radius=1.0, strength=-1.0),
     "DomainError: strength must be nonnegative (v >= 0)"),
    ("pair-table-radii-decrease", lambda: PairPotential(
        kind="tabulated", table=((2.0, 1.0), (1.0, 0.0))),
     "DomainError: table radii must be positive and strictly increasing"),
    ("pair-nonfinite-hard-core-radius", lambda: PairPotential(
        kind="hard-core", core_radius=math.inf),
     "DomainError: core_radius must be finite, got inf"),
    ("pair-nonfinite-well-radius", lambda: PairPotential(
        kind="square-well", core_radius=math.nan, strength=1.0),
     "DomainError: core_radius must be finite, got nan"),
    ("pair-nonfinite-strength", lambda: PairPotential(
        kind="square-well", core_radius=1.0, strength=math.inf),
     "DomainError: strength must be finite, got inf"),
    ("pair-nonfinite-table-radius", lambda: PairPotential(
        kind="tabulated", table=((1.0, 2.0), (math.inf, 0.0))),
     "DomainError: table_radius must be finite, got inf"),
    ("pair-nonfinite-table-value", lambda: PairPotential(
        kind="tabulated", table=((1.0, math.nan), (2.0, 0.0))),
     "DomainError: table_value must be finite, got nan"),
    ("pair-nonfinite-tail-coefficient", lambda: PairPotential(
        kind="square-well", core_radius=1.0, strength=1.0,
        tail=(math.inf, 4.0)),
     "DomainError: tail_coefficient must be finite, got inf"),
    ("pair-nonfinite-tail-exponent", lambda: PairPotential(
        kind="square-well", core_radius=1.0, strength=1.0,
        tail=(1.0, math.nan)),
     "DomainError: tail_exponent must be finite, got nan"),
    # an unhashable kind once raised a bare TypeError from the dict lookup
    ("pair-kind-hardcore", lambda: PairPotential(kind="hardcore"),
     "DomainError: unknown pair potential kind 'hardcore'"),
    ("pair-kind-list", lambda: PairPotential(kind=["x"]),
     "DomainError: unknown pair potential kind ['x']"),
    ("pair-kind-none", lambda: PairPotential(kind=None),
     "DomainError: unknown pair potential kind None"),
    ("pair-kind-soft-sphere", lambda: PairPotential(
        kind="soft-sphere", core_radius=1.0, strength=10.0),
     "DomainError: unknown pair potential kind 'soft-sphere'"),
    # a field that the kind does not read must keep its default
    ("pair-hard-core-strength", lambda: PairPotential(
        kind="hard-core", core_radius=1.0, strength=2.0),
     "DomainError: strength is not read by a hard-core potential"),
    ("pair-hard-core-table", lambda: PairPotential(
        kind="hard-core", core_radius=1.0, table=((1.0, 2.0),)),
     "DomainError: table is not read by a hard-core potential"),
    ("pair-square-well-table", lambda: PairPotential(
        kind="square-well", core_radius=1.0, strength=2.0,
        table=((1.0, 2.0),)),
     "DomainError: table is not read by a square-well potential"),
    ("pair-tabulated-strength", lambda: PairPotential(
        kind="tabulated", table=((1.0, 2.0),), strength=2.0),
     "DomainError: strength is not read by a tabulated potential"),
    ("pair-tabulated-core-radius", lambda: PairPotential(
        kind="tabulated", table=((1.0, 2.0),), core_radius=0.5),
     "DomainError: core_radius is not read by a tabulated potential"),
    ("pair-dimension-4", lambda: PairPotential(
        kind="hard-core", dimension=4, core_radius=1.0),
     "DomainError: dimension must be 2 or 3"),
    ("pair-negative-core-radius", lambda: PairPotential(
        kind="hard-core", core_radius=-1.0),
     "DomainError: core radius must be nonnegative"),
    ("pair-hard-core-radius-0", lambda: PairPotential(kind="hard-core"),
     "DomainError: hard core needs core_radius > 0"),
    ("pair-well-radius-0", lambda: PairPotential(
        kind="square-well", strength=1.0),
     "DomainError: step potential needs core_radius > 0"),
    ("pair-tabulated-without-table", lambda: PairPotential(
        kind="tabulated"),
     "DomainError: tabulated potential needs a table"),
    ("pair-negative-tail-coefficient", lambda: PairPotential(
        kind="hard-core", core_radius=1.0, tail=(-1.0, 4.0)),
     "DomainError: tail coefficient must be nonnegative"),
    ("pair-value-at-0", lambda: pair_value(
        PairPotential(kind="hard-core", core_radius=1.0), 0.0),
     "DomainError: pair_value requires r > 0"),
    # p <= d: one verdict, raised by tail_cut_radius and reached through
    # the Born integral, in 3D and in 2D
    *((f"slow-tail-{check.__name__}-{d}d-p{exponent}",
       lambda check=check, d=d, exponent=exponent: check(PairPotential(
           kind="square-well", core_radius=1.0, strength=1.0,
           tail=(1.0, exponent), dimension=d)),
       f"NonIntegrableTail: tail exponent {exponent!r} <= dimension {d}: "
       "the scattering length is infinite")
      for d, exponent in ((3, 3.0), (3, 2.5), (2, 2.0), (2, 1.5))
      for check in (tail_cut_radius, born_integral)),
    # r0^3 overflows after a solve that succeeds: `scatter` prints nan
    ("born-integral-overflow", lambda: born_integral(PairPotential(
        kind="square-well", core_radius=1e120, strength=1e-300)),
     "DomainError: born_integral leaves the float range: "),

    # --- potentials: traps --------------------------------------------------
    ("trap-nonfinite-box-side", lambda: TrapPotential(
        kind="box", box_side=math.inf),
     "DomainError: box_side must be finite, got inf"),
    ("trap-nonfinite-scale", lambda: TrapPotential(
        kind="power-law", scale=math.nan),
     "DomainError: scale must be finite, got nan"),
    ("trap-nonfinite-degree", lambda: TrapPotential(
        kind="power-law", homogeneity_degree=math.inf),
     "DomainError: homogeneity_degree must be finite, got inf"),
    ("trap-nonfinite-scale-at-s4", lambda: TrapPotential(
        kind="power-law", homogeneity_degree=4.0, scale=-math.inf),
     "DomainError: scale must be finite, got -inf"),
    # stored and ignored, such a field would be read by no solver
    ("trap-box-degree-3", lambda: TrapPotential(
        kind="box", box_side=2.0, homogeneity_degree=3.0),
     "DomainError: homogeneity_degree is not read by a box trap"),
    ("trap-power-law-box-side", lambda: TrapPotential(
        kind="power-law", box_side=2.0),
     "DomainError: box_side is not read by a power-law trap"),
    ("trap-box-degree-4", lambda: TrapPotential(
        kind="box", box_side=2.0, homogeneity_degree=4.0),
     "DomainError: homogeneity_degree is not read by a box trap"),
    ("trap-box-scale", lambda: TrapPotential(
        kind="box", box_side=2.0, scale=3.0),
     "DomainError: scale is not read by a box trap"),
    ("trap-power-law-s3-box-side", lambda: TrapPotential(
        kind="power-law", homogeneity_degree=3.0, box_side=2.0),
     "DomainError: box_side is not read by a power-law trap"),
    # the harmonic trap is the power law's default s = 2, not a kind
    ("trap-kind-cubic", lambda: TrapPotential(kind="cubic"),
     "DomainError: unknown trap kind 'cubic'"),
    ("trap-kind-harmonic", lambda: TrapPotential(kind="harmonic"),
     "DomainError: unknown trap kind 'harmonic'"),
    ("trap-kind-list", lambda: TrapPotential(kind=["box"]),
     "DomainError: unknown trap kind ['box']"),
    ("trap-kind-none", lambda: TrapPotential(kind=None),
     "DomainError: unknown trap kind None"),
    ("trap-dimension-1", lambda: TrapPotential(
        kind="box", dimension=1, box_side=1.0),
     "DomainError: dimension must be 2 or 3"),
    ("trap-box-side-0", lambda: TrapPotential(kind="box"),
     "DomainError: box trap needs a positive side length"),
    ("trap-scale-0", lambda: TrapPotential(kind="power-law", scale=0.0),
     "DomainError: power-law trap needs positive scale"),
    ("trap-degree-0", lambda: TrapPotential(
        kind="power-law", homogeneity_degree=0.0),
     "DomainError: homogeneity degree must be positive"),

    # --- potentials: spec strings -------------------------------------------
    ("spec-hardcore-r0-inf", lambda: parse_pair_potential(
        "hardcore:r0=inf"),
     "DomainError: core_radius must be finite, got inf"),
    ("spec-squarewell-v0-nan", lambda: parse_pair_potential(
        "squarewell:r0=1,v0=nan"),
     "DomainError: strength must be finite, got nan"),
    ("spec-softsphere-v0-inf", lambda: parse_pair_potential(
        "softsphere:r0=1,v0=inf"),
     "DomainError: strength must be finite, got inf"),
    ("spec-power-s-inf", lambda: parse_trap_potential("power:s=inf"),
     "DomainError: homogeneity_degree must be finite, got inf"),
    ("spec-harmonic-scale-abc", lambda: parse_trap_potential(
        "harmonic:scale=abc"),
     "DomainError: spec 'harmonic:scale=abc': scale='abc' is not a number"),
    ("spec-power-scale-x", lambda: parse_trap_potential(
        "power:s=4,scale=x"),
     "DomainError: spec 'power:s=4,scale=x': scale='x' is not a number"),
    ("spec-unknown-key", lambda: parse_pair_potential(
        "squarewell:ro=1,v0=3"),
     "DomainError: unknown parameter 'ro' in 'squarewell:ro=1,v0=3'; valid: "
     "r0, v0"),
    ("spec-unknown-trap", lambda: parse_trap_potential("funnel:s=1"),
     "DomainError: unknown trap spec 'funnel:s=1'"),
    ("spec-unknown-pair", lambda: parse_pair_potential("nope"),
     "DomainError: unknown pair potential spec 'nope'"),
    ("spec-without-equals", lambda: parse_pair_potential("hardcore:r0"),
     "DomainError: malformed parameter 'r0' in 'hardcore:r0'"),
    ("spec-key-given-twice", lambda: parse_pair_potential(
        "squarewell:r0=1,v0=2,r0=3"),
     "DomainError: parameter 'r0' given twice in 'squarewell:r0=1,v0=2,r0=3'"),
    ("spec-table-missing-path", lambda: parse_pair_potential("table:"),
     "DomainError: spec 'table:' is missing path=..."),
    ("spec-table-empty-path", lambda: parse_pair_potential("table:path="),
     "DomainError: spec 'table:path=' is missing path=..."),
    ("spec-hardcore-missing-r0", lambda: parse_pair_potential("hardcore:"),
     "DomainError: spec 'hardcore:' is missing r0=..."),
    ("spec-squarewell-missing-v0", lambda: parse_pair_potential(
        "squarewell:r0=1"),
     "DomainError: spec 'squarewell:r0=1' is missing v0=..."),
    ("spec-power-missing-s", lambda: parse_trap_potential("power:scale=2"),
     "DomainError: spec 'power:scale=2' is missing s=..."),

    # --- numerics -----------------------------------------------------------
    ("tolerances-both-zero", lambda: Tolerances(abs_tol=0.0, rel_tol=0.0),
     "DomainError: abs_tol + rel_tol must be positive"),
    ("tolerances-negative", lambda: Tolerances(abs_tol=-1.0),
     "DomainError: tolerances must be nonnegative"),
    *((f"ode-span-{lo}-{hi}", lambda span=(lo, hi): integrate_ode(
        lambda r, y: np.array([y[1], y[0]]), [0.0, 1.0], span, TOL),
       f"DomainError: need a finite span lo < hi, got {(lo, hi)!r}")
      for lo, hi in ((0.0, 0.0), (1.0, 0.5), (0.0, math.inf),
                     (math.nan, 1.0))),
    *((f"ode-quadratures-{bad}", lambda bad=bad: integrate_ode(
        _oscillator, [0.0, 1.0, 0.0, 0.0], (0.0, 3.0), TOL,
        quadratures=bad),
       f"DomainError: need 0 <= quadratures < 4, got {bad!r}")
      for bad in (-1, 4, 5, 1.0, None)),
    ("ode-nan-rhs", lambda: _walk(
        lambda r, y: np.array([y[1], math.nan if r > 0.5 else 0.0]),
        [0.0, 1.0], np.linspace(0.0, 1.0, 17)),
     "NonFiniteRhs: rhs non-finite in the step from r=0.5"),
    ("ode-state-overflow", lambda: integrate_ode(
        lambda r, y: (1e308,), [1e308], (0.0, 10.0), TOL),
     "NonFiniteRhs: state overflow near r=0"),
    ("ode-rhs-short-at-lo", lambda: integrate_ode(
        lambda r, y: (1.0,), [0.0, 1.0], (0.0, 1.0), TOL),
     "DomainError: rhs must return 2 numbers for a state of 2; a stage near "
     "r=0 did not"),
    ("ode-rhs-own-error", lambda: integrate_ode(
        _fails_beyond_half, [0.0, 1.0], (0.0, 10.0), TOL),
     "ValueError: rhs's own failure"),
    ("quad-divergent-tail", lambda: quad(
        lambda x: 1.0 / (1.0 + x), (0.0, math.inf), TOL),
     "DivergentTail: tail estimate |f(x)|*x does not shrink; need decay >= "
     "x^-2"),
    ("quad-infinite-lower-limit", lambda: quad(
        math.exp, (-math.inf, 0.0), TOL),
     "DomainError: lower limit must be finite"),
    ("quad-nan-integrand", lambda: quad(lambda x: math.nan, (0.0, 1.0), TOL),
     "NoConvergence: integrand non-finite on [0.0, 1.0]"),
    ("quad-nonfinite-tail", lambda: quad(
        lambda x: math.inf, (0.0, math.inf), TOL),
     "DivergentTail: integrand non-finite at x=8.000e+00"),
    ("quad-panel-width-underflow", lambda: quad(
        lambda x: 1.0 / x, (0.0, 1.0), TOL),
     "NoConvergence: panel width underflow; integrand too singular"),

    # --- homogeneous --------------------------------------------------------
    ("dilute-negative-rho", lambda: DiluteParams(rho=-1.0, a=0.1),
     "DomainError: rho, a, mu must all be positive"),
    ("dilute-d-4", lambda: DiluteParams(rho=1.0, a=0.1, d=4),
     "DomainError: d must be 2 or 3"),
    ("dilute-y-overflows", lambda: DiluteParams(rho=1.0, a=1e200),
     "DomainError: rho = 1.0, a = 1e+200: Y = 4 pi rho a^3 / 3 overflows"),
    ("dilute-y-overflows-at-huge-rho", lambda: DiluteParams(
        rho=1e300, a=1e10),
     "DomainError: rho = 1e+300, a = 10000000000.0: Y = 4 pi rho a^3 / 3 "
     "overflows"),
    ("dilute-y-overflows-2d", lambda: DiluteParams(rho=1.0, a=1e200, d=2),
     "DomainError: rho = 1.0, a = 1e+200: Y = 4 pi rho a^3 / 3 overflows"),
    ("dilute-nan-rho", lambda: DiluteParams(rho=math.nan, a=1.0),
     "DomainError: rho must be finite, got nan"),
    ("dilute-inf-a", lambda: DiluteParams(rho=1.0, a=math.inf),
     "DomainError: a must be finite, got inf"),
    ("dilute-nan-mu", lambda: DiluteParams(rho=1.0, a=1.0, mu=math.nan),
     "DomainError: mu must be finite, got nan"),
    ("leading-2d-rho-a2-4", lambda: leading_energy(
        DiluteParams(rho=1.0, a=2.0, mu=1.0, d=2)),
     "DomainError: 2D leading term needs rho a^2 < 1"),
    # 4 pi mu overflows first: each energy once returned inf, where the true
    # 3D value is about 1.3e303
    *((f"{energy.__name__}-{d}d-mu-1e308", lambda energy=energy, a=a, d=d:
       energy(DiluteParams(rho=1.0, a=a, mu=1e308, d=d)),
       "DomainError: energy inf leaves the float range")
      for energy, a, d in ((leading_energy, 1e-6, 3), (lhy_energy, 1e-6, 3),
                           (cell_lower_bound, 1e-6, 3),
                           (leading_energy, 0.5, 2))),
    ("lhy-2d", lambda: lhy_energy(DiluteParams(rho=1.0, a=0.1, d=2)),
     "DomainError: the expansion is three-dimensional"),
    ("lhy-rho-a3-1", lambda: lhy_energy(DiluteParams(rho=1.0, a=1.0)),
     "DomainError: expansion needs rho a^3 < 1"),
    ("dyson-upper-y-1", lambda: bound_sandwich(1.0),
     "DomainError: upper bound valid for 0 < Y < 1"),
    # Y^(1/3) rounds to 1: the bound once read inf with a numpy warning
    ("dyson-upper-cube-root-1", lambda: bound_sandwich(0.9999999999999999),
     "DomainError: Y = 0.9999999999999999: 1 - Y^(1/3) rounds to 0"),
    *((f"lower-ratio-c-{c}-scalar", lambda c=c: bound_sandwich(1e-6, c),
       f"DomainError: C must be finite, got {c!r}")
      for c in (math.nan, math.inf, -math.inf)),
    ("lower-ratio-y-0", lambda: bound_sandwich(0.0),
     "DomainError: Y must be positive"),
    ("schick-3d", lambda: schick_2d_bounds(DiluteParams(rho=1.0, a=0.1)),
     "DomainError: 2D operation"),
    ("schick-log-below-1", lambda: schick_2d_bounds(
        DiluteParams(rho=1.0, a=0.7, mu=1.0, d=2)),
     "DomainError: need rho a^2 small enough that |ln(rho a^2)| > 1"),
    ("intermediate-3d", lambda: intermediate_2d_upper(
        DiluteParams(rho=1.0, a=0.1)),
     "DomainError: 2D operation"),
    ("intermediate-cutoff-too-large", lambda: intermediate_2d_upper(
        DiluteParams(rho=1.0, a=0.5, d=2)),
     "DomainError: cutoff b too large for the bound to hold"),
    ("temple-gap", lambda: temple_bound(2.0, 5.0, 2.0),
     "GapViolation: Temple bound needs E1 > <H>"),
    ("temple-variance", lambda: temple_bound(2.0, 2.0, 5.0),
     "VarianceNegative: <H^2> - <H>^2 = -2.0 < 0"),
    ("cell-factor-n-1", lambda: cell_energy_factor(_cell(1e-12), n=1.0),
     "DomainError: need n >= 2"),
    ("cell-construction-2d", lambda: cell_construction(
        DiluteParams(rho=1.0, a=1e-6, d=2)),
     "DomainError: the Y-power ansatz is three-dimensional"),
    # a^3 below the float range gives Y = 0, where the ansatz would take
    # 0 * inf: the error names the underflow, not "Y too large"
    ("cell-y-underflows", lambda: cell_lower_bound(
        DiluteParams(rho=1.0, a=1e-300, mu=1.0)),
     "DomainError: rho = 1.0, a = 1e-300: Y = 4 pi rho a^3 / 3 underflows "
     "to 0"),
    ("cell-ansatz-y-large", lambda: cell_lower_bound(
        DiluteParams(rho=1.0, a=0.1, mu=1.0)),
     "AnsatzInfeasible: ansatz violates R0 < R < ell/2; Y too large"),
    # far beyond the ansatz, K's (1 - 2R/ell)^3 would overflow: the failed
    # condition is named
    ("cell-ansatz-a-1e90", lambda: cell_lower_bound(
        DiluteParams(rho=1.0, a=1e90, mu=1e300)),
     "AnsatzInfeasible: eps = 8297483334150222.0 outside (0, 1); Y too large"),
    ("cell-ansatz-a-1e99", lambda: cell_lower_bound(
        DiluteParams(rho=1.0, a=1e99, mu=1e300)),
     "AnsatzInfeasible: eps = 3.2150052237231245e+17 outside (0, 1); Y too "
     "large"),
    # the error terms rule the bound out at Y = 1e-10, but not the ansatz
    ("cell-error-terms", lambda: cell_lower_bound(DiluteParams(
        rho=1.0, a=(3.0 * 1e-10 / (4.0 * math.pi)) ** (1.0 / 3.0))),
     "AnsatzInfeasible: error terms not all < 1: {'eps': "
     "0.2580861540418075, 'occupancy': 1.0810687540413133, 'boundary': "
     "0.5161723083419267, 'local_density': 0.26643385163236677, 'temple': "
     "0.24663155480407964}"),
    # Y near 5e-6: R < ell/2 holds, and n = (3/pi) Y^(-1/17) < 2
    ("cell-ansatz-few-particles", lambda: cell_lower_bound(
        DiluteParams(rho=1.0, a=0.0106)),
     "AnsatzInfeasible: fewer than 2 particles per cell; Y too large"),
    # ell^3 overflows, where a bare OverflowError once ended the call
    ("cell-ell-cubed-overflows", lambda: cell_lower_bound(
        DiluteParams(rho=1e-309, a=5e102)),
     "AnsatzInfeasible: ansatz violates R0 < R < ell/2; Y too large"),
    ("occupation-k-half", lambda: occupation_minimum(0.5, 4),
     "DomainError: need k >= 1"),
    ("occupation-p-1", lambda: occupation_minimum(2.0, 1),
     "DomainError: need p >= 2"),
    ("log-gap-k-half", lambda: log_quadratic_gap(0.5, 0.5, 0.5),
     "DomainError: need k >= 1"),
    ("log-gap-x-0", lambda: log_quadratic_gap(0.0, 0.5, 1.0),
     "DomainError: need 0 < x, b < 1"),

    # --- gp and thomas_fermi ------------------------------------------------
    ("gp-negative-coupling", lambda: gp_minimize(HARM3, 1.0, -0.1),
     "NegativeCoupling: coupling must be nonnegative"),
    *((f"gp-{name}-{n_part}-{coupling}-{mu_const}",
       lambda trap=trap, args=(n_part, coupling, mu_const):
       gp_minimize(trap, *args), f"DomainError: {message}")
      for name, trap in (("harmonic3d", HARM3), ("harmonic2d", HARM2),
                         ("box", BOX))
      for n_part, coupling, mu_const, message in (
          (math.nan, 1.0, 1.0, "N, coupling and mu_const must be finite"),
          (1.0, math.inf, 1.0, "N, coupling and mu_const must be finite"),
          (1.0, -math.inf, 1.0, "N, coupling and mu_const must be finite"),
          (1.0, 1.0, math.nan, "N, coupling and mu_const must be finite"),
          (1.0, 1.0, 0.0, "mu_const must be positive"),
          (1.0, 1.0, -1.0, "mu_const must be positive"))),
    ("gp-n-0", lambda: gp_minimize(HARM3, 0.0, 1.0),
     "DomainError: N must be positive"),
    ("gp-15-nodes", lambda: gp_minimize(HARM3, 1.0, 1.0, grid_points=15),
     "DomainError: grid needs at least 16 nodes"),
    # x^s rounds to 1.0 on the whole grid: no trap left to confine the gas
    ("gp-flat-trap", lambda: gp_minimize(TrapPotential(
        kind="power-law", homogeneity_degree=1e-212, scale=1e15), 1.0, 10.0,
        grid_points=100),
     "DomainError: trap is flat on the grid: x^s = 1.0 at every node (s = "
     "1e-212)"),
    # the tridiagonal solve checks what would crash LAPACK, and fails as
    # scipy.linalg.solve_banded does
    ("dgtsv-shapes", lambda: gp._dgtsv(np.ones(2), np.ones(3), np.ones(2),
                                       np.ones(4)),
     "ValueError: dgtsv shapes do not match: n = 3, b (4,)"),
    ("dgtsv-nan", lambda: gp._dgtsv(np.ones(1), np.ones(2), np.ones(1),
                                    np.array([1.0, math.nan])),
     "ValueError: array must not contain infs or NaNs"),
    ("dgtsv-singular", lambda: gp._dgtsv(np.ones(1), np.ones(2), np.ones(1),
                                         np.ones(2)),
     "LinAlgError: singular matrix"),
    ("gp-tf-limit-g-decreasing", lambda: gp_tf_limit(HARM3, [10.0, 1.0]),
     "DomainError: g_sequence must be increasing"),
    ("gp-tf-limit-g-0", lambda: gp_tf_limit(HARM3, [0.0, 10.0]),
     "DomainError: g must be positive"),
    ("gp-tf-limit-g-negative", lambda: gp_tf_limit(HARM3, [-1.0, 10.0]),
     "NegativeCoupling: coupling must be nonnegative"),
    *((f"tf-{name}-{label}", lambda trap=trap, kwargs=kwargs: tf_solve(
        trap, **kwargs), f"DomainError: {message}")
      for name, trap in (("harmonic3d", HARM3), ("harmonic2d", HARM2))
      for label, kwargs, message in (
          ("n-nan", {"N": math.nan, "a": 1.0}, "N must be finite, got nan"),
          ("a-inf", {"N": 1.0, "a": math.inf},
           "coupling must be finite, got inf"),
          ("a-nan", {"N": 1.0, "a": math.nan},
           "coupling must be finite, got nan"),
          ("mu-nan", {"N": 1.0, "a": 1.0, "mu_const": math.nan},
           "mu_const must be finite, got nan"),
          ("mu-negative", {"N": 1.0, "a": 1.0, "mu_const": -1.0},
           "mu_const must be positive"))),
    ("tf-box", lambda: tf_solve(BOX, 1.0, 1.0),
     "DomainError: TF closed forms are for power-law traps"),
    ("tf-n-0", lambda: tf_solve(HARM3, 0.0, 1.0),
     "DomainError: need N > 0 and 0 < 8 pi mu_const coupling < inf"),
    ("tf-trap-length-overflows", lambda: tf_solve(TrapPotential(
        kind="power-law", scale=1e-308), 1.0, 1.0, mu_const=1e10),
     "DomainError: tf_solve leaves the float range: "),
    ("tf-energy-overflows", lambda: tf_solve(HARM3, 1e300, 1e300),
     "DomainError: tf_solve leaves the float range: "),
    ("tf-scaling-g-0", lambda: tf_scaling(0.0, s=2.0),
     "DomainError: g must be positive"),
    ("tf-scaling-d-4", lambda: tf_scaling(1.0, 2.0, d=4),
     "DomainError: d must be 2 or 3"),

    # --- scattering ---------------------------------------------------------
    ("scatter-mu-0", lambda: solve_zero_energy(_well(strength=1.0), 0.0),
     "DomainError: mu must be positive"),
    ("scatter-3d-abs-tol-0", lambda: solve_zero_energy(
        _well(strength=10.0), 1.0, Tolerances(abs_tol=0.0, rel_tol=1e-10)),
     "DomainError: abs_tol must be positive for a 3D solve"),
    # with abs_tol = 0 the integral pot starts at y = 0 with f = 0, so its
    # error scale is 0: x/0 is a rejected step, not a ZeroDivisionError
    ("scatter-2d-abs-tol-0", lambda: solve_zero_energy(PairPotential(
        kind="hard-core", dimension=2, core_radius=1.0, tail=(1.0, 4.0)),
        1.0, Tolerances(abs_tol=0.0, rel_tol=1e-10)),
     "StepSizeUnderflow: step 3.717e-10 below floor near r=1"),
    ("scatter-slow-tail", lambda: solve_zero_energy(
        _well(strength=1.0, tail=(1.0, 3.0)), 1.0),
     "NonIntegrableTail: tail exponent 3.0 <= dimension 3: the scattering "
     "length is infinite"),
    ("scatter-zero-table-2d", lambda: _solved(
        kind="tabulated", table=((0.5, 0.0), (1.0, 0.0)), dimension=2),
     "NoLogAsymptote: no logarithmic asymptote: v vanishes identically"),
    # a ~ v0 r0^3 (3D) or r0 exp(-4 mu / (v0 r0^2)) (2D) lies below the
    # float range: a = 0 for a nonzero potential is no result
    *((f"scatter-underflow-{r0}-{d}d", lambda d=d, r0=r0: _solved(
        kind="square-well", core_radius=r0, strength=1.0, dimension=d),
       f"ScatteringLengthUnderflow: a = {a} for a nonzero potential: the "
       "scattering length lies below the float range")
      for r0 in (1e-200, 1e-308) for d, a in ((2, "0.0"), (3, "-0.0"))),
    ("kinetic-fraction-free-well", lambda: kinetic_fraction(
        _solved(kind="square-well", core_radius=1.0, strength=0.0)),
     "ZeroScatteringLength: kinetic fraction undefined for a = 0"),
    ("kinetic-fraction-zero-table", lambda: kinetic_fraction(
        _solved(kind="tabulated", table=((0.5, 0.0), (1.0, 0.0)))),
     "ZeroScatteringLength: kinetic fraction undefined for a = 0"),
    ("energy-integral-inside-hard-core", lambda: energy_integral(
        _solved(kind="hard-core", core_radius=1.0), 0.5),
     "RadiusInsideRange: R=0.5 lies inside the interaction range 1.0"),
    ("energy-integral-inside-tailed-well", lambda: energy_integral(
        solve_zero_energy(_well(strength=2.0, tail=(0.3, 6.0)), 1.0), 0.99),
     "RadiusInsideRange: R=0.99 lies inside the interaction range 1.0"),
    ("energy-integral-r-nan", lambda: energy_integral(
        _solved(kind="square-well", core_radius=1.0, strength=1.0),
        math.nan),
     "DomainError: need a radius R, got R=nan"),
    ("energy-integral-2d", lambda: energy_integral(
        _solved(kind="hard-core", dimension=2, core_radius=1.0), 2.0),
     "DomainError: energy_integral is a 3D operation"),
    ("energy-ratio-inside-tailed-disc", lambda: two_dim_energy_ratio(
        _solved(kind="hard-core", dimension=2, core_radius=1.0,
                tail=(0.5, 4.0)), 0.5),
     "RadiusInsideRange: R=0.5 lies inside the interaction range 1.0"),
    ("energy-ratio-r-nan", lambda: two_dim_energy_ratio(
        _solved(kind="square-well", dimension=2, core_radius=1.0,
                strength=1.0), math.nan),
     "DomainError: need a radius R, got R=nan"),
    ("energy-ratio-3d", lambda: two_dim_energy_ratio(
        _solved(kind="hard-core", core_radius=1.0), 2.0),
     "DomainError: two_dim_energy_ratio is a 2D diagnostic"),
    # kinetic and potential parts both vanish at R0: the ratio is 0/0
    *((f"energy-ratio-at-hard-disc-{label}", lambda tail=tail:
       two_dim_energy_ratio(_solved(kind="hard-core", dimension=2,
                                    core_radius=1.0, tail=tail), 1.0),
       "DomainError: the energy ratio is 0/0 at the hard-disc radius R=1.0")
      for label, tail in (("bare", None), ("tailed", (0.5, 4.0)))),

    # --- bogolubov ----------------------------------------------------------
    ("pair-mode-b-above-a", lambda: BogolubovMode(3.0, 4.0),
     "DomainError: need A >= B > 0"),
    ("pair-mode-b-0", lambda: BogolubovMode(3.0, 0.0),
     "DomainError: need A >= B > 0"),
    # alpha lies below the float range
    ("pair-mode-b-5e-324", lambda: BogolubovMode(5.0, 5e-324),
     "DomainError: BogolubovMode.__post_init__ leaves the float range: "),
    ("fock-n-max-3", lambda: fock_oracle(5.0, 3.0, 3),
     "DomainError: need n_max >= 4"),
    # the B = 0 shortcut once returned 0.0 before checking A
    ("fock-a-negative", lambda: fock_oracle(-1.0, 0.0, 10),
     "DomainError: need A >= B >= 0, and A finite"),
    ("fock-a-nan", lambda: fock_oracle(math.nan, 0.0, 10),
     "DomainError: need A >= B >= 0, and A finite"),
    ("fock-a-inf", lambda: fock_oracle(math.inf, 1.0, 10),
     "DomainError: need A >= B >= 0, and A finite"),
    # B/A -> 1 converges slowly; a small cutoff must be flagged
    ("fock-truncation", lambda: fock_oracle(1.0, 0.999999, 40),
     "TruncationNotConverged: eigenvalue still moving by 4.771e-03 at "
     "n_max=40"),
    ("yukawa-omega-0", lambda: yukawa_ft(1.0, 0.0),
     "DomainError: omega must be positive"),
    ("mode-integrand-k-0", lambda: foldy_mode_integrand(0.0, 1.0),
     "DomainError: k must be positive"),
    ("foldy-energy-rho-0", lambda: foldy_energy(0.0),
     "DomainError: rho must be positive"),
    ("displayed-prefactor-rho-0", lambda: displayed_prefactor_energy(0.0),
     "DomainError: rho must be positive"),
    *((f"{fn.__name__}-{rho}-{mu_const}", lambda fn=fn, args=(rho, mu_const):
       fn(*args), f"DomainError: {name} must be finite, got {bad!r}")
      for rho, mu_const, name, bad in (
          (math.nan, 1.0, "rho", math.nan), (math.inf, 1.0, "rho", math.inf),
          (1.0, math.nan, "mu_const", math.nan),
          (1.0, -math.inf, "mu_const", -math.inf))
      for fn in (mode_integral_energy, foldy_report)),
    ("mode-integral-mu-negative", lambda: mode_integral_energy(1.0, -1.0),
     "DomainError: rho and mu_const must be positive"),
    # beyond this range the quadrature once returned 0 (ratio 1e23 and up)
    # or failed its tail test (1e-10 and below)
    *((f"mode-integral-mu-{mu_const}", lambda mu_const=mu_const:
       mode_integral_energy(1.0, mu_const),
       "DomainError: need 1e-9 <= mu_const/rho <= 1e22")
      for mu_const in (1e-10, 1e23, 1e300, 1e308)),
    # mu_const k^2 overflows at the largest nodes
    ("mode-integral-k2-overflows", lambda: mode_integral_energy(1e308, 1e308),
     "DomainError: mode_integral_energy leaves the float range: "),
    ("two-component-decreasing", lambda: two_component_scaling(
        [1e3, 1e2, 1e4]),
     "DomainError: need an increasing sequence of at least 3 sizes"),
]


# raises that no row runs, each with the test that runs it: a call that
# needs a file, a patched budget or a patched solver.  Keyed as
# `_raise_key` keys them
_ELSEWHERE = {
    ("gp", "gp_minimize", "NoConvergence", "GP residual {} after {} "
     "iterations"): "tests/test_errors.py::test_gp_pass_budget_is_named",
    ("gp", "gp_minimize", "NoConvergence",
     "step size underflow in gradient flow"):
    "tests/test_errors.py::test_gp_flow_step_underflow_is_named",
    ("numerics", "integrate_ode", "StepSizeUnderflow",
     "step budget exhausted"):
    "tests/test_errors.py::test_ode_step_budget_is_named",
    ("numerics", "_adaptive_gk", "NoConvergence",
     "quadrature stalled at error {} after {} panels"):
    "tests/test_errors.py::test_quad_panel_cap_is_named",
    ("scattering", "solve_zero_energy", "GridTooCoarse",
     "scattering length moved by {} under a tenfold tighter tolerance"):
    "tests/test_errors.py::test_grid_too_coarse_is_named",
    ("potentials", "parse_pair_potential", "DomainError", "table {}: {}"):
    "tests/test_cli.py::test_boundary_inputs_exit_3_with_a_named_error",
    ("potentials", "parse_pair_potential", "DomainError",
     "table {} line {}: row {} {}"):
    "tests/test_potentials.py::"
    "test_table_rows_are_two_numbers_after_one_header",
}

_CLASSES = {name: cls for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, Exception)}
_CLASSES["ValueError"] = ValueError
_CLASSES["LinAlgError"] = np.linalg.LinAlgError


def _assert_raises(call, expected):
    """call() raises exactly the class `expected` names, with its message."""
    name, message = expected.split(": ", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except Exception as exc:
            raised = exc
        else:
            pytest.fail(f"no error; expected {expected}")
    assert type(raised) is _CLASSES[name], repr(raised)
    if message.endswith(_FLOAT_RANGE):
        assert str(raised).startswith(message), str(raised)
    else:
        assert str(raised) == message


@pytest.mark.parametrize("call, expected",
                         [pytest.param(call, expected, id=row_id)
                          for row_id, call, expected in ROWS])
def test_each_row_raises_its_named_error(call, expected):
    _assert_raises(call, expected)


def test_ode_step_budget_is_named(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_STEPS", 3)
    _assert_raises(lambda: integrate_ode(
        lambda r, y: (y[1], -y[0]), [0.0, 1.0], (0.0, 100.0), TOL),
        "StepSizeUnderflow: step budget exhausted")


def test_quad_panel_cap_is_named(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_PANELS", 5)
    _assert_raises(lambda: quad(
        lambda x: math.sin(50.0 * x), (0.0, 10.0), TOL),
        "NoConvergence: quadrature stalled at error 1.088e+00 after 5 panels")


def test_gp_pass_budget_is_named(monkeypatch):
    monkeypatch.setattr(gp, "_MAX_PASSES", 1)
    _assert_raises(lambda: gp_minimize(HARM3, 1.0, 1.0, grid_points=100),
                   "NoConvergence: GP residual 3.603e-01 after 1 iterations")


def test_gp_flow_step_underflow_is_named(monkeypatch):
    # an energy that rises at every evaluation refuses every Newton and
    # every flow step, so the flow step halves until it underflows
    rising = itertools.count()
    monkeypatch.setattr(gp._Discretization, "energy",
                        lambda self, u: (float(next(rising)), (),
                                         self.density(u)))
    _assert_raises(lambda: gp_minimize(HARM3, 1.0, 1.0, grid_points=100),
                   "NoConvergence: step size underflow in gradient flow")


def test_grid_too_coarse_is_named(monkeypatch):
    # the rerun at a tenfold tighter tolerance reads a twice as large
    solve = scattering._solve_3d

    def doubled_when_tighter(p, mu, r_end, tol):
        sol = solve(p, mu, r_end, tol)
        return sol if tol == scattering.DEFAULT_TOL \
            else dataclasses.replace(sol, a=2.0 * sol.a)

    monkeypatch.setattr(scattering, "_solve_3d", doubled_when_tighter)
    _assert_raises(lambda: solve_zero_energy(_well(strength=5.0), 1.0),
                   "GridTooCoarse: scattering length moved by 4.189e-01 "
                   "under a tenfold tighter tolerance")


# --- every raise is reached -------------------------------------------------

_PACKAGE = pathlib.Path(bosegas.__file__).resolve().parent


def _template(node) -> str:
    """A message as its literal text, with {} for each formatted value."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(_template(v) if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    if isinstance(node, ast.BinOp):     # a message built of two parts
        return _template(node.left) + "{}"
    return "{}"


def _raised(exc):
    """(class, message template) of a raise; a conditional raise joins both
    branches with |, and a bare re-raise is ("", "")."""
    if exc is None:
        return "", ""
    if isinstance(exc, ast.IfExp):
        return tuple(f"{x}|{y}" for x, y in zip(_raised(exc.body),
                                                 _raised(exc.orelse)))
    if isinstance(exc, ast.Call):
        return ast.unparse(exc.func), (_template(exc.args[0]) if exc.args
                                       else "")
    return ast.unparse(exc), ""


def _library_raises() -> dict:
    """(module, function, class, template) -> (file, line) of every raise in
    the library modules: keys that survive edits elsewhere in a module."""
    found, count = {}, 0
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.stem in ("cli", "verify"):
            continue

        def visit(node, scope):
            nonlocal count
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + (child.name,))
                    continue
                if isinstance(child, ast.Raise):
                    count += 1
                    found[(path.stem, ".".join(scope), *_raised(child.exc))] \
                        = (str(path), child.lineno)
                visit(child, scope)
        visit(ast.parse(path.read_text()), ())
    assert len(found) == count, "two raises share a key"
    return found


def _package_lines_run(calls) -> set:
    """The (file, line) pairs of the package that the calls execute."""
    seen = set()
    package = str(_PACKAGE)

    def line(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in calls:
                try:
                    row()
                except Exception:
                    pass
    finally:
        sys.settrace(previous)
    return seen


def test_every_library_raise_is_reached_by_a_row():
    raises = _library_raises()
    run = _package_lines_run([call for _, call, _ in ROWS])
    unreached = sorted(key for key, where in raises.items()
                       if where not in run and key not in _ELSEWHERE)
    assert not unreached, f"add a row for each of: {unreached}"
    # each exception names a raise that no row runs, and a test that runs it
    for key, test in _ELSEWHERE.items():
        assert key in raises and raises[key] not in run, key
        path, name = test.split("::")
        assert f"\ndef {name}(" in (_PACKAGE.parents[1] / path).read_text()
