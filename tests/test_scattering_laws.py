"""Metamorphic laws of the zero-energy scattering length.

Hypothesis draws square wells and tables; each law relates two solves, or a
solve and a bound, without any closed form:

- scale covariance: r -> lam r with v -> v / lam^2 leaves -2 mu u'' + v u = 0
  invariant, so a -> lam a (3D and 2D);
- a is monotone in the well's strength;
- 8 pi mu a is at most the first Born integral, and 0 <= a <= range (3D).
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bosegas.potentials import PairPotential  # noqa: E402
from bosegas.potentials import born_integral  # noqa: E402
from bosegas.scattering import solve_zero_energy  # noqa: E402

LAWS = settings(derandomize=True, deadline=None, database=None, max_examples=60)
# Each solve passes the gate 10 * max(rel_tol * max(|a|, range), abs_tol) at
# the default rel_tol = 1e-11, so two solves may differ by twice that.
GATE = 2.0 * 10.0 * 1e-11

radius = st.floats(0.3, 2.0)
strength = st.floats(0.05, 40.0)
mass = st.floats(0.5, 2.0)
dimension = st.sampled_from([2, 3])


def _well(r0, v0, d=3):
    return PairPotential(kind="square-well", core_radius=r0, strength=v0, dimension=d)


@LAWS
@given(radius, strength, mass, st.floats(0.1, 10.0), dimension)
def test_scale_covariance(r0, v0, mu, lam, d):
    a = solve_zero_energy(_well(r0, v0, d), mu).a
    a_scaled = solve_zero_energy(_well(lam * r0, v0 / lam ** 2, d), mu).a
    assert abs(a_scaled - lam * a) <= GATE * lam * max(a, r0)


@LAWS
@given(radius, strength, strength, mass, dimension)
def test_monotone_in_strength(r0, v1, v2, mu, d):
    weak, strong = sorted((v1, v2))
    a_weak = solve_zero_energy(_well(r0, weak, d), mu).a
    a_strong = solve_zero_energy(_well(r0, strong, d), mu).a
    assert a_weak <= a_strong + GATE * max(a_strong, r0)


@st.composite
def potentials_3d(draw):
    if draw(st.booleans()):
        return _well(draw(radius), draw(strength))
    knots = draw(st.lists(st.floats(0.05, 2.0), min_size=2, max_size=8, unique=True))
    values = draw(st.lists(st.floats(0.0, 20.0), min_size=len(knots),
                           max_size=len(knots)))
    return PairPotential(kind="tabulated", table=tuple(zip(sorted(knots), values)))


@LAWS
@given(potentials_3d(), mass)
def test_born_bound_and_range(p, mu):
    a = solve_zero_energy(p, mu).a
    assert 0.0 <= a <= p.range_radius
    assert 8.0 * math.pi * mu * a <= born_integral(p) * (1.0 + GATE)
