"""Exact scaling laws of the GP and TF functionals, on drawn traps.

Hypothesis draws power-law traps (degree, scale, mu_const), dimensions and
couplings; each law relates two solves without any closed form:

- E(N, a) = N E(1, N a): phi -> sqrt(N) phi maps the (1, N a) functional
  onto the (N, a) one, and both solves share one grid;
- the TF exponent: E_TF(1, g) = g^(s/(s+d)) E_TF(1, 1) in 3D, and in the
  2D coupling-1 convention E_TF(N) = N^(1+s/(s+2)) E_TF(1).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bosegas.gp import gp_minimize, tf_scaling, tf_solve  # noqa: E402
from bosegas.potentials import TrapPotential  # noqa: E402

LAWS = settings(derandomize=True, deadline=None, database=None, max_examples=30)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


@st.composite
def traps(draw):
    d = draw(st.sampled_from([2, 3]))
    scale = draw(log_uniform(-6.0, 6.0))
    if draw(st.booleans()):
        return TrapPotential(kind="power-law", dimension=d, scale=scale)
    return TrapPotential(kind="power-law", dimension=d, scale=scale,
                         homogeneity_degree=draw(st.floats(1.0, 6.0)))


@LAWS
@given(traps(), log_uniform(-6.0, 6.0), st.floats(1.5, 50.0),
       log_uniform(-2.0, 2.5), st.sampled_from([200, 300]))
def test_particle_number_scaling(trap, mu_const, n_part, g, points):
    big = gp_minimize(trap, n_part, g / n_part, mu_const, grid_points=points)
    unit = gp_minimize(trap, 1.0, g, mu_const, grid_points=points)
    assert abs(big.E - n_part * unit.E) <= 1e-10 * abs(big.E)


@LAWS
@given(traps(), log_uniform(-6.0, 6.0), log_uniform(-3.0, 4.0))
def test_tf_exponent(trap, mu_const, g):
    s, d = trap.homogeneity_degree, trap.dimension
    one = tf_solve(trap, 1.0, 1.0, mu_const).E_tf
    if d == 3:
        energy = tf_solve(trap, 1.0, g, mu_const).E_tf
    else:   # the 2D coupling is 1; N carries g
        energy = tf_solve(trap, g, 1.0, mu_const).E_tf / g
    assert abs(energy - tf_scaling(g, s, d) * one) <= 1e-9 * abs(energy)
