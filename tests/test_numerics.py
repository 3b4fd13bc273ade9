"""Numerical-kernel tests: ODE control and quadrature."""

import bisect
import math
import warnings

import numpy as np
import pytest

from bosegas.errors import DomainError, NonFiniteRhs, StepSizeUnderflow
from bosegas.numerics import (_B_ROW, _E3_ROW, _E5_ROW, _GAUSS_W,
                              _KRONROD_W, _KRONROD_X, _MAX_STEPS, _ROWS,
                              _STAGES, Tolerances, _gk_panel, _trial_step,
                              integrate_ode, quad)
from bosegas.potentials import PairPotential
from bosegas.scattering import solve_zero_energy

TOL = Tolerances()


def _dense(row):
    """A sparse tableau row of (stage, weight) pairs as a dense array."""
    out = np.zeros(_STAGES)
    for j, weight in row:
        out[j] = weight
    return out


# the DOP853 tableau as dense arrays: nodes _C, stage weights _A (row s holds
# the weights of stage s), eighth-order weights _B and error weights _E5, _E3
_C = np.array([0.0] + [c for c, _ in _ROWS])
_A = np.array([_dense(())] + [_dense(row) for _, row in _ROWS])
_B, _E5, _E3 = map(_dense, (_B_ROW, _E5_ROW, _E3_ROW))


def _walk(rhs, initial, nodes, tol):
    """The state at the last of an array of nodes, one integrate_ode span
    per gap."""
    state, nodes = initial, nodes.tolist()
    for lo, hi in zip(nodes, nodes[1:]):
        state = integrate_ode(rhs, state, (lo, hi), tol)
    return state


def test_ode_on_one_span():
    def rhs(r, u, du):
        return np.array([du, u])

    y = integrate_ode(rhs, [0.0, 1.0], (0.0, 1.0), TOL)
    assert type(y) is list and list(map(type, y)) == [float, float]
    assert abs(y[0] - math.sinh(1.0)) <= 1e-11


def test_ode_step_halving_consistency():
    # oscillatory-tolerance stress: u'' = r u, compare against half-step rerun
    tol = Tolerances(abs_tol=1e-10, rel_tol=1e-8)

    def rhs(r, u, du):
        return np.array([du, r * u])

    coarse = _walk(rhs, [1.0, 0.0], np.linspace(0.0, 5.0, 33), tol)
    fine = _walk(rhs, [1.0, 0.0], np.linspace(0.0, 5.0, 65), tol)
    rel = abs(coarse[0] - fine[0]) / abs(fine[0])
    assert rel <= 4.0 * tol.rel_tol


def _left_to_right(weights, k):
    """sum_j weights[j] * k[j], one rounded addition at a time from 0."""
    acc = np.zeros(k.shape[1])
    for w, stage in zip(weights, k):
        acc = acc + w * stage
    return acc


def _reference_integrate_ode(rhs, initial, radii, tol):
    """The DOP853 loop as first written: numpy-scalar radii, a finiteness
    check after each of the 12 evaluations, and a final FSAL evaluation.
    Each weighted sum of stages is a plain float sum, left to right.  rhs
    gets r and every component of the state, as numpy scalars.  The oracle
    for the bits of integrate_ode."""
    nodes = np.asarray(radii, dtype=float)
    y = np.asarray(initial, dtype=float).copy()
    out = np.empty((nodes.size, y.size))
    out[0] = y
    h_min = 1e-14 * (nodes[-1] - nodes[0])
    k = np.empty((_STAGES, y.size))
    rows = [_A[i, :i] for i in range(1, _STAGES)]
    steps = 0

    def checked_rhs(r, state):
        f = np.asarray(rhs(r, *state), dtype=float)
        if not np.all(np.isfinite(f)):
            raise NonFiniteRhs(f"rhs non-finite at r={float(r)!r}")
        return f

    with np.errstate(all="ignore"):
        r = nodes[0]
        k[0] = checked_rhs(r, y)
        h = nodes[1] - nodes[0]
        for i in range(1, nodes.size):
            r_end = nodes[i]
            while r < r_end:
                last = h >= r_end - r
                step = r_end - r if last else h
                for s, row in enumerate(rows, start=1):
                    k[s] = checked_rhs(r + _C[s] * step, y + step * _left_to_right(row, k))
                y_new = y + step * _left_to_right(_B, k)
                scale = tol.abs_tol + tol.rel_tol * (np.abs(y) + np.abs(step * k[0]))
                e5 = step * _left_to_right(_E5, k) / scale
                e3 = step * _left_to_right(_E3, k) / scale
                denom = np.hypot(e5, 0.1 * e3)
                err = float(np.max(np.divide(e5 * e5, denom, out=np.zeros_like(e5),
                                             where=denom > 0.0)))
                if not (math.isfinite(err) and np.all(np.isfinite(y_new))):
                    raise NonFiniteRhs(f"state overflow near r={r:.6g}")
                if err <= 1.0:
                    r = r_end if last else r + step
                    y = y_new
                    k[0] = checked_rhs(r, y)
                    grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                    h = max(h, step * grow) if last else step * grow
                else:
                    h = step * max(0.2, 0.9 * err ** -0.125)
                    if h < h_min:
                        raise StepSizeUnderflow(
                            f"step {h:.3e} below floor near r={r:.6g}")
                steps += 1
                if steps > _MAX_STEPS:
                    raise StepSizeUnderflow("step budget exhausted")
            out[i] = y
    return out


@pytest.mark.parametrize("seed", range(6))
def test_ode_bits_match_reference_loop(seed):
    # seeded linear and nonlinear systems over a span [0, hi], at a
    # tolerance that rejects steps and at the default one
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    c = rng.uniform(0.5, 3.0)

    def linear(r, *y):
        return m @ y

    def nonlinear(r, *y):     # a damped pendulum driving a cubic relaxation
        return np.array([y[1], -c * np.sin(y[0]) - 0.1 * r * y[1],
                         np.cos(r * y[0]) - y[2] ** 3])

    hi = float(rng.uniform(1.0, 4.0))
    y0 = rng.uniform(-1.0, 1.0, size=3)
    for rhs in (linear, nonlinear):
        for tol in (Tolerances(), Tolerances(abs_tol=1e-6, rel_tol=1e-5)):
            new = integrate_ode(rhs, y0, (0.0, hi), tol)
            old = _reference_integrate_ode(rhs, y0, np.array([0.0, hi]), tol)
            assert np.array(new).tobytes() == old[-1].tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_ode_bits_at_the_scattering_shape(seed):
    # (w, u', kin, pot) of a 3D zero-energy solve, w = u - r u', through a
    # seeded piecewise-constant v whose jumps reject steps, the last two
    # components quadratures.  The state at hi and every (r, state) that rhs
    # sees match the reference on the full state.  v = 0 on the first piece
    # makes w' = -0.0 there, so the run from w = -0.0 pins the 0.0 start of
    # each stage sum: without it a stage would pass w = -0.0, not +0.0
    rng = np.random.default_rng(seed)
    knots = np.sort(rng.uniform(0.5, 2.0, size=3)).tolist()
    levels = [0.0, *rng.uniform(0.5, 50.0, size=3).tolist()]
    mu = float(rng.uniform(0.5, 2.0))

    def recorded(calls):
        def rhs(r, w, du, *quadratures):
            w, du = float(w), float(du)
            calls.append((float(r).hex(), w.hex(), du.hex()))
            v = levels[bisect.bisect(knots, r)]
            u = w + r * du
            curv = v * u / (2.0 * mu)
            grad = w / r
            return (-r * curv, curv, grad * grad, v * u * u)
        return rhs

    span = (0.25, 2.5)
    starts = ([-0.0, 1.0, 0.0, 0.0],
              [float(rng.uniform(-1.0, 0.0)), float(rng.uniform(0.5, 2.0)),
               0.0, 0.0])
    for y0 in starts:
        for tol in (Tolerances(), Tolerances(abs_tol=1e-6, rel_tol=1e-5)):
            calls, old_calls = [], []
            new = integrate_ode(recorded(calls), y0, span, tol, quadratures=2)
            old = _reference_integrate_ode(recorded(old_calls), y0,
                                           np.array(span), tol)
            assert np.array(new).tobytes() == old[-1].tobytes()
            assert calls == old_calls[:-1]
            # an accepted step ends on its stage 11, which FSAL evaluates
            # again; every trial step costs 11 evaluations
            accepted = 1 + sum(a[0] == b[0] for a, b in zip(calls, calls[1:]))
            rejected, rest = divmod(len(calls) - 12 * accepted, 11)
            assert rest == 0 and rejected > 0


def _turns_bad_after(calls, bad):
    """An oscillator rhs whose return becomes bad(y) from call `calls` on."""
    count = [0]

    def rhs(r, *y):
        count[0] += 1
        return bad(y) if count[0] > calls else (y[1], -y[0])
    return rhs


@pytest.mark.parametrize("bad", [lambda y: (y[1],),
                                 lambda y: (y[1], -y[0], 0.0),
                                 lambda y: y[1],
                                 lambda y: (y[1], "x"),
                                 lambda y: np.float64(y[1]),
                                 lambda y: np.array(y[1]),
                                 lambda y: None],
                         ids=["short", "long", "scalar", "not-a-number",
                              "numpy-scalar", "0-d-array", "none"])
@pytest.mark.parametrize("calls", [0, 1, 2, 12, 40])
def test_ode_names_a_later_stage_of_the_wrong_shape(bad, calls):
    # bad from call `calls` + 1 on: call 1 is the first stage at lo, calls
    # 2-12 the first trial step's other stages, call 13 the next step's
    # first stage (FSAL after an accepted step) and call 41 well into the run
    with pytest.raises(DomainError, match="^rhs must return 2 numbers for a "
                                          "state of 2; a stage near r="):
        integrate_ode(_turns_bad_after(calls, bad), [0.0, 1.0], (0.0, 10.0),
                      TOL)


def test_trial_step_compiles_once_per_state_shape():
    # every segment of every 3D solve integrates 2 driving components and
    # 2 quadratures: one compile, then cache hits
    _trial_step.cache_clear()
    for v0 in (3.0, 30.0):
        solve_zero_energy(PairPotential(kind="square-well", core_radius=1.0,
                                        strength=v0), 1.0)
    info = _trial_step.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 3


def _stage_indexed(f):
    """An rhs that calls f(s, r, *y) with the DOP853 stage s of each call:
    0 at lo and after an accepted step (whose stage 11 ran at the same r),
    else one more than the previous call's, 1 after stage 11."""
    last = [None, None]     # the r and the stage of the previous call

    def rhs(r, *y):
        r_prev, s_prev = last
        if s_prev is None:
            s = 0
        elif s_prev < _STAGES - 1:
            s = s_prev + 1
        else:
            s = 0 if r == r_prev else 1
        last[:] = r, s
        return f(s, r, *y)
    return rhs


def test_ode_nan_at_zero_weight_stage_raises():
    # stage 2 enters neither the solution nor the error estimate, and no
    # later stage reads the state here, so only a check of every stage sees it
    assert _B[2] == _E5[2] == _E3[2] == 0.0
    calls = []

    def rhs(r, u):
        calls.append(r)
        return [math.nan if len(calls) == 3 else 1.0]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteRhs, match="rhs non-finite"):
            integrate_ode(rhs, [0.0], (0.0, 1.0), TOL)

    # on the scattering shape, 2 driving components and 2 quadratures, a NaN
    # or an infinity at any (stage, component) of the first trial step
    # raises.  The quadrature components of stages 1-4 enter nothing, not
    # even the update or the error norm
    assert not (_B[1:5].any() or _E5[1:5].any() or _E3[1:5].any())
    for stage in range(_STAGES):
        for m in range(4):
            for bad in (math.nan, math.inf, -math.inf):
                def oscillator(s, r, u, du, stage=stage, m=m, bad=bad):
                    f = [du, -u, u * u, du * du]
                    if s == stage:
                        f[m] = bad
                    return f

                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NonFiniteRhs, match=r"^rhs non-finite "
                                       r"in the step from r=0\.0$"):
                        integrate_ode(_stage_indexed(oscillator),
                                      [0.0, 1.0, 0.0, 0.0], (0.0, 1.0), TOL,
                                      quadratures=2)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
def test_ode_finite_stages_whose_sum_overflows_keep_their_bits(kind, sign):
    # the quadrature components of stages 1-4 enter nothing, so +-1e308
    # there integrates; the 8 of them overflow any sum or norm of the stage
    # values, which must neither raise nor warn (numpy warns on a float64
    # sum that overflows), and the state keeps the reference's bits
    def oscillator(s, r, u, du, *quadratures):
        big = [sign * 1e308] * 2 if 1 <= s <= 4 else [u * u, du * du]
        return tuple(map(kind, [du, -u, *big]))

    initial, span = [0.0, 1.0, 0.0, 0.0], (0.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = integrate_ode(_stage_indexed(oscillator), initial, span, TOL,
                            quadratures=2)
    old = _reference_integrate_ode(_stage_indexed(oscillator), initial,
                                   np.array(span), TOL)
    assert np.array(new).tobytes() == old[-1].tobytes()
    assert abs(new[2] - (1.5 - math.sin(6.0) / 4.0)) <= 1e-10


@pytest.mark.parametrize("rhs, quadratures", [
    (lambda r, y: (y[1], -y[0], 0.0, 0.0), 0),
    (lambda r, u, du, kin, pot: (du, -u, u * u, du * du), 2),
    (lambda r, u, du: (du, -u, u * u, du * du), 0)],
    ids=["state-as-one-list", "reads-the-quadratures", "too-few"])
def test_ode_rhs_of_the_wrong_arity_raises_its_own_type_error(rhs,
                                                              quadratures):
    # rhs(r, y0, ..., y{n-1}) takes the n driving components as arguments.
    # A signature that does not fits fails at the first call, at lo, with
    # Python's own TypeError, never as a wrong return count
    with pytest.raises(TypeError, match="positional argument") as info:
        integrate_ode(rhs, [0.0, 1.0, 0.0, 0.0], (0.0, 1.0), TOL,
                      quadratures=quadratures)
    assert type(info.value) is TypeError


def test_ode_skips_the_final_fsal_evaluation():
    new_calls, old_calls = [], []

    def counted(calls):
        return lambda r, u, du: calls.append(r) or np.array([du, -u])

    integrate_ode(counted(new_calls), [0.0, 1.0], (0.0, 2.0), TOL)
    _reference_integrate_ode(counted(old_calls), [0.0, 1.0],
                             np.array([0.0, 2.0]), TOL)
    assert new_calls == old_calls[:-1] and old_calls[-1] == 2.0


def test_ode_quadratures_are_integrals_that_rhs_never_reads():
    # (u, u', int u^2, int u'^2) for u'' = -u: the last two components are
    # quadratures, so rhs sees only (u, u') and the state keeps its bits
    def oscillator(seen, array):
        def rhs(r, *y):
            seen.append(len(y))
            f = (y[1], -y[0], y[0] * y[0], y[1] * y[1])
            return np.array(f) if array else f
        return rhs

    initial, span = [0.0, 1.0, 0.0, 0.0], (0.0, 3.0)
    all_seen = []
    full = integrate_ode(oscillator(all_seen, False), initial, span, TOL)
    assert abs(full[2] - (1.5 - math.sin(6.0) / 4.0)) <= 1e-10
    for array in (False, True):
        seen = []
        y = integrate_ode(oscillator(seen, array), initial, span, TOL,
                          quadratures=2)
        assert type(y) is list and set(map(type, y)) == {float}
        assert list(map(float.hex, y)) == list(map(float.hex, full))
        assert seen == [2] * len(all_seen) and set(all_seen) == {4}


def test_quad_foldy_integral_vs_gamma():
    # int_0^inf (1 + x^4 - x^2 sqrt(2+x^4)) dx, rationalized integrand
    tol = Tolerances(abs_tol=1e-13, rel_tol=1e-12)

    def integrand(x):
        x2 = x * x
        x4 = x2 * x2
        return 1.0 / ((1.0 + x4) + x2 * math.sqrt(2.0 + x4))

    value = quad(integrand, (0.0, math.inf), tol)
    closed = 2.0 ** 0.75 * math.sqrt(math.pi) * math.gamma(0.75) \
        / (5.0 * math.gamma(1.25))
    assert abs(value / closed - 1.0) <= 1e-9


def test_quad_panel_is_a_left_to_right_sum():
    # a panel's Kronrod and Gauss sums are written out term by term; Python
    # adds left to right, so the bits cannot depend on a BLAS dot kernel
    rng = np.random.default_rng(8)
    kx, kw, gw = _KRONROD_X, _KRONROD_W, _GAUSS_W
    for _ in range(200):
        lo = float(rng.uniform(-3.0, 3.0))
        hi = lo + float(rng.uniform(1e-3, 5.0))
        c0, c1, c2 = rng.uniform(-2.0, 2.0, size=3).tolist()

        def f(x):
            return c0 * math.sin(c1 * x) + c2 * math.exp(-x * x)

        c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        y = [f(c + half * x) for x in kx]
        k15 = half * (kw[0] * y[0] + kw[1] * y[1] + kw[2] * y[2]
                      + kw[3] * y[3] + kw[4] * y[4] + kw[5] * y[5]
                      + kw[6] * y[6] + kw[7] * y[7] + kw[8] * y[8]
                      + kw[9] * y[9] + kw[10] * y[10] + kw[11] * y[11]
                      + kw[12] * y[12] + kw[13] * y[13] + kw[14] * y[14])
        g7 = half * (gw[0] * y[1] + gw[1] * y[3] + gw[2] * y[5]
                     + gw[3] * y[7] + gw[4] * y[9] + gw[5] * y[11]
                     + gw[6] * y[13])
        value, err = _gk_panel(f, lo, hi)
        assert type(value) is float and value.hex() == k15.hex()
        assert err.hex() == abs(k15 - g7).hex()
