"""Shared numerical kernels: ODE integration and quadrature.

`integrate_ode` integrates over one span (lo, hi) on which the right-hand
side is smooth; a caller whose equation has breakpoints integrates one span
per piece.  Its steps run on Python floats and skip the stage states of
quadratures, integrals rhs never reads.  Its trial step is generated as source
from the tableau, each sum written out in a loop's left-to-right order, and
compiled lazily, once per state shape (a few ms); only the module's
constants and two ints reach exec.  `quad` sums each Gauss-Kronrod panel in
Python floats too.  Every sum in both has a fixed left-to-right order, so
their results depend only on IEEE double arithmetic, not on the BLAS build.
All routines are deterministic pure functions of their arguments.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

from .errors import (
    DivergentTail,
    DomainError,
    NoConvergence,
    NonFiniteRhs,
    StepSizeUnderflow,
)

__all__ = [
    "Tolerances",
    "integrate_ode",
    "quad",
]


# the step budget of one integrate_ode call and the panel cap of one quad
_MAX_STEPS, _MAX_PANELS = 500_000, 10_000


@dataclass(frozen=True)
class Tolerances:
    """Absolute and relative error targets."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise DomainError("tolerances must be nonnegative")
        if self.abs_tol + self.rel_tol <= 0:
            raise DomainError("abs_tol + rel_tol must be positive")


# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# sections II.5 and II.10), copied from SciPy's
# integrate/_ivp/dop853_coefficients.py (BSD-3-Clause, Copyright (c) 2001-2002
# Enthought, Inc. and 2003-2024 SciPy Developers).  Inlined because importing
# scipy.integrate would add about 0.3 s to every command-line call.
_STAGES = 12
# each stage after the first: its node and its nonzero (stage, weight) pairs
_ROWS = (
    (0.526001519587677318785587544488e-01, (
        (0, 5.26001519587677318785587544488e-2),)),
    (0.789002279381515978178381316732e-01, (
        (0, 1.97250569845378994544595329183e-2),
        (1, 5.91751709536136983633785987549e-2))),
    (0.118350341907227396726757197510, (
        (0, 2.95875854768068491816892993775e-2),
        (2, 8.87627564304205475450678981324e-2))),
    (0.281649658092772603273242802490, (
        (0, 2.41365134159266685502369798665e-1),
        (2, -8.84549479328286085344864962717e-1),
        (3, 9.24834003261792003115737966543e-1))),
    (0.333333333333333333333333333333, (
        (0, 3.7037037037037037037037037037e-2),
        (3, 1.70828608729473871279604482173e-1),
        (4, 1.25467687566822425016691814123e-1))),
    (0.25, (
        (0, 3.7109375e-2),
        (3, 1.70252211019544039314978060272e-1),
        (4, 6.02165389804559606850219397283e-2),
        (5, -1.7578125e-2))),
    (0.307692307692307692307692307692, (
        (0, 3.70920001185047927108779319836e-2),
        (3, 1.70383925712239993810214054705e-1),
        (4, 1.07262030446373284651809199168e-1),
        (5, -1.53194377486244017527936158236e-2),
        (6, 8.27378916381402288758473766002e-3))),
    (0.651282051282051282051282051282, (
        (0, 6.24110958716075717114429577812e-1),
        (3, -3.36089262944694129406857109825),
        (4, -8.68219346841726006818189891453e-1),
        (5, 2.75920996994467083049415600797e1),
        (6, 2.01540675504778934086186788979e1),
        (7, -4.34898841810699588477366255144e1))),
    (0.6, (
        (0, 4.77662536438264365890433908527e-1),
        (3, -2.48811461997166764192642586468),
        (4, -5.90290826836842996371446475743e-1),
        (5, 2.12300514481811942347288949897e1),
        (6, 1.52792336328824235832596922938e1),
        (7, -3.32882109689848629194453265587e1),
        (8, -2.03312017085086261358222928593e-2))),
    (0.857142857142857142857142857142, (
        (0, -9.3714243008598732571704021658e-1),
        (3, 5.18637242884406370830023853209),
        (4, 1.09143734899672957818500254654),
        (5, -8.14978701074692612513997267357),
        (6, -1.85200656599969598641566180701e1),
        (7, 2.27394870993505042818970056734e1),
        (8, 2.49360555267965238987089396762),
        (9, -3.0467644718982195003823669022))),
    (1.0, (
        (0, 2.27331014751653820792359768449),
        (3, -1.05344954667372501984066689879e1),
        (4, -2.00087205822486249909675718444),
        (5, -1.79589318631187989172765950534e1),
        (6, 2.79488845294199600508499808837e1),
        (7, -2.85899827713502369474065508674),
        (8, -8.87285693353062954433549289258),
        (9, 1.23605671757943030647266201528e1),
        (10, 6.43392746015763530355970484046e-1))),
)
# the eighth-order weights, then the embedded error weights of fifth
# order (E5) and of third order (E3: three eighth-order weights less)
_B_ROW = (
    (0, 5.42937341165687622380535766363e-2),
    (5, 4.45031289275240888144113950566),
    (6, 1.89151789931450038304281599044),
    (7, -5.8012039600105847814672114227),
    (8, 3.1116436695781989440891606237e-1),
    (9, -1.52160949662516078556178806805e-1),
    (10, 2.01365400804030348374776537501e-1),
    (11, 4.47106157277725905176885569043e-2))
_E5_ROW = (
    (0, 0.1312004499419488073250102996e-1),
    (5, -0.1225156446376204440720569753e+1),
    (6, -0.4957589496572501915214079952),
    (7, 0.1664377182454986536961530415e+1),
    (8, -0.3503288487499736816886487290),
    (9, 0.3341791187130174790297318841),
    (10, 0.8192320648511571246570742613e-1),
    (11, -0.2235530786388629525884427845e-1))
_E3_SHIFT = {0: 0.244094488188976377952755905512,
             8: 0.733846688281611857341361741547,
             11: 0.220588235294117647058823529412e-1}
_E3_ROW = tuple((j, b - _E3_SHIFT.get(j, 0.0)) for j, b in _B_ROW)


def _weighted(row, m):
    """sum_j a_j k_j[m] over a tableau row as source, left to right from 0.0."""
    return "(0.0" + "".join(f" + {a!r} * k{j}_{m}" for j, a in row) + ")"


# a component's update and error-norm term.  At scale 0, x/0 is inf and 0/0
# nan: a rejected step, or a component that the denom > 0 mask drops
_NORM_TERM = """
    n{m} = y{m} + h * {b}
    e5, e3 = h * {e5}, h * {e3}
    scale = abs_tol + rel_tol * (abs(y{m}) + abs(h * k0_{m}))
    if scale > 0.0:
        e5, e3 = e5 / scale, e3 / scale
        denom = math.hypot(e5, 0.1 * e3)
        q = e5 * e5 / denom if denom > 0.0 else 0.0
    else:
        q = math.inf if e5 or e3 else 0.0
    if q > err or q != q:    # a NaN err sticks, as in a max
        err = q"""


@functools.cache
def _trial_step(n, total):
    """trial(rhs, r, h, y, k0, abs_tol, rel_tol) -> (y_new, err): one DOP853
    trial step from r with first stage k0, for `total` components, the first
    n driving.  It raises NonFiniteRhs if any of the 12 stages is not finite."""
    def names(prefix):
        return "".join(f"{prefix}{m}, " for m in range(total))
    lines = ["def trial(rhs, r, h, y, k0, abs_tol, rel_tol):",
             f"    {names('y')}= y", f"    {names('k0_')}= k0"]
    for s, (c, row) in enumerate(_ROWS, start=1):
        state = ", ".join(f"y{m} + h * {_weighted(row, m)}" for m in range(n))
        lines.append(f"    {names(f'k{s}_')}= rhs(r + {c!r} * h, [{state}])")
    stages = "".join(names(f"k{s}_") for s in range(_STAGES))
    lines += [f"    if not all(map(math.isfinite, ({stages}))):",
              '        raise NonFiniteRhs("rhs non-finite in the step from r=%r" % (r,))',
              "    err = 0.0"]
    lines += [_NORM_TERM.format(m=m, b=_weighted(_B_ROW, m), e5=_weighted(_E5_ROW, m),
                                e3=_weighted(_E3_ROW, m)) for m in range(total)]
    lines.append(f"    return [{names('n')}], err")
    namespace = {}
    exec("\n".join(lines), globals(), namespace)
    return namespace["trial"]


def integrate_ode(rhs, initial, span, tol: Tolerances, quadratures: int = 0) -> list:
    """Integrate y' = rhs(r, y) over span = (lo, hi) with adaptive DOP853
    steps and return the state at hi, as a list of floats.

    The Dormand-Prince 8(5,3) embedded pair: eighth-order steps of 12
    right-hand-side evaluations, the last reused as the first of the next
    step (FSAL), with the combined fifth/third-order error estimate of
    Hairer, Norsett & Wanner driving acceptance and the next step size.  The
    error scale per component is abs_tol + rel_tol * (|y| + |h f|); the
    step size may not fall below 1e-14 of the span.  The span is one smooth
    piece of rhs: the first step tries all of it, and the last is clipped to
    end on hi.  lo < hi, both finite.  The last `quadratures` components,
    0 <= quadratures < len(initial), are integrals that rhs never reads: no
    stage states are built for them; the update and error norm cover them.

    The step runs on Python floats, in source generated from the tableau
    and compiled on first use, once per state shape (a few ms); only
    module constants and two ints reach exec.  Each weighted sum of stages
    is written out left to right over the nonzero weights, from 0.0 as in a
    loop, so the results depend only on IEEE double arithmetic, not on the
    BLAS build.  `rhs` gets r and the components of y before the
    quadratures, as a list, and returns len(initial) numbers, read as they
    are (any other return, at lo or a later stage, raises DomainError; an
    error raised inside rhs passes through as it is); the state at hi becomes
    Python floats once.  A non-finite rhs at any stage, or a state that
    overflows, raises NonFiniteRhs before the step is used.  No evaluation
    follows the last accepted step.
    """
    lo, hi = span
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"need a finite span lo < hi, got {span!r}")
    y = list(map(float, initial))
    if not (isinstance(quadratures, int) and 0 <= quadratures < len(y)):
        raise DomainError(f"need 0 <= quadratures < {len(y)}, got {quadratures!r}")
    n = len(y) - quadratures       # the driving components
    r = lo
    h_min = 1e-14 * (hi - lo)
    abs_tol, rel_tol = tol.abs_tol, tol.rel_tol
    k0 = rhs(r, y[:n])
    try:
        count = len(k0)
    except TypeError:
        raise DomainError(f"rhs returned a {type(k0).__name__}, not {len(y)} "
                          "values") from None
    if count != len(y):
        raise DomainError(f"rhs returned {count} values for a state of {len(y)}")
    trial = _trial_step(n, len(y))
    h = hi - r
    steps = 0

    try:
        while True:
            last = h >= hi - r
            step = hi - r if last else h
            y_new, err = trial(rhs, r, step, y, k0, abs_tol, rel_tol)
            # a non-finite err (e5 * e5 overflows at a tiny abs_tol) is
            # a rejected step: err ** -0.125 shrinks h by 0.2
            if not all(map(math.isfinite, y_new)):
                raise NonFiniteRhs(f"state overflow near r={r:.6g}")
            if err <= 1.0:
                r += step
                y = y_new
                if last or r >= hi:     # r + h may round onto hi
                    return list(map(float, y))
                k0 = rhs(r, y[:n])
                grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
                h = step * grow
            else:
                h = step * max(0.2, 0.9 * err ** -0.125)
                if h < h_min:
                    raise StepSizeUnderflow(
                        f"step {h:.3e} below floor near r={r:.6g}")
            steps += 1
            if steps > _MAX_STEPS:
                raise StepSizeUnderflow("step budget exhausted")
    except (TypeError, ValueError) as exc:
        # a stage return that the trial step cannot unpack or test fails in
        # the step's own frame; an error raised inside rhs has rhs innermost
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        if tb.tb_frame.f_code is not trial.__code__:
            raise
        raise DomainError(f"rhs must return {len(y)} numbers for a state of "
                          f"{len(y)}; a stage near r={r:.6g} did not") from None


# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
_KRONROD_X = (
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
)
_KRONROD_W = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
)
_GAUSS_W = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
)


def _gk_panel(f, a, b):
    """The Kronrod value on [a, b] and its distance from the Gauss value;
    each weighted sum runs left to right over the nodes, in Python floats."""
    c, half = 0.5 * (a + b), 0.5 * (b - a)
    fx = [float(f(c + half * x)) for x in _KRONROD_X]
    if not all(map(math.isfinite, fx)):
        raise NoConvergence(f"integrand non-finite on [{a!r}, {b!r}]")
    k15 = g7 = 0.0
    for w, y in zip(_KRONROD_W, fx):
        k15 += w * y
    for w, y in zip(_GAUSS_W, fx[1::2]):
        g7 += w * y
    k15, g7 = half * k15, half * g7
    return k15, abs(k15 - g7)


def _check_tail_decay(f, lo, abs_tol):
    """Reject integrands whose tail contribution estimate fails to shrink."""
    x0 = 8.0 * max(1.0, abs(lo))
    estimates = []
    for j in range(5):
        x = x0 * 4.0 ** j
        fx = f(x)
        if not math.isfinite(fx):
            raise DivergentTail(f"integrand non-finite at x={x:.3e}")
        estimates.append(abs(fx) * x)
    if estimates[-1] > max(0.5 * estimates[0], abs_tol):
        raise DivergentTail(
            "tail estimate |f(x)|*x does not shrink; need decay >= x^-2")


def quad(f, interval, tol: Tolerances) -> float:
    """Adaptive Gauss-Kronrod quadrature over [lo, hi]; hi may be math.inf.

    Semi-infinite intervals are compactified with x = lo + t/(1-t), which
    avoids any arbitrary truncation radius.  Purely deterministic.
    """
    lo, hi = interval
    if not math.isfinite(lo):
        raise DomainError("lower limit must be finite")
    if hi == lo:
        return 0.0
    if hi < lo:
        return -quad(f, (hi, lo), tol)

    if math.isinf(hi):
        _check_tail_decay(f, lo, tol.abs_tol)

        def g(t):
            x = lo + t / (1.0 - t)
            return f(x) / (1.0 - t) ** 2

        return _adaptive_gk(g, 0.0, 1.0, tol)
    return _adaptive_gk(f, lo, hi, tol)


def _adaptive_gk(f, a, b, tol: Tolerances) -> float:
    val, err = _gk_panel(f, a, b)
    # heap of (-panel_error, insertion_index, a, b, panel_value)
    heap = [(-err, 0, a, b, val)]
    total, total_err = val, err
    counter = 1
    while total_err > max(tol.abs_tol, tol.rel_tol * abs(total)):
        if counter >= _MAX_PANELS:
            raise NoConvergence(
                f"quadrature stalled at error {total_err:.3e} after "
                f"{counter} panels")
        neg_err, _, pa, pb, pval = heapq.heappop(heap)
        if pb - pa < 1e-15 * max(1.0, abs(pa)):
            raise NoConvergence("panel width underflow; integrand too singular")
        mid = 0.5 * (pa + pb)
        v1, e1 = _gk_panel(f, pa, mid)
        v2, e2 = _gk_panel(f, mid, pb)
        total += v1 + v2 - pval
        total_err += e1 + e2 + neg_err  # neg_err = -old panel error
        heapq.heappush(heap, (-e1, counter, pa, mid, v1))
        heapq.heappush(heap, (-e2, counter + 1, mid, pb, v2))
        counter += 2
    return total

