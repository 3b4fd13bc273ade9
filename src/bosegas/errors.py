"""Exception types shared by all bosegas modules, and the checks that raise them.

Every numerical failure mode surfaces as one of these named errors so that
callers (and the CLI) can report the failure by name instead of crashing.
"""

import functools
import math


class BoseGasError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BoseGasError):
    """An argument lies outside the mathematical domain of the operation."""


def require_finite(**values) -> None:
    """Raise DomainError naming the first keyword whose value is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def float_range(solve):
    """Decorator: a float exception in the solve (overflow, division by zero,
    an invalid operation) raises DomainError, as an input out of range does."""
    @functools.wraps(solve)
    def checked(*args, **kwargs):
        import numpy as np      # the solver modules have loaded it already
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return solve(*args, **kwargs)
        except ArithmeticError as exc:
            raise DomainError(f"{solve.__qualname__} leaves the float range: "
                              f"{exc}") from None
    return checked


# --- numerics ---------------------------------------------------------------

class StepSizeUnderflow(BoseGasError):
    """Adaptive ODE step control could not meet the tolerance."""


class NonFiniteRhs(BoseGasError):
    """The ODE right-hand side evaluated to NaN or infinity."""


class NoConvergence(BoseGasError):
    """Iterative refinement stalled before reaching the tolerance."""


class DivergentTail(BoseGasError):
    """Tail estimate of a semi-infinite integral does not shrink."""


# --- potentials / scattering -------------------------------------------------

class NonIntegrableTail(BoseGasError):
    """Potential tail decays too slowly for a finite scattering length."""


class NoLogAsymptote(BoseGasError):
    """2D scattering solution has no logarithmic asymptote (v identically 0)."""


class GridTooCoarse(BoseGasError):
    """A rerun at tenfold tighter tolerance moved the result beyond its gate."""


class RadiusInsideRange(BoseGasError):
    """Requested radius lies inside the interaction range."""


class ZeroScatteringLength(BoseGasError):
    """Operation is undefined for a = 0."""


class ScatteringLengthUnderflow(BoseGasError):
    """A potential that is not identically zero gave a <= 0: a lies below
    the float range."""


# --- homogeneous-gas machinery ------------------------------------------------

class GapViolation(BoseGasError):
    """Spectral-gap condition E1 > <H> required by the variational bound fails."""


class VarianceNegative(BoseGasError):
    """Second moment is smaller than the squared mean beyond tolerance."""


class AnsatzInfeasible(BoseGasError):
    """Cell-method parameter ansatz violates one of its validity conditions."""


# --- gp ----------------------------------------------------------------------

class NegativeCoupling(BoseGasError):
    """Interaction coupling must be nonnegative."""


# --- bogolubov -----------------------------------------------------------------

class TruncationNotConverged(BoseGasError):
    """Truncated-Fock eigenvalue still moving as the cutoff grows."""


# --- cli -----------------------------------------------------------------------

class ParseError(BoseGasError):
    """Configuration source could not be parsed."""


class UnknownKey(BoseGasError):
    """Configuration contains a key that no command accepts."""
