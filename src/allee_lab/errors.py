"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "AlleeLabError",
    "NonPositiveParameter",
    "NonFiniteParameter",
    "AlleeThresholdOutOfRange",
    "DomainViolation",
    "NotRepresentable",
    "InconsistentInput",
    "NotSemiDegenerate",
    "NotDoublyDegenerate",
    "NoZeroEigenvalue",
    "HopfInadmissible",
    "NotAWeakCenter",
    "CuspConditionsViolated",
    "SignAssumptionViolated",
    "NoCrossings",
    "StepBudgetExceeded",
]


class AlleeLabError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveParameter(AlleeLabError):
    """A model parameter that must be strictly positive is not."""


class NonFiniteParameter(AlleeLabError):
    """A model parameter is NaN or infinite."""


class AlleeThresholdOutOfRange(AlleeLabError):
    """The dimensionless Allee threshold falls outside (0, 1)."""


class DomainViolation(AlleeLabError):
    """State outside the admissible domain (prey density must stay positive,
    predator density non-negative)."""


class NotRepresentable(AlleeLabError):
    """A quantity the analysis needs overflows, or is NaN, in double
    precision at a valid parameter point."""


class InconsistentInput(AlleeLabError):
    """An input violates a contract, e.g. a point passed off as an equilibrium
    whose vector-field residual is too large."""


class NotSemiDegenerate(AlleeLabError):
    """The Jacobian does not have exactly one (simple) zero eigenvalue."""


class NotDoublyDegenerate(AlleeLabError):
    """The Jacobian does not have a double zero eigenvalue."""


class NoZeroEigenvalue(AlleeLabError):
    """The Jacobian has no zero eigenvalue, so the degenerate-point machinery
    does not apply."""


class HopfInadmissible(AlleeLabError):
    """No admissible Hopf point: wrong geometry (Allee threshold on the wrong
    side of the equilibrium) or a non-positive critical growth rate."""


class NotAWeakCenter(AlleeLabError):
    """First-Lyapunov-coefficient computation requested away from a weak
    center (trace not zero, or determinant not positive)."""


class CuspConditionsViolated(AlleeLabError):
    """Base parameters do not place the system at an admissible cusp."""


class SignAssumptionViolated(AlleeLabError):
    """The quadratic normal-form coefficient vanishes, so neither branch of
    the reduction applies."""


class NoCrossings(AlleeLabError):
    """A trajectory never returned to the Poincare section."""


class StepBudgetExceeded(AlleeLabError):
    """An integration needed more accepted steps than the integrator allows
    one run (a horizon too long for the step size stability permits)."""
