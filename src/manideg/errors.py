"""Exception hierarchy shared across the package.

The four mid-level classes map onto the command-line exit codes:
problem definition errors exit 2, regularity errors 3, admissibility
errors 4, and numeric failures 5.
"""


class ManidegError(Exception):
    """Base class for every error raised by this package."""


class ProblemError(ManidegError):
    """A problem statement is malformed (syntax, dimensions, declarations)."""


class ExpressionSyntaxError(ProblemError):
    """Unparseable expression text."""

    def __init__(self, message, offset=None):
        suffix = f" (byte offset {offset})" if offset is not None else ""
        super().__init__(message + suffix)
        self.offset = offset


class UndeclaredVariableError(ExpressionSyntaxError):
    """An expression uses a name that was not declared."""


class ProblemFormatError(ProblemError):
    """A problem file violates the key/value format or its invariants."""


class RegularityError(ManidegError):
    """The constraint block of the Jacobian is singular or flips sign."""


class AdmissibilityError(ManidegError):
    """A field (nearly) vanishes on a region boundary, so no degree is defined."""


class NumericError(ManidegError):
    """A numeric routine failed to produce a trustworthy result."""


class DomainEvalError(NumericError):
    """An expression was evaluated outside the domain of one of its operations."""


class DegenerateZeroError(NumericError):
    """A zero with singular Jacobian makes the sign-sum formula inapplicable."""


class RootFindingError(NumericError):
    """Newton iteration failed to converge or left the search region."""


class DomainEscapeError(RootFindingError):
    """A y-solve converged, but to a point outside the working box.

    Distinguished from plain non-convergence so callers that track a
    moving point (flows, branch tracers) can tell 'left the chart'
    apart from 'solver broke down'.
    """


class IntegrationError(NumericError):
    """Time stepping could not be completed."""


class CorrectorError(NumericError):
    """A continuation corrector did not converge."""
