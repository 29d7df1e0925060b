"""Exception types shared across the package.

Two families matter for the CLI exit-code contract: ValidationError and
ParseError signal bad user input (exit 2), ModelError and its subclasses
signal a runtime/model failure (exit 1).
"""


class ValidationError(ValueError):
    """Invalid parameters, states or configuration values."""


class ParseError(ValueError):
    """Malformed input file; the message carries the offending line number."""


class ModelError(RuntimeError):
    """Base class for failures of the numerical machinery."""


class IntegrationError(ModelError):
    """Non-finite state encountered mid-integration (parameter blow-up)."""


class DegenerateCaseError(ModelError):
    """Computation requested at a degenerate parameter point (e.g. a zero coupling or rate)."""


class NoFixedPointError(ModelError):
    """The competition model has no fixed point (discriminant not positive)."""


class OracleError(ModelError):
    """A verification oracle could not be evaluated at the requested point."""


class FitError(ModelError):
    """Least-squares fit did not converge; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
