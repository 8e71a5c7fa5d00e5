"""Exception hierarchy for the q-series evaluation library."""


class QSeriesError(Exception):
    """Base class for all library errors."""


class QDomainError(QSeriesError):
    """An argument is outside the mathematical domain of the operation."""


class PoleError(QSeriesError):
    """A factor vanished where its reciprocal is needed (the value is infinite)."""


class DivergenceError(QSeriesError):
    """The series does not converge for the supplied parameters."""


class CapExceededError(QSeriesError):
    """max_terms was reached before the truncation error could be certified."""


class NonConvergenceError(QSeriesError):
    """Observed term ratios failed to certify convergence."""


class InsufficientTermsError(QSeriesError):
    """Too few terms supplied to an accelerator."""


class NumericalBreakdownError(QSeriesError):
    """A denominator could not be told from 0: an acceleration transform's,
    or a product or series factor's ball at the working precision."""


class UnknownIdentityError(QSeriesError):
    """The requested identity id is not registered."""


class DomainViolationError(QSeriesError):
    """A point lacks a parameter or violates an identity's constraints;
    names each."""


class SamplingError(QSeriesError):
    """No in-domain point was found within the draw budget."""


class ParseError(QSeriesError):
    """A parameter expression failed to parse."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class EvaluationError(QSeriesError):
    """An identity side failed to evaluate; carries side attribution."""

    def __init__(self, side, cause):
        super().__init__(f"{side} evaluation failed: {cause}")
        self.side = side
        self.cause = cause
