"""Exception types shared across the package."""


class LcakError(Exception):
    """Base class for all package errors."""


class IndexOutOfRange(LcakError):
    """Structure-constant indices outside 1..dim, or malformed entries."""


class DimensionMismatch(LcakError):
    """Operands defined over different algebras or of incompatible sizes."""


class DegenerateMetric(LcakError):
    """g is not symmetric positive definite where the operation needs it."""


class NondegeneracyFailure(LcakError):
    """The fundamental 2-form is degenerate."""


class UnsupportedDimension(LcakError):
    """Operation is only implemented in the stated dimension."""


class PreconditionFailed(LcakError):
    """A documented precondition of the operation does not hold."""


class Degenerate(PreconditionFailed):
    """The input is degenerate for the requested classification."""


class ParseError(LcakError):
    """Malformed structure-description text.

    Attributes carry machine-readable context: ``code`` and, when known,
    ``line`` / ``field``.
    """

    def __init__(self, message, code="PARSE_ERROR", line=None, field=None):
        super().__init__(message)
        self.code = code
        self.line = line
        self.field = field


class ValidationError(LcakError):
    """Input parsed but fails a mathematical validity check.

    ``code`` is machine readable (e.g. ``J_NOT_ACS``, ``G_NOT_POSITIVE_DEFINITE``),
    ``field`` names the offending input when known.
    """

    def __init__(self, message, code="VALIDATION_ERROR", field=None):
        super().__init__(message)
        self.code = code
        self.field = field
