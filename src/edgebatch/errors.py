"""Exception types shared across the package."""


class EdgeBatchError(Exception):
    """Base class for package errors."""


class DomainError(EdgeBatchError, ValueError):
    """A value is outside the range an operation or a config accepts."""


class FitError(EdgeBatchError, ArithmeticError):
    """Model fitting failed (singular normal equations)."""


class TraceParseError(EdgeBatchError, ValueError):
    """A trace file could not be parsed.

    ``row`` is the 1-based line number of the offending input line when known.
    """

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row
