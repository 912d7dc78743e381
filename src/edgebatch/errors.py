"""Exception types shared across the package. The CLI exits 2 on a
``UsageError``, malformed input, and 1 on a ``DomainError``."""


class EdgeBatchError(Exception):
    """Base class for package errors."""


class DomainError(EdgeBatchError, ValueError):
    """A value is outside the range an operation or a config accepts."""


class FitError(EdgeBatchError, ArithmeticError):
    """Model fitting failed (singular normal equations)."""


class UsageError(EdgeBatchError, ValueError):
    """Malformed config or trace input, or an output file that cannot be
    opened (exit code 2)."""
