"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, ConvergenceError -> 4.
"""


class SurgnetError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SurgnetError):
    """Invalid configuration: unknown columns, bad flags."""


class DataError(SurgnetError):
    """Input data cannot be processed: unreadable source, empty case set,
    provider/segment mismatch, rank-deficient design."""


class ConvergenceError(SurgnetError):
    """An iterative numerical procedure failed to converge.

    Carries a ``trace`` attribute with diagnostic context (iterations run,
    last residual or gradient norm).
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or {}
