"""Exception hierarchy shared by all corostab modules."""


class CorostabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(CorostabError):
    """Input array contains NaN/Inf or has the wrong shape."""


class DomainError(CorostabError):
    """Mathematically valid input outside the operation's domain (e.g. log of
    a non-positive-definite tensor, cofactor of a singular matrix)."""


class ConfigurationError(CorostabError):
    """Invalid or incomplete material/run configuration."""


class UsageError(CorostabError):
    """Operation called in a way its contract forbids (e.g. pressure supplied
    for a compressible model)."""


class SolverError(CorostabError):
    """Root solve failed.  Carries the bracket scan in ``scan`` when available."""

    def __init__(self, message, scan=None):
        super().__init__(message)
        self.scan = scan
