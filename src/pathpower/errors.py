"""Exception types shared across the package."""


class PathPowerError(Exception):
    """Base class for all package-specific errors."""


class InvalidVertexError(PathPowerError, ValueError):
    """Coordinate tuple or rank is not a vertex of the given grid."""


class SizeCapError(PathPowerError, ValueError):
    """Requested object exceeds a configured size cap."""


class DimensionMismatchError(PathPowerError, ValueError):
    """Operands describe graphs or matrices of different dimensions."""


class BracketingError(PathPowerError, RuntimeError):
    """Root isolation failed to bracket the expected number of roots."""


class EigenSolveError(PathPowerError, RuntimeError):
    """Symmetric eigensolve did not meet its residual contract."""

