"""Exception types shared across the package."""


class IrsmaError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(IrsmaError):
    """A scalar or structural parameter is outside its admissible range."""


class DegenerateGeometryError(IrsmaError):
    """A source point coincides with an array element (zero distance)."""


class DegenerateChannelError(IrsmaError):
    """A channel vector/matrix is identically zero where a direction is needed."""


class SingularMatrixError(IrsmaError):
    """A matrix that must be inverted is singular (e.g. ZF with rank-deficient Gram)."""


class InfeasibleSpacingError(IrsmaError):
    """The antenna-spacing constraint cannot be met on the given sampling grid."""


class MultiplierBracketError(IrsmaError):
    """The WMMSE power multiplier could not be bracketed within the doubling cap."""
