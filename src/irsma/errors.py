"""Exception types shared across the package."""


class IrsmaError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(IrsmaError):
    """A scalar or structural parameter is outside its admissible range."""


class DegenerateGeometryError(IrsmaError):
    """A source point coincides with an array element (zero distance)."""


class DegenerateChannelError(IrsmaError):
    """A channel vector/matrix is identically zero where a direction is needed."""


class InfeasibleSpacingError(IrsmaError):
    """The antenna-spacing constraint cannot be met on the given sampling grid."""


class MultiplierBracketError(IrsmaError):
    """No WMMSE power multiplier meets the power budget: the Newton iteration's
    lower bound exceeds 2**200, or it runs out of steps."""
