"""Exception types shared across the package."""


class SpiralforgeError(Exception):
    """Base class for all package-specific failures."""


class InvalidImmersionError(SpiralforgeError):
    """A jet is degenerate (zero first derivatives or vanishing conformality)."""


class InvalidVariationError(SpiralforgeError):
    """A variation path leaves the set of immersion jets."""


class GraphTooLargeError(SpiralforgeError):
    """A normal graph pushed a jet below the immersion threshold."""


class NoProfileError(SpiralforgeError):
    """The one-dimensional profile solve failed to converge."""


class RejectedParametersError(SpiralforgeError):
    """A parameter gate for the nonlinear solve was violated."""
