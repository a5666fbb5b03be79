"""Exception types shared across the library."""


class HullMapsError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(HullMapsError):
    """Input vectors do not share a common ambient dimension."""


class DuplicatePointsError(HullMapsError):
    """Two configuration points coincide within the distinctness tolerance."""


class IndexOutOfRangeError(HullMapsError, IndexError):
    """A face id is outside the hull's faces."""


class StrategyDimensionMismatchError(HullMapsError):
    """The sampling strategy does not apply to the requested dimension."""


class DegenerateConfigurationError(HullMapsError):
    """Points lie on a proper affine subspace; the hull is not full-dimensional."""


class TooManyPointsError(HullMapsError):
    """A configuration exceeds the size contract n <= 1000, d <= 6."""


class AmbiguousTieError(HullMapsError):
    """Direction classification hit a maximizing set that is not a face."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class NotOnBoundaryError(HullMapsError):
    """Query point does not lie on the hull boundary within tolerance."""


class DimensionUnsupportedError(HullMapsError):
    """Operation is only defined for specific ambient dimensions."""


class EmptySetError(HullMapsError):
    """A set-distance query received an empty point set."""


class EmptyProbeError(HullMapsError):
    """No probe directions survived the open-set membership filter."""


class SamplingExhaustedError(HullMapsError):
    """A rejection sampler used up its tries before collecting the requested count."""


class RequiresDegenerateError(HullMapsError):
    """Operation only applies to degenerate (lower-dimensional) configurations."""
