"""Exception types raised by the library.

Every validation failure maps to a dedicated class so that callers (and the
CLI exit-code logic) can distinguish bad parameters from I/O trouble.
"""


class RoughTVError(Exception):
    """Base class for all library errors."""


class NonMonotoneTimesError(RoughTVError):
    """Sample times are not strictly increasing."""


class LengthMismatchError(RoughTVError):
    """times and values have different lengths."""


class NonFiniteValueError(RoughTVError):
    """A time or value is NaN or infinite."""


class OutOfSpanError(RoughTVError):
    """Requested interval or point lies outside the path's span."""


class EmptyIntervalError(RoughTVError):
    """Requested interval has zero or negative length."""


class BadCountError(RoughTVError):
    """Sample count outside the generator's domain."""


class BadExponentError(RoughTVError):
    """Variation exponent outside its domain (p >= 1, or p > 1)."""


class BadExponentOrderError(RoughTVError):
    """Exponent pair violates the required ordering q > p >= 1."""


class BadExponentsError(RoughTVError):
    """Exponent pair (p, q) outside the Young regime 1/p + 1/q > 1."""


class BadParameterError(RoughTVError):
    """Generator parameter outside its domain."""


class NegativeDeltaError(RoughTVError):
    """Truncation parameter must be >= 0."""


class NonPositiveDeltaError(RoughTVError):
    """Truncation parameter must be > 0 for this operation."""


class NegativeIncrementError(RoughTVError):
    """Increment sequence must be nonnegative."""


class TooLargeError(RoughTVError):
    """Instance too large for exhaustive enumeration."""


class SpanMismatchError(RoughTVError):
    """Two paths do not share the same time span."""


class CommonDiscontinuityError(RoughTVError):
    """Integrand and integrator jump at the same time."""


class NoConvergenceError(RoughTVError):
    """A Picard window iteration reached max_iter iterates before tolerance."""


class InvalidPartitionError(RoughTVError):
    """Partition or tag indices invalid for the grid."""


class NonMonotoneLadderError(RoughTVError):
    """Truncation sequences must be nonincreasing and nonnegative."""


class BadAlphaError(RoughTVError):
    """Regularity exponent outside (0; 1)."""


class NoSplittingError(RoughTVError):
    """Driver cannot be split into windows of small enough seminorm."""


class BlowupSuspectedError(RoughTVError):
    """Solution values exceeded the overflow guard."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class CsvFormatError(RoughTVError):
    """Input CSV does not follow the `t,value` schema."""
