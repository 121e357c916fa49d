"""Sampled paths, partitions and the test-signal generators.

A path is a finite sequence of (time, value) samples together with an
interpolation mode.  Piecewise-linear paths are continuous; step paths are
right-continuous with left limits.  All variation functionals in this
package read sample values only, so a jump is represented exactly by two
samples a tiny time apart (`JUMP_EPS_FRACTION` of the span).
"""

import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import (
    BadCountError,
    BadExponentError,
    BadParameterError,
    EmptyIntervalError,
    InvalidPartitionError,
    LengthMismatchError,
    NonFiniteValueError,
    NonMonotoneTimesError,
    OutOfSpanError,
    SpanMismatchError,
)

# Time separation of the two samples realising one jump, as a fraction of the
# span.  Functionals read values, not times, so the representation is exact
# for TV/V^p purposes.
JUMP_EPS_FRACTION = 2.0 ** -20
# The most samples a generator makes: 80 MB a column.  A request for more is
# rejected before anything is allocated.
MAX_SAMPLES = 10_000_001


class Mode(str, enum.Enum):
    LINEAR = "linear"  # piecewise linear, continuous
    STEP = "step"      # cadlag step function


@dataclass(frozen=True)
class SampledPath:
    """Validated samples in arrays that no caller can write (`read_only`).

    A path never changes, so what depends on its values alone is computed
    on first use and kept (`functools.cached_property`): the extrema list,
    the one reduction of the path, read by TV^delta, V^p and the
    `TvProfile`, and the profile, read by `truncation.tv_profile` and every
    p-TV seminorm of the path.  A new path (`restrict`, `shift_path`,
    `dataclasses.replace`) starts with neither.
    """

    times: np.ndarray
    values: np.ndarray
    mode: Mode = Mode.LINEAR

    def __post_init__(self):
        t = read_only(self.times)
        v = read_only(self.values)
        if t.ndim != 1 or v.ndim != 1:
            raise LengthMismatchError("times and values must be 1-d sequences")
        if t.size != v.size:
            raise LengthMismatchError(
                f"{t.size} times vs {v.size} values"
            )
        if t.size < 1:
            raise LengthMismatchError("a path needs at least one sample")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise NonFiniteValueError("times and values must be finite")
        if not (t[1:] > t[:-1]).all():  # t[1:] - t[:-1] overflows past max float
            raise NonMonotoneTimesError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mode", Mode(self.mode))

    def __len__(self):
        return self.times.size

    @property
    def a(self):
        return float(self.times[0])

    @property
    def b(self):
        return float(self.times[-1])

    def value_at(self, t):
        return float(self.values_at([t])[0])

    def values_at(self, ts):
        """Evaluate at arbitrary times inside the span.

        Step mode returns the value of the last sample at or before each
        query time (the right-continuous convention).  This is the one span
        check of the package: a query that is not inside [a; b], NaN
        included, is an OutOfSpanError.
        """
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size and not (ts.min() >= self.times[0] and ts.max() <= self.times[-1]):
            raise OutOfSpanError(
                f"query outside span [{self.a}; {self.b}]"
            )
        if self.mode is Mode.LINEAR:
            return np.interp(ts, self.times, self.values)
        return self.values[np.searchsorted(self.times, ts, side="right") - 1]

    def jump_times(self):
        """Times at which a step path changes value (empty for linear mode)."""
        if self.mode is Mode.LINEAR:
            return np.empty(0, dtype=np.float64)
        changed = np.diff(self.values) != 0.0
        return self.times[1:][changed]

    @cached_property
    def _extrema(self):
        """`kernels.reduce_to_extrema` of the values, as Python floats."""
        return kernels.reduce_to_extrema(self.values).tolist()

    @cached_property
    def _profile(self):
        """The `TvProfile` of `truncation.swing_pieces` of the extrema."""
        from . import truncation  # which imports this module

        return truncation.TvProfile(truncation.swing_pieces(self._extrema))


def read_only(xs):
    """`xs` as a float64 array (at least 1-d) that no caller can write.

    The array is `np.frombuffer` over a `bytes` copy of `xs`: NumPy will
    not set its writeable flag again, as it would for an array that owns
    its memory.  A float64 array over a `bytes`, as a path's arrays are, is
    kept; anything else is copied once, so that no buffer a caller can
    still write, and no view of one, ends up under a path or its caches.
    An `xs` of more than one dimension keeps its shape, for the caller to
    reject.
    """
    if isinstance(xs, np.ndarray) and isinstance(xs.base, bytes) and xs.dtype == np.float64:
        return xs
    array = np.array(xs, dtype=np.float64, copy=None, ndmin=1)
    frozen = np.frombuffer(array.tobytes())
    return frozen if array.ndim == 1 else frozen.reshape(array.shape)


make_path = SampledPath  # the name the package and its tests build paths with


def restrict(path: SampledPath, c, d) -> SampledPath:
    """Restriction to [c; d], endpoints filled in by the path's own rule.

    In step mode the left endpoint takes the right-limit value, which is what
    `values_at` already returns.  A NaN bound is an EmptyIntervalError; an
    end outside the span is `values_at`'s OutOfSpanError.
    """
    c = float(c)
    d = float(d)
    if not c < d:  # NaN too
        raise EmptyIntervalError(f"need c < d, got [{c}; {d}]")
    fc, fd = path.values_at((c, d))
    inside = (path.times > c) & (path.times < d)
    t = np.concatenate(([c], path.times[inside], [d]))
    v = np.concatenate(([fc], path.values[inside], [fd]))
    return SampledPath(t, v, path.mode)


def oscillation(path: SampledPath) -> float:
    """sup over pairs of |f(t) - f(s)|: max value minus min value.

    Taken in Python floats, so an overflow is inf without NumPy's warning,
    and raises NonFiniteValueError.  The functionals call it before any
    NumPy arithmetic on increments that would overflow (and warn).
    """
    osc = float(path.values.max()) - float(path.values.min())
    if not math.isfinite(osc):
        raise NonFiniteValueError("oscillation of the path overflows float64")
    return osc


def osc_from_start(path: SampledPath) -> float:
    """sup over t of |f(t) - f(a)|.

    Taken in Python floats, as `oscillation` is: rounding is monotone, so
    the larger of max - f(a) and f(a) - min has the bits of the largest
    |f(t) - f(a)|, and an overflow is inf without NumPy's warning.  The
    leading 0.0 makes a -0.0 difference read +0.0, as an absolute value does.
    """
    v0 = float(path.values[0])
    return max(0.0, float(path.values.max()) - v0, v0 - float(path.values.min()))


def osc_from_end(path: SampledPath) -> float:
    """sup over t of |f(b) - f(t)|, in Python floats as `osc_from_start`."""
    v1 = float(path.values[-1])
    return max(0.0, v1 - float(path.values.min()), float(path.values.max()) - v1)


def _check_samples(count, name, knobs):
    """BadCountError when a generator would make more than MAX_SAMPLES
    samples; a count of inf means "more than the cap", not summed further."""
    if count > MAX_SAMPLES:
        need = f"more than {MAX_SAMPLES}" if count == math.inf else count
        raise BadCountError(f"{name} would need {need} samples; lower {knobs}")


def check_horizon(horizon) -> float:
    """`horizon` as a float, BadParameterError unless it is finite and > 0:
    the span [0; horizon] of every generator that takes one."""
    horizon = float(horizon)
    if not 0 < horizon < math.inf:
        raise BadParameterError("horizon must be finite and > 0")
    return horizon


def gen_brownian(n, horizon, seed) -> SampledPath:
    """Random-walk interpolant of Brownian motion on a uniform grid.

    Gaussian increments of variance horizon/(n-1), starting at 0;
    bitwise-reproducible for a fixed seed.
    """
    n = int(n)
    if n < 2:
        raise BadCountError("need n >= 2 samples")
    _check_samples(n, "brownian", "n")
    horizon = check_horizon(horizon)
    seed = int(seed)
    if seed < 0:
        raise BadParameterError("seed must be >= 0")
    # one array filled in place: the steps, scaled, then their running sum
    values = np.zeros(n)
    steps = values[1:]
    np.random.default_rng(seed).standard_normal(out=steps)
    steps *= np.sqrt(horizon / (n - 1))
    np.cumsum(steps, out=steps)
    return SampledPath(np.linspace(0.0, horizon, n), values)


def gen_zigzag(p, levels) -> SampledPath:
    """Nested zigzag on [2^-levels; 1].

    On [2^-n; 2^-n+1] the path makes ceil(2^(n*p-1)) equally spaced tent
    excursions from 0 up to 2^(-n+1) and back, so it is 0 at every dyadic
    level boundary.
    """
    p = float(p)
    if not p > 1:
        raise BadExponentError("zigzag exponent must satisfy p > 1")
    levels = int(levels)
    if levels < 1:
        raise BadCountError("need at least one level")
    total = 1  # samples: the first, then two per tent excursion
    counts = []  # tent excursions of levels 1, 2, ...
    for n in range(1, levels + 1):
        if total > MAX_SAMPLES:  # the rest of the levels only add
            total = math.inf
            break
        # an exponent past 64 is past the cap, and 2.0 ** 64 cannot overflow
        counts.append(math.ceil(2.0 ** min(n * p - 1.0, 64.0)))
        total += 2 * counts[-1]
    _check_samples(total, "zigzag", "p or levels")
    times = [2.0 ** -levels]
    values = [0.0]
    for n in range(levels, 0, -1):
        left = 2.0 ** -n
        right = 2.0 ** (-n + 1)
        count = counts[n - 1]
        height = 2.0 ** (-n + 1)
        width = (right - left) / count
        for j in range(count):
            times.append(left + (j + 0.5) * width)
            values.append(height)
            times.append(right if j == count - 1 else left + (j + 1) * width)
            values.append(0.0)
    return SampledPath(np.asarray(times), np.asarray(values))


def gen_counterexample_fx(x) -> SampledPath:
    """Step path on [-1; 1]: 0 at -1, then 1 on the interior, then 1-x at 1.

    The two jumps (sizes 1 and x) defeat superadditivity of the p-th power of
    the truncated-variation seminorm once x > p/(p-1).
    """
    x = float(x)
    if not x > 1:
        raise BadParameterError("need x > 1")
    eps = 2.0 * JUMP_EPS_FRACTION
    t = np.asarray([-1.0, -1.0 + eps, 1.0 - eps, 1.0])
    v = np.asarray([0.0, 1.0, 1.0, 1.0 - x])
    return SampledPath(t, v, Mode.STEP)


def constant_path(value, a=0.0, b=1.0) -> SampledPath:
    return SampledPath(np.asarray([a, b]), np.asarray([value, value]))


def identity_path(n=2, horizon=1.0) -> SampledPath:
    n = int(n)
    if n < 1:
        raise BadCountError("need n >= 1 sample")
    _check_samples(n, "identity", "n")
    t = np.linspace(0.0, check_horizon(horizon), n)
    return SampledPath(t, t.copy())


def tent_path() -> SampledPath:
    return SampledPath(np.asarray([0.0, 1.0, 2.0]), np.asarray([0.0, 1.0, 0.0]))


def scale_path(path: SampledPath, factor) -> SampledPath:
    with np.errstate(over="ignore", invalid="ignore"):  # SampledPath rejects inf
        values = path.values * float(factor)
    return SampledPath(path.times, values, path.mode)


def shift_path(path: SampledPath, offset) -> SampledPath:
    with np.errstate(over="ignore", invalid="ignore"):
        values = path.values + float(offset)
    return SampledPath(path.times, values, path.mode)


def add_paths(f: SampledPath, g: SampledPath) -> SampledPath:
    """Pointwise sum on the union of the two grids."""
    check_same_span(f, g)
    t = merge_times(f, g)
    with np.errstate(over="ignore", invalid="ignore"):
        v = f.values_at(t) + g.values_at(t)
    mode = Mode.LINEAR if f.mode is Mode.LINEAR and g.mode is Mode.LINEAR else Mode.STEP
    return SampledPath(t, v, mode)


def merge_times(f: SampledPath, g: SampledPath) -> np.ndarray:
    """The union of the two strictly increasing grids; of two equal times
    (-0.0 and 0.0), f's.  Unlike `np.union1d`, it never imports numpy.ma."""
    t = np.concatenate((f.times, g.times))
    t.sort(kind="stable")
    return t[np.concatenate(([True], t[1:] != t[:-1]))]


def check_same_span(f: SampledPath, g: SampledPath):
    if f.times[0] != g.times[0] or f.times[-1] != g.times[-1]:
        raise SpanMismatchError(
            f"[{f.a}; {f.b}] vs [{g.a}; {g.b}]"
        )


def common_jump_times(f: SampledPath, g: SampledPath) -> np.ndarray:
    # jump times are unique, so np.unique (and numpy.ma) is not needed
    return np.intersect1d(f.jump_times(), g.jump_times(), assume_unique=True)


def _indices(values):
    """values as a tuple of ints; NumPy integers pass, 1.5 is no index."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InvalidPartitionError("indices must be integers") from None


@dataclass(frozen=True)
class Partition:
    """Strictly increasing sample indices into a reference grid."""

    indices: tuple

    def __post_init__(self):
        idx = _indices(self.indices)
        if len(idx) == 0:
            raise InvalidPartitionError("partition must be nonempty")
        if any(j <= i for i, j in zip(idx, idx[1:])):
            raise InvalidPartitionError("indices must be strictly increasing")
        if idx[0] < 0:
            raise InvalidPartitionError("indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    def validate_for(self, n_samples):
        if self.indices[-1] >= n_samples:
            raise InvalidPartitionError(
                f"index {self.indices[-1]} out of range for {n_samples} samples"
            )

    @property
    def n_cells(self):
        return len(self.indices) - 1


@dataclass(frozen=True)
class TaggedPartition:
    """Partition plus one tag index per cell, each inside its cell."""

    partition: Partition
    tags: tuple

    def __post_init__(self):
        tags = _indices(self.tags)
        idx = self.partition.indices
        if len(tags) != len(idx) - 1:
            raise InvalidPartitionError("one tag per cell required")
        for k, tag in enumerate(tags):
            if not idx[k] <= tag <= idx[k + 1]:
                raise InvalidPartitionError(
                    f"tag {tag} outside cell [{idx[k]}; {idx[k + 1]}]"
                )
        object.__setattr__(self, "tags", tags)
