"""Sampled paths, partitions and the test-signal generators.

A path is a finite sequence of (time, value) samples together with an
interpolation mode.  Piecewise-linear paths are continuous; step paths are
right-continuous with left limits.  All variation functionals in this
package read sample values only, so a jump is represented exactly by two
samples a tiny time apart (`JUMP_EPS_FRACTION` of the span).
"""

import enum
from dataclasses import dataclass

import numpy as np

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


class Mode(str, enum.Enum):
    LINEAR = "linear"  # piecewise linear, continuous
    STEP = "step"      # cadlag step function


@dataclass(frozen=True)
class SampledPath:
    times: np.ndarray
    values: np.ndarray
    mode: Mode = Mode.LINEAR

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=np.float64)
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if t.ndim != 1 or v.ndim != 1:
            raise LengthMismatchError("times and values must be 1-d sequences")
        if t.size != v.size:
            raise LengthMismatchError(
                f"{t.size} times vs {v.size} values"
            )
        if t.size < 1:
            raise LengthMismatchError("a path needs at least one sample")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise NonFiniteValueError("times and values must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise NonMonotoneTimesError("times must be strictly increasing")
        t.flags.writeable = False
        v.flags.writeable = False
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
        return float(self.values_at(np.asarray([t], dtype=np.float64))[0])

    def values_at(self, ts):
        """Evaluate at arbitrary times inside the span.

        Step mode returns the value of the last sample at or before each
        query time (the right-continuous convention).
        """
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size and (ts.min() < self.times[0] or ts.max() > self.times[-1]):
            raise OutOfSpanError(
                f"query outside span [{self.a}; {self.b}]"
            )
        if self.mode is Mode.LINEAR:
            return np.interp(ts, self.times, self.values)
        idx = np.searchsorted(self.times, ts, side="right") - 1
        return self.values[np.maximum(idx, 0)]

    def jump_times(self):
        """Times at which a step path changes value (empty for linear mode)."""
        if self.mode is Mode.LINEAR or len(self) < 2:
            return np.empty(0, dtype=np.float64)
        changed = np.diff(self.values) != 0.0
        return self.times[1:][changed]


def make_path(times, values, mode=Mode.LINEAR) -> SampledPath:
    """Validate and build a path; see SampledPath for the invariants."""
    return SampledPath(np.asarray(times, dtype=np.float64),
                       np.asarray(values, dtype=np.float64), Mode(mode))


def restrict(path: SampledPath, c, d) -> SampledPath:
    """Restriction to [c; d], endpoints filled in by the path's own rule.

    In step mode the left endpoint takes the right-limit value, which is what
    `values_at` already returns.
    """
    c = float(c)
    d = float(d)
    if c >= d:
        raise EmptyIntervalError(f"need c < d, got [{c}; {d}]")
    if c < path.times[0] or d > path.times[-1]:
        raise OutOfSpanError(f"[{c}; {d}] not inside [{path.a}; {path.b}]")
    inside = (path.times > c) & (path.times < d)
    t = np.concatenate(([c], path.times[inside], [d]))
    v = np.concatenate(
        ([path.value_at(c)], path.values[inside], [path.value_at(d)])
    )
    return SampledPath(t, v, path.mode)


def oscillation(path: SampledPath) -> float:
    """sup over pairs of |f(t) - f(s)|: max value minus min value.

    Taken in Python floats, which overflow to inf without NumPy's warning;
    `tv_profile` raises NonFiniteValueError on that inf.
    """
    return float(np.max(path.values)) - float(np.min(path.values))


def osc_from_start(path: SampledPath) -> float:
    """sup over t of |f(t) - f(a)|."""
    return float(np.max(np.abs(path.values - path.values[0])))


def osc_from_end(path: SampledPath) -> float:
    """sup over t of |f(b) - f(t)|."""
    return float(np.max(np.abs(path.values[-1] - path.values)))


def gen_brownian(n, horizon, seed) -> SampledPath:
    """Random-walk interpolant of Brownian motion on a uniform grid.

    Gaussian increments of variance horizon/(n-1), starting at 0;
    bitwise-reproducible for a fixed seed.
    """
    n = int(n)
    if n < 2:
        raise BadCountError("need n >= 2 samples")
    horizon = float(horizon)
    if not horizon > 0:
        raise BadParameterError("horizon must be > 0")
    rng = np.random.default_rng(int(seed))
    steps = rng.standard_normal(n - 1) * np.sqrt(horizon / (n - 1))
    values = np.concatenate(([0.0], np.cumsum(steps)))
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
    total = sum(int(np.ceil(2.0 ** (n * p - 1.0))) for n in range(1, levels + 1))
    if total > 5_000_000:
        raise BadCountError(
            f"zigzag would need {2 * total + 1} samples; lower p or levels"
        )
    times = [2.0 ** -levels]
    values = [0.0]
    for n in range(levels, 0, -1):
        left = 2.0 ** -n
        right = 2.0 ** (-n + 1)
        count = int(np.ceil(2.0 ** (n * p - 1)))
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
    t = np.linspace(0.0, float(horizon), int(n))
    return SampledPath(t, t.copy())


def tent_path() -> SampledPath:
    return SampledPath(np.asarray([0.0, 1.0, 2.0]), np.asarray([0.0, 1.0, 0.0]))


def scale_path(path: SampledPath, factor) -> SampledPath:
    return SampledPath(path.times, path.values * float(factor), path.mode)


def shift_path(path: SampledPath, offset) -> SampledPath:
    return SampledPath(path.times, path.values + float(offset), path.mode)


def add_paths(f: SampledPath, g: SampledPath) -> SampledPath:
    """Pointwise sum on the union of the two grids."""
    check_same_span(f, g)
    if np.array_equal(f.times, g.times):
        t = f.times
        v = f.values + g.values
    else:
        t = merge_times(f, g)
        v = f.values_at(t) + g.values_at(t)
    mode = Mode.LINEAR if f.mode is Mode.LINEAR and g.mode is Mode.LINEAR else Mode.STEP
    return SampledPath(t, v, mode)


def merge_times(f: SampledPath, g: SampledPath) -> np.ndarray:
    return np.union1d(f.times, g.times)


def check_same_span(f: SampledPath, g: SampledPath):
    if f.times[0] != g.times[0] or f.times[-1] != g.times[-1]:
        raise SpanMismatchError(
            f"[{f.a}; {f.b}] vs [{g.a}; {g.b}]"
        )


def common_jump_times(f: SampledPath, g: SampledPath) -> np.ndarray:
    return np.intersect1d(f.jump_times(), g.jump_times())


@dataclass(frozen=True)
class Partition:
    """Strictly increasing sample indices into a reference grid."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
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
        tags = tuple(int(i) for i in self.tags)
        idx = self.partition.indices
        if len(tags) != len(idx) - 1:
            raise InvalidPartitionError("one tag per cell required")
        for k, tag in enumerate(tags):
            if not idx[k] <= tag <= idx[k + 1]:
                raise InvalidPartitionError(
                    f"tag {tag} outside cell [{idx[k]}; {idx[k + 1]}]"
                )
        object.__setattr__(self, "tags", tags)
