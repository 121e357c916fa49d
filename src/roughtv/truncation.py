"""Truncated variation, its optimal approximation, and the exact profile.

The truncated variation with threshold delta is the supremum over sample
subsequences of sum (|increment| - delta)_+; at delta = 0 it is the total
variation.  As a function of delta it is a supremum of affine nonincreasing
functions and therefore convex, nonincreasing and piecewise affine, which is
what `tv_profile` reconstructs exactly.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from . import kernels
from .errors import NegativeDeltaError, NonFiniteValueError, NonPositiveDeltaError
from .paths import SampledPath, oscillation


def truncated_variation(path: SampledPath, delta) -> float:
    """TV with threshold delta over the whole span; exact for sample data.

    `kernels.tv_delta` on the path's kept extrema.  A NaN delta is a
    NegativeDeltaError, as a negative one is.  NonFiniteValueError when the
    oscillation or the sum overflows float64.
    """
    delta = float(delta)
    if not delta >= 0:  # NaN too
        raise NegativeDeltaError("delta must be >= 0")
    oscillation(path)
    total = kernels.tv_delta(path._extrema, delta)
    if not math.isfinite(total):
        raise NonFiniteValueError("truncated variation overflows float64")
    return total


def total_variation(path: SampledPath) -> float:
    return truncated_variation(path, 0.0)


def optimal_approximation(path: SampledPath, delta) -> SampledPath:
    """Uniform delta/2-approximation whose total variation equals TV^delta.

    Band-following construction: the output stays constant until the input
    leaves the band of half-width delta/2 around it, then moves minimally to
    re-enter.  The starting level is chosen so the first forced move costs
    exactly (first swing - delta); with no swing above delta the output is a
    constant clamped toward f(a).
    """
    delta = float(delta)
    if not delta > 0:  # NaN too
        raise NonPositiveDeltaError("delta must be > 0")
    return SampledPath(path.times, kernels.lazy_band(path.values, delta), path.mode)


@dataclass(frozen=True)
class TvProfile:
    """Exact piecewise-affine representation of delta -> TV^delta.

    Segment j covers [breakpoints[j]; breakpoints[j+1]] and carries the pair
    (a, b) with TV^delta = a - b*delta there; beyond the last breakpoint
    (the oscillation) the profile is zero.  `pieces` are the three lists
    `swing_pieces` returns, which `value` and the seminorms read on Python
    floats (the IEEE operations of NumPy scalars, at half the cost).
    """

    pieces: tuple  # breakpoints from 0 to the oscillation, coef_a, coef_b

    def value(self, delta) -> float:
        """TV^delta read off its segment, found by bisection, as a - b*delta.

        Known error: just above a breakpoint the subtraction cancels.  On
        `np.random.default_rng(0).uniform(-1, 1, 4096)` at delta =
        `math.nextafter(b, math.inf)`, b the breakpoint near 1.9984, the
        value is 1.94e-12 relative off the exact 9.14e-4, which `tv_delta`
        returns (ROADMAP item 4); the mend is ROADMAP item 13's.
        """
        delta = float(delta)
        if not delta >= 0:  # NaN too
            raise NegativeDeltaError("delta must be >= 0")
        bp, coef_a, coef_b = self.pieces
        if not coef_a or delta >= bp[-1]:
            return 0.0
        j = bisect_right(bp, delta) - 1
        return max(coef_a[j] - coef_b[j] * delta, 0.0)

    @property
    def n_segments(self) -> int:
        return len(self.pieces[1])


def tv_profile(path: SampledPath) -> TvProfile:
    """The exact profile of the path: `swing_pieces` of its extrema.

    Built on the first call for a path, or its first p-TV seminorm, and
    kept on it, so the checks and the series that read one path's profile
    at many deltas build it once.
    """
    return path._profile


def swing_pieces(extrema):
    """Breakpoints and pieces of the profile of the path through `extrema`.

    `extrema` is a list of floats as `kernels.reduce_to_extrema` leaves
    them; the moves between consecutive extrema are the swings.  Below the
    smallest swing s, TV^delta is their sum minus their number times delta.
    From delta = s on, s stops paying: at an end of the path it is dropped,
    inside it fuses with its neighbours l and r into the one swing
    l - s + r >= s.  Any swing no longer than its neighbours may go first,
    since the breakpoints of TV^delta do not depend on the order, so one
    stack pass retires them, as rainflow counting does (ASTM E1049-85;
    I. Rychlik, Int. J. Fatigue 9, 1987): push each extremum, and while
    the newest swing is at least the one before it, retire that one, by
    dropping the first extremum (count 1) or fusing its two extrema away
    (count 2).  The swings left on the stack strictly decrease and retire
    one by one; the largest is the oscillation.  These are the 1-D
    persistence pairs of the extrema: one O(m) pass, one sort of the
    distinct levels, no tolerance, and every level is |v_a - v_b| of two
    input floats.  On each piece, b counts the swings still standing and a
    is their sum.  Two extrema are one swing, so they skip the stack:
    ([0, osc], [osc], [1]), the lists it would build (the one-step windows
    of a rough driver are nearly all of this kind).
    Returns the lists (breakpoints, coef_a, coef_b) of `TvProfile`, with no
    piece for a constant path.
    NonFiniteValueError when the oscillation or the total variation
    overflows float64.
    """
    # Python floats overflow to inf without a NumPy warning
    osc = max(extrema) - min(extrema)
    if not math.isfinite(osc):
        raise NonFiniteValueError("oscillation of the path overflows float64")
    if osc == 0.0:
        return [0.0], [], []
    if len(extrema) == 2:  # one swing
        return [0.0, osc], [osc], [1.0]
    retired = {}  # swing level -> swings retired there
    s = []
    for x in extrema:
        s.append(x)
        while len(s) > 2 and abs(x - s[-2]) >= (y := abs(s[-2] - s[-3])):
            if len(s) == 3:  # y starts at the first extremum
                retired[y] = retired.get(y, 0) + 1
                del s[0]
            else:  # inner y: its two extrema fuse away
                retired[y] = retired.get(y, 0) + 2
                del s[-3:-1]
    for a, b in zip(s, s[1:]):
        y = abs(b - a)
        retired[y] = retired.get(y, 0) + 1
    levels = sorted(retired)
    counts = [retired[level] for level in levels]
    coef_a = list(accumulate(c * level for c, level in zip(counts[::-1], levels[::-1])))
    if coef_a[-1] == math.inf:
        raise NonFiniteValueError("total variation of the path overflows float64")
    # every partial sum of the counts is an exact integer in float64
    coef_b = list(accumulate(float(c) for c in counts[::-1]))
    return [0.0] + levels, coef_a[::-1], coef_b[::-1]
