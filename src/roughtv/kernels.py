"""The hot inner loops, in pure Python over NumPy arrays.

`reduce_to_extrema` keeps the endpoints and turning points of a sample
sequence; the absolute differences of consecutive extrema are its swings,
the alternating monotone runs that `truncation.swing_pieces` pairs off in
one stack pass.  `window_extrema` reduces a sequence once and then reads
the extrema of any window of it, as the Picard window search needs.
`tv_delta` evaluates the truncated variation at one threshold in a single
pass, `pvar_sum` the p-variation by a dynamic program pruned to backward
records (exact, quadratic only in the worst case), and `lazy_band` the
band-following approximation.  Where a loop's steps are short, it runs on
Python floats, whose IEEE operations are those of NumPy's float64 ones
without NumPy's fixed cost per call: `tv_delta` always, `pvar_sum` on
every stack of at most SHORT_STACK records, with all its powers taken in
one array beforehand.
"""

from bisect import bisect_left, bisect_right
from operator import add

import numpy as np

# pvar_sum scans a stack of at most this many records on Python floats, a
# longer one in arrays.  Per step, the two scans cost the same at about 24
# records (p = 1.5 and 2; NumPy 2.4 on a 2-core Xeon VM): the array scan's
# four NumPy calls cost about 4-6 us at any length, the float scan about
# 0.2 us a record.
SHORT_STACK = 24


def backend_name():
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"


def _plateau_starts(v):
    """Mask of the samples that differ from their predecessor (and the first)."""
    keep = np.ones(v.size, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return keep


def _turns(w):
    """Indices of the turning points of a plateau-free sequence w.

    A comparison, not a difference, decides each direction: the two agree
    on every float, and a comparison cannot overflow.
    """
    rising = w[1:] > w[:-1]
    return np.nonzero(rising[1:] != rising[:-1])[0] + 1


def reduce_to_extrema(values):
    """Drop samples interior to monotone runs, keeping first/last points.

    Sums of |increment|^p (p >= 1) and of (|increment| - delta)_+ over
    subsequences are both maximised on the reduced sequence, because merging
    same-sign increments can only increase either sum.  A constant
    sequence, of any length, reduces to its first sample.
    """
    v = np.asarray(values, dtype=np.float64)
    # drop plateaus, then keep the first point plus the end of every
    # maximal same-direction run
    w = v[_plateau_starts(v)]
    if w.size <= 2:
        return w
    return w[np.concatenate(([0], _turns(w), [w.size - 1]))]


def window_extrema(values):
    """One pass over `values`; returns extrema(i, j), the extrema of values[i:j+1].

    The pass drops plateaus, giving w, numbers the plateau a = run[i] of
    every sample, and finds the turning points of w.  A plateau that starts
    before i has the value of sample i, so the plateau-free values of the
    window are w[a..b], b = run[j]; an inner point of that run turns exactly
    when it turns in w.  So extrema(i, j) is w[a], the turning values
    strictly between a and b (two bisections), and w[b]: as Python floats,
    equal to reduce_to_extrema(values[i:j+1]).tolist(), which is
    [values[i]] when the window is constant.
    """
    v = np.asarray(values, dtype=np.float64)
    keep = _plateau_starts(v)
    w = v[keep]
    run = (np.cumsum(keep) - 1).tolist()
    turns = _turns(w)
    turn_values = w[turns].tolist()
    turns = turns.tolist()
    w = w.tolist()

    def extrema(i, j):
        a = run[i]
        b = run[j]
        if a == b:
            return [w[a]]
        return [w[a]] + turn_values[bisect_right(turns, a):bisect_left(turns, b)] + [w[b]]

    return extrema


def tv_delta(values, delta):
    """Exact truncated variation of the sample sequence, one forward pass.

    Tracks the running extremum since the last committed turning point and
    commits a directed run once the drawdown/drawup exceeds delta; each
    completed alternation of size s contributes (s - delta).  The pass runs
    over the extrema-reduced sequence, which commits the same float values,
    converted to Python floats: the IEEE operations are those of the NumPy
    scalars, without their per-operation overhead, and an overflowing sum
    becomes inf without a warning.
    """
    v = reduce_to_extrema(values).tolist()
    n = len(v)
    if n < 2:
        return 0.0
    total = 0.0
    lo = hi = v[0]
    anchor = 0.0
    cur = 0.0
    direction = 0
    for j in range(1, n):
        x = v[j]
        if direction == 0:
            if x > hi:
                hi = x
            elif x < lo:
                lo = x
            if hi - lo > delta:
                if x == hi:
                    direction = 1
                    anchor = lo
                    cur = hi
                else:
                    direction = -1
                    anchor = hi
                    cur = lo
        elif direction == 1:
            if x > cur:
                cur = x
            elif cur - x > delta:
                total += cur - anchor - delta
                anchor = cur
                cur = x
                direction = -1
        else:
            if x < cur:
                cur = x
            elif x - cur > delta:
                total += anchor - cur - delta
                anchor = cur
                cur = x
                direction = 1
    if direction == 1:
        total += cur - anchor - delta
    elif direction == -1:
        total += anchor - cur - delta
    return float(total)


def pvar_sum(values, p):
    """Max of sum |increment|^p over subsequences (the p-variation V^p).

    Dynamic program over the extrema-reduced sequence v: best[j], the V^p of
    v[:j+1], is the max over i < j of best[i] + |v[j] - v[i]|^p, and the
    optimal subsequence always ends at the last sample, so best[-1] is the
    answer.  p = 1 short-circuits to the total variation, `tv_delta` at
    delta = 0, so V^1 and TV^0 are the same sum in the same order.

    Only backward records are scanned.  best never decreases, so i is
    dominated by any later i' whose value is at least as far from v[j].  At a
    rising step every i < j - 1 with v[i] >= v[j-1] is beaten by j - 1: by
    that rule if v[i] <= v[j], and because best[j-1] >= best[i] +
    |v[j-1] - v[i]|^p if v[i] > v[j].  So the survivors are the strict suffix
    minima of v[:j], a monotone stack updated in amortised O(1), and a
    falling step reads the stack of suffix maxima.  Float subtraction,
    ``**`` and addition are monotone, so the pruned max is bit-for-bit the
    full one, provided the terms are computed as the full scan computes
    them, in NumPy array arithmetic (Python's float ``**`` can differ from
    NumPy's array ``**`` in the last bit).

    The pops read only values, never best, so the records each step scans
    are known before the program runs, and the work is two passes.  The
    first replays the stacks on the values alone and lists the differences
    |v[j] - v[i]| of every step whose stack holds at most SHORT_STACK
    records, in scan order; one array ``**`` turns them all into terms.
    The second runs the program: a short step adds the precomputed terms to
    its stack's best values and takes the max on Python floats, a longer
    one computes its terms and the max in arrays.  The bits
    are those of the full scan: NumPy's float64 ``**`` is elementwise, so a
    term has the same bits in one long array as in a short one; Python's
    float ``-``, ``+`` and ``max`` are the IEEE operations of NumPy's
    float64 ones; and every sum is of nonnegative terms, so no NaN reaches
    the max.  The worst case stays quadratic: in a contracting zigzag every
    extremum stays a record.
    """
    if p == 1.0:
        return tv_delta(values, 0.0)
    v = reduce_to_extrema(values)
    n = v.size
    if n < 2:
        return 0.0
    xs = v.tolist()
    # pass 1: the stacks of values alone, and the differences of the short
    # steps; a new maximum goes only onto the maxima stack (on the minima
    # stack the next step would pop it unread), a new minimum only onto the
    # minima stack
    diffs = []
    lo, hi = [xs[0]], [xs[0]]
    arrays = False
    for j in range(1, n):
        x = xs[j]
        if x > xs[j - 1]:
            k = len(lo)
            if k <= SHORT_STACK:
                diffs += [x - u for u in lo]
            else:
                arrays = True
            while hi and hi[-1] <= x:
                hi.pop()
            hi.append(x)
        else:
            k = len(hi)
            if k <= SHORT_STACK:
                diffs += [u - x for u in hi]
            else:
                arrays = True
            while lo and lo[-1] >= x:
                lo.pop()
            lo.append(x)
    terms = (np.array(diffs) ** p).tolist()
    # pass 2: the program; each stack keeps its values and best in lists,
    # and in arrays too when some step scans more than SHORT_STACK records
    if arrays:
        lo_v, lo_b = np.empty(n), np.empty(n)
        hi_v, hi_b = np.empty(n), np.empty(n)
        lo_v[0] = hi_v[0] = xs[0]
        lo_b[0] = hi_b[0] = 0.0
    lo, lo_best = [xs[0]], [0.0]
    hi, hi_best = [xs[0]], [0.0]
    s = 0
    best = 0.0
    for j in range(1, n):
        x = xs[j]
        if x > xs[j - 1]:
            k = len(lo)
            if k <= SHORT_STACK:
                best = max(map(add, lo_best, terms[s:s + k]))
                s += k
            else:
                best = (lo_b[:k] + (x - lo_v[:k]) ** p).max()
            while hi and hi[-1] <= x:
                hi.pop()
                hi_best.pop()
            k = len(hi)
            hi.append(x)
            hi_best.append(best)
            if arrays:
                hi_v[k] = x
                hi_b[k] = best
        else:
            k = len(hi)
            if k <= SHORT_STACK:
                best = max(map(add, hi_best, terms[s:s + k]))
                s += k
            else:
                best = (hi_b[:k] + (hi_v[:k] - x) ** p).max()
            while lo and lo[-1] >= x:
                lo.pop()
                lo_best.pop()
            k = len(lo)
            lo.append(x)
            lo_best.append(best)
            if arrays:
                lo_v[k] = x
                lo_b[k] = best
    return float(best)


def lazy_band(values, delta):
    """Values of the minimal-variation uniform delta/2-approximation.

    The output stays constant until the input leaves the band of half-width
    delta/2, then moves just enough to re-enter.  The starting level is the
    one that makes the first forced move cost exactly (first swing - delta):
    min + delta/2 when the first committed run goes up, max - delta/2 when it
    goes down, and the clamped initial value when there is no run at all.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    half = 0.5 * delta
    lo = hi = v[0]
    k = -1
    for j in range(1, n):
        x = v[j]
        if x > hi:
            hi = x
        elif x < lo:
            lo = x
        if hi - lo > delta:
            k = j
            break
    if k < 0:
        out[:] = min(max(v[0], hi - half), lo + half)
        return out
    g = (lo + half) if v[k] == hi else (hi - half)
    out[:k] = g
    for j in range(k, n):
        x = v[j]
        if x > g + half:
            g = x - half
        elif x < g - half:
            g = x + half
        out[j] = g
    return out
