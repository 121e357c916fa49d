"""The hot inner loops, in pure Python over NumPy arrays.

`reduce_to_extrema` keeps the endpoints and turning points of a sample
sequence; the absolute differences of consecutive extrema are its swings,
the alternating monotone runs that `truncation.swing_pieces` pairs off in
one stack pass.  `window_extrema` reduces a sequence once and then reads
the extrema of any window of it, as the Picard window search needs.  On a
list of extrema, a path's (kept on it) or a window's, `tv_delta`
evaluates the truncated variation at one threshold in a single pass,
`pvar_sum` the p-variation by a dynamic program pruned to the backward
records newer than the last earlier extremum beyond each step (exact; one
record a step on a contracting zigzag, quadratic only in the worst case, a
staircase), and `lazy_band` the band-following approximation.  Where a
loop's steps are short, it runs on Python floats, whose IEEE operations are
those of NumPy's float64 ones without NumPy's fixed cost per call:
`tv_delta` and `lazy_band` always, `pvar_sum` on every read of at most
SHORT_STACK records, with all its powers taken in one array beforehand.

Both functionals are unchanged when the path is negated, so each loop is
written once, in oriented coordinates, with one body for rising and
falling steps (a falling step is a rising step of the negated values;
negation is exact).  `tv_delta` and `lazy_band` share the search for the
first run that spans more than delta.
"""

from bisect import bisect_left, bisect_right
from operator import add

import numpy as np

# A pvar_sum step that reads at most this many records reads them on Python
# floats, a longer read in arrays (only a staircase-like stretch reads more).
# Per step, the two reads cost the same at about 24 records (p = 1.5 and 2;
# NumPy 2.4 on a 2-core Xeon VM): the array read's four NumPy calls cost
# about 4-6 us at any length, the float read about 0.2 us a record.
SHORT_STACK = 24


def backend_name():
    """Name of the kernel implementation; there is one, in pure Python."""
    return "pure"


def _plateau_starts(v):
    """Mask of the samples that differ from their predecessor (and the first)."""
    keep = np.empty(v.size, dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return keep


def _turns(w):
    """Indices of the turning points of a plateau-free sequence w.

    A comparison, not a difference, decides each direction: the two agree
    on every float, and a comparison cannot overflow.
    """
    rising = w[1:] > w[:-1]
    return (rising[1:] != rising[:-1]).nonzero()[0] + 1


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
    run = (keep.cumsum() - 1).tolist()
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


def _first_run(xs, delta):
    """The first k at which xs[:k+1] spans more than delta, with its lo and hi.

    The first committed run ends at xs[k]; it rises when xs[k] == hi.  When
    no prefix spans more than delta, k is len(xs) and lo, hi are the
    extremes of all of xs.
    """
    lo = hi = xs[0]
    for k in range(1, len(xs)):
        x = xs[k]
        if x > hi:
            hi = x
        elif x < lo:
            lo = x
        if hi - lo > delta:
            return k, lo, hi
    return len(xs), lo, hi


def tv_delta(extrema, delta):
    """Exact truncated variation of the path through `extrema`, one forward pass.

    Tracks the running extremum since the last committed turning point and
    commits a directed run once the drawdown/drawup exceeds delta; each
    completed alternation of size h contributes (h - delta).  One loop body
    serves both directions: s = +1 on a rising run and -1 on a falling one,
    and every difference it compares or adds is multiplied by s.  Negating
    a float is exact and the differences cannot round to zero unless equal,
    so each decision and each sum is that of the direct comparison.  The
    extrema are Python floats: the IEEE operations are those of the NumPy
    scalars, without their per-operation overhead, and an overflowing sum
    becomes inf (of the right sign) without a warning.
    """
    v = extrema
    n = len(v)
    if n < 2:
        return 0.0
    k, lo, hi = _first_run(v, delta)
    if k == n:
        return 0.0
    s, anchor, cur = (1.0, lo, hi) if v[k] == hi else (-1.0, hi, lo)
    total = 0.0
    for x in v[k + 1:]:
        if s * (x - cur) > 0.0:
            cur = x
        elif s * (cur - x) > delta:
            total += s * (cur - anchor) - delta
            anchor, cur, s = cur, x, -s
    return float(total + (s * (cur - anchor) - delta))


def pvar_sum(extrema, p):
    """Max of sum |increment|^p over subsequences (the p-variation V^p).

    Dynamic program over the extrema v of the path, a list of floats as
    `SampledPath._extrema` keeps it: best[j], the V^p of v[:j+1], is the max
    over i < j of best[i] + |v[j] - v[i]|^p, and the optimal subsequence
    always ends at the last sample, so best[-1] is the answer.  p = 1
    short-circuits to the total variation, `tv_delta` at delta = 0, so V^1
    and TV^0 are the same sum in the same order.

    Each step reads only the records newer than the last earlier extremum
    beyond it.  Take a rising step from v[j-1] to y = v[j]; best never
    decreases, so i is beaten by any later i' whose value is at least as far
    from y.  Two rules follow:

    - every i < j - 1 with v[i] >= v[j-1] is beaten by j - 1: by that rule if
      v[i] <= y, and because best[j-1] >= best[i] + |v[j-1] - v[i]|^p if
      v[i] > y.  So the survivors are the strict suffix minima of v[:j], a
      monotone stack updated in amortised O(1), and a falling step reads the
      stack of suffix maxima;
    - let k be the last extremum before j with v[k] > y.  Every record i < k
      is beaten by j - 1: best[k] >= best[i] + (v[k] - v[i])^p >= best[i] +
      (y - v[i])^p, best[j-1] >= best[k], and j - 1's own candidate,
      best[j-1] + (y - v[j-1])^p, is at least best[j-1].

    Each link is a monotone float operation (subtraction, NumPy's array
    ``**``, addition, and the max of the full program), so the pruned max is
    bit-for-bit the full one, provided the terms are computed as the full
    scan computes them, in NumPy array arithmetic (Python's float ``**`` can
    differ from NumPy's array ``**`` in the last bit).  k is the top of the
    suffix-maxima stack once the step has popped from it every value <= y
    (with no such k the step reads every record), so each record carries its
    index, and a bisection over the indices of the minima finds the first
    one newer than k.

    The steps of v alternate, so one loop body serves both directions: it
    runs on y = s * v, where the sign s alternates along v and is +1 at the
    end of every rising step, and keeps each stack in the orientation of
    the steps that read it (the maxima negated).  Every step then pops the
    other stack while its top is >= -y, reads its own stack from the cut
    with the differences y - u, pushes -y onto the other stack, and the two
    stacks swap roles.  Negating a float is exact, so -x - (-u) has the bits
    of u - x and each comparison is the direct one.

    The pops and the cut read only values, never best, so the records each
    step reads are known before the program runs, and the work is two
    passes.  The first replays the stacks on the values alone; it notes
    where each step pushes its record and how many records it reads, and
    lists the differences of every read of at most SHORT_STACK records, in
    read order; one array ``**`` turns them all into terms.  The second runs
    the program, cutting each stack back to where the first pass pushed: a
    short read adds the precomputed terms to its records' best values and
    takes the max on Python floats, a longer one computes its terms and the
    max in arrays.  The bits are those of the full scan: NumPy's float64
    ``**`` is elementwise, so a term has the same bits in one long array as
    in a short one; Python's float ``-``, ``+`` and ``max`` are the IEEE
    operations of NumPy's float64 ones; and every sum is of nonnegative
    terms, so no NaN reaches the max.  A contracting zigzag reads one record
    a step.  The worst case stays quadratic: on a rising staircase each
    rising step reads every earlier minimum.
    """
    if p == 1.0:
        return tv_delta(extrema, 0.0)
    v = np.array(extrema, dtype=np.float64)
    n = v.size
    if n < 2:
        return 0.0
    s = 1.0 if v[1] > v[0] else -1.0
    v[0::2] *= -s
    v[1::2] *= s
    ys = v.tolist()
    # pass 1: the stacks of values alone, and the index of each record; per
    # step, where it pushes and how many records it reads, and the
    # differences of the short reads.  A step's value goes only onto the
    # other stack, which the next step reads (on its own stack the next step
    # would pop it unread)
    diffs = []
    pushes = []
    lengths = []
    scan, other = [-ys[0]], [ys[0]]
    scan_at, other_at = [0], [0]
    arrays = False
    for j in range(1, n):
        y = ys[j]
        k = bisect_left(other, -y)
        del other[k:], other_at[k:]
        r = len(scan) - (bisect_right(scan_at, other_at[-1]) if k else 0)
        if r == 1:
            diffs.append(y - scan[-1])
        elif r <= SHORT_STACK:
            diffs += [y - u for u in scan[-r:]]
        else:
            arrays = True
        pushes.append(k)
        lengths.append(r)
        other.append(-y)
        other_at.append(j)
        scan, other = other, scan
        scan_at, other_at = other_at, scan_at
    terms = (np.array(diffs) ** p).tolist()
    # pass 2: the program; each stack keeps its best values in a list, and
    # its values and best in arrays too when some read is longer than
    # SHORT_STACK records
    scan, other = ([0.0], None, None), ([0.0], None, None)
    if arrays:
        scan = ([0.0], np.full(n, -ys[0]), np.zeros(n))
        other = ([0.0], np.full(n, ys[0]), np.zeros(n))
    t = 0
    best = 0.0
    for y, k, r in zip(ys[1:], pushes, lengths):
        bests, vals_a, bests_a = scan
        if r == 1:
            best = bests[-1] + terms[t]
            t += 1
        elif r <= SHORT_STACK:
            best = max(map(add, bests[-r:], terms[t:t + r]))
            t += r
        else:
            m = len(bests)
            best = (bests_a[m - r:m] + (y - vals_a[m - r:m]) ** p).max()
        bests, vals_a, bests_a = other
        del bests[k:]
        bests.append(best)
        if arrays:
            vals_a[k] = -y
            bests_a[k] = best
        scan, other = other, scan
    return float(best)


def lazy_band(values, delta):
    """Values of the minimal-variation uniform delta/2-approximation.

    The output stays constant until the input leaves the band of half-width
    delta/2, then moves just enough to re-enter.  The starting level is the
    one that makes the first forced move cost exactly (first swing - delta):
    min + delta/2 when the first committed run goes up, max - delta/2 when it
    goes down, and the clamped initial value when there is no run at all.
    The loop runs on Python floats, with the IEEE operations of NumPy's.
    """
    v = np.asarray(values, dtype=np.float64)
    out = np.empty(v.size, dtype=np.float64)
    if v.size == 0:
        return out
    xs = v.tolist()
    half = 0.5 * delta
    k, lo, hi = _first_run(xs, delta)
    if k == len(xs):
        out[:] = min(max(xs[0], hi - half), lo + half)
        return out
    g = (lo + half) if xs[k] == hi else (hi - half)
    out[:k] = g
    band = []
    for x in xs[k:]:
        if x > g + half:
            g = x - half
        elif x < g - half:
            g = x + half
        band.append(g)
    out[k:] = band
    return out
