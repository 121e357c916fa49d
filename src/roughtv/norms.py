"""p-variation and the truncated-variation seminorm/norm machinery.

The seminorm is sup over delta > 0 of (delta^(p-1) * TV^delta)^(1/p).  The
profile delta -> TV^delta is convex and piecewise affine, so each piece
a - b*delta is a minorant of it and the supremum is the largest single-piece
peak, at delta = a(p-1)/(pb): a closed form, never a grid or segment search.
At p = 1 every peak sits at delta = 0 and the largest is the total variation.

Every seminorm takes one route: the path's extrema
(`kernels.reduce_to_extrema`, as Python floats), their pieces
(`truncation.swing_pieces`), then the largest peak over those pieces.  A
`SampledPath` keeps its extrema and its `TvProfile`, which holds the pieces
as lists, so the seminorms of one path at many p reduce it once.  At p = 1
the pieces only guard the overflow and the total variation is summed in
path order (`kernels.tv_delta` at 0), so that it has the bits of
`total_variation` and of V^1.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BadExponentError,
    BadExponentOrderError,
    NegativeIncrementError,
    NonFiniteValueError,
)
from .paths import SampledPath, oscillation, restrict
from .reports import BoundReport, bound_report
from .truncation import swing_pieces


def c_p(p) -> float:
    """(p-1)^(p-1) / p^p, the value of sup_delta delta^(p-1)(x-delta)_+ at x=1."""
    p = float(p)
    if not 1 < p < math.inf:
        raise BadExponentError("c_p needs p > 1")
    return float((p - 1.0) ** (p - 1.0) / p ** p)


def p_variation(path: SampledPath, p) -> float:
    """V^p: max of sum |increment|^p over sample subsequences.

    `kernels.pvar_sum` on the path's kept extrema, the ones its seminorms
    read.  NonFiniteValueError when the oscillation or the sum overflows
    float64.
    """
    p = float(p)
    if not 1 <= p < math.inf:
        raise BadExponentError("p-variation needs p >= 1")
    oscillation(path)
    with np.errstate(over="ignore"):
        total = kernels.pvar_sum(path._extrema, p)
    if not math.isfinite(total):
        raise NonFiniteValueError("p-variation overflows float64")
    return total


def p_var_seminorm(path: SampledPath, p) -> float:
    """(V^p)^(1/p)."""
    return p_variation(path, p) ** (1.0 / float(p))


def partition_sup_delta(increments, p) -> float:
    """Exact sup over delta of (delta^(p-1) sum (x_i - delta)_+)^(1/p).

    delta -> sum (x_i - delta)_+ is a profile: between consecutive sorted
    increments it is the sum of the larger ones minus their number times
    delta, so its largest piece peak is the supremum.
    """
    xs = np.asarray(increments, dtype=np.float64)
    if not np.all(np.isfinite(xs)) or np.any(xs < 0):
        raise NegativeIncrementError("increments must be finite and >= 0")
    suffix = np.cumsum(np.sort(xs)[::-1])[::-1]
    counts = np.arange(xs.size, 0, -1, dtype=np.float64)
    return _largest_peak(suffix.tolist(), counts.tolist(), p)[0]


def _largest_peak(coef_a, coef_b, p):
    """The seminorm over the pieces a - b*delta and the delta attaining it.

    Each piece peaks at delta = a(p-1)/(pb); the first largest peak wins.
    NonFiniteValueError when the supremum overflows float64.
    """
    p = float(p)
    if not 1 <= p < math.inf:
        raise BadExponentError("seminorm needs p >= 1")
    pm1 = p - 1.0
    best = best_delta = 0.0
    for a, b in zip(coef_a, coef_b):
        delta = a * pm1 / (p * b)
        try:
            value = delta ** pm1 * (a - b * delta)
        except OverflowError:  # a Python float power beyond float64
            value = math.inf
        if value > best:
            best, best_delta = value, delta
    if best == math.inf:
        raise NonFiniteValueError("p-TV seminorm overflows float64")
    return best ** (1.0 / p), best_delta


def p_tv_seminorm(path: SampledPath, p) -> float:
    return seminorm_with_argmax(path, p)[0]


def seminorm_with_argmax(path: SampledPath, p):
    """The p-TV seminorm plus the delta attaining it.

    p = 1 gives the total variation, attained at delta = 0.
    """
    return _pieces_peak(path._extrema, path._profile.pieces, p)


def extrema_seminorm(extrema, p) -> float:
    """The p-TV seminorm of the path through the extrema list `extrema`.

    `extrema` is a list of floats as `kernels.reduce_to_extrema(...).tolist()`
    or `kernels.window_extrema` leaves them.  It is the route of every
    seminorm minus the reduction, so that the Picard window searches can
    judge thousands of short windows read from one reduction of the driver.
    """
    return _pieces_peak(extrema, swing_pieces(extrema), p)[0]


def _pieces_peak(extrema, pieces, p):
    _, coef_a, coef_b = pieces
    if p == 1:  # TV^0, summed in path order as `total_variation` sums it
        return kernels.tv_delta(extrema, 0.0), 0.0
    return _largest_peak(coef_a, coef_b, p)


def seminorm_on(path: SampledPath, c, d, p) -> float:
    """Seminorm of the restriction to [c; d], for any c < d in the span.

    It always builds the restriction.  When c and d are sample times t_i
    and t_j, `extrema_seminorm` of the extrema of the value slice
    values[i:j+1] gives the same number without building it; that shortcut
    is the one the Picard window search takes, not this function.
    """
    return p_tv_seminorm(restrict(path, c, d), p)


@dataclass(frozen=True)
class NormReport:
    p: float
    seminorm: float
    full_norm: float
    argmax_delta: float
    pvar: float
    osc: float


def tv_p_full_norm(path: SampledPath, p) -> NormReport:
    """|f(a)| + seminorm, with the auxiliary quantities it is compared to."""
    p = float(p)
    sem, arg = seminorm_with_argmax(path, p)
    return NormReport(
        p=p,
        seminorm=sem,
        full_norm=abs(float(path.values[0])) + sem,
        argmax_delta=arg,
        pvar=p_var_seminorm(path, p),
        osc=oscillation(path),
    )


def embedding_bound(path: SampledPath, p, q) -> BoundReport:
    """q-variation controlled by oscillation and the p-TV seminorm (q > p)."""
    p = float(p)
    q = float(q)
    if not (q > p >= 1):
        raise BadExponentOrderError("needs q > p >= 1")
    lhs = p_var_seminorm(path, q)
    # 2^(q+p-1) / (2^(q-p) - 1) with 2^(q-p) divided out, so no power overflows
    const = (2.0 ** (2.0 * p - 1.0) / -math.expm1((p - q) * math.log(2.0))) ** (1.0 / q)
    osc = oscillation(path)
    sem = p_tv_seminorm(path, p)
    rhs = const * osc ** (1.0 - p / q) * sem ** (p / q)
    return bound_report(lhs, rhs, const, "qvar-from-ptv",
                        extras={"osc": osc, "p_tv_seminorm": sem})
