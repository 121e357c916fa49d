"""p-variation and the truncated-variation seminorm/norm machinery.

The seminorm is sup over delta > 0 of (delta^(p-1) * TV^delta)^(1/p).  On
each affine piece a - b*delta of the TV profile the inner function is
maximised analytically at delta = a(p-1)/(pb), so the global supremum is an
exact finite maximisation, never a grid search.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BadExponentError, BadExponentOrderError, NegativeIncrementError
from .paths import SampledPath, finite_oscillation, oscillation, restrict
from .reports import BoundReport, bound_report
from .truncation import TvProfile, swing_profile, tv_profile


def c_p(p) -> float:
    """(p-1)^(p-1) / p^p, the value of sup_delta delta^(p-1)(x-delta)_+ at x=1."""
    p = float(p)
    if not p > 1:
        raise BadExponentError("c_p needs p > 1")
    return float((p - 1.0) ** (p - 1.0) / p ** p)


def p_variation(path: SampledPath, p) -> float:
    """V^p: max of sum |increment|^p over sample subsequences.

    NonFiniteValueError when the oscillation overflows float64.
    """
    p = float(p)
    if not p >= 1:
        raise BadExponentError("p-variation needs p >= 1")
    finite_oscillation(path.values)
    return kernels.pvar_sum(path.values, p)


def p_var_seminorm(path: SampledPath, p) -> float:
    """(V^p)^(1/p)."""
    return p_variation(path, p) ** (1.0 / float(p))


def partition_sup_delta(increments, p) -> float:
    """Exact sup over delta of (delta^(p-1) sum (x_i - delta)_+)^(1/p).

    Evaluated through the nondecreasing rearrangement x*: the supremum equals
    max over j of (m-j+1)^(1/p-1) * c_p^(1/p) * sum_{i>=j} x*_i.
    """
    p = float(p)
    if not p > 1:
        raise BadExponentError("needs p > 1")
    xs = np.asarray(increments, dtype=np.float64)
    if xs.size == 0:
        return 0.0
    if not np.all(np.isfinite(xs)) or np.any(xs < 0):
        raise NegativeIncrementError("increments must be finite and >= 0")
    xs = np.sort(xs)
    suffix = np.cumsum(xs[::-1])[::-1]
    counts = np.arange(xs.size, 0, -1, dtype=np.float64)
    scale = c_p(p) ** (1.0 / p)
    return float(np.max(counts ** (1.0 / p - 1.0) * suffix) * scale)


def _max_on_profile(profile: TvProfile, p):
    """Maximise delta^(p-1) * profile(delta); ties resolve to smaller delta."""
    best = 0.0
    best_delta = 0.0
    bp = profile.breakpoints
    pm1 = p - 1.0
    for j in range(profile.n_segments):
        lo = bp[j]
        hi = bp[j + 1]
        a = profile.coef_a[j]
        b = profile.coef_b[j]
        cands = [lo, hi]
        if b > 0.0:
            star = a * pm1 / (p * b)
            if lo < star < hi:
                cands.append(star)
        for delta in sorted(cands):
            val = delta ** pm1 * max(a - b * delta, 0.0)
            if val > best:
                best = val
                best_delta = delta
    return best, best_delta


def p_tv_seminorm(path: SampledPath, p) -> float:
    return seminorm_with_argmax(path, p)[0]


def seminorm_with_argmax(path: SampledPath, p):
    """The p-TV seminorm plus the delta attaining it.

    p = 1 degenerates to the total variation (supremum as delta -> 0+).
    """
    p = float(p)
    if not p >= 1:
        raise BadExponentError("seminorm needs p >= 1")
    if p == 1.0:
        return kernels.tv_delta(path.values, 0.0), 0.0
    best, best_delta = _max_on_profile(tv_profile(path), p)
    return best ** (1.0 / p), best_delta


def seminorm_from_profile(profile: TvProfile, p) -> float:
    p = float(p)
    if not p > 1:
        raise BadExponentError("needs p > 1")
    best, _ = _max_on_profile(profile, p)
    return best ** (1.0 / p)


def window_seminorm(values, p) -> float:
    """The p-TV seminorm of the path through the sample values `values`.

    For a window whose ends are sample times this is `seminorm_on`:
    window_seminorm(x.values[i:j+1], p) == seminorm_on(x, t_i, t_j, p),
    since the restriction takes the samples at its ends.  It builds no path.
    """
    p = float(p)
    if p == 1.0:
        return kernels.tv_delta(values, 0.0)
    return seminorm_from_profile(swing_profile(values), p)


def seminorm_on(path: SampledPath, c, d, p) -> float:
    """Seminorm of the restriction to [c; d], for any c < d in the span.

    When c and d are sample times, `window_seminorm` of the value slice
    gives the same number without building the restriction.
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
    const = (2.0 ** (q + p - 1.0) / (2.0 ** (q - p) - 1.0)) ** (1.0 / q)
    osc = oscillation(path)
    sem = p_tv_seminorm(path, p)
    rhs = const * osc ** (1.0 - p / q) * sem ** (p / q)
    return bound_report(lhs, rhs, const, "qvar-from-ptv",
                        extras={"osc": osc, "p_tv_seminorm": sem})
