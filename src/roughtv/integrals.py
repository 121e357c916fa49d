"""Riemann-Stieltjes integration and the truncated-variation bounds for it.

The existence estimate pairs two nonincreasing truncation ladders (eta_k),
(theta_k) into the series

    S = sum_k 2^k eta_{k-1} TV^{theta_k}(g) + sum_k 2^k theta_k TV^{eta_k}(f)

with eta_{-1} = sup |f - f(a)|; finite S bounds |int f dg - f(a)(g(b)-g(a))|.
The symmetric series S~ swaps the roles (theta_{-1} = sup |g(b) - g(t)|).
Both leading terms are properties of the paths, so the series read them off
the paths and a ladder holds only (eta_k)_{k>=0} and (theta_k)_{k>=0}.
Geometric ladders with doubly-exponential decay make S finite whenever both
paths carry finite p-TV norms in the Young regime 1/p + 1/q > 1, which is
where the explicit Loeve-Young type constants below come from.
"""

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadExponentsError,
    BadParameterError,
    CommonDiscontinuityError,
    InvalidPartitionError,
    NonFiniteValueError,
    NonMonotoneLadderError,
)
from .norms import p_tv_seminorm, p_var_seminorm
from .paths import (
    Mode,
    SampledPath,
    TaggedPartition,
    check_same_span,
    common_jump_times,
    merge_times,
    osc_from_end,
    osc_from_start,
    oscillation,
    read_only,
    restrict,
)
from .reports import BoundReport, bound_report
from .truncation import tv_profile

SERIES_MAX_TERMS = 100000


def require_young_regime(p, q):
    p = float(p)
    q = float(q)
    if not (p > 1 and q > 1 and 1.0 / p + 1.0 / q > 1.0):
        raise BadExponentsError(
            f"(p, q) = ({p}, {q}) outside the Young regime 1/p + 1/q > 1"
        )
    return p, q


def _check_pair(f: SampledPath, g: SampledPath):
    oscillation(f)
    oscillation(g)
    check_same_span(f, g)
    common = common_jump_times(f, g)
    if common.size:
        raise CommonDiscontinuityError(
            f"shared jump times {common[:3].tolist()}"
        )


def rs_sum(f: SampledPath, g: SampledPath, tagged: TaggedPartition, grid=None) -> float:
    """sum f(xi_k) [g(t_k) - g(t_{k-1})] over the tagged cells.

    Partition and tag indices refer to `grid` (default: the union of the two
    sample grids); both paths are evaluated there by their own rule.
    NonFiniteValueError when an oscillation or the sum overflows float64.
    """
    oscillation(f)
    oscillation(g)
    check_same_span(f, g)
    if grid is None:
        grid = merge_times(f, g)
    part = tagged.partition
    part.validate_for(len(grid))
    if part.n_cells < 1:
        raise InvalidPartitionError("need at least one cell")
    cell_times = grid[np.asarray(part.indices, dtype=np.intp)]
    tag_times = grid[np.asarray(tagged.tags, dtype=np.intp)]
    g_vals = g.values_at(cell_times)
    f_vals = f.values_at(tag_times)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_integral(float((f_vals * (g_vals[1:] - g_vals[:-1])).sum()))


@dataclass(frozen=True)
class IntegralResult:
    value: float
    partitions_used: int


def _pair_memo(f: SampledPath, g: SampledPath, key, build):
    """build(), kept under `key` in the one slot f holds for g.

    The paths never change, so f keeps one slot, for the last g it was asked
    with (matched by identity).  The slot is filled once (f, g) passes
    `_check_pair`, so the checks of one pair validate it once, and always as
    given: centering f can round a jump of f away.  Each entry ("cells",
    "running", "centered") is built on first request, so a check never pays
    for, or fails on, an entry it does not read.
    """
    slot = f.__dict__.get("_pair_slot")
    if slot is None or slot["g"] is not g:
        _check_pair(f, g)
        slot = f.__dict__["_pair_slot"] = {"g": g}
    if key not in slot:
        slot[key] = build()
    return slot[key]


def _exact_cells(f: SampledPath, g: SampledPath):
    """The merged grid and the exact per-cell values tag * [g(t_k) - g(t_{k-1})].

    On a cell of the merged grid a linear path is affine and a step path is
    constant, jumping at most at the cell's right end.  Without common
    jumps (`_check_pair`, which the callers run) f is continuous wherever g
    jumps and one tag per cell is exact: f(t_{k-1}) for a step f, f(t_k)
    for a linear f against a step g, and the trapezoid mean for two linear
    paths.  Both arrays are `read_only`.  NonFiniteValueError when a cell
    overflows float64.
    """
    grid = merge_times(f, g)
    fv = f.values_at(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        if f.mode is Mode.STEP:
            tags = fv[:-1]
        elif g.mode is Mode.STEP:
            tags = fv[1:]
        else:
            tags = 0.5 * (fv[:-1] + fv[1:])
        gv = g.values_at(grid)
        cells = _finite_integral(tags * (gv[1:] - gv[:-1]))
    return read_only(grid), read_only(cells)


def _cells(f: SampledPath, g: SampledPath):
    """`_exact_cells` of the validated pair, kept in f's slot for g."""
    return _pair_memo(f, g, "cells", lambda: _exact_cells(f, g))


def _finite_integral(values):
    if not np.isfinite(values).all():
        raise NonFiniteValueError("Riemann-Stieltjes integral overflows float64")
    return values


def _running(grid, cells, mode) -> SampledPath:
    with np.errstate(over="ignore", invalid="ignore"):
        running = cells.cumsum()
    return SampledPath(grid, np.concatenate(([0.0], _finite_integral(running))), mode)


def rs_integral(f: SampledPath, g: SampledPath) -> IntegralResult:
    """int f dg over the common span: the sum of the exact cells of `_cells`."""
    grid, cells = _cells(f, g)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(cells.sum())
    return IntegralResult(_finite_integral(total), grid.size - 1)


def indefinite_integral(f: SampledPath, g: SampledPath) -> SampledPath:
    """Running integral t -> int_a^t f dg, sampled on the merged grid.

    The values are the cumulative sums of the `_cells` of rs_integral.  The
    path takes g's mode: between samples the running integral jumps with a
    step g and is affine for a step f against a linear g; for two linear
    paths it is quadratic on each cell, so only the samples are exact.  It
    is kept in f's slot for g, so its extrema, swing pieces and profile are
    built once per pair.
    """
    return _pair_memo(f, g, "running", lambda: _running(*_cells(f, g), g.mode))


def _centered_integral(f: SampledPath, g: SampledPath) -> SampledPath:
    """t -> int_a^t [f - f(a)] dg, kept in f's slot for g beside int f dg.

    The cells are the `_exact_cells` of the path f - f(a), the values
    `shift_path(f, -f(a))` would hold.
    """
    def build():
        centered = SampledPath(f.times, f.values - f.values[0], f.mode)
        return _running(*_exact_cells(centered, g), g.mode)

    return _pair_memo(f, g, "centered", build)


@dataclass(frozen=True)
class TruncationLadder:
    """Paired nonincreasing truncation sequences: etas truncate f, thetas g.

    Both are kept as `read_only` arrays: the series trust a validated ladder
    and never check it again.
    """

    etas: np.ndarray
    thetas: np.ndarray

    def __post_init__(self):
        etas = read_only(self.etas)
        thetas = read_only(self.thetas)
        if etas.size != thetas.size or etas.size == 0:
            raise NonMonotoneLadderError("ladders must be paired and nonempty")
        if etas.ndim != 1 or thetas.ndim != 1:
            raise NonMonotoneLadderError("ladders must be 1-d sequences")
        # a ladder has a few dozen terms: Python floats check them faster
        # than a NumPy call per test
        for name, seq in (("eta", etas.tolist()), ("theta", thetas.tolist())):
            if not all(0.0 <= x < math.inf for x in seq):  # NaN fails too
                raise NonMonotoneLadderError(f"{name} terms must be finite and >= 0")
            if sorted(seq, reverse=True) != seq:  # -0.0 == 0.0, so ties pass
                raise NonMonotoneLadderError(f"{name} sequence must be nonincreasing")
        object.__setattr__(self, "etas", etas)
        object.__setattr__(self, "thetas", thetas)

    def __len__(self):
        return self.etas.size


def _ladder_rates(p, q):
    """alpha = (sqrt((q-1)(p-1)) + 1)/2 and r = alpha^2 / [(q-1)(p-1)]."""
    prod = (q - 1.0) * (p - 1.0)
    alpha = (math.sqrt(prod) + 1.0) / 2.0
    return alpha, alpha * alpha / prod


def ladder_geometric(p, q, beta, gamma) -> TruncationLadder:
    """The doubly-exponential ladder that makes S converge in the Young regime.

    With r = alpha^2 / [(q-1)(p-1)] and alpha = (sqrt((q-1)(p-1)) + 1)/2:

        eta_{k-1} = beta  * 2^(-r^k + 1)
        theta_k   = gamma * 2^(-r^k * alpha/(q-1))

    truncated once both streams underflow to zero.  `default_ladder_pair`
    picks beta = sup |f - f(a)|, so eta_{-1} = beta.
    """
    p, q = require_young_regime(p, q)
    if not (0 <= beta < math.inf and 0 <= gamma < math.inf):
        raise NonMonotoneLadderError("beta and gamma must be finite and >= 0")
    alpha, ratio = _ladder_rates(p, q)
    theta_exp = alpha / (q - 1.0)
    etas = []
    thetas = []
    power = ratio  # r^(k+1) drives eta_k, r^k drives theta_k
    k = 0
    while True:
        eta_k = beta * 2.0 ** (-power + 1.0)
        theta_k = gamma * 2.0 ** (-(power / ratio) * theta_exp)
        etas.append(eta_k)
        thetas.append(theta_k)
        if eta_k == 0.0 and theta_k == 0.0:
            break
        k += 1
        if k > SERIES_MAX_TERMS:
            raise BadExponentsError("(p, q) too close to the Young regime boundary")
        power *= ratio
    return TruncationLadder(etas, thetas)


def default_ladder_s(f: SampledPath, g: SampledPath, p, q) -> TruncationLadder:
    """The ladder for S with the constants the Young-regime proof picks.

    beta is sup |f - f(a)| and gamma the V^p/V^q balancing factor.
    """
    p, q, pv_f, pv_g = _pvar_pair(f, g, p, q)
    return _geometric_for(osc_from_start(f), p, q, pv_f, pv_g)


def default_ladder_pair(f: SampledPath, g: SampledPath, p, q):
    """The ladder of `default_ladder_s` and the one for S~.

    The symmetric ladder is the mirrored construction keyed to
    sup |g(b) - g(t)|.
    """
    p, q, pv_f, pv_g = _pvar_pair(f, g, p, q)
    ladder_s = _geometric_for(osc_from_start(f), p, q, pv_f, pv_g)
    mirror = _geometric_for(osc_from_end(g), q, p, pv_g, pv_f)
    return ladder_s, TruncationLadder(etas=mirror.thetas, thetas=mirror.etas)


def _pvar_pair(f, g, p, q):
    p, q = require_young_regime(p, q)
    return p, q, p_var_seminorm(f, p), p_var_seminorm(g, q)


def _geometric_for(beta, p, q, pv_x, pv_y):
    return ladder_geometric(p, q, beta, _balance(pv_x, p, pv_y, q, beta))


def _balance(pv_x, p, pv_y, q, beta):
    """(V^q(y) / V^p(x))^(1/q) beta^(p/q), or 1 when pv_x or pv_y is 0.

    Where that form overflows or underflows to 0 (extreme scales, or p/q > 1
    with a large beta), the same quantity is taken as
    pv_y (beta / pv_x)^(p/q), which stays below pv_y since beta <= pv_x;
    every finite, nonzero gamma of the first form keeps its bits.
    """
    if pv_x == 0.0 or pv_y == 0.0:
        return 1.0
    with contextlib.suppress(OverflowError):  # a Python float power
        gamma = (pv_y ** q / pv_x ** p) ** (1.0 / q) * beta ** (p / q)
        if 0.0 < gamma < math.inf:
            return gamma
    return pv_y * (beta / pv_x) ** (p / q)


def _ldexp_capped(x, k):
    # math.ldexp raises on overflow; the series code wants the inf flag
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def _ladder_series(x_minus1, xs, ys, prof_x, prof_y, terms=None):
    """Sums of the per-k pairs (2^k x_{k-1} TV^{y_k}(Y), 2^k y_k TV^{x_k}(X)).

    Returns (total, first_sum, second_sum); total adds the first and then the
    second term at each k, and x_{-1} = x_minus1.  A stored ladder stands for
    its zero-extension: past the prefix only the crossover term
    2^(K+1) x_K TV^0(Y) survives, so k stops at K + 1 unless `terms` stops it
    sooner.  A zero factor gives 0 without the other, so 2^k x = inf never
    meets TV = 0.  The terms are >= 0 and never NaN.
    """
    last = len(xs) - 1
    total = first_sum = second_sum = 0.0
    for k in range(last + 2 if terms is None else terms):
        x_prev = x_minus1 if k == 0 else float(xs[k - 1])
        y_k = float(ys[k]) if k <= last else 0.0
        first = second = 0.0
        if x_prev != 0.0:
            tv_y = prof_y.value(y_k)
            if tv_y != 0.0:
                first = _ldexp_capped(x_prev, k) * tv_y
        if y_k != 0.0:
            tv_x = prof_x.value(xs[k])
            if tv_x != 0.0:
                second = _ldexp_capped(y_k, k) * tv_x
        total += first
        total += second
        first_sum += first
        second_sum += second
    return total, first_sum, second_sum


def young_bound_S(f: SampledPath, g: SampledPath, ladder: TruncationLadder) -> float:
    """The series S for this pair, led by eta_{-1} = sup |f - f(a)|."""
    return _ladder_series(osc_from_start(f), ladder.etas, ladder.thetas,
                          tv_profile(f), tv_profile(g))[0]


def young_bound_S_tilde(f: SampledPath, g: SampledPath, ladder: TruncationLadder) -> float:
    """The mirrored series S~, led by theta_{-1} = sup |g(b) - g(t)|."""
    return _ladder_series(osc_from_end(g), ladder.thetas, ladder.etas,
                          tv_profile(g), tv_profile(f))[0]


def lemma_sum_bound(f, g, tagged: TaggedPartition, deltas, epsilons) -> float:
    """Finite tagged-sum bound including the n*delta_r*epsilon_r remainder.

    Partition indices refer to the merged sample grid of f and g.
    delta_{-1} is sup |f - f(c)| on the partition's own span [c; d].
    """
    check_same_span(f, g)
    grid = merge_times(f, g)
    part = tagged.partition
    part.validate_for(len(grid))
    c = float(grid[part.indices[0]])
    d = float(grid[part.indices[-1]])
    f_cd = restrict(f, c, d)
    g_cd = restrict(g, c, d)
    ladder = TruncationLadder(deltas, epsilons)
    # the ladder stops at r = size - 1, where the remainder replaces the tail
    bound, _, _ = _ladder_series(osc_from_start(f_cd), ladder.etas, ladder.thetas,
                                 tv_profile(f_cd), tv_profile(g_cd), terms=len(ladder))
    # Python floats: an overflowing remainder is inf without a NumPy warning
    return bound + part.n_cells * float(ladder.etas[-1]) * float(ladder.thetas[-1])


def _series_sum(term):
    """Sum of term(k) over k >= 0, up to the first term that cannot change it.

    The terms 2^(k + c - d r^k), d > 0 and r > 1, rise and then fall, so
    only smaller terms follow one too small to change the float total.  The
    sum is the float total, never capped: a term whose power overflows
    counts as inf, and an inf total stops the sum, since nothing changes it.
    A report built on an inf constant raises NonFiniteValueError.
    """
    total = 0.0
    k = 0
    while True:
        try:
            t = term(k)
        except OverflowError:
            t = math.inf
        if total + t == total:
            return total
        total += t
        k += 1
        if k > SERIES_MAX_TERMS:
            raise BadExponentsError("series did not settle; regime too extreme")


def _constant_series(p, q, lead):
    """The series behind C, D and E, summed over k:

    2^(k + lead - (1-alpha) r^k)  and  2^(k + 2 - (1-alpha) r^k alpha/(q-1) - p).
    """
    alpha, ratio = _ladder_rates(p, q)
    one = _series_sum(lambda k: 2.0 ** (k + lead - (1.0 - alpha) * ratio ** k))
    two = _series_sum(
        lambda k: 2.0 ** (k + 2.0 - (1.0 - alpha) * ratio ** k * alpha / (q - 1.0) - p)
    )
    return one, two


def loeve_young_constant(p, q) -> float:
    """C_{p,q}: the larger of the two geometric-ladder series."""
    p, q = require_young_regime(p, q)
    return max(_constant_series(p, q, lead=2.0))


@functools.lru_cache
def d_e_constants(p, q):
    """(D_{p,q}, E_{p,q}) for the indefinite-integral norm bound.

    E is implemented exactly as printed, E = (p-1)^(1-1/p) p^-1 D, and is
    reported informationally by the checks (only the D-form is asserted).
    Memoised: every solve asks once or twice (79 calls in one benchmark
    picard-solve cycle) and every integral-norm check once, for few
    distinct pairs, and an uncached call sums two ladder series (about
    9 us on a 2-core Xeon VM, Python 3.11).
    """
    p, q = require_young_regime(p, q)
    one, two = _constant_series(p, q, lead=1.0)
    d = math.inf
    with contextlib.suppress(OverflowError):  # two^(q-1) with q > 2
        d = (one * two ** (q - 1.0)) ** (1.0 / q)
    if math.isinf(d):
        # near the regime boundary the product overflows before its root;
        # the split form is the same quantity, used only here so every
        # finite D keeps its bits
        d = one ** (1.0 / q) * two ** ((q - 1.0) / q)
    e = (p - 1.0) ** (1.0 - 1.0 / p) / p * d
    return d, e


def _tag_gaps(f, g):
    """int f dg with its gaps from the tagged single-cell sums f(xi) dg.

    Returns (integral, |int f dg - f(a) dg|, the sup over xi in [a; b] of
    |int f dg - f(xi) dg|, an xi attaining it).  f(xi) fills [min f; max f],
    both ends taken at samples (interpolation and steps never leave the
    sample range), and |I - y dg| is convex in y, so the sup is at the first
    sample where f is largest or the first where it is smallest, the earlier
    on a tie.  NonFiniteValueError when max f dg or min f dg, and so when
    any f(xi) dg, overflows float64.
    """
    integral = rs_integral(f, g).value
    dg = float(g.values[-1] - g.values[0])
    ends = sorted((int(f.values.argmax()), int(f.values.argmin())))
    tagged = [float(f.values[i]) * dg for i in ends]
    if not all(map(math.isfinite, tagged)):
        raise NonFiniteValueError("tagged sum f(xi) dg overflows float64")
    gaps = [abs(integral - t) for t in tagged]
    worst = int(gaps[1] > gaps[0])
    left = abs(integral - float(f.values[0]) * dg)
    return integral, left, gaps[worst], float(f.times[ends[worst]])


def _left_factor(const, norm_f, osc_f, p, q):
    """const |f|^(p - p/q) osc(f)^(1 + p/q - p): the f-side of the left-form bounds."""
    return const * norm_f ** (p - p / q) * osc_f ** (1.0 + p / q - p)


_SEMINORMS = {"pvar": p_var_seminorm, "ptv": p_tv_seminorm}
_LOEVE_FORMS = {"left": "left", "right": "right-symmetric", "xi": "midpoint-xi"}


def _loeve_young_report(f, g, p, q, family, form):
    """One Loeve-Young style report, from `family`'s two seminorms alone.

    family is "pvar" or "ptv", form one of `_LOEVE_FORMS`' values; every ptv
    rhs is dominated by the matching pvar rhs.
    """
    p, q = require_young_regime(p, q)
    integral, lhs, lhs_xi, worst_xi = _tag_gaps(f, g)
    c_const = loeve_young_constant(p, q)
    nf, ng = _SEMINORMS[family](f, p), _SEMINORMS[family](g, q)
    osc_f, osc_g = oscillation(f), oscillation(g)
    extras = {"integral": integral}
    if form == "left":
        rhs = _left_factor(c_const, nf, osc_f, p, q) * ng
    elif form == "right-symmetric":
        rhs = c_const * nf * ng ** (q - q / p) * osc_g ** (1.0 + q / p - q)
    else:
        lhs = lhs_xi
        extras["worst_xi"] = worst_xi
        rhs = 0.0 if nf == 0.0 or ng == 0.0 else 2.0 * c_const * nf * ng * min(
            (osc_f / nf) ** (1.0 + p / q - p), (osc_g / ng) ** (1.0 + q / p - q))
    return bound_report(lhs, rhs, c_const, f"loeve-{family}-{form}", extras)


def loeve_young_reports(f, g, p, q):
    """All six Loeve-Young style reports for the pair.

    Keys are "<family>/<form>" for family in {pvar, ptv} and form in
    {left, right-symmetric, midpoint-xi}; each report is the one `bounds`
    prints for its variant.
    """
    return {f"{family}/{form}": _loeve_young_report(f, g, p, q, family, form)
            for form in _LOEVE_FORMS.values() for family in _SEMINORMS}


def young_series_check(f, g, p, q) -> BoundReport:
    """|int f dg - f(a) dg| against the series S with the default ladders."""
    s = young_bound_S(f, g, default_ladder_s(f, g, p, q))
    integral, lhs, _, _ = _tag_gaps(f, g)
    return bound_report(lhs, s, s, "young-s", {"integral": integral})


def min_series_check(f, g, p, q) -> BoundReport:
    """|int f dg - f(xi) dg| <= 2 min(S, S~) at the worst tag xi in [a; b]."""
    ladder_s, ladder_st = default_ladder_pair(f, g, p, q)
    s = young_bound_S(f, g, ladder_s)
    st = young_bound_S_tilde(f, g, ladder_st)
    integral, _, lhs, _ = _tag_gaps(f, g)
    rhs = 2.0 * min(s, st)
    return bound_report(lhs, rhs, rhs, "min-series",
                        {"S": s, "S_tilde": st, "integral": integral})


_INTEGRAL_VARIANTS = ("ptv-theorem", "ptv-corollary", "pvar-remark")


def integral_norm_check(f, g, p, q, variant="ptv-theorem") -> BoundReport:
    """Norm of the indefinite integral against its a-priori bound.

    ptv-theorem: q-TV seminorm of int [f - f(a)] dg vs the D-constant bound.
    ptv-corollary: same lhs vs E * |f|_pTV * |g|_qTV (informational; see
    d_e_constants).
    pvar-remark: q-variation seminorm of int f dg vs the C-constant bound;
    the integral has g's regularity, so it is measured with g's exponent.
    Both integrals are read from f's slot for g (`_pair_memo`).
    """
    if variant not in _INTEGRAL_VARIANTS:
        raise BadParameterError(f"unknown variant {variant}")
    p, q = require_young_regime(p, q)
    if variant == "pvar-remark":
        lhs = p_var_seminorm(indefinite_integral(f, g), q)
        c_const = loeve_young_constant(p, q)
        pv_f = p_var_seminorm(f, p)
        sup_f = float(np.max(np.abs(f.values)))
        rhs = (_left_factor(c_const, pv_f, oscillation(f), p, q) + sup_f) \
            * p_var_seminorm(g, q)
        return bound_report(lhs, rhs, c_const, "integral-pvar-remark")
    lhs = p_tv_seminorm(_centered_integral(f, g), q)
    d_const, e_const = d_e_constants(p, q)
    tv_f = p_tv_seminorm(f, p)
    tv_g = p_tv_seminorm(g, q)
    if variant == "ptv-theorem":
        rhs = _left_factor(d_const, tv_f, oscillation(f), p, q) * tv_g
        return bound_report(lhs, rhs, d_const, "integral-ptv-theorem",
                            {"E": e_const})
    rhs = e_const * tv_f * tv_g
    return bound_report(lhs, rhs, e_const, "integral-ptv-corollary",
                        {"D": d_const, "asserted": False})


def gamma_level_check(f, g, ladder: TruncationLadder) -> BoundReport:
    """TV at level gamma of the indefinite integral vs the g-side series.

    gamma = 2 sum 2^k theta_k TV^{eta_k}(f); the bound is
    sum 2^k eta_{k-1} TV^{theta_k}(g) with eta_{-1} = sup |f - f(a)|.  The
    integral int [f - f(a)] dg is read from f's slot for g (`_pair_memo`).
    """
    _, g_side, f_side = _ladder_series(osc_from_start(f), ladder.etas, ladder.thetas,
                                       tv_profile(f), tv_profile(g))
    gamma = 2.0 * f_side
    lhs = tv_profile(_centered_integral(f, g)).value(gamma)
    return bound_report(lhs, g_side, gamma, "gamma-level", {"gamma": gamma})


# Every `roughtv bounds --variant`, in the order its usage message lists them.
BOUND_CHECKS = {
    **{f"loeve-{fam}-{name}": functools.partial(_loeve_young_report, family=fam, form=form)
       for fam in _SEMINORMS for name, form in _LOEVE_FORMS.items()},
    "young-s": young_series_check,
    "min-series": min_series_check,
    **{f"integral-{variant}": functools.partial(integral_norm_check, variant=variant)
       for variant in _INTEGRAL_VARIANTS},
    "gamma-level-ladder":
        lambda f, g, p, q: gamma_level_check(f, g, default_ladder_s(f, g, p, q)),
}
