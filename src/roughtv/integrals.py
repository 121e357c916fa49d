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
    shift_path,
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


def rs_sum(pair, tagged: TaggedPartition) -> float:
    """sum f(xi_k) [g(t_k) - g(t_{k-1})] over the tagged cells.

    Partition and tag indices refer to `pair.grid`; both paths are
    evaluated there by their own rule.  NonFiniteValueError when the sum
    overflows float64.
    """
    grid = pair.grid
    part = tagged.partition
    part.validate_for(len(grid))
    if part.n_cells < 1:
        raise InvalidPartitionError("need at least one cell")
    cell_times = grid[np.asarray(part.indices, dtype=np.intp)]
    tag_times = grid[np.asarray(tagged.tags, dtype=np.intp)]
    g_vals = pair.g.values_at(cell_times)
    f_vals = pair.f.values_at(tag_times)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_integral(float((f_vals * (g_vals[1:] - g_vals[:-1])).sum()))


@dataclass(frozen=True)
class SampledPair:
    """An integrand f and an integrator g, checked once by `_check_pair`.

    The check reads f as given: centering f can round a jump of f away.
    Every routine here that reads two paths takes a pair, so the check runs
    in this one place.  What the checks read of it is built on first use
    and kept, over `read_only` arrays, so a check never pays for, or fails
    on, the rest, and one pair serves every check of a request.  It is kept
    on the pair, never on f or g.
    """

    f: SampledPath
    g: SampledPath

    def __post_init__(self):
        _check_pair(self.f, self.g)

    @functools.cached_property
    def grid(self):
        return read_only(merge_times(self.f, self.g))

    @functools.cached_property
    def dg(self):
        """g's increment over each cell of the grid."""
        gv = self.g.values_at(self.grid)
        return read_only(gv[1:] - gv[:-1])

    @functools.cached_property
    def cells(self):
        return _exact_cells(self.f, self.g.mode, self.grid, self.dg)

    @functools.cached_property
    def integral(self):
        """int f dg over the common span: the sum of the exact `cells`.

        NonFiniteValueError when the sum overflows float64.
        """
        return _total(self.cells)

    @functools.cached_property
    def running(self):
        """Running integral t -> int_a^t f dg, sampled on the grid.

        The values are the cumulative sums of the cells.  The path takes g's
        mode: between samples the running integral jumps with a step g and
        is affine for a step f against a linear g; for two linear paths it
        is quadratic on each cell, so only the samples are exact.
        NonFiniteValueError when a running sum overflows float64.
        """
        return _running(self.grid, self.cells, self.g.mode)

    @functools.cached_property
    def centered_cells(self):
        """The cells of f - f(a), `shift_path(f, -f(a))`: v + (-f(a)) is v - f(a)."""
        centered = shift_path(self.f, -float(self.f.values[0]))
        return _exact_cells(centered, self.g.mode, self.grid, self.dg)

    @functools.cached_property
    def centered(self):
        return _running(self.grid, self.centered_cells, self.g.mode)

    @functools.cached_property
    def tag_gaps(self):
        """The gaps of int f dg from the tagged single-cell sums f(xi) dg.

        (|int f dg - f(a) dg|, the sup over xi in [a; b] of
        |int f dg - f(xi) dg|, an xi attaining it).  The gaps are read off
        the cells of f - f(a), as |L - [f(xi) - f(a)] dg| with
        L = int [f - f(a)] dg, so adding a constant to f moves neither them
        nor their rounding; where f(a) = 0 they hold the bits of
        |int f dg - f(xi) dg|.  f(xi) fills [min f; max f], both ends taken
        at samples (interpolation and steps never leave the sample range),
        and the gap is convex in f(xi), so the sup is at the first sample
        where f is largest or the first where it is smallest, the earlier
        on a tie.  NonFiniteValueError when [f(xi) - f(a)] dg overflows
        float64 at either end.
        """
        f, g = self.f, self.g
        g_ab = float(g.values[-1] - g.values[0])
        f_a = float(f.values[0])
        ends = sorted((int(f.values.argmax()), int(f.values.argmin())))
        tagged = [(float(f.values[i]) - f_a) * g_ab for i in ends]
        if not all(map(math.isfinite, tagged)):
            raise NonFiniteValueError("tagged sum f(xi) dg overflows float64")
        left = _total(self.centered_cells)
        gaps = [abs(left - t) for t in tagged]
        worst = int(gaps[1] > gaps[0])
        return abs(left), gaps[worst], float(f.times[ends[worst]])

    @functools.cached_property
    def scale(self):
        """sum |cells|: the term scale of a lhs read off int f dg.

        The lhs of `integral-pvar-remark`, the one check whose lhs moves
        with a constant added to f, is a seminorm of the running integral,
        at most this; a float sum of these cells rounds by about
        cells * 2^-53 * scale.  `bound_report` takes it as the term scale.
        """
        return float(abs(self.cells).sum())

    @functools.cached_property
    def centered_scale(self):
        """sum |centered_cells|: the term scale of a lhs read off f - f(a).

        It bounds the left tag gap and every seminorm of `centered`; the xi
        gap's last step, - [f(xi) - f(a)] dg, rounds relative to the gap
        itself.  Neither it nor those lhs move with a constant added to f.
        """
        return float(abs(self.centered_cells).sum())


def _exact_cells(f: SampledPath, g_mode, grid, dg):
    """The exact per-cell values tag * dg on `grid`, dg being g's increments.

    On a cell of the merged grid a linear path is affine and a step path is
    constant, jumping at most at the cell's right end.  Without common
    jumps (`_check_pair`, which `SampledPair` runs) f is continuous wherever
    g jumps and one tag per cell is exact: f(t_{k-1}) for a step f, f(t_k)
    for a linear f against a step g, and the trapezoid mean for two linear
    paths.  The array is `read_only`.  NonFiniteValueError when a cell
    overflows float64.
    """
    fv = f.values_at(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        if f.mode is Mode.STEP:
            tags = fv[:-1]
        elif g_mode is Mode.STEP:
            tags = fv[1:]
        else:
            tags = 0.5 * (fv[:-1] + fv[1:])
        cells = _finite_integral(tags * dg)
    return read_only(cells)


def _finite_integral(values):
    if not np.isfinite(values).all():
        raise NonFiniteValueError("Riemann-Stieltjes integral overflows float64")
    return values


def _total(cells) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_integral(float(cells.sum()))


def _running(grid, cells, mode) -> SampledPath:
    with np.errstate(over="ignore", invalid="ignore"):
        running = cells.cumsum()
    return SampledPath(grid, np.concatenate(([0.0], _finite_integral(running))), mode)


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


def default_ladder_s(pair, p, q) -> TruncationLadder:
    """The ladder for S with the constants the Young-regime proof picks.

    beta is sup |f - f(a)| and gamma the V^p/V^q balancing factor.
    """
    p, q, pv_f, pv_g = _pvar_pair(pair, p, q)
    return _geometric_for(osc_from_start(pair.f), p, q, pv_f, pv_g)


def default_ladder_pair(pair, p, q):
    """The ladder of `default_ladder_s` and the one for S~.

    The symmetric ladder is the mirrored construction keyed to
    sup |g(b) - g(t)|.
    """
    p, q, pv_f, pv_g = _pvar_pair(pair, p, q)
    ladder_s = _geometric_for(osc_from_start(pair.f), p, q, pv_f, pv_g)
    mirror = _geometric_for(osc_from_end(pair.g), q, p, pv_g, pv_f)
    return ladder_s, TruncationLadder(etas=mirror.thetas, thetas=mirror.etas)


def _pvar_pair(pair, p, q):
    p, q = require_young_regime(p, q)
    return p, q, p_var_seminorm(pair.f, p), p_var_seminorm(pair.g, q)


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


def young_bound_S(pair, ladder: TruncationLadder) -> float:
    """The series S for this pair, led by eta_{-1} = sup |f - f(a)|."""
    return _ladder_series(osc_from_start(pair.f), ladder.etas, ladder.thetas,
                          tv_profile(pair.f), tv_profile(pair.g))[0]


def young_bound_S_tilde(pair, ladder: TruncationLadder) -> float:
    """The mirrored series S~, led by theta_{-1} = sup |g(b) - g(t)|."""
    return _ladder_series(osc_from_end(pair.g), ladder.thetas, ladder.etas,
                          tv_profile(pair.g), tv_profile(pair.f))[0]


def lemma_sum_bound(pair, tagged: TaggedPartition, deltas, epsilons) -> float:
    """Finite tagged-sum bound including the n*delta_r*epsilon_r remainder.

    Partition indices refer to `pair.grid`.  delta_{-1} is sup |f - f(c)|
    on the partition's own span [c; d].
    """
    grid = pair.grid
    part = tagged.partition
    part.validate_for(len(grid))
    c = float(grid[part.indices[0]])
    d = float(grid[part.indices[-1]])
    f_cd = restrict(pair.f, c, d)
    g_cd = restrict(pair.g, c, d)
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


def _left_factor(const, norm_f, osc_f, p, q):
    """const |f|^(p - p/q) osc(f)^(1 + p/q - p): the f-side of the left-form bounds."""
    return const * norm_f ** (p - p / q) * osc_f ** (1.0 + p / q - p)


_SEMINORMS = {"pvar": p_var_seminorm, "ptv": p_tv_seminorm}
_LOEVE_FORMS = ("left", "right", "xi")


def _loeve_young_report(pair, p, q, family, form):
    """One Loeve-Young style report, from `family`'s two seminorms alone.

    family is "pvar" or "ptv", form one of `_LOEVE_FORMS`; every ptv
    rhs is dominated by the matching pvar rhs.
    """
    p, q = require_young_regime(p, q)
    extras = {"integral": pair.integral}
    lhs, lhs_xi, worst_xi = pair.tag_gaps
    c_const = loeve_young_constant(p, q)
    nf, ng = _SEMINORMS[family](pair.f, p), _SEMINORMS[family](pair.g, q)
    osc_f, osc_g = oscillation(pair.f), oscillation(pair.g)
    if form == "left":
        rhs = _left_factor(c_const, nf, osc_f, p, q) * ng
    elif form == "right":
        rhs = c_const * nf * ng ** (q - q / p) * osc_g ** (1.0 + q / p - q)
    else:
        lhs = lhs_xi
        extras["worst_xi"] = worst_xi
        rhs = 0.0 if nf == 0.0 or ng == 0.0 else 2.0 * c_const * nf * ng * min(
            (osc_f / nf) ** (1.0 + p / q - p), (osc_g / ng) ** (1.0 + q / p - q))
    return bound_report(lhs, rhs, c_const, f"loeve-{family}-{form}", extras,
                        scale=pair.centered_scale)


def young_series_check(pair, p, q) -> BoundReport:
    """|int f dg - f(a) dg| against the series S on `default_ladder_s`, the
    ladder of S alone."""
    s = young_bound_S(pair, default_ladder_s(pair, p, q))
    integral = pair.integral
    return bound_report(pair.tag_gaps[0], s, s, "young-s", {"integral": integral},
                        scale=pair.centered_scale)


def min_series_check(pair, p, q) -> BoundReport:
    """|int f dg - f(xi) dg| <= 2 min(S, S~) at the worst tag xi in [a; b].

    Both ladders are `default_ladder_pair`'s.  The extras report S and S~
    as they are, so one of them may read inf where the other is finite.
    """
    ladder_s, ladder_st = default_ladder_pair(pair, p, q)
    s = young_bound_S(pair, ladder_s)
    st = young_bound_S_tilde(pair, ladder_st)
    integral = pair.integral
    rhs = 2.0 * min(s, st)
    return bound_report(pair.tag_gaps[1], rhs, rhs, "min-series",
                        {"S": s, "S_tilde": st, "integral": integral},
                        scale=pair.centered_scale)


_INTEGRAL_VARIANTS = ("ptv-theorem", "ptv-corollary", "pvar-remark")


def integral_norm_check(pair, p, q, variant="ptv-theorem") -> BoundReport:
    """Norm of the indefinite integral against its a-priori bound.

    ptv-theorem: q-TV seminorm of int [f - f(a)] dg vs the D-constant bound.
    ptv-corollary: same lhs vs E * |f|_pTV * |g|_qTV (informational; see
    d_e_constants).
    pvar-remark: q-variation seminorm of int f dg vs the C-constant bound;
    the integral has g's regularity, so it is measured with g's exponent.
    The integrals are the pair's `centered` and `running`, and the reports
    take the matching term scale, `centered_scale` or `scale`.
    """
    if variant not in _INTEGRAL_VARIANTS:
        raise BadParameterError(f"unknown variant {variant}")
    p, q = require_young_regime(p, q)
    if variant == "pvar-remark":
        lhs = p_var_seminorm(pair.running, q)
        c_const = loeve_young_constant(p, q)
        pv_f = p_var_seminorm(pair.f, p)
        sup_f = float(np.max(np.abs(pair.f.values)))
        rhs = (_left_factor(c_const, pv_f, oscillation(pair.f), p, q) + sup_f) \
            * p_var_seminorm(pair.g, q)
        return bound_report(lhs, rhs, c_const, "integral-pvar-remark",
                            scale=pair.scale)
    lhs = p_tv_seminorm(pair.centered, q)
    d_const, e_const = d_e_constants(p, q)
    tv_f = p_tv_seminorm(pair.f, p)
    tv_g = p_tv_seminorm(pair.g, q)
    if variant == "ptv-theorem":
        rhs = _left_factor(d_const, tv_f, oscillation(pair.f), p, q) * tv_g
        return bound_report(lhs, rhs, d_const, "integral-ptv-theorem",
                            {"E": e_const}, scale=pair.centered_scale)
    rhs = e_const * tv_f * tv_g
    return bound_report(lhs, rhs, e_const, "integral-ptv-corollary",
                        {"D": d_const, "asserted": False}, scale=pair.centered_scale)


def gamma_level_check(pair, ladder: TruncationLadder) -> BoundReport:
    """TV at level gamma of the indefinite integral vs the g-side series.

    gamma = 2 sum 2^k theta_k TV^{eta_k}(f); the bound is
    sum 2^k eta_{k-1} TV^{theta_k}(g) with eta_{-1} = sup |f - f(a)|.  The
    integral is int [f - f(a)] dg (`pair.centered`), so the report takes
    the pair's `centered_scale`.
    """
    _, g_side, f_side = _ladder_series(osc_from_start(pair.f), ladder.etas, ladder.thetas,
                                       tv_profile(pair.f), tv_profile(pair.g))
    gamma = 2.0 * f_side
    lhs = tv_profile(pair.centered).value(gamma)
    return bound_report(lhs, g_side, gamma, "gamma-level-ladder", {"gamma": gamma},
                        scale=pair.centered_scale)


# Every `roughtv bounds --variant`, in the order its usage message lists them.
BOUND_CHECKS = {
    **{f"loeve-{fam}-{form}": functools.partial(_loeve_young_report, family=fam, form=form)
       for fam in _SEMINORMS for form in _LOEVE_FORMS},
    "young-s": young_series_check,
    "min-series": min_series_check,
    **{f"integral-{variant}": functools.partial(integral_norm_check, variant=variant)
       for variant in _INTEGRAL_VARIANTS},
    "gamma-level-ladder":
        lambda pair, p, q: gamma_level_check(pair, default_ladder_s(pair, p, q)),
}
