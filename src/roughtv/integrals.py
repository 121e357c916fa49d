"""Riemann-Stieltjes integration and the truncated-variation bounds for it.

The existence estimate pairs two nonincreasing truncation ladders (eta_k),
(theta_k) into the series

    S = sum_k 2^k eta_{k-1} TV^{theta_k}(g) + sum_k 2^k theta_k TV^{eta_k}(f)

with eta_{-1} = sup |f - f(a)|; finite S bounds |int f dg - f(a)(g(b)-g(a))|.
The symmetric series S~ swaps the roles (theta_{-1} = sup |g(b) - g(t)|).
Geometric ladders with doubly-exponential decay make S finite whenever both
paths carry finite p-TV norms in the Young regime 1/p + 1/q > 1, which is
where the explicit Loeve-Young type constants below come from.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    BadExponentsError,
    BadParameterError,
    CommonDiscontinuityError,
    InvalidPartitionError,
    LadderMismatchError,
    NonMonotoneLadderError,
)
from .norms import p_tv_seminorm, p_var_seminorm, seminorm_from_profile
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
    restrict,
    shift_path,
)
from .reports import BoundReport, bound_report
from .truncation import tv_profile

SERIES_REL_TAIL = 1e-12
SERIES_MIN_TERMS = 8
SERIES_MAX_TERMS = 100000
OVERFLOW_GUARD = 1e300


def require_young_regime(p, q):
    p = float(p)
    q = float(q)
    if not (p > 1 and q > 1 and 1.0 / p + 1.0 / q > 1.0):
        raise BadExponentsError(
            f"(p, q) = ({p}, {q}) outside the Young regime 1/p + 1/q > 1"
        )
    return p, q


def _check_pair(f: SampledPath, g: SampledPath):
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
    """
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
    return float(np.sum(f_vals * np.diff(g_vals)))


@dataclass(frozen=True)
class IntegralResult:
    value: float
    partitions_used: int


def _cells(f: SampledPath, g: SampledPath):
    """The merged grid and the exact per-cell values tag * [g(t_k) - g(t_{k-1})].

    On a cell of the merged grid a linear path is affine and a step path is
    constant, jumping at most at the cell's right end.  `_check_pair` rules
    out common jumps, so f is continuous wherever g jumps and one tag per cell
    is exact: f(t_{k-1}) for a step f, f(t_k) for a linear f against a step g,
    and the trapezoid mean for two linear paths.
    """
    _check_pair(f, g)
    grid = merge_times(f, g)
    fv = f.values_at(grid)
    if f.mode is Mode.STEP:
        tags = fv[:-1]
    elif g.mode is Mode.STEP:
        tags = fv[1:]
    else:
        tags = 0.5 * (fv[:-1] + fv[1:])
    return grid, tags * np.diff(g.values_at(grid))


def rs_integral(f: SampledPath, g: SampledPath) -> IntegralResult:
    """int f dg over the common span: the sum of the exact cells of `_cells`."""
    grid, cells = _cells(f, g)
    return IntegralResult(float(np.sum(cells)), grid.size - 1)


def indefinite_integral(f: SampledPath, g: SampledPath) -> SampledPath:
    """Running integral t -> int_a^t f dg, sampled on the merged grid.

    The values are the cumulative sums of the `_cells` of rs_integral.  The
    path takes g's mode: between samples the running integral jumps with a
    step g and is affine for a step f against a linear g; for two linear
    paths it is quadratic on each cell, so only the samples are exact.
    """
    grid, cells = _cells(f, g)
    return SampledPath(grid, np.concatenate(([0.0], np.cumsum(cells))), g.mode)


@dataclass(frozen=True)
class TruncationLadder:
    """Paired nonincreasing truncation sequences plus the two leading terms.

    eta_minus1 plays sup |f - f(a)| in the S series; theta_minus1 (when set)
    plays sup |g(b) - g(t)| in the symmetric series.
    """

    etas: np.ndarray
    thetas: np.ndarray
    eta_minus1: float
    theta_minus1: float = None

    def __post_init__(self):
        etas = np.ascontiguousarray(self.etas, dtype=np.float64)
        thetas = np.ascontiguousarray(self.thetas, dtype=np.float64)
        if etas.size != thetas.size or etas.size == 0:
            raise NonMonotoneLadderError("ladders must be paired and nonempty")
        for name, seq in (("eta", etas), ("theta", thetas)):
            if np.any(seq < 0) or not np.all(np.isfinite(seq)):
                raise NonMonotoneLadderError(f"{name} terms must be finite and >= 0")
            if np.any(np.diff(seq) > 0):
                raise NonMonotoneLadderError(f"{name} sequence must be nonincreasing")
        if not self.eta_minus1 >= 0:
            raise NonMonotoneLadderError("eta_minus1 must be >= 0")
        if self.theta_minus1 is not None and not self.theta_minus1 >= 0:
            raise NonMonotoneLadderError("theta_minus1 must be >= 0")
        etas.flags.writeable = False
        thetas.flags.writeable = False
        object.__setattr__(self, "etas", etas)
        object.__setattr__(self, "thetas", thetas)

    def __len__(self):
        return self.etas.size


def _ladder_rates(p, q):
    """alpha = (sqrt((q-1)(p-1)) + 1)/2 and r = alpha^2 / [(q-1)(p-1)]."""
    prod = (q - 1.0) * (p - 1.0)
    alpha = (math.sqrt(prod) + 1.0) / 2.0
    return alpha, alpha * alpha / prod


def ladder_geometric(p, q, beta, gamma, theta_minus1=None) -> TruncationLadder:
    """The doubly-exponential ladder that makes S converge in the Young regime.

    With r = alpha^2 / [(q-1)(p-1)] and alpha = (sqrt((q-1)(p-1)) + 1)/2:

        eta_{k-1} = beta  * 2^(-r^k + 1)
        theta_k   = gamma * 2^(-r^k * alpha/(q-1))

    truncated once both streams underflow to zero.
    """
    p, q = require_young_regime(p, q)
    if not (beta >= 0 and gamma >= 0):
        raise NonMonotoneLadderError("beta and gamma must be >= 0")
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
    return TruncationLadder(np.asarray(etas), np.asarray(thetas),
                            eta_minus1=float(beta), theta_minus1=theta_minus1)


def default_ladder_pair(f: SampledPath, g: SampledPath, p, q):
    """Ladders for S and S~ with the constants the Young-regime proof picks.

    beta is sup |f - f(a)| and gamma the V^p/V^q balancing factor; the
    symmetric ladder is the mirrored construction keyed to sup |g(b) - g(t)|.
    """
    p, q = require_young_regime(p, q)
    vp_f = p_var_seminorm(f, p) ** p
    vq_g = p_var_seminorm(g, q) ** q
    beta = osc_from_start(f)
    gamma = (vq_g / vp_f) ** (1.0 / q) * beta ** (p / q) if vp_f > 0 and vq_g > 0 else 1.0
    ladder_s = ladder_geometric(p, q, beta, gamma)

    beta_g = osc_from_end(g)
    gamma_g = (vp_f / vq_g) ** (1.0 / p) * beta_g ** (q / p) if vp_f > 0 and vq_g > 0 else 1.0
    mirror = ladder_geometric(q, p, beta_g, gamma_g)
    ladder_st = TruncationLadder(
        etas=mirror.thetas,
        thetas=mirror.etas,
        eta_minus1=float(mirror.thetas[0]),
        theta_minus1=float(beta_g),
    )
    return ladder_s, ladder_st


def _ldexp_capped(x, k):
    # math.ldexp raises on overflow; the series code wants the inf flag
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def _ladder_terms(x_minus1, xs, ys, prof_x, prof_y):
    """Per-k pairs (2^k x_{k-1} TV^{y_k}(Y), 2^k y_k TV^{x_k}(X)), x_{-1} = x_minus1.

    A stored ladder stands for its zero-extension: past the prefix only the
    crossover term 2^(K+1) x_K TV^0(Y) survives, so k stops at K + 1.  A zero
    factor gives 0 without the other, so 2^k x = inf never meets TV = 0.
    """
    last = len(xs) - 1
    for k in range(last + 2):
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
        yield first, second


def _ladder_sum(terms):
    total = 0.0
    for first, second in terms:
        total += first
        total += second
        if total > OVERFLOW_GUARD:
            return math.inf
    return total


def young_bound_S(f: SampledPath, g: SampledPath, ladder: TruncationLadder,
                  profiles=None) -> float:
    """The series S for this pair; requires eta_minus1 = sup |f - f(a)|.

    `profiles` may carry precomputed (profile_f, profile_g).
    """
    if abs(ladder.eta_minus1 - osc_from_start(f)) > 1e-9:
        raise LadderMismatchError(
            "eta_minus1 must equal sup |f - f(a)| for the existence estimate"
        )
    prof_f, prof_g = profiles if profiles is not None else (tv_profile(f), tv_profile(g))
    return _ladder_sum(_ladder_terms(ladder.eta_minus1, ladder.etas, ladder.thetas,
                                     prof_f, prof_g))


def young_bound_S_tilde(f: SampledPath, g: SampledPath, ladder: TruncationLadder,
                        profiles=None) -> float:
    """The mirrored series S~; requires theta_minus1 = sup |g(b) - g(t)|."""
    if ladder.theta_minus1 is None or abs(ladder.theta_minus1 - osc_from_end(g)) > 1e-9:
        raise LadderMismatchError(
            "theta_minus1 must equal sup |g(b) - g(t)| for the symmetric estimate"
        )
    prof_f, prof_g = profiles if profiles is not None else (tv_profile(f), tv_profile(g))
    return _ladder_sum(_ladder_terms(ladder.theta_minus1, ladder.thetas, ladder.etas,
                                     prof_g, prof_f))


def lemma_sum_bound(f, g, tagged: TaggedPartition, deltas, epsilons, grid=None) -> float:
    """Finite tagged-sum bound including the n*delta_r*epsilon_r remainder.

    delta_{-1} is sup |f - f(c)| on the partition's own span [c; d].
    """
    check_same_span(f, g)
    deltas = np.asarray(deltas, dtype=np.float64)
    epsilons = np.asarray(epsilons, dtype=np.float64)
    if deltas.size != epsilons.size or deltas.size == 0:
        raise NonMonotoneLadderError("delta/epsilon ladders must be paired")
    for name, seq in (("delta", deltas), ("epsilon", epsilons)):
        if np.any(seq < 0) or np.any(np.diff(seq) > 0):
            raise NonMonotoneLadderError(f"{name} ladder must be nonincreasing >= 0")
    if grid is None:
        grid = merge_times(f, g)
    part = tagged.partition
    part.validate_for(len(grid))
    c = float(grid[part.indices[0]])
    d = float(grid[part.indices[-1]])
    f_cd = restrict(f, c, d)
    g_cd = restrict(g, c, d)
    terms = _ladder_terms(osc_from_start(f_cd), deltas, epsilons,
                          tv_profile(f_cd), tv_profile(g_cd))
    bound = 0.0
    # the ladder stops at r = size - 1, where the remainder replaces the tail
    for first, second in islice(terms, deltas.size):
        bound += first
        bound += second
    bound += part.n_cells * deltas[-1] * epsilons[-1]
    return float(bound)


def _series_sum(term):
    total = 0.0
    k = 0
    while True:
        t = term(k)
        total += t
        if total > OVERFLOW_GUARD:
            return math.inf
        if k >= SERIES_MIN_TERMS and t <= SERIES_REL_TAIL * total:
            return total
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


def d_e_constants(p, q):
    """(D_{p,q}, E_{p,q}) for the indefinite-integral norm bound.

    E is implemented exactly as printed, E = (p-1)^(1-1/p) p^-1 D, and is
    reported informationally by the checks (only the D-form is asserted).
    """
    p, q = require_young_regime(p, q)
    one, two = _constant_series(p, q, lead=1.0)
    d_tilde = one * two ** (q - 1.0)
    d = d_tilde ** (1.0 / q)
    e = (p - 1.0) ** (1.0 - 1.0 / p) / p * d
    return d, e


LOEVE_FORMS = ("left", "right-symmetric", "midpoint-xi")
LOEVE_FAMILIES = ("pvar", "ptv")


def _xi_sample_times(f, g, count):
    grid = merge_times(f, g)
    idx = np.unique(np.linspace(0, grid.size - 1, max(int(count), 2)).astype(int))
    return grid[idx]


def loeve_young_reports(f, g, p, q, xi_count=8):
    """All six Loeve-Young style reports for the pair, sharing the norms.

    Keys are "<family>/<form>" for family in {pvar, ptv} and form in
    {left, right-symmetric, midpoint-xi}; each ptv rhs is also dominated by
    the matching pvar rhs, which the extras record for cross-assertions.
    """
    p, q = require_young_regime(p, q)
    _check_pair(f, g)
    integral = rs_integral(f, g).value
    dg = float(g.values[-1] - g.values[0])
    fa = float(f.values[0])
    c_const = loeve_young_constant(p, q)
    norms = {
        "pvar": (p_var_seminorm(f, p), p_var_seminorm(g, q)),
        "ptv": (seminorm_from_profile(tv_profile(f), p),
                seminorm_from_profile(tv_profile(g), q)),
    }
    osc_f = oscillation(f)
    osc_g = oscillation(g)
    e_f = 1.0 + p / q - p
    e_g = 1.0 + q / p - q

    lhs_left = abs(integral - fa * dg)
    xi_times = _xi_sample_times(f, g, xi_count)
    f_at_xi = f.values_at(xi_times)
    lhs_xi = float(np.max(np.abs(integral - f_at_xi * dg)))
    worst_xi = float(xi_times[int(np.argmax(np.abs(integral - f_at_xi * dg)))])

    def rhs_for(family, form):
        nf, ng = norms[family]
        if form == "left":
            return c_const * nf ** (p - p / q) * osc_f ** e_f * ng
        if form == "right-symmetric":
            return c_const * nf * ng ** (q - q / p) * osc_g ** e_g
        if nf == 0.0 or ng == 0.0:
            return 0.0
        return (
            2.0 * c_const * nf * ng
            * min((osc_f / nf) ** e_f, (osc_g / ng) ** e_g)
        )

    out = {}
    for form in LOEVE_FORMS:
        lhs = lhs_xi if form == "midpoint-xi" else lhs_left
        extras = {
            "integral": integral,
            "rhs_pvar": rhs_for("pvar", form),
            "rhs_ptv": rhs_for("ptv", form),
        }
        if form == "midpoint-xi":
            extras["worst_xi"] = worst_xi
        for family in LOEVE_FAMILIES:
            out[f"{family}/{form}"] = bound_report(
                lhs, rhs_for(family, form), c_const,
                f"loeve-{family}-{form}", extras,
            )
    return out


def loeve_young_check(f, g, p, q, norm_family="ptv", form="left",
                      xi_count=8) -> BoundReport:
    if norm_family not in LOEVE_FAMILIES or form not in LOEVE_FORMS:
        raise BadParameterError(f"unknown variant {norm_family}/{form}")
    return loeve_young_reports(f, g, p, q, xi_count)[f"{norm_family}/{form}"]


def young_series_check(f, g, p, q) -> BoundReport:
    """|int f dg - f(a) dg| against the series S with the default ladders."""
    ladder, _ = default_ladder_pair(f, g, p, q)
    s = young_bound_S(f, g, ladder)
    integral = rs_integral(f, g).value
    fa = float(f.values[0])
    dg = float(g.values[-1] - g.values[0])
    return bound_report(abs(integral - fa * dg), s, s, "young-s",
                        {"integral": integral})


def min_series_check(f, g, p, q, xi_count=8) -> BoundReport:
    """|int f dg - f(xi) dg| <= 2 min(S, S~) over sampled tags xi."""
    ladder_s, ladder_st = default_ladder_pair(f, g, p, q)
    profiles = (tv_profile(f), tv_profile(g))
    s = young_bound_S(f, g, ladder_s, profiles)
    st = young_bound_S_tilde(f, g, ladder_st, profiles)
    integral = rs_integral(f, g).value
    dg = float(g.values[-1] - g.values[0])
    xi_times = _xi_sample_times(f, g, xi_count)
    lhs = float(np.max(np.abs(integral - f.values_at(xi_times) * dg)))
    rhs = 2.0 * min(s, st)
    return bound_report(lhs, rhs, rhs, "min-series",
                        {"S": s, "S_tilde": st, "integral": integral})


INTEGRAL_NORM_VARIANTS = ("ptv-theorem", "ptv-corollary", "pvar-remark")


def integral_norm_check(f, g, p, q, variant="ptv-theorem") -> BoundReport:
    """Norm of the indefinite integral against its a-priori bound.

    ptv-theorem: q-TV seminorm of int [f - f(a)] dg vs the D-constant bound.
    ptv-corollary: same lhs vs E * |f|_pTV * |g|_qTV (informational; see
    d_e_constants).
    pvar-remark: p-variation norm of int f dg vs the C-constant bound.
    """
    if variant not in INTEGRAL_NORM_VARIANTS:
        raise BadParameterError(f"unknown variant {variant}")
    p, q = require_young_regime(p, q)
    _check_pair(f, g)
    if variant == "pvar-remark":
        ind = indefinite_integral(f, g)
        lhs = p_var_seminorm(ind, p)
        c_const = loeve_young_constant(p, q)
        pv_f = p_var_seminorm(f, p)
        osc_f = oscillation(f)
        sup_f = float(np.max(np.abs(f.values)))
        rhs = (c_const * pv_f ** (p - p / q) * osc_f ** (1.0 + p / q - p) + sup_f) \
            * p_var_seminorm(g, q)
        return bound_report(lhs, rhs, c_const, "integral-pvar-remark")
    shifted = shift_path(f, -float(f.values[0]))
    ind = indefinite_integral(shifted, g)
    lhs = p_tv_seminorm(ind, q)
    d_const, e_const = d_e_constants(p, q)
    tv_f = p_tv_seminorm(f, p)
    tv_g = p_tv_seminorm(g, q)
    if variant == "ptv-theorem":
        rhs = d_const * tv_f ** (p - p / q) * oscillation(f) ** (1.0 + p / q - p) * tv_g
        return bound_report(lhs, rhs, d_const, "integral-ptv-theorem",
                            {"E": e_const})
    rhs = e_const * tv_f * tv_g
    return bound_report(lhs, rhs, e_const, "integral-ptv-corollary",
                        {"D": d_const, "asserted": False})


def gamma_level_check(f, g, ladder: TruncationLadder) -> BoundReport:
    """TV at level gamma of the indefinite integral vs the g-side series.

    gamma = 2 sum 2^k theta_k TV^{eta_k}(f); the bound is
    sum 2^k eta_{k-1} TV^{theta_k}(g) with eta_{-1} = sup |f - f(a)|.
    """
    if abs(ladder.eta_minus1 - osc_from_start(f)) > 1e-9:
        raise LadderMismatchError("eta_minus1 must equal sup |f - f(a)|")
    gamma = 0.0
    rhs = 0.0
    for g_term, f_term in _ladder_terms(ladder.eta_minus1, ladder.etas, ladder.thetas,
                                        tv_profile(f), tv_profile(g)):
        gamma += 2.0 * f_term
        rhs += g_term
        if not math.isfinite(gamma) or rhs > OVERFLOW_GUARD:
            rhs = math.inf
            break
    shifted = shift_path(f, -float(f.values[0]))
    ind = indefinite_integral(shifted, g)
    lhs = tv_profile(ind).value(gamma) if math.isfinite(gamma) else 0.0
    return bound_report(lhs, rhs, gamma, "gamma-level", {"gamma": gamma})
