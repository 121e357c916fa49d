import itertools
import math
import warnings

import numpy as np
import pytest

from roughtv.errors import (
    BadExponentsError,
    BadParameterError,
    CommonDiscontinuityError,
    InvalidPartitionError,
    NonFiniteValueError,
    NonMonotoneLadderError,
    SpanMismatchError,
)
from roughtv import integrals
from roughtv.integrals import (
    BOUND_CHECKS,
    SampledPair,
    TruncationLadder,
    d_e_constants,
    default_ladder_pair,
    integral_norm_check,
    ladder_geometric,
    gamma_level_check,
    lemma_sum_bound,
    loeve_young_constant,
    min_series_check,
    rs_sum,
    young_series_check,
    young_bound_S,
    young_bound_S_tilde,
)
from roughtv.paths import (
    Mode,
    Partition,
    TaggedPartition,
    constant_path,
    gen_brownian,
    identity_path,
    make_path,
    merge_times,
    osc_from_end,
    osc_from_start,
    restrict,
    scale_path,
    tent_path,
)
from roughtv.reports import PASS_SLACK, bound_report
from roughtv.truncation import total_variation, truncated_variation, tv_profile


def _uniform_tagged(n_points, cells, tag="left"):
    idx = tuple(np.linspace(0, n_points - 1, cells + 1).astype(int))
    if tag == "left":
        tags = idx[:-1]
    elif tag == "right":
        tags = idx[1:]
    else:
        tags = tuple((a + b) // 2 for a, b in zip(idx, idx[1:]))
    return TaggedPartition(Partition(idx), tags)


# ---------------------------------------------------------------------------
# Riemann-Stieltjes sums and integrals
# ---------------------------------------------------------------------------
def test_rs_sum_identity_single_cell():
    pair = SampledPair(identity_path(2), identity_path(2))
    left = TaggedPartition(Partition((0, 1)), (0,))
    right = TaggedPartition(Partition((0, 1)), (1,))
    assert rs_sum(pair, left) == 0.0
    assert rs_sum(pair, right) == 1.0


def test_rs_sum_needs_a_cell():
    pair = SampledPair(identity_path(2), identity_path(2))
    with pytest.raises(InvalidPartitionError, match="need at least one cell"):
        rs_sum(pair, TaggedPartition(Partition((0,)), ()))


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_rs_sum_identity_refines(k):
    n = 2 ** k + 1
    ident = identity_path(n)
    tagged = _uniform_tagged(n, 2 ** k, "left")
    assert rs_sum(SampledPair(ident, ident), tagged) == pytest.approx((1 - 2.0 ** -k) / 2,
                                                                     abs=1e-15)


def test_rs_integral_linear_exact():
    ident = identity_path(1025)
    assert SampledPair(ident, ident).integral == pytest.approx(0.5, abs=1e-15)


def test_rs_integral_t_dt_squared():
    t = np.linspace(0.0, 1.0, 2 ** 12 + 1)
    f = make_path(t, t)
    g = make_path(t, t ** 2)
    assert abs(SampledPair(f, g).integral - 2.0 / 3.0) <= 1e-6


def test_rs_integral_rejects_common_jumps():
    t = [0.0, 0.5, 0.5 + 2.0 ** -20, 1.0]
    f = make_path(t, [0.0, 0.0, 1.0, 1.0], Mode.STEP)
    g = make_path(t, [1.0, 1.0, 3.0, 3.0], Mode.STEP)
    with pytest.raises(CommonDiscontinuityError):
        SampledPair(f, g)


@pytest.mark.parametrize("mode", [Mode.LINEAR, Mode.STEP])
def test_rs_integral_rejects_overflowing_oscillation(mode):
    # rejected before any increment is taken, so NumPy never warns
    huge = make_path([0.0, 0.5, 1.0], [-1e308, 1e308, 0.0], mode)
    small = make_path([0.0, 0.3, 1.0], [0.0, 1.0, 2.0], mode)
    for f, g in ((huge, small), (small, huge)):
        with pytest.raises(NonFiniteValueError):
            SampledPair(f, g)


@pytest.mark.parametrize("mode", [Mode.LINEAR, Mode.STEP])
def test_rs_integral_rejects_overflowing_sum(mode):
    # every cell is finite (at most 1.5 * 1e308), their sum is not
    t = [0.0, 0.5, 1.0]
    f = make_path(t, [1.5, 1.5, 1.5], Mode.LINEAR)
    g = make_path(t, [0.0, 1e308, 1.7e308], mode)
    pair = SampledPair(f, g)
    with pytest.raises(NonFiniteValueError, match="Riemann-Stieltjes"):
        pair.integral
    with pytest.raises(NonFiniteValueError, match="Riemann-Stieltjes"):
        pair.running


def test_rs_integral_step_times_linear():
    # int 1_{t >= 1/3} dt over [0;1] = 2/3
    eps = 2.0 ** -20
    f = make_path([0.0, 1.0 / 3.0, 1.0 / 3.0 + eps, 1.0], [0.0, 0.0, 1.0, 1.0], Mode.STEP)
    g = identity_path(2)
    assert abs(SampledPair(f, g).integral - (1.0 - (1.0 / 3.0 + eps))) <= 1e-9


def test_rs_integral_step_times_step_disjoint_jumps():
    # integrand jumps at ~1/4, integrator at ~3/4: int f dg = f(3/4) * jump
    eps = 2.0 ** -20
    f = make_path([0.0, 0.25, 0.25 + eps, 1.0], [2.0, 2.0, 5.0, 5.0], Mode.STEP)
    g = make_path([0.0, 0.75, 0.75 + eps, 1.0], [0.0, 0.0, 3.0, 3.0], Mode.STEP)
    pair = SampledPair(f, g)
    assert pair.integral == pytest.approx(5.0 * 3.0, abs=1e-12)
    ind = pair.running
    assert ind.mode is Mode.STEP
    assert ind.values[-1] == pytest.approx(pair.integral, abs=1e-12)
    assert ind.value_at(0.5) == pytest.approx(0.0, abs=1e-12)


def test_indefinite_integral_basics(tent):
    g = gen_brownian(65, 1.0, seed=2)
    one = constant_path(1.0, 0.0, 1.0)
    ind = SampledPair(one, g).running
    assert np.allclose(ind.values, g.values - g.values[0], atol=1e-12)
    ident = identity_path(129)
    half_sq = SampledPair(ident, ident).running
    assert np.allclose(half_sq.values, ident.times ** 2 / 2.0, atol=1e-12)


def test_indefinite_endpoint_matches_rs_integral():
    pair = SampledPair(gen_brownian(64, 1.0, seed=3), gen_brownian(64, 1.0, seed=4))
    assert pair.running.values[-1] == pytest.approx(pair.integral, abs=1e-12)
    # a step path on either side: the running integral takes g's mode
    eps = 2.0 ** -20
    fs = make_path([0.0, 0.25, 0.25 + eps, 1.0], [0.0, 0.0, 2.0, 2.0], Mode.STEP)
    gl = identity_path(9)
    gs = make_path([0.0, 0.75, 0.75 + eps, 1.0], [0.0, 0.0, 3.0, 3.0], Mode.STEP)
    for f, g in ((fs, gl), (gl, gs)):
        pair = SampledPair(f, g)
        assert pair.running.mode is g.mode
        assert pair.running.values[-1] == pytest.approx(pair.integral, abs=1e-12)


def _random_pair_path(rng, mode, min_n=8):
    # random walk at random times; the last step is flat, so two step paths
    # never share the jump at t = 1
    n = int(rng.integers(min_n, 40))
    times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
    values = np.cumsum(rng.standard_normal(n)) / np.sqrt(n)
    values[-1] = values[-2]
    return make_path(times, values, mode)


def _dyadic_refinement(grid, levels):
    for _ in range(levels):
        finer = np.empty(2 * grid.size - 1)
        finer[::2] = grid
        finer[1::2] = 0.5 * (grid[:-1] + grid[1:])
        grid = finer
    return grid


@pytest.mark.parametrize("f_mode,g_mode", [(fm, gm) for fm in Mode for gm in Mode])
def test_rs_integral_every_mode_pair_against_refined_left_sums(f_mode, g_mode):
    # left-tag sums on about 2^12, 2^15 and 2^18 cells of the refined merged
    # grid; a step f is constant on every cell, so its left tag is already
    # exact, while a linear f makes an error that halves with each refinement
    for seed in range(4):
        rng = np.random.default_rng(seed)
        f = _random_pair_path(rng, f_mode)
        g = _random_pair_path(rng, g_mode)
        pair = SampledPair(f, g)
        exact = pair.integral
        coarse = int(np.round(np.log2(pair.grid.size - 1)))
        gaps = []
        for log_cells in (12, 15, 18):
            # f and g sampled on the refined grid: a path read at its own
            # samples returns them, so these are left sums of f and g
            # themselves on that grid
            grid = _dyadic_refinement(pair.grid, log_cells - coarse)
            refined = SampledPair(make_path(grid, f.values_at(grid), f.mode),
                                  make_path(grid, g.values_at(grid), g.mode))
            idx = tuple(range(grid.size))
            left = TaggedPartition(Partition(idx), idx[:-1])
            gaps.append(abs(rs_sum(refined, left) - exact))
        if f_mode is Mode.STEP:
            assert max(gaps) <= 3e-15
        else:
            assert gaps[1] == pytest.approx(gaps[0] / 8.0, rel=1e-4)
            assert gaps[2] == pytest.approx(gaps[1] / 8.0, rel=1e-4)
            assert gaps[2] <= 1e-3


def test_rs_integral_linear_against_step_is_a_sum_over_jumps():
    # refining left sums needed more than 2.7M grid points here and gave up
    f = gen_brownian(300, 1.0, seed=1)
    walk = gen_brownian(42, 1.0, seed=2)
    g = make_path(walk.times, walk.values, Mode.STEP)
    value = SampledPair(f, g).integral
    assert math.isfinite(value)
    # int f dg = sum of f at each jump time of g times the jump
    jumps = float(np.sum(f.values_at(g.times[1:]) * np.diff(g.values)))
    assert value == pytest.approx(jumps, abs=1e-13)


@pytest.mark.parametrize("f_mode,g_mode", [(Mode.STEP, Mode.LINEAR), (Mode.STEP, Mode.STEP),
                                           (Mode.LINEAR, Mode.STEP)])
def test_the_exact_tag_reproduces_the_integral_to_the_bit(f_mode, g_mode):
    # one cell per grid step, tagged as the pair's exact cells are (the left
    # end for a step f, the right end for a linear f against a step g): the
    # same products in the same sum
    for seed in range(4):
        rng = np.random.default_rng(seed)
        pair = SampledPair(_random_pair_path(rng, f_mode), _random_pair_path(rng, g_mode))
        idx = tuple(range(pair.grid.size))
        tags = idx[:-1] if f_mode is Mode.STEP else idx[1:]
        assert rs_sum(pair, TaggedPartition(Partition(idx), tags)) == pair.integral


def test_left_sum_refinement_error_shrinks():
    f = gen_brownian(33, 1.0, seed=5)
    g = gen_brownian(33, 1.0, seed=6)
    exact = SampledPair(f, g).integral
    grid = merge_times(f, g)
    errs = []
    for _ in range(7):
        fv = f.values_at(grid[:-1])
        gv = g.values_at(grid)
        errs.append(abs(float(np.sum(fv * np.diff(gv))) - exact))
        mid = 0.5 * (grid[:-1] + grid[1:])
        grid = np.sort(np.concatenate([grid, mid]))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0]


# ---------------------------------------------------------------------------
# ladders and the S / S~ series
# ---------------------------------------------------------------------------
def test_ladder_geometric_shape():
    lad = ladder_geometric(1.5, 1.5, beta=2.0, gamma=1.0)
    # alpha = 0.75, ratio = 2.25
    assert lad.etas[0] == pytest.approx(2.0 * 2.0 ** (-2.25 + 1.0), rel=1e-12)
    assert lad.thetas[0] == pytest.approx(2.0 ** (-0.75 / 0.5), rel=1e-12)
    pos = lad.etas[lad.etas > 0]
    assert np.all(np.diff(pos) < 0)
    assert lad.etas[-1] == 0.0 and lad.thetas[-1] == 0.0


def test_ladder_rejects_outside_regime():
    with pytest.raises(BadExponentsError):
        ladder_geometric(3.0, 3.0, 1.0, 1.0)


def test_ladder_term_cap_near_the_regime_boundary():
    # 1/p + 1/q = 1.00001: the ladder's rates are so close to 1 that its
    # terms do not underflow within SERIES_MAX_TERMS
    with pytest.raises(BadExponentsError) as exc:
        ladder_geometric(1.99999, 1.99999, 1.0, 1.0)
    assert str(exc.value) == "(p, q) too close to the Young regime boundary"


def test_series_sum_stops_at_its_term_cap():
    # terms that never fall below the total's last bit: the sum gives up
    # after SERIES_MAX_TERMS + 1 terms and blames the exponents
    ks = []

    def term(k):
        ks.append(k)
        return 1.0

    with pytest.raises(BadExponentsError) as exc:
        integrals._series_sum(term)
    assert str(exc.value) == "series did not settle; regime too extreme"
    assert ks == list(range(integrals.SERIES_MAX_TERMS + 1))


def test_ladder_validation():
    with pytest.raises(NonMonotoneLadderError):
        TruncationLadder(np.asarray([1.0, 2.0]), np.asarray([1.0, 0.5]))
    with pytest.raises(NonMonotoneLadderError):
        TruncationLadder(np.asarray([1.0]), np.asarray([1.0, 0.5]))


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("etas, thetas, message", [
    ([1.0, math.nan], [1.0, 0.5], "eta terms must be finite"),
    ([1.0, 0.5], [math.inf, 0.5], "theta terms must be finite"),
    ([1.0, -1e-300], [1.0, 0.5], "eta terms must be finite"),
    ([1.0, 0.5], [0.5, 0.75], "theta sequence must be nonincreasing"),
    ([1.0, 0.5, 0.5, 0.6], [1.0, 0.5, 0.0, 0.0], "eta sequence must be nonincreasing"),
    ([1.0, 0.5], [1.0], "paired and nonempty"),
    ([], [], "paired and nonempty"),
    ([[1.0, 0.5]], [[1.0, 0.5]], "1-d sequences"),
])
def test_ladder_validation_messages(etas, thetas, message, as_array):
    # the checks run on Python floats; the errors are those of the NumPy checks
    if as_array:
        etas, thetas = np.asarray(etas, dtype=float), np.asarray(thetas, dtype=float)
    with pytest.raises(NonMonotoneLadderError, match=message):
        TruncationLadder(etas, thetas)


def test_ladder_accepts_negative_zero():
    lad = TruncationLadder([0.5, -0.0, 0.0], [-0.0, 0.0, -0.0])
    assert lad.etas.tolist() == [0.5, 0.0, 0.0] and len(lad) == 3
    assert math.copysign(1.0, lad.etas[1]) == -1.0
    assert TruncationLadder(0.25, 0.0).etas.tolist() == [0.25]


@pytest.mark.parametrize("variant, builds", [
    ("young-s", 1), ("gamma-level-ladder", 1), ("min-series", 2),
])
def test_checks_build_only_the_ladders_they_read(monkeypatch, variant, builds):
    # young-s and the gamma check read ladder S alone; min-series reads S~ too
    calls = []
    built = integrals.ladder_geometric

    def counting(*args):
        calls.append(args)
        return built(*args)

    monkeypatch.setattr(integrals, "ladder_geometric", counting)
    f = gen_brownian(40, 1.0, seed=17)
    g = gen_brownian(40, 1.0, seed=18)
    BOUND_CHECKS[variant](SampledPair(f, g), 1.7, 1.8)
    assert len(calls) == builds


def test_balance_survives_an_underflowing_ratio():
    # (V^q(g) / V^p(f))^(1/q) underflowed to 0 here, so every theta of S was
    # 0 and S read 134045.97 against the unscaled 173187.36; the scaling by
    # powers of 2 leaves S and the integral unchanged
    f = gen_brownian(64, 1.0, seed=1)
    g = gen_brownian(64, 1.0, seed=2)
    far_f, far_g = scale_path(f, 2.0 ** 332), scale_path(g, 2.0 ** -332)
    for variant in ("young-s", "min-series", "gamma-level-ladder"):
        near = BOUND_CHECKS[variant](SampledPair(f, g), 1.9, 1.9)
        far = BOUND_CHECKS[variant](SampledPair(far_f, far_g), 1.9, 1.9)
        assert far.rhs == pytest.approx(near.rhs, rel=1e-12, abs=0.0), variant
        assert far.lhs <= far.rhs and far.passed, variant


def test_balance_without_overflow_or_underflow_keeps_the_printed_form():
    for pv_x, p, pv_y, q, beta in [(2.0, 1.5, 3.0, 1.8, 1.5), (1e-3, 1.9, 7.0, 1.2, 1e-3),
                                   (5.0, 1.3, 0.25, 2.5, 4.0)]:
        printed = (pv_y ** q / pv_x ** p) ** (1.0 / q) * beta ** (p / q)
        assert integrals._balance(pv_x, p, pv_y, q, beta) == printed
    assert integrals._balance(0.0, 1.5, 3.0, 1.5, 0.0) == 1.0
    assert integrals._balance(2.0, 1.5, 0.0, 1.5, 1.0) == 1.0
    # pv_x^p overflows: the split form, below pv_y since beta <= pv_x
    assert 0.0 < integrals._balance(1e200, 1.9, 3.0, 1.9, 1e200) <= 3.0


@pytest.mark.parametrize("beta,gamma", [(math.inf, 1.0), (1.0, math.inf)])
def test_ladder_geometric_rejects_non_finite_scales(beta, gamma):
    # an inf scale made inf * 0 = NaN terms that never reach 0, so the loop
    # ran SERIES_MAX_TERMS steps and blamed the exponents
    with pytest.raises(NonMonotoneLadderError, match="finite"):
        ladder_geometric(1.5, 1.5, beta, gamma)


def test_default_ladders_balance_at_extreme_scales():
    # (V^p(f) / V^q(g))^(1/p) overflows for the mirrored ladder at these
    # scales, but gamma itself is finite and scales with f, so the ladder is
    # the unit pair's, rescaled
    f = gen_brownian(45, 1.0, seed=21)
    g = gen_brownian(26, 1.0, seed=22)
    _, unit = default_ladder_pair(SampledPair(f, g), 1.9, 1.9)
    _, far = default_ladder_pair(SampledPair(scale_path(f, 1e100), scale_path(g, 1e-100)),
                                 1.9, 1.9)
    np.testing.assert_allclose(far.etas[:8], 1e100 * unit.etas[:8], rtol=1e-12)
    np.testing.assert_allclose(far.thetas[:8], 1e-100 * unit.thetas[:8], rtol=1e-12)


def test_young_bound_constant_pair():
    const_f = constant_path(2.0, 0.0, 1.0)
    const_g = constant_path(5.0, 0.0, 1.0)
    lad = TruncationLadder(np.asarray([0.0]), np.asarray([0.0]))
    assert young_bound_S(SampledPair(const_f, const_g), lad) == 0.0


def test_young_bound_constant_integrator_keeps_second_sum(tent):
    # g constant kills every TV^theta(g) factor, leaving the f-side sum
    g = constant_path(7.0, 0.0, 2.0)
    etas = np.asarray([0.5, 0.25, 0.0])
    thetas = np.asarray([0.4, 0.2, 0.0])
    lad = TruncationLadder(etas, thetas)
    expected = sum(
        2.0 ** k * thetas[k] * truncated_variation(tent, etas[k])
        for k in range(3)
    )
    assert young_bound_S(SampledPair(tent, g), lad) == pytest.approx(expected, rel=1e-12)


def test_young_bound_diverges_to_inf_flag(tent):
    g = identity_path(3, horizon=2.0)
    huge = np.full(600, 1e200)
    lad = TruncationLadder(huge, huge)
    assert young_bound_S(SampledPair(tent, g), lad) == math.inf


def test_young_bound_finite_ladder_reduces_to_lemma_sum(tent):
    # etas/thetas zero from k >= 1: S = eta_-1 TV^theta0(g) + theta0 TV^eta0(f)
    #                                  + 2 eta0 TV^0(g)
    g = identity_path(9, horizon=2.0)
    eta0, theta0 = 0.4, 0.3
    lad = TruncationLadder(np.asarray([eta0, 0.0]), np.asarray([theta0, 0.0]))
    expected = (
        osc_from_start(tent) * truncated_variation(g, theta0)
        + theta0 * truncated_variation(tent, eta0)
        + 2.0 * eta0 * total_variation(g)
    )
    assert young_bound_S(SampledPair(tent, g), lad) == pytest.approx(expected, rel=1e-12)


def test_leading_term_is_read_off_the_path():
    # sup |f - f(a)| = 1e-12 is not 0, however small: with the zero ladder
    # only the leading term times TV^0 of the other path survives, so no
    # bound is 0 on a nonzero gap
    tiny = scale_path(tent_path(), 1e-12)
    g = identity_path(3, horizon=2.0)
    lad = TruncationLadder([0.0], [0.0])
    tv_g = total_variation(g)
    assert young_bound_S(SampledPair(tiny, g), lad) == 1e-12 * tv_g > 0
    assert gamma_level_check(SampledPair(tiny, g), lad).rhs == 1e-12 * tv_g > 0
    # sup |g(b) - g(t)| of the scaled g is 1e-12 TV^0(g)
    assert (young_bound_S_tilde(SampledPair(g, scale_path(g, 1e-12)), lad)
            == 1e-12 * tv_g * tv_g > 0)


def test_young_series_tent_identity(tent):
    g = identity_path(3, horizon=2.0)
    rep = young_series_check(SampledPair(tent, g), 1.5, 1.5)
    assert rep.passed and math.isfinite(rep.rhs)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)  # int tent dt = 1, f(a) = 0


def test_s_tilde_and_min_series(tent):
    g = identity_path(5, horizon=2.0)
    pair = SampledPair(tent, g)
    ladder_s, ladder_st = default_ladder_pair(pair, 1.5, 1.5)
    s = young_bound_S(pair, ladder_s)
    st = young_bound_S_tilde(pair, ladder_st)
    assert math.isfinite(s) and math.isfinite(st)
    rep = min_series_check(pair, 1.5, 1.5)
    assert rep.passed
    assert rep.rhs == pytest.approx(2.0 * min(s, st), rel=1e-12)


# ---------------------------------------------------------------------------
# lemma tagged-sum bound
# ---------------------------------------------------------------------------
def test_lemma_sum_bound_classical_case(tent):
    g = identity_path(3, horizon=2.0)
    pair = SampledPair(tent, g)
    tagged = _uniform_tagged(len(pair.grid), len(pair.grid) - 1, "left")
    bound = lemma_sum_bound(pair, tagged, [0.0], [0.0])
    assert bound == pytest.approx(osc_from_start(tent) * total_variation(g), rel=1e-12)


def test_lemma_sum_bound_dominates_tagged_sums(tent):
    g = identity_path(9, horizon=2.0)
    pair = SampledPair(tent, g)
    grid = pair.grid
    deltas = [0.8, 0.4, 0.2, 0.1]
    epsilons = [0.6, 0.3, 0.15, 0.075]
    for tag in ("left", "right", "mid"):
        tagged = _uniform_tagged(len(grid), 8, tag)
        s = rs_sum(pair, tagged)
        fc = tent.value_at(grid[0])
        dg = g.value_at(grid[-1]) - g.value_at(grid[0])
        bound = lemma_sum_bound(pair, tagged, deltas, epsilons)
        assert abs(s - fc * dg) <= bound + 1e-9


def test_lemma_sum_bound_single_cell_product(tent):
    # n = 1 reduces to the two-ladder product bound with remainder delta*eps
    g = identity_path(3, horizon=2.0)
    pair = SampledPair(tent, g)
    tagged = TaggedPartition(Partition((0, len(pair.grid) - 1)), (1,))
    d0, e0 = 0.5, 0.25
    bound = lemma_sum_bound(pair, tagged, [d0], [e0])
    expected = (
        osc_from_start(tent) * truncated_variation(g, e0)
        + e0 * truncated_variation(tent, d0)
        + 1 * d0 * e0
    )
    assert bound == pytest.approx(expected, rel=1e-12)
    s = rs_sum(pair, tagged)
    assert abs(s - 0.0 * 2.0) <= bound + 1e-12


def test_lemma_sum_bound_rejects_increasing_ladder(tent):
    g = identity_path(3, horizon=2.0)
    tagged = TaggedPartition(Partition((0, 2)), (1,))
    with pytest.raises(NonMonotoneLadderError):
        lemma_sum_bound(SampledPair(tent, g), tagged, [0.1, 0.2], [0.1, 0.05])


@pytest.mark.parametrize("deltas,epsilons", [
    pytest.param([math.inf], [1.0], id="delta-inf"),
    pytest.param([math.nan], [1.0], id="delta-nan"),
    pytest.param([1.0], [math.inf], id="epsilon-inf"),
    pytest.param([1.0], [math.nan], id="epsilon-nan"),
])
def test_lemma_sum_bound_rejects_non_finite_ladder(tent, deltas, epsilons):
    # an inf term made a vacuous inf bound, a NaN one a NegativeDeltaError
    g = identity_path(3, horizon=2.0)
    tagged = TaggedPartition(Partition((0, 2)), (1,))
    with pytest.raises(NonMonotoneLadderError, match="finite"):
        lemma_sum_bound(SampledPair(tent, g), tagged, deltas, epsilons)


def test_lemma_sum_bound_remainder_overflows_to_inf_without_a_warning(tent):
    # the remainder n * delta_r * epsilon_r overflows: inf, with no warning
    pair = SampledPair(tent, identity_path(3, horizon=2.0))
    tagged = _uniform_tagged(len(pair.grid), len(pair.grid) - 1, "left")
    assert lemma_sum_bound(pair, tagged, [1e300], [1e300]) == math.inf


def test_ladders_leave_the_callers_arrays_writable(tent):
    g = identity_path(3, horizon=2.0)
    tagged = TaggedPartition(Partition((0, 2)), (1,))
    deltas = np.array([0.5, 0.25])
    epsilons = np.array([0.4, 0.2])
    lemma_sum_bound(SampledPair(tent, g), tagged, deltas, epsilons)
    lad = TruncationLadder(deltas, epsilons)
    assert deltas.flags.writeable and epsilons.flags.writeable
    assert not lad.etas.flags.writeable and not lad.thetas.flags.writeable


def test_a_ladders_arrays_refuse_the_writeable_flag():
    # the series trust a validated ladder and never check it again
    lad = TruncationLadder([1.0, 0.5], [0.4, 0.2])
    for array in (lad.etas, lad.thetas):
        with pytest.raises(ValueError):
            array.flags.writeable = True
    assert lad.etas.tolist() == [1.0, 0.5] and lad.thetas.tolist() == [0.4, 0.2]


def test_lemma_sum_bound_extension_consistency():
    # every truncation depth of the telescoping is a valid bound, and the
    # extension by one term changes it by exactly (new level terms + new
    # remainder - retired remainder)
    f = gen_brownian(48, 1.0, seed=70)
    g = gen_brownian(48, 1.0, seed=71)
    pair = SampledPair(f, g)
    grid = pair.grid
    idx = tuple(np.linspace(0, grid.size - 1, 9).astype(int))
    tagged = TaggedPartition(Partition(idx), idx[:-1])
    ladder, _ = default_ladder_pair(pair, 1.5, 1.5)
    n_cells = len(idx) - 1
    observed = abs(
        rs_sum(pair, tagged)
        - f.value_at(grid[idx[0]])
        * (g.value_at(grid[idx[-1]]) - g.value_at(grid[idx[0]]))
    )
    c, d = float(grid[idx[0]]), float(grid[idx[-1]])
    f_cd = restrict(f, c, d)
    g_cd = restrict(g, c, d)
    for r in range(1, 6):
        shorter = lemma_sum_bound(pair, tagged, ladder.etas[:r], ladder.thetas[:r])
        longer = lemma_sum_bound(pair, tagged, ladder.etas[:r + 1], ladder.thetas[:r + 1])
        assert observed <= shorter + 1e-9
        assert observed <= longer + 1e-9
        delta_r, eps_r = float(ladder.etas[r]), float(ladder.thetas[r])
        step = (
            2.0 ** r * float(ladder.etas[r - 1])
            * truncated_variation(g_cd, eps_r)
            + 2.0 ** r * eps_r * truncated_variation(f_cd, delta_r)
            + n_cells * (delta_r * eps_r
                         - float(ladder.etas[r - 1]) * float(ladder.thetas[r - 1]))
        )
        assert longer - shorter == pytest.approx(step, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# the one ladder-series routine against the three loops it replaced
# ---------------------------------------------------------------------------
def _ref_ldexp_capped(x, k):
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def _ref_ladder_terms(x_minus1, xs, ys, prof_x, prof_y):
    last = len(xs) - 1
    for k in range(last + 2):
        x_prev = x_minus1 if k == 0 else float(xs[k - 1])
        y_k = float(ys[k]) if k <= last else 0.0
        first = second = 0.0
        if x_prev != 0.0:
            tv_y = prof_y.value(y_k)
            if tv_y != 0.0:
                first = _ref_ldexp_capped(x_prev, k) * tv_y
        if y_k != 0.0:
            tv_x = prof_x.value(xs[k])
            if tv_x != 0.0:
                second = _ref_ldexp_capped(y_k, k) * tv_x
        yield first, second


def _ref_ladder_sum(terms):
    total = 0.0
    for first, second in terms:
        total += first
        total += second
    return total


def _ref_S(f, g, ladder):
    return _ref_ladder_sum(_ref_ladder_terms(osc_from_start(f), ladder.etas, ladder.thetas,
                                             tv_profile(f), tv_profile(g)))


def _ref_S_tilde(f, g, ladder):
    return _ref_ladder_sum(_ref_ladder_terms(osc_from_end(g), ladder.thetas, ladder.etas,
                                             tv_profile(g), tv_profile(f)))


def _ref_lemma(f, g, tagged, deltas, epsilons):
    deltas = np.asarray(deltas, dtype=np.float64)
    epsilons = np.asarray(epsilons, dtype=np.float64)
    grid = merge_times(f, g)
    part = tagged.partition
    f_cd = restrict(f, float(grid[part.indices[0]]), float(grid[part.indices[-1]]))
    g_cd = restrict(g, float(grid[part.indices[0]]), float(grid[part.indices[-1]]))
    terms = _ref_ladder_terms(osc_from_start(f_cd), deltas, epsilons,
                              tv_profile(f_cd), tv_profile(g_cd))
    bound = 0.0
    for first, second in itertools.islice(terms, deltas.size):
        bound += first
        bound += second
    bound += part.n_cells * deltas[-1] * epsilons[-1]
    return float(bound)


def _ref_gamma(f, g, ladder):
    """(gamma, rhs) of the loop that summed both sides term by term."""
    gamma = 0.0
    rhs = 0.0
    for g_term, f_term in _ref_ladder_terms(osc_from_start(f), ladder.etas, ladder.thetas,
                                            tv_profile(f), tv_profile(g)):
        gamma += 2.0 * f_term
        rhs += g_term
    return gamma, rhs


@pytest.mark.parametrize("p,q", [(1.5, 1.5), (1.9, 1.9), (1.2, 1.8), (1.3, 1.6)])
def test_ladder_series_equals_the_replaced_loops(p, q):
    for seed, (n_f, n_g) in enumerate(((5, 5), (24, 24), (128, 128), (17, 64))):
        f = gen_brownian(n_f, 1.0, seed=300 + 2 * seed)
        g = gen_brownian(n_g, 1.0, seed=301 + 2 * seed)
        pair = SampledPair(f, g)
        ladder_s, ladder_st = default_ladder_pair(pair, p, q)
        s = young_bound_S(pair, ladder_s)
        st = young_bound_S_tilde(pair, ladder_st)
        assert s == _ref_S(f, g, ladder_s) and math.isfinite(s)
        assert st == _ref_S_tilde(f, g, ladder_st) and math.isfinite(st)
        assert young_series_check(pair, p, q).rhs == s
        assert min_series_check(pair, p, q).rhs == 2.0 * min(s, st)
        gamma, rhs = _ref_gamma(f, g, ladder_s)
        rep = gamma_level_check(pair, ladder_s)
        assert rep.extras["gamma"] == gamma and rep.rhs == rhs
        grid = pair.grid
        idx = tuple(np.linspace(0, grid.size - 1, min(9, grid.size)).astype(int))
        tagged = TaggedPartition(Partition(idx), idx[1:])
        for depth in (1, 3, len(ladder_s)):
            deltas, epsilons = ladder_s.etas[:depth], ladder_s.thetas[:depth]
            assert (lemma_sum_bound(pair, tagged, deltas, epsilons)
                    == _ref_lemma(f, g, tagged, deltas, epsilons))


def test_ladder_series_equals_the_replaced_loops_past_the_guard(tent):
    g = identity_path(3, horizon=2.0)
    huge = np.full(600, 1e200)
    lad = TruncationLadder(huge, huge)
    # 2^k 1e200 overflows: the series is truly divergent, so it sums to inf
    assert young_bound_S(SampledPair(tent, g), lad) == _ref_S(tent, g, lad) == math.inf
    # every f-side term truncates at level 1e200, so gamma is 0, but the g-side
    # rhs is inf, and a bound against inf checks nothing
    assert _ref_gamma(tent, g, lad) == (0.0, math.inf)
    with pytest.raises(NonFiniteValueError, match="gamma-level"):
        gamma_level_check(SampledPair(tent, g), lad)


def test_gamma_sums_the_whole_f_side_series(tent):
    # the g-side passes 1e300 at k = 1 and stays finite; gamma is
    # 2 sum 2^k theta_k TV^{eta_k}(f) and the rhs the g-side sum, each over
    # the whole ladder
    g = gen_brownian(33, 2.0, seed=3)
    etas = np.asarray([5e300] + [1e-3] * 10 + [0.0])
    thetas = np.asarray([1e-2] * 11 + [0.0])
    lad = TruncationLadder(etas, thetas)
    f_side = g_side = 0.0
    for first, second in _ref_ladder_terms(osc_from_start(tent), etas, thetas,
                                           tv_profile(tent), tv_profile(g)):
        g_side += first
        f_side += second
    rep = gamma_level_check(SampledPair(tent, g), lad)
    assert rep.extras["gamma"] == 2.0 * f_side
    assert rep.rhs == g_side and 1e301 < rep.rhs < math.inf and rep.passed
    assert (rep.extras["gamma"], rep.rhs) == _ref_gamma(tent, g, lad)


def test_rs_sum_span_mismatch(tent):
    short = identity_path(5, horizon=1.0)
    tagged = TaggedPartition(Partition((0, 1)), (0,))
    with pytest.raises(SpanMismatchError):
        rs_sum(SampledPair(tent, short), tagged)


@pytest.mark.parametrize("f_values, g_values, message", [
    # finite oscillations, but f dg overflows and inf - inf is NaN
    ([1e200] * 3, [0.0, 1e200, 0.0], "Riemann-Stieltjes integral overflows"),
    # rejected before np.diff overflows on g's increments
    ([1.0] * 3, [-1e308, 1e308, 0.0], "oscillation of the path overflows"),
])
def test_rs_sum_overflow_raises_without_warnings(f_values, g_values, message):
    t = [0.0, 0.5, 1.0]
    tagged = TaggedPartition(Partition((0, 1, 2)), (0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError, match=message):
            rs_sum(SampledPair(make_path(t, f_values), make_path(t, g_values)), tagged)


def merged_jump_pair():
    """Step paths with a common jump at 0.5 that centering f rounds away.

    f - f(a) is [0, -1, -1, -1]: 1e-20 - 1 and 2e-20 - 1 are both -1.
    """
    t = [0.0, 0.25, 0.5, 1.0]
    return (make_path(t, [1.0, 1e-20, 2e-20, 2e-20], Mode.STEP),
            make_path(t, [0.0, 0.0, 1.0, 1.0], Mode.STEP))


def test_gamma_level_stands_where_f_dg_overflows():
    # f dg overflows but [f - f(a)] dg does not: the check reads only the
    # centered integral, whether or not int f dg was asked for first
    t = [0.0, 0.5, 1.0]
    f = make_path(t, [1e200, 1e200 + 1e186, 1e200])
    g = make_path(t, [0.0, 1e110, 0.0])
    rep = BOUND_CHECKS["gamma-level-ladder"](SampledPair(f, g), 1.2, 1.2)
    pair = SampledPair(f, g)
    for name in ("integral", "running"):
        with pytest.raises(NonFiniteValueError, match="Riemann-Stieltjes"):
            getattr(pair, name)
    assert BOUND_CHECKS["gamma-level-ladder"](pair, 1.2, 1.2) == rep and rep.passed


@pytest.mark.parametrize("variant", list(BOUND_CHECKS))
def test_every_variant_rejects_a_jump_that_centering_rounds_away(variant):
    f, g = merged_jump_pair()
    with pytest.raises(CommonDiscontinuityError, match=r"shared jump times \[0.5\]"):
        BOUND_CHECKS[variant](SampledPair(f, g), 1.5, 1.5)


# ---------------------------------------------------------------------------
# explicit constants
# ---------------------------------------------------------------------------
def test_loeve_young_constant_values():
    c_mid = loeve_young_constant(1.5, 1.5)
    assert math.isfinite(c_mid) and c_mid >= 4.0
    c_edge = loeve_young_constant(1.9, 1.9)
    assert math.isfinite(c_edge) and c_edge >= 4.0
    # diagnostic: constants blow up toward the regime boundary
    assert c_edge > c_mid


def test_d_e_constants_relations():
    # at (1.99, 1.99) D is about 2.2e267, but its unsplit product overflows;
    # at (1.05, 17.5) two^(q-1) overflows a Python float, which raises
    for p, q in ((1.5, 1.5), (1.9, 1.9), (1.2, 1.8), (1.99, 1.99), (1.05, 17.5)):
        d, e = d_e_constants(p, q)
        assert d > 0.0 and math.isfinite(d)
        assert e == pytest.approx((p - 1.0) ** (1.0 - 1.0 / p) / p * d, rel=1e-12)
        assert e <= 2.0 * d


# ---------------------------------------------------------------------------
# Loeve-Young checks
# ---------------------------------------------------------------------------
def _tag_gap_pairs():
    for seed in range(200):  # the pairs of acceptance criterion 9
        yield gen_brownian(128, 1.0, 2000 + 2 * seed), gen_brownian(128, 1.0, 2001 + 2 * seed)
    rng = np.random.default_rng(19)
    for k in range(200):
        f_mode, g_mode = list(Mode)[k % 2], list(Mode)[k // 2 % 2]
        yield _random_pair_path(rng, f_mode, 2), _random_pair_path(rng, g_mode, 2)


def test_tag_gap_is_the_sup_over_every_tag():
    # the xi form's lhs is the sup over every tag xi in [a; b]: it equals the
    # brute-force max over f's samples, and no merged-grid time beats it; the
    # gaps are read off f - f(a), and match those of int f dg to rounding
    for f, g in _tag_gap_pairs():
        pair = SampledPair(f, g)
        integral = pair.integral
        left, worst, xi = pair.tag_gaps
        dg = g.values[-1] - g.values[0]
        centered = float(pair.centered_cells.sum())
        at_samples = np.abs(centered - (f.values - f.values[0]) * dg)
        assert worst == at_samples.max()
        assert left == at_samples[0]
        i = int(np.searchsorted(f.times, xi))
        assert f.times[i] == xi and at_samples[i] == worst
        assert i in (int(np.argmax(f.values)), int(np.argmin(f.values)))
        grid_f = f.values_at(merge_times(f, g)) - f.values[0]
        at_grid = np.abs(centered - grid_f * dg).max()
        assert abs(worst - at_grid) <= 1e-12 * at_grid
        uncentered = np.abs(integral - f.values * dg)
        terms = np.abs(f.values).max() * np.abs(pair.dg).sum()
        assert np.abs(at_samples - uncentered).max() <= 1e-12 * terms


def test_tag_gap_takes_the_earlier_extremum_on_a_tie():
    # dg = 0: every tag gives the same gap |int f dg|, so xi is the first of
    # f's first maximum and first minimum
    f = make_path([0.0, 0.25, 0.5, 0.75, 1.0], [0.5, -1.0, 2.0, -1.0, 2.0])
    g = make_path([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    pair = SampledPair(f, g)
    left, worst, xi = pair.tag_gaps
    assert worst == left == abs(pair.integral) and xi == 0.25


def _loeve_reports(pair, p, q):
    """The reports of the six `loeve-*` variants on one pair, by variant."""
    return {name: check(pair, p, q) for name, check in BOUND_CHECKS.items()
            if name.startswith("loeve-")}


def test_loeve_constant_integrand():
    f = constant_path(4.0, 0.0, 1.0)
    g = gen_brownian(65, 1.0, seed=7)
    reports = _loeve_reports(SampledPair(f, g), 1.9, 1.9)
    for rep in reports.values():
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.passed


def test_loeve_variants_random_pair():
    f = gen_brownian(128, 1.0, seed=8)
    g = gen_brownian(128, 1.0, seed=9)
    reports = _loeve_reports(SampledPair(f, g), 1.9, 1.9)
    assert len(reports) == 6
    for rep in reports.values():
        assert rep.passed
    for form in ("left", "right", "xi"):
        assert reports[f"loeve-ptv-{form}"].rhs <= reports[f"loeve-pvar-{form}"].rhs + 1e-9


def test_integral_norm_checks_random_pair():
    f = gen_brownian(96, 1.0, seed=10)
    g = gen_brownian(96, 1.0, seed=11)
    thm = integral_norm_check(SampledPair(f, g), 1.9, 1.9, "ptv-theorem")
    assert thm.passed
    info = integral_norm_check(SampledPair(f, g), 1.9, 1.9, "ptv-corollary")
    assert info.extras["asserted"] is False
    remark = integral_norm_check(SampledPair(f, g), 1.9, 1.9, "pvar-remark")
    assert remark.passed
    with pytest.raises(BadParameterError, match="^unknown variant nope$"):
        integral_norm_check(SampledPair(f, g), 1.9, 1.9, "nope")


def test_integral_norm_constant_integrand():
    f = constant_path(2.0, 0.0, 1.0)
    g = gen_brownian(65, 1.0, seed=12)
    rep = integral_norm_check(SampledPair(f, g), 1.9, 1.9, "ptv-theorem")
    assert rep.lhs == pytest.approx(0.0, abs=1e-12) and rep.passed


def test_gamma_level_check_random_pair():
    f = gen_brownian(96, 1.0, seed=13)
    g = gen_brownian(96, 1.0, seed=14)
    pair = SampledPair(f, g)
    ladder, _ = default_ladder_pair(pair, 1.9, 1.9)
    rep = gamma_level_check(pair, ladder)
    assert rep.passed


def test_series_reject_an_overflowing_oscillation():
    # sup |f - f(a)| and sup |f(b) - f| overflow: inf in Python floats, then
    # NonFiniteValueError, with no NumPy overflow warning on the way
    f = make_path([0.0, 0.5, 1.0], [-1e308, 1e308, 0.0])
    g = make_path([0.0, 0.3, 1.0], [0.0, 1.0, 2.0])
    assert osc_from_start(f) == math.inf and osc_from_end(f) == 1e308
    assert osc_from_end(make_path([0.0, 0.5, 1.0], [0.0, 1e308, -1e308])) == math.inf
    ladder = ladder_geometric(1.5, 1.5, 1.0, 1.0)
    with pytest.raises(NonFiniteValueError):
        young_bound_S(SampledPair(f, g), ladder)
    with pytest.raises(NonFiniteValueError):
        gamma_level_check(SampledPair(f, g), ladder)


def test_young_regime_guard():
    f = tent_path()
    g = identity_path(3, horizon=2.0)
    with pytest.raises(BadExponentsError):
        _loeve_reports(SampledPair(f, g), 3.0, 3.0)


@pytest.mark.parametrize("lhs,rhs,constant", [
    pytest.param(1.0, math.inf, 1.0, id="inf-rhs"),
    pytest.param(1.0, 2.0, math.inf, id="inf-constant"),
    pytest.param(math.nan, 2.0, 1.0, id="nan-lhs"),
    pytest.param(math.inf, math.inf, math.inf, id="inf-over-inf"),
])
def test_non_finite_report_is_not_a_verdict(lhs, rhs, constant):
    with pytest.raises(NonFiniteValueError, match="young-s: "):
        bound_report(lhs, rhs, constant, "young-s")


def test_finite_report_passes_up_to_the_slack():
    within = bound_report(1.0 + 0.5 * PASS_SLACK, 1.0, 1.0, "young-s")
    assert within.passed and math.isfinite(within.margin)
    beyond = bound_report(1.0 + 2.0 * PASS_SLACK, 1.0, 1.0, "young-s")
    assert not beyond.passed


def test_the_allowance_is_relative_to_the_terms():
    # a bound violated by a factor of 2 fails at any size (the allowance was
    # once PASS_SLACK in absolute terms below |rhs| = 1)
    assert not bound_report(2e-10, 1e-10, 1, "x").passed
    assert not bound_report(2e-300, 1e-300, 1, "x").passed
    # the term scale widens the allowance, and a tie passes at any size
    assert bound_report(1.0 + 4.0 * PASS_SLACK, 1.0, 1.0, "x", scale=8.0).passed
    assert not bound_report(1.0 + 4.0 * PASS_SLACK, 1.0, 1.0, "x", scale=2.0).passed
    assert all(bound_report(v, v, 1.0, "x").passed for v in (0.0, 5e-324, 1e-300, 1e300))
    with pytest.raises(NonFiniteValueError, match="x: term scale inf overflows float64"):
        bound_report(1.0, 2.0, 1.0, "x", scale=math.inf)
