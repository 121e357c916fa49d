import math

import numpy as np
import pytest

from roughtv.errors import (
    BadExponentsError,
    CommonDiscontinuityError,
    LadderMismatchError,
    NonMonotoneLadderError,
    SpanMismatchError,
)
from roughtv.integrals import (
    IntegralResult,
    TruncationLadder,
    d_e_constants,
    default_ladder_pair,
    indefinite_integral,
    integral_norm_check,
    ladder_geometric,
    gamma_level_check,
    lemma_sum_bound,
    loeve_young_constant,
    loeve_young_reports,
    min_series_check,
    rs_integral,
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
    osc_from_start,
    restrict,
    tent_path,
)
from roughtv.truncation import total_variation, truncated_variation


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
    ident = identity_path(2)
    left = TaggedPartition(Partition((0, 1)), (0,))
    right = TaggedPartition(Partition((0, 1)), (1,))
    assert rs_sum(ident, ident, left) == 0.0
    assert rs_sum(ident, ident, right) == 1.0


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_rs_sum_identity_refines(k):
    n = 2 ** k + 1
    ident = identity_path(n)
    tagged = _uniform_tagged(n, 2 ** k, "left")
    assert rs_sum(ident, ident, tagged) == pytest.approx((1 - 2.0 ** -k) / 2, abs=1e-15)


def test_rs_integral_linear_exact():
    ident = identity_path(1025)
    res = rs_integral(ident, ident)
    assert isinstance(res, IntegralResult)
    assert res.value == pytest.approx(0.5, abs=1e-15)


def test_rs_integral_t_dt_squared():
    t = np.linspace(0.0, 1.0, 2 ** 12 + 1)
    f = make_path(t, t)
    g = make_path(t, t ** 2)
    res = rs_integral(f, g)
    assert abs(res.value - 2.0 / 3.0) <= 1e-6


def test_rs_integral_rejects_common_jumps():
    t = [0.0, 0.5, 0.5 + 2.0 ** -20, 1.0]
    f = make_path(t, [0.0, 0.0, 1.0, 1.0], Mode.STEP)
    g = make_path(t, [1.0, 1.0, 3.0, 3.0], Mode.STEP)
    with pytest.raises(CommonDiscontinuityError):
        rs_integral(f, g)


def test_rs_integral_step_times_linear():
    # int 1_{t >= 1/3} dt over [0;1] = 2/3
    eps = 2.0 ** -20
    f = make_path([0.0, 1.0 / 3.0, 1.0 / 3.0 + eps, 1.0], [0.0, 0.0, 1.0, 1.0], Mode.STEP)
    g = identity_path(2)
    res = rs_integral(f, g)
    assert abs(res.value - (1.0 - (1.0 / 3.0 + eps))) <= 1e-9


def test_rs_integral_step_times_step_disjoint_jumps():
    # integrand jumps at ~1/4, integrator at ~3/4: int f dg = f(3/4) * jump
    eps = 2.0 ** -20
    f = make_path([0.0, 0.25, 0.25 + eps, 1.0], [2.0, 2.0, 5.0, 5.0], Mode.STEP)
    g = make_path([0.0, 0.75, 0.75 + eps, 1.0], [0.0, 0.0, 3.0, 3.0], Mode.STEP)
    res = rs_integral(f, g)
    assert res.value == pytest.approx(5.0 * 3.0, abs=1e-12)
    ind = indefinite_integral(f, g)
    assert ind.mode is Mode.STEP
    assert ind.values[-1] == pytest.approx(res.value, abs=1e-12)
    assert ind.value_at(0.5) == pytest.approx(0.0, abs=1e-12)


def test_indefinite_integral_basics(tent):
    g = gen_brownian(65, 1.0, seed=2)
    one = constant_path(1.0, 0.0, 1.0)
    ind = indefinite_integral(one, g)
    assert np.allclose(ind.values, g.values - g.values[0], atol=1e-12)
    ident = identity_path(129)
    half_sq = indefinite_integral(ident, ident)
    assert np.allclose(half_sq.values, ident.times ** 2 / 2.0, atol=1e-12)


def test_indefinite_endpoint_matches_rs_integral():
    f = gen_brownian(64, 1.0, seed=3)
    g = gen_brownian(64, 1.0, seed=4)
    assert indefinite_integral(f, g).values[-1] == pytest.approx(
        rs_integral(f, g).value, abs=1e-12
    )
    # a step path on either side: the running integral takes g's mode
    eps = 2.0 ** -20
    fs = make_path([0.0, 0.25, 0.25 + eps, 1.0], [0.0, 0.0, 2.0, 2.0], Mode.STEP)
    gl = identity_path(9)
    gs = make_path([0.0, 0.75, 0.75 + eps, 1.0], [0.0, 0.0, 3.0, 3.0], Mode.STEP)
    for f, g in ((fs, gl), (gl, gs)):
        ind = indefinite_integral(f, g)
        assert ind.mode is g.mode
        assert ind.values[-1] == pytest.approx(rs_integral(f, g).value, abs=1e-12)


def _random_pair_path(rng, mode):
    # random walk at random times; the last step is flat, so two step paths
    # never share the jump at t = 1
    n = int(rng.integers(8, 40))
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
        exact = rs_integral(f, g).value
        base = merge_times(f, g)
        coarse = int(np.round(np.log2(base.size - 1)))
        gaps = []
        for log_cells in (12, 15, 18):
            grid = _dyadic_refinement(base, log_cells - coarse)
            idx = tuple(range(grid.size))
            left = TaggedPartition(Partition(idx), idx[:-1])
            gaps.append(abs(rs_sum(f, g, left, grid=grid) - exact))
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
    value = rs_integral(f, g).value
    assert math.isfinite(value)
    # int f dg = sum of f at each jump time of g times the jump
    jumps = float(np.sum(f.values_at(g.times[1:]) * np.diff(g.values)))
    assert value == pytest.approx(jumps, abs=1e-13)


def test_left_sum_refinement_error_shrinks():
    f = gen_brownian(33, 1.0, seed=5)
    g = gen_brownian(33, 1.0, seed=6)
    exact = rs_integral(f, g).value
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
    assert lad.eta_minus1 == 2.0
    assert lad.etas[0] == pytest.approx(2.0 * 2.0 ** (-2.25 + 1.0), rel=1e-12)
    assert lad.thetas[0] == pytest.approx(2.0 ** (-0.75 / 0.5), rel=1e-12)
    pos = lad.etas[lad.etas > 0]
    assert np.all(np.diff(pos) < 0)
    assert lad.etas[-1] == 0.0 and lad.thetas[-1] == 0.0


def test_ladder_rejects_outside_regime():
    with pytest.raises(BadExponentsError):
        ladder_geometric(3.0, 3.0, 1.0, 1.0)


def test_ladder_validation():
    with pytest.raises(NonMonotoneLadderError):
        TruncationLadder(np.asarray([1.0, 2.0]), np.asarray([1.0, 0.5]), 1.0)
    with pytest.raises(NonMonotoneLadderError):
        TruncationLadder(np.asarray([1.0]), np.asarray([1.0, 0.5]), 1.0)


def test_young_bound_constant_pair():
    const_f = constant_path(2.0, 0.0, 1.0)
    const_g = constant_path(5.0, 0.0, 1.0)
    lad = TruncationLadder(np.asarray([0.0]), np.asarray([0.0]), eta_minus1=0.0)
    assert young_bound_S(const_f, const_g, lad) == 0.0


def test_young_bound_constant_integrator_keeps_second_sum(tent):
    # g constant kills every TV^theta(g) factor, leaving the f-side sum
    g = constant_path(7.0, 0.0, 2.0)
    etas = np.asarray([0.5, 0.25, 0.0])
    thetas = np.asarray([0.4, 0.2, 0.0])
    lad = TruncationLadder(etas, thetas, eta_minus1=osc_from_start(tent))
    expected = sum(
        2.0 ** k * thetas[k] * truncated_variation(tent, etas[k])
        for k in range(3)
    )
    assert young_bound_S(tent, g, lad) == pytest.approx(expected, rel=1e-12)


def test_young_bound_diverges_to_inf_flag(tent):
    g = identity_path(3, horizon=2.0)
    huge = np.full(600, 1e200)
    lad = TruncationLadder(huge, huge, eta_minus1=osc_from_start(tent))
    assert young_bound_S(tent, g, lad) == math.inf


def test_young_bound_requires_matching_eta(tent):
    g = identity_path(3, horizon=2.0)
    lad = TruncationLadder(np.asarray([0.1]), np.asarray([0.1]), eta_minus1=0.3)
    with pytest.raises(LadderMismatchError):
        young_bound_S(tent, g, lad)


def test_young_bound_finite_ladder_reduces_to_lemma_sum(tent):
    # etas/thetas zero from k >= 1: S = eta_-1 TV^theta0(g) + theta0 TV^eta0(f)
    #                                  + 2 eta0 TV^0(g)
    g = identity_path(9, horizon=2.0)
    eta0, theta0 = 0.4, 0.3
    lad = TruncationLadder(np.asarray([eta0, 0.0]), np.asarray([theta0, 0.0]),
                           eta_minus1=osc_from_start(tent))
    expected = (
        osc_from_start(tent) * truncated_variation(g, theta0)
        + theta0 * truncated_variation(tent, eta0)
        + 2.0 * eta0 * total_variation(g)
    )
    assert young_bound_S(tent, g, lad) == pytest.approx(expected, rel=1e-12)


def test_young_series_tent_identity(tent):
    g = identity_path(3, horizon=2.0)
    rep = young_series_check(tent, g, 1.5, 1.5)
    assert rep.passed and math.isfinite(rep.rhs)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)  # int tent dt = 1, f(a) = 0


def test_s_tilde_and_min_series(tent):
    g = identity_path(5, horizon=2.0)
    ladder_s, ladder_st = default_ladder_pair(tent, g, 1.5, 1.5)
    s = young_bound_S(tent, g, ladder_s)
    st = young_bound_S_tilde(tent, g, ladder_st)
    assert math.isfinite(s) and math.isfinite(st)
    rep = min_series_check(tent, g, 1.5, 1.5)
    assert rep.passed
    assert rep.rhs == pytest.approx(2.0 * min(s, st), rel=1e-12)


# ---------------------------------------------------------------------------
# lemma tagged-sum bound
# ---------------------------------------------------------------------------
def test_lemma_sum_bound_classical_case(tent):
    g = identity_path(3, horizon=2.0)
    grid = merge_times(tent, g)
    tagged = _uniform_tagged(len(grid), len(grid) - 1, "left")
    bound = lemma_sum_bound(tent, g, tagged, [0.0], [0.0])
    assert bound == pytest.approx(osc_from_start(tent) * total_variation(g), rel=1e-12)


def test_lemma_sum_bound_dominates_tagged_sums(tent):
    g = identity_path(9, horizon=2.0)
    grid = merge_times(tent, g)
    deltas = [0.8, 0.4, 0.2, 0.1]
    epsilons = [0.6, 0.3, 0.15, 0.075]
    for tag in ("left", "right", "mid"):
        tagged = _uniform_tagged(len(grid), 8, tag)
        s = rs_sum(tent, g, tagged)
        fc = tent.value_at(grid[0])
        dg = g.value_at(grid[-1]) - g.value_at(grid[0])
        bound = lemma_sum_bound(tent, g, tagged, deltas, epsilons)
        assert abs(s - fc * dg) <= bound + 1e-9


def test_lemma_sum_bound_single_cell_product(tent):
    # n = 1 reduces to the two-ladder product bound with remainder delta*eps
    g = identity_path(3, horizon=2.0)
    grid = merge_times(tent, g)
    tagged = TaggedPartition(Partition((0, len(grid) - 1)), (1,))
    d0, e0 = 0.5, 0.25
    bound = lemma_sum_bound(tent, g, tagged, [d0], [e0])
    expected = (
        osc_from_start(tent) * truncated_variation(g, e0)
        + e0 * truncated_variation(tent, d0)
        + 1 * d0 * e0
    )
    assert bound == pytest.approx(expected, rel=1e-12)
    s = rs_sum(tent, g, tagged)
    assert abs(s - 0.0 * 2.0) <= bound + 1e-12


def test_lemma_sum_bound_rejects_increasing_ladder(tent):
    g = identity_path(3, horizon=2.0)
    tagged = TaggedPartition(Partition((0, 2)), (1,))
    with pytest.raises(NonMonotoneLadderError):
        lemma_sum_bound(tent, g, tagged, [0.1, 0.2], [0.1, 0.05])


def test_lemma_sum_bound_extension_consistency():
    # every truncation depth of the telescoping is a valid bound, and the
    # extension by one term changes it by exactly (new level terms + new
    # remainder - retired remainder)
    f = gen_brownian(48, 1.0, seed=70)
    g = gen_brownian(48, 1.0, seed=71)
    grid = merge_times(f, g)
    idx = tuple(np.linspace(0, grid.size - 1, 9).astype(int))
    tagged = TaggedPartition(Partition(idx), idx[:-1])
    ladder, _ = default_ladder_pair(f, g, 1.5, 1.5)
    n_cells = len(idx) - 1
    observed = abs(
        rs_sum(f, g, tagged)
        - f.value_at(grid[idx[0]])
        * (g.value_at(grid[idx[-1]]) - g.value_at(grid[idx[0]]))
    )
    c, d = float(grid[idx[0]]), float(grid[idx[-1]])
    f_cd = restrict(f, c, d)
    g_cd = restrict(g, c, d)
    for r in range(1, 6):
        shorter = lemma_sum_bound(f, g, tagged, ladder.etas[:r], ladder.thetas[:r])
        longer = lemma_sum_bound(f, g, tagged, ladder.etas[:r + 1],
                                 ladder.thetas[:r + 1])
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


def test_rs_sum_span_mismatch(tent):
    short = identity_path(5, horizon=1.0)
    tagged = TaggedPartition(Partition((0, 1)), (0,))
    with pytest.raises(SpanMismatchError):
        rs_sum(tent, short, tagged)


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
    for p, q in ((1.5, 1.5), (1.9, 1.9), (1.2, 1.8)):
        d, e = d_e_constants(p, q)
        assert d > 0.0
        assert e == pytest.approx((p - 1.0) ** (1.0 - 1.0 / p) / p * d, rel=1e-12)
        assert e <= 2.0 * d


# ---------------------------------------------------------------------------
# Loeve-Young checks
# ---------------------------------------------------------------------------
def test_loeve_constant_integrand():
    f = constant_path(4.0, 0.0, 1.0)
    g = gen_brownian(65, 1.0, seed=7)
    reports = loeve_young_reports(f, g, 1.9, 1.9)
    for rep in reports.values():
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.passed


def test_loeve_variants_random_pair():
    f = gen_brownian(128, 1.0, seed=8)
    g = gen_brownian(128, 1.0, seed=9)
    reports = loeve_young_reports(f, g, 1.9, 1.9)
    assert len(reports) == 6
    for rep in reports.values():
        assert rep.passed
    for form in ("left", "right-symmetric", "midpoint-xi"):
        assert reports[f"ptv/{form}"].rhs <= reports[f"pvar/{form}"].rhs + 1e-9


def test_integral_norm_checks_random_pair():
    f = gen_brownian(96, 1.0, seed=10)
    g = gen_brownian(96, 1.0, seed=11)
    thm = integral_norm_check(f, g, 1.9, 1.9, "ptv-theorem")
    assert thm.passed
    info = integral_norm_check(f, g, 1.9, 1.9, "ptv-corollary")
    assert info.extras["asserted"] is False
    remark = integral_norm_check(f, g, 1.9, 1.9, "pvar-remark")
    assert remark.passed


def test_integral_norm_constant_integrand():
    f = constant_path(2.0, 0.0, 1.0)
    g = gen_brownian(65, 1.0, seed=12)
    rep = integral_norm_check(f, g, 1.9, 1.9, "ptv-theorem")
    assert rep.lhs == pytest.approx(0.0, abs=1e-12) and rep.passed


def test_gamma_level_check_random_pair():
    f = gen_brownian(96, 1.0, seed=13)
    g = gen_brownian(96, 1.0, seed=14)
    ladder, _ = default_ladder_pair(f, g, 1.9, 1.9)
    rep = gamma_level_check(f, g, ladder)
    assert rep.passed


def test_young_regime_guard():
    f = tent_path()
    g = identity_path(3, horizon=2.0)
    with pytest.raises(BadExponentsError):
        loeve_young_reports(f, g, 3.0, 3.0)
