import warnings

import numpy as np
import pytest

from conftest import random_corpus
from roughtv import kernels
from roughtv.errors import (
    NegativeDeltaError,
    NonFiniteValueError,
    NonPositiveDeltaError,
)
from roughtv.norms import p_tv_seminorm, p_variation
from roughtv.oracle import tv_partition_bruteforce
from roughtv.paths import add_paths, make_path, oscillation, restrict, scale_path
from roughtv.truncation import (
    optimal_approximation,
    swing_pieces,
    total_variation,
    truncated_variation,
    tv_profile,
)

DELTAS = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5]


# ---------------------------------------------------------------------------
# truncated_variation
# ---------------------------------------------------------------------------
def test_tent_values(tent):
    assert truncated_variation(tent, 0.0) == 2.0
    assert truncated_variation(tent, 1.0) == 0.0
    assert truncated_variation(tent, 2.0) == 0.0
    assert truncated_variation(tent, 0.5) == 1.0  # oracle value


def test_single_jump():
    jump = make_path([0.0, 1.0], [0.0, 0.8])
    for delta in (0.0, 0.3, 0.8, 1.0):
        assert truncated_variation(jump, delta) == max(0.8 - delta, 0.0)


def test_negative_delta_rejected(tent):
    with pytest.raises(NegativeDeltaError):
        truncated_variation(tent, -0.1)


def test_nan_delta_rejected(tent):
    # NaN fails every comparison, so a check must ask `not delta >= 0`
    with pytest.raises(NegativeDeltaError, match="delta must be >= 0"):
        truncated_variation(tent, float("nan"))
    with pytest.raises(NegativeDeltaError, match="delta must be >= 0"):
        tv_profile(tent).value(float("nan"))
    with pytest.raises(NonPositiveDeltaError, match="delta must be > 0"):
        optimal_approximation(tent, float("nan"))
    # an infinite threshold truncates every swing: TV^inf = 0
    assert truncated_variation(tent, float("inf")) == 0.0
    assert tv_profile(tent).value(float("inf")) == 0.0


def test_matches_bruteforce_oracle():
    for path in random_corpus(seed=11, count=120, max_n=12):
        for delta in DELTAS:
            fast = truncated_variation(path, delta)
            slow = tv_partition_bruteforce(path, delta)
            assert abs(fast - slow) <= 1e-10


def _tv_dp(v, delta):
    # independent quadratic reference for sizes past the subset-oracle cap
    best = np.zeros(v.size)
    for j in range(1, v.size):
        best[j] = np.max(best[:j] + np.maximum(np.abs(v[j] - v[:j]) - delta, 0.0))
    return float(best[-1]) if v.size > 1 else 0.0


def test_matches_quadratic_dp_on_longer_paths():
    rng = np.random.default_rng(777)
    for trial in range(300):
        n = int(rng.integers(2, 60))
        style = trial % 4
        if style == 0:
            v = rng.uniform(-1, 1, n)
        elif style == 1:
            v = np.cumsum(rng.standard_normal(n)) * 0.3
        elif style == 2:
            v = np.round(rng.uniform(-1, 1, n), 1)  # plateaus and ties
        else:
            v = np.sin(np.linspace(0, rng.uniform(1, 40), n))
        path = make_path(np.linspace(0.0, 1.0, n), v)
        for delta in (0.0, 1e-12, 0.1, 0.5, 1.0, 3.5):
            assert abs(truncated_variation(path, delta) - _tv_dp(v, delta)) <= 1e-10


def test_monotone_in_delta():
    for path in random_corpus(seed=12, count=40):
        values = [truncated_variation(path, d) for d in DELTAS]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_positive_homogeneity():
    for path in random_corpus(seed=13, count=40):
        for alpha in (0.3, 2.0, 11.0):
            lhs = truncated_variation(scale_path(path, alpha), alpha * 0.2)
            rhs = alpha * truncated_variation(path, 0.2)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_interval_superadditivity():
    rng = np.random.default_rng(14)
    for path in random_corpus(seed=15, count=40, max_n=16):
        mid_candidates = path.times[1:-1]
        if mid_candidates.size == 0:
            continue
        mid = float(rng.choice(mid_candidates))
        for delta in (0.0, 0.2, 0.6):
            whole = truncated_variation(path, delta)
            left = truncated_variation(restrict(path, path.a, mid), delta)
            right = truncated_variation(restrict(path, mid, path.b), delta)
            assert whole >= left + right - 1e-10


def test_perturbation_bound():
    corpus = random_corpus(seed=16, count=40, max_n=10)
    others = random_corpus(seed=17, count=40, max_n=10)
    for f, h in zip(corpus, others):
        h = make_path(f.times, np.interp(f.times, h.times, h.values))
        for delta in (0.0, 0.3, 0.9):
            lhs = truncated_variation(add_paths(f, h), delta)
            rhs = truncated_variation(f, delta) + total_variation(h)
            assert lhs <= rhs + 1e-10


def test_split_bound():
    corpus = random_corpus(seed=18, count=40, max_n=10)
    others = random_corpus(seed=19, count=40, max_n=10)
    for f, g in zip(corpus, others):
        g = make_path(f.times, np.interp(f.times, g.times, g.values))
        for d1, d2 in ((0.0, 0.4), (0.2, 0.2), (0.5, 0.1)):
            lhs = truncated_variation(add_paths(f, g), d1 + d2)
            rhs = truncated_variation(f, d1) + truncated_variation(g, d2)
            assert lhs <= rhs + 1e-10


def test_lower_bound_and_pvar_domination():
    for path in random_corpus(seed=20, count=40):
        osc = oscillation(path)
        for delta in (0.01, 0.3, 0.8):
            tv = truncated_variation(path, delta)
            assert tv >= max(osc - delta, 0.0) - 1e-12
            for p in (1.5, 2.0, 3.0):
                assert tv <= p_variation(path, p) * delta ** (1.0 - p) + 1e-9


# ---------------------------------------------------------------------------
# optimal_approximation
# ---------------------------------------------------------------------------
def test_approximation_tent_large_delta(tent):
    g = optimal_approximation(tent, 2.0)
    assert np.all(g.values == 0.0)
    assert total_variation(g) == 0.0


def test_approximation_tent_half(tent):
    g = optimal_approximation(tent, 0.5)
    assert abs(total_variation(g) - 1.0) <= 1e-12
    assert np.max(np.abs(g.values - tent.values)) <= 0.25 + 1e-15


def test_approximation_contract():
    for path in random_corpus(seed=21, count=80, max_n=14):
        osc = oscillation(path)
        if osc == 0.0:
            continue
        for frac in (0.1, 0.5, 1.0):
            delta = frac * osc
            g = optimal_approximation(path, delta)
            assert np.max(np.abs(g.values - path.values)) <= delta / 2 + 1e-12
            assert abs(total_variation(g) - truncated_variation(path, delta)) <= 1e-9


def test_approximation_small_delta_limit():
    for path in random_corpus(seed=22, count=20):
        delta = 1e-12 * max(oscillation(path), 1.0)
        g = optimal_approximation(path, delta)
        assert abs(total_variation(g) - total_variation(path)) <= 1e-9


def test_approximation_rejects_nonpositive(tent):
    with pytest.raises(NonPositiveDeltaError):
        optimal_approximation(tent, 0.0)


# ---------------------------------------------------------------------------
# tv_profile
# ---------------------------------------------------------------------------
def test_profile_single_jump():
    prof = tv_profile(make_path([0.0, 1.0], [0.0, 1.0]))
    assert prof.n_segments == 1
    bp, coef_a, coef_b = prof.pieces
    assert bp == [0.0, 1.0]
    assert abs(coef_a[0] - 1.0) <= 1e-12
    assert abs(coef_b[0] - 1.0) <= 1e-12


def test_profile_tent(tent):
    prof = tv_profile(tent)
    assert prof.n_segments == 1
    _, coef_a, coef_b = prof.pieces
    assert abs(coef_a[0] - 2.0) <= 1e-12
    assert abs(coef_b[0] - 2.0) <= 1e-12
    assert prof.value(0.25) == pytest.approx(1.5, abs=1e-12)


def test_profile_with_breakpoint():
    path = make_path([0, 1, 2, 3], [0.0, 1.0, 0.0, 2.0])
    prof = tv_profile(path)
    for delta in np.linspace(0.0, oscillation(path), 100):
        direct = truncated_variation(path, delta)
        assert abs(prof.value(delta) - direct) <= 1e-10


def test_profile_invariants_random():
    for path in random_corpus(seed=23, count=60, max_n=24):
        prof = tv_profile(path)
        osc = oscillation(path)
        assert prof.value(0.0) == pytest.approx(total_variation(path), abs=1e-9)
        assert prof.value(osc) <= 1e-12
        breakpoints, coef_a, coef_b = prof.pieces
        assert breakpoints[0] == 0.0
        assert breakpoints[-1] == pytest.approx(osc, abs=1e-12)
        # continuity at shared breakpoints, relative 1e-9
        for j in range(prof.n_segments - 1):
            bp = breakpoints[j + 1]
            left = coef_a[j] - coef_b[j] * bp
            right = coef_a[j + 1] - coef_b[j + 1] * bp
            assert abs(left - right) <= 1e-9 * max(1.0, abs(left))
        # nonincreasing and convex as an evaluated function
        grid = np.linspace(0.0, osc, 33)
        vals = np.asarray([prof.value(d) for d in grid])
        assert np.all(np.diff(vals) <= 1e-9)
        chords = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(vals[1:-1] <= chords + 1e-9)
        # matches the direct evaluation pointwise
        for delta in np.linspace(0.0, osc, 17):
            assert abs(prof.value(delta) - truncated_variation(path, delta)) <= 1e-10


def test_profile_constant_path():
    prof = tv_profile(make_path([0.0, 1.0], [2.0, 2.0]))
    assert prof.n_segments == 0
    assert prof.value(0.0) == 0.0


def _profile_corpus():
    # random, tie-heavy, plateau and monotone values, up to n = 4096
    rng = np.random.default_rng(24)
    out = []
    for n in (3, 17, 256, 4096):
        out.append(rng.uniform(-1.0, 1.0, n))
        out.append(rng.integers(-3, 4, n).astype(float))
        out.append(np.repeat(np.cumsum(rng.standard_normal(n // 4 + 1)), 4)[:n])
        out.append(np.cumsum(rng.uniform(0.0, 1.0, n)))
    return out


def test_profile_matches_tv_delta_at_breakpoints_and_random_deltas():
    rng = np.random.default_rng(25)
    for v in _profile_corpus():
        prof = tv_profile(make_path(np.linspace(0.0, 1.0, v.size), v))
        osc = prof.oscillation
        deltas = np.concatenate((prof.pieces[0], rng.uniform(0.0, osc, 25),
                                 [1.5 * osc]))
        for delta in deltas:
            direct = kernels.tv_delta(v, delta)
            assert abs(prof.value(delta) - direct) <= 1e-12 * direct


def test_profile_segmentation_is_minimal():
    for v in _profile_corpus():
        path = make_path(np.linspace(0.0, 1.0, v.size), v)
        prof = tv_profile(path)
        b = np.array(prof.pieces[2])
        # one slope per piece: no two neighbours are collinear
        assert np.all(b > 0) and np.all(b == np.round(b))
        assert np.all(np.diff(b) < 0)
        assert prof.pieces[0][-1] == oscillation(path)


def test_profile_makes_no_tv_delta_call(monkeypatch):
    def forbidden(values, delta):
        raise AssertionError("tv_profile must not evaluate tv_delta")

    path = make_path(np.linspace(0.0, 1.0, 9), [0, 2, 1, 3, -1, 0, -0.5, 4, 1])
    monkeypatch.setattr(kernels, "tv_delta", forbidden)
    prof = tv_profile(path)
    # swings 2 1 2 4 1 0.5 4.5 3: the 0.5 and 1 swings fuse inner triples,
    # both end swings of 3 drop together, then the end swing 4, then osc = 5
    assert prof.pieces == ([0.0, 0.5, 1.0, 3.0, 4.0, 5.0],
                           [18.0, 17.0, 15.0, 9.0, 5.0],
                           [8.0, 6.0, 4.0, 2.0, 1.0])


def test_profile_rejects_overflowing_oscillation():
    # osc = 1e308 - (-1e308) overflows; a seminorm of 0 would be wrong
    path = make_path([0.0, 0.5, 1.0], [-1e308, 1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError):
            oscillation(path)
    with pytest.raises(NonFiniteValueError):
        tv_profile(path)
    with pytest.raises(NonFiniteValueError):
        p_tv_seminorm(path, 2.0)
    with pytest.raises(NonFiniteValueError):
        swing_pieces([-1e308, 1e308])  # a single swing too


def test_profile_rejects_overflowing_total_variation():
    # osc = 1e308 is finite, but TV = 4e308 is not; an inf piece has nan
    # peaks, which would leave the seminorm a silent 0
    path = make_path(np.linspace(0.0, 1.0, 5), [0.0, 1e308, 0.0, 1e308, 0.0])
    assert oscillation(path) == 1e308
    with pytest.raises(NonFiniteValueError):
        tv_profile(path)
    for p in (1.0, 1.5):
        with pytest.raises(NonFiniteValueError):
            p_tv_seminorm(path, p)
    for delta in (0.0, 1.0):
        with pytest.raises(NonFiniteValueError):
            truncated_variation(path, delta)
    with pytest.raises(NonFiniteValueError):
        total_variation(path)
    # above the largest swing nothing is summed
    assert truncated_variation(path, 1e308) == 0.0


def test_tv_rejects_overflowing_oscillation():
    path = make_path([0.0, 0.5, 1.0], [-1e308, 1e308, 0.0])
    with pytest.raises(NonFiniteValueError):
        truncated_variation(path, 0.5)
    with pytest.raises(NonFiniteValueError):
        total_variation(path)
