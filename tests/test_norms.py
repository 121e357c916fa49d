import numpy as np
import pytest

from conftest import random_corpus
from roughtv.errors import (
    BadExponentError,
    BadExponentOrderError,
    NegativeIncrementError,
    NonFiniteValueError,
)
from roughtv.norms import (
    c_p,
    embedding_bound,
    p_tv_seminorm,
    p_var_seminorm,
    p_variation,
    partition_sup_delta,
    seminorm_on,
    seminorm_with_argmax,
    tv_p_full_norm,
    window_seminorm,
)
from roughtv.oracle import pvar_bruteforce, seminorm_bruteforce, sup_delta_grid
from roughtv.paths import (
    add_paths,
    gen_brownian,
    gen_counterexample_fx,
    gen_zigzag,
    make_path,
    oscillation,
    scale_path,
)
from roughtv.truncation import truncated_variation


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------
def test_pvar_tent(tent):
    assert p_variation(tent, 1.0) == 2.0
    assert p_variation(tent, 2.0) == 2.0


def test_pvar_monotone():
    mono = make_path([0, 1, 2, 3], [0.0, 0.5, 1.2, 2.0])
    for p in (1.0, 1.5, 2.0, 3.0):
        assert p_variation(mono, p) == pytest.approx(2.0 ** p, abs=1e-12)


def test_pvar_matches_bruteforce():
    for path in random_corpus(seed=31, count=80, max_n=12):
        for p in (1.0, 1.5, 2.0, 3.0):
            assert abs(p_variation(path, p) - pvar_bruteforce(path, p)) <= 1e-10


def test_pvar_rejects_overflowing_oscillation():
    huge = make_path([0.0, 0.5, 1.0], [-1e308, 1e308, 0.0])
    with pytest.raises(NonFiniteValueError):
        p_variation(huge, 2.0)


def test_pvar_rejects_bad_exponent(tent):
    with pytest.raises(BadExponentError):
        p_variation(tent, 0.5)


# ---------------------------------------------------------------------------
# c_p
# ---------------------------------------------------------------------------
def test_c_p_examples():
    assert c_p(2.0) == 0.25
    assert abs(c_p(1.0 + 1e-6) - 1.0) <= 1e-4
    for p in np.linspace(1.01, 6.0, 40):
        assert 2.0 ** -p <= c_p(p) <= 1.0
    with pytest.raises(BadExponentError):
        c_p(1.0)


# ---------------------------------------------------------------------------
# partition_sup_delta
# ---------------------------------------------------------------------------
def test_partition_sup_delta_examples():
    assert partition_sup_delta([1.0], 2.0) == pytest.approx(0.5, abs=1e-15)
    assert partition_sup_delta([1.0, 1.0], 2.0) == pytest.approx(
        np.sqrt(2.0) / 2.0, abs=1e-12
    )
    assert partition_sup_delta([0.0, 0.0, 0.0], 1.5) == 0.0
    with pytest.raises(NegativeIncrementError):
        partition_sup_delta([0.5, -0.1], 2.0)


def test_partition_sup_delta_matches_grid():
    rng = np.random.default_rng(32)
    for _ in range(40):
        xs = rng.uniform(0.0, 1.0, int(rng.integers(1, 8)))
        for p in (1.5, 2.0):
            exact = partition_sup_delta(xs, p)
            grid = sup_delta_grid(xs, p)
            assert grid <= exact + 1e-12
            assert exact - grid <= 1e-6


# ---------------------------------------------------------------------------
# seminorm and full norm
# ---------------------------------------------------------------------------
def test_seminorm_single_jump_closed_form():
    jump = make_path([0.0, 1.0], [0.0, 1.0])
    sem, arg = seminorm_with_argmax(jump, 2.0)
    assert abs(sem - 0.5) <= 1e-12
    assert abs(arg - 0.5) <= 1e-12


def test_seminorm_tent(tent):
    sem, arg = seminorm_with_argmax(tent, 2.0)
    assert sem == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert arg == pytest.approx(0.5, abs=1e-12)
    # dense-grid cross check
    deltas = np.linspace(1e-6, 1.0, 4000)
    grid = max(d * truncated_variation(tent, d) for d in deltas) ** 0.5
    assert grid <= sem + 1e-12 and sem - grid <= 1e-4


def test_seminorm_p_one_is_total_variation(tent):
    assert p_tv_seminorm(tent, 1.0) == 2.0


def test_seminorm_matches_bruteforce():
    for path in random_corpus(seed=33, count=60, max_n=10):
        for p in (1.5, 2.0):
            fast = p_tv_seminorm(path, p)
            slow = seminorm_bruteforce(path, p)
            assert abs(fast - slow) <= 1e-8


def test_window_seminorm_of_slice_equals_seminorm_on():
    # a window between sample times restricts to exactly the value slice
    rng = np.random.default_rng(61)
    paths = [make_path([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])]
    for n in (5, 9, 14):
        times = np.cumsum(rng.uniform(0.1, 1.0, n))
        paths.append(make_path(times, np.cumsum(rng.normal(size=n))))
        paths.append(make_path(times, np.cumsum(rng.integers(-1, 2, size=n)), "step"))
    for x in paths:
        t = x.times
        for p in (1.0, 1.25, 1.5, 2.0):
            for i in range(t.size - 1):
                for j in range(i + 1, t.size):
                    assert window_seminorm(x.values[i:j + 1], p) == seminorm_on(x, t[i], t[j], p)


def test_zigzag_level_seminorms():
    phi = gen_zigzag(1.5, 6)
    for n in range(1, 7):
        band = seminorm_on(phi, 2.0 ** -n, 2.0 ** (-n + 1), 1.5)
        assert band ** 1.5 >= 1.0 - 1e-9


def test_full_norm_examples(tent):
    const = make_path([0.0, 1.0], [3.0, 3.0])
    rep = tv_p_full_norm(const, 2.0)
    assert rep.full_norm == 3.0 and rep.seminorm == 0.0
    rep_tent = tv_p_full_norm(tent, 2.0)
    assert rep_tent.full_norm == rep_tent.seminorm
    doubled = tv_p_full_norm(scale_path(tent, 2.0), 2.0)
    assert doubled.full_norm == pytest.approx(2.0 * rep_tent.full_norm, rel=1e-12)


def test_norm_report_sandwich():
    for path in random_corpus(seed=34, count=60, max_n=16):
        for p in (1.5, 2.0):
            rep = tv_p_full_norm(path, p)
            assert rep.seminorm <= rep.pvar + 1e-9
            assert rep.seminorm >= c_p(p) ** (1.0 / p) * rep.osc - 1e-9


def test_triangle_inequality_sample():
    lhs_corpus = random_corpus(seed=35, count=60, max_n=12)
    rhs_corpus = random_corpus(seed=36, count=60, max_n=12)
    for f, g in zip(lhs_corpus, rhs_corpus):
        g = make_path(f.times, np.interp(f.times, g.times, g.values))
        for p in (1.5, 2.0):
            both = p_tv_seminorm(add_paths(f, g), p)
            assert both <= p_tv_seminorm(f, p) + p_tv_seminorm(g, p) + 1e-9


def test_interval_subadditivity():
    rng = np.random.default_rng(37)
    for path in random_corpus(seed=38, count=40, max_n=14):
        inner = path.times[1:-1]
        if inner.size == 0:
            continue
        mid = float(rng.choice(inner))
        for p in (1.5, 2.0):
            whole = p_tv_seminorm(path, p)
            split = seminorm_on(path, path.a, mid, p) + seminorm_on(path, mid, path.b, p)
            assert whole <= split + 1e-9


def test_power_superadditivity_fails_for_fx():
    # x > p/(p-1) = 2 makes the p-th power strictly subadditive at the origin
    f3 = gen_counterexample_fx(3.0)
    p = 2.0
    whole = p_tv_seminorm(f3, p) ** p
    left = seminorm_on(f3, -1.0, 0.0, p) ** p
    right = seminorm_on(f3, 0.0, 1.0, p) ** p
    assert whole < left + right - 1e-6
    assert whole == pytest.approx(2.25, abs=1e-9)
    assert left + right == pytest.approx(0.25 + 2.25, abs=1e-9)


def test_q_from_p_domination():
    for path in random_corpus(seed=39, count=40, max_n=14):
        for p, q in ((1.5, 2.0), (1.2, 1.8)):
            sq = p_tv_seminorm(path, q)
            sp = p_tv_seminorm(path, p)
            osc = oscillation(path)
            assert sq <= osc ** (1.0 - p / q) * sp ** (p / q) + 1e-9


def test_zigzag_global_upper_bound():
    p = 1.5
    phi = gen_zigzag(p, 6)
    bound = 4.0 * 2.0 ** (2.0 * (p - 1.0)) / (2.0 ** (p - 1.0) - 1.0)
    assert p_tv_seminorm(phi, p) ** p <= bound + 1e-9


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------
def test_embedding_constant():
    rep = embedding_bound(make_path([0.0, 1.0], [2.0, 2.0]), 1.5, 2.0)
    assert rep.lhs == 0.0 and rep.passed


def test_embedding_tent(tent):
    assert embedding_bound(tent, 1.5, 2.0).passed


def test_embedding_order_enforced(tent):
    with pytest.raises(BadExponentOrderError):
        embedding_bound(tent, 2.0, 1.5)


def test_embedding_random_walks():
    for seed in range(40):
        walk = gen_brownian(64, 1.0, seed)
        assert embedding_bound(walk, 1.5, 2.0).passed


def test_pvar_seminorm_consistency():
    for path in random_corpus(seed=40, count=30):
        for p in (1.5, 2.0):
            assert p_var_seminorm(path, p) == pytest.approx(
                p_variation(path, p) ** (1.0 / p), rel=1e-12
            )
