import numpy as np
import pytest

from conftest import random_corpus
from roughtv import kernels
from roughtv.errors import (
    BadExponentError,
    BadExponentOrderError,
    NegativeIncrementError,
    NonFiniteValueError,
)
from roughtv.norms import (
    c_p,
    embedding_bound,
    extrema_seminorm,
    p_tv_seminorm,
    p_var_seminorm,
    p_variation,
    partition_sup_delta,
    seminorm_on,
    seminorm_with_argmax,
    tv_p_full_norm,
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
from roughtv.truncation import total_variation, truncated_variation, tv_profile
from test_kernels import _window_paths


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


def test_pvar_at_one_is_total_variation_bitwise():
    # V^1 and TV^0 add the same swings in the same order
    for seed in range(200):
        walk = gen_brownian(1000, 1.0, seed)
        assert p_variation(walk, 1.0) == total_variation(walk)


def test_pvar_rejects_overflowing_oscillation():
    huge = make_path([0.0, 0.5, 1.0], [-1e308, 1e308, 0.0])
    with pytest.raises(NonFiniteValueError):
        p_variation(huge, 2.0)


def test_pvar_rejects_overflowing_sum():
    # the oscillation 1e200 is finite, but 2 * (1e200)^1.9 is not
    tall = make_path([0.0, 0.5, 1.0], [0.0, 1e200, 0.0])
    with pytest.raises(NonFiniteValueError):
        p_variation(tall, 1.9)
    assert p_variation(tall, 1.0) == 2e200


def test_seminorm_rejects_overflowing_supremum():
    # a power (p = 3) or a product (p = 1.9) beyond float64
    tall = make_path([0.0, 0.5, 1.0], [0.0, 1e200, 0.0])
    for p in (1.9, 3.0):
        with pytest.raises(NonFiniteValueError):
            seminorm_with_argmax(tall, p)
    assert seminorm_with_argmax(tall, 1.0) == (2e200, 0.0)


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


def test_extrema_seminorm_of_slice_equals_seminorm_on():
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
                    ext = kernels.reduce_to_extrema(x.values[i:j + 1]).tolist()
                    assert extrema_seminorm(ext, p) == seminorm_on(x, t[i], t[j], p)


def test_extrema_seminorm_of_window_equals_slice_routes():
    # the seminorm read from one reduction of the path equals the one of
    # the slice's own extrema, and of the path through the slice, bit for bit
    for v in _window_paths(62, count=30):
        extrema = kernels.window_extrema(v)
        for i in range(v.size - 1):
            for j in range(i + 1, v.size):
                seg = v[i:j + 1]
                ext = extrema(i, j)
                seg_ext = kernels.reduce_to_extrema(seg).tolist()
                seg_path = make_path(np.arange(seg.size, dtype=float), seg)
                for p in (1.0, 1.25, 1.5, 1.9):
                    got = extrema_seminorm(ext, p)
                    assert got == extrema_seminorm(seg_ext, p)
                    assert got == p_tv_seminorm(seg_path, p)


def test_extrema_seminorm_error_order():
    # oscillation overflow, then total variation overflow, then the
    # exponent, then the supremum, as for a profile of the values
    with pytest.raises(NonFiniteValueError, match="oscillation"):
        extrema_seminorm([-1e308, 1e308], 0.5)
    with pytest.raises(NonFiniteValueError, match="total variation"):
        extrema_seminorm([0.0, 1e308, 0.0, 1e308, 0.0], 0.5)
    with pytest.raises(BadExponentError):
        extrema_seminorm([0.0, 1.0], 0.5)
    with pytest.raises(BadExponentError):
        extrema_seminorm([1.0], 0.5)
    with pytest.raises(NonFiniteValueError, match="seminorm"):
        extrema_seminorm([0.0, 1e200, 0.0], 1.9)
    assert extrema_seminorm([2.0], 1.5) == 0.0


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


def test_embedding_large_q(tent):
    # the constant (2^(q+p-1) / (2^(q-p) - 1))^(1/q) tends to 2^((2p-1)/q)
    rep = embedding_bound(tent, 1.5, 1100.0)
    assert rep.constant_used == pytest.approx(4.0 ** (1.0 / 1100.0), rel=1e-12)
    assert rep.passed


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


def _parent_segment_search(profile, p):
    """The seminorm as the package once found it: on every piece, evaluate
    delta^(p-1) (a - b delta)_+ at both ends and at the peak when the peak
    lies strictly inside; ties resolve to the smaller delta."""
    best = 0.0
    best_delta = 0.0
    bp, coef_a, coef_b = map(np.array, profile.pieces)
    pm1 = p - 1.0
    for j in range(profile.n_segments):
        lo = bp[j]
        hi = bp[j + 1]
        a = coef_a[j]
        b = coef_b[j]
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
    return best ** (1.0 / p), best_delta


def _profile_values(rng, kind):
    """Sample values of a seeded walk, an integer path with ties and
    plateaus, or uniform values at a scale between 1e-5 and 1e5."""
    n = int(rng.integers(2, 200))
    if kind == 0:
        return np.cumsum(rng.normal(size=n)) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == 1:
        return np.cumsum(rng.integers(-2, 3, size=n)).astype(float)
    if kind == 2:
        return np.repeat(rng.integers(-3, 4, size=n), rng.integers(1, 4, size=n)).astype(float)
    return rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-5.0, 5.0)


def test_seminorm_matches_parent_segment_search():
    rng = np.random.default_rng(71)
    for case in range(1200):
        values = _profile_values(rng, case % 4)
        path = make_path(np.linspace(0.0, 1.0, values.size), values)
        profile = tv_profile(path)
        for p in (1.01, 1.25, 1.5, 1.9, 2.0, 3.0):
            assert seminorm_with_argmax(path, p) == _parent_segment_search(profile, p)


def _parent_peak(coef_a, coef_b, p):
    """The peak loop as the parent route ran it, after `TvProfile` arrays
    were turned back into lists: the first largest piece peak wins."""
    pm1 = p - 1.0
    best = best_delta = 0.0
    for a, b in zip(coef_a, coef_b):
        delta = a * pm1 / (p * b)
        try:
            value = delta ** pm1 * (a - b * delta)
        except OverflowError:
            value = float("inf")
        if value > best:
            best, best_delta = value, delta
    if best == float("inf"):
        raise NonFiniteValueError("p-TV seminorm overflows float64")
    return best ** (1.0 / p), best_delta


def _parent_profile_route(path, p):
    """seminorm_with_argmax as it was: a `TvProfile`, then its arrays as lists."""
    _, coef_a, coef_b = map(np.array, tv_profile(path).pieces)
    return _parent_peak(coef_a.tolist(), coef_b.tolist(), p)


def _parent_partition_route(increments, p):
    """partition_sup_delta as it was: a `TvProfile` of the sorted increments."""
    xs = np.sort(np.asarray(increments, dtype=np.float64))
    suffix = np.cumsum(xs[::-1])[::-1]
    counts = np.arange(xs.size, 0, -1, dtype=np.float64)
    return _parent_peak(suffix.tolist(), counts.tolist(), p)[0]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NonFiniteValueError as exc:
        return str(exc)


def test_one_route_matches_parent_profile_route():
    # ties, plateaus, zero and duplicate increments at scales 1e-300..1e300;
    # where the peak underflows to 0 both routes read (0.0, 0.0), and where
    # it overflows both raise
    rng = np.random.default_rng(73)
    underflows = overflows = 0
    for case in range(160):
        values = _profile_values(rng, case % 4)
        for scale in (1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300):
            scaled = values * scale
            path = make_path(np.linspace(0.0, 1.0, scaled.size), scaled)
            increments = np.abs(np.diff(scaled))
            for p in (1.0, 1.01, 1.5, 2.0, 3.0):
                got = _outcome(seminorm_with_argmax, path, p)
                ref = _outcome(_parent_profile_route, path, p)
                if p == 1.0 and not isinstance(ref, str):
                    # p = 1 sums TV^0 in path order, as total_variation does
                    ref = (total_variation(path), 0.0)
                assert got == ref
                assert (_outcome(partition_sup_delta, increments, p)
                        == _outcome(_parent_partition_route, increments, p))
                underflows += got == (0.0, 0.0) and np.ptp(scaled) > 0
                overflows += isinstance(got, str)
    assert underflows > 0 and overflows > 0


def test_norm_at_p_one_has_the_digits_of_total_variation():
    # one summation order for all three: the swing levels summed largest
    # first differ in the last digits from the path-order sum on most walks
    for seed in range(200):
        path = gen_brownian(1000, 1.0, seed=seed)
        rep = tv_p_full_norm(path, 1.0)
        assert rep.seminorm == rep.pvar == total_variation(path)


def test_seminorm_at_p_one_is_total_variation_at_delta_zero():
    rng = np.random.default_rng(72)
    for case in range(1200):
        values = _profile_values(rng, case % 4)
        path = make_path(np.linspace(0.0, 1.0, values.size), values)
        sem, arg = seminorm_with_argmax(path, 1.0)
        assert sem == pytest.approx(total_variation(path), rel=1e-14, abs=0.0)
        assert arg == 0.0
