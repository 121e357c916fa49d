import numpy as np
import pytest

from roughtv import kernels
from roughtv.paths import gen_brownian, gen_zigzag


def pvar_sum_reference(values, p):
    """The unpruned O(m^2) dynamic program, in the same NumPy arithmetic."""
    v = kernels.reduce_to_extrema(values)
    n = v.size
    if n < 2:
        return 0.0
    if p == 1.0:
        # the swings added left to right, as the total variation adds them
        total = 0.0
        for a, b in zip(v[:-1].tolist(), v[1:].tolist()):
            total += abs(b - a)
        return total
    best = np.zeros(n, dtype=np.float64)
    for j in range(1, n):
        best[j] = np.max(best[:j] + np.abs(v[j] - v[:j]) ** p)
    return float(best[-1])


def tv_delta_reference(values, delta):
    """The one-pass loop over NumPy scalars, as before it ran over Python floats."""
    v = kernels.reduce_to_extrema(values)
    n = v.size
    if n < 2:
        return 0.0
    total = 0.0
    lo = hi = v[0]
    anchor = 0.0
    cur = 0.0
    direction = 0
    for j in range(1, n):
        x = v[j]
        if direction == 0:
            if x > hi:
                hi = x
            elif x < lo:
                lo = x
            if hi - lo > delta:
                if x == hi:
                    direction = 1
                    anchor = lo
                    cur = hi
                else:
                    direction = -1
                    anchor = hi
                    cur = lo
        elif direction == 1:
            if x > cur:
                cur = x
            elif cur - x > delta:
                total += cur - anchor - delta
                anchor = cur
                cur = x
                direction = -1
        else:
            if x < cur:
                cur = x
            elif x - cur > delta:
                total += anchor - cur - delta
                anchor = cur
                cur = x
                direction = 1
    if direction == 1:
        total += cur - anchor - delta
    elif direction == -1:
        total += anchor - cur - delta
    return float(total)


def lazy_band_reference(values, delta):
    """The band loop over NumPy scalars, as before it ran over Python floats."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    half = 0.5 * delta
    lo = hi = v[0]
    k = -1
    for j in range(1, n):
        x = v[j]
        if x > hi:
            hi = x
        elif x < lo:
            lo = x
        if hi - lo > delta:
            k = j
            break
    if k < 0:
        out[:] = min(max(v[0], hi - half), lo + half)
        return out
    g = (lo + half) if v[k] == hi else (hi - half)
    out[:k] = g
    for j in range(k, n):
        x = v[j]
        if x > g + half:
            g = x - half
        elif x < g - half:
            g = x + half
        out[j] = g
    return out


def contracting_zigzag(count):
    # 0, 10, -10, 9.999, -9.999, ...: every extremum stays a backward record
    heights = 10.0 - 0.001 * np.arange(count)
    return np.concatenate(([0.0], np.column_stack((heights, -heights)).ravel()))


def _random_arrays(seed, count=60, max_n=80):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, max_n))
        out.append(rng.uniform(-2.0, 2.0, n))
    # adversarial shapes: plateaus, monotone runs, alternations
    out.append(np.zeros(10))
    out.append(np.repeat([0.0, 1.0, 1.0, -1.0], 3).astype(float))
    out.append(np.arange(20.0))
    out.append(np.asarray([0.0, 1.0, 0.0] * 7))
    return out


def test_reduce_to_extrema_keeps_endpoints_and_turns():
    v = np.asarray([0.0, 0.5, 1.0, 0.2, 0.2, 0.9, 0.5])
    red = kernels.reduce_to_extrema(v)
    assert red.tolist() == [0.0, 1.0, 0.2, 0.9, 0.5]


def test_reduction_preserves_functionals():
    for v in _random_arrays(60):
        red = kernels.reduce_to_extrema(v)
        for delta in (0.0, 0.1, 0.7):
            assert kernels.tv_delta(v, delta) == pytest.approx(
                kernels.tv_delta(red, delta), abs=1e-12
            )


def test_selected_backend_exposed():
    assert kernels.backend_name() == "pure"
    assert kernels.tv_delta(np.asarray([0.0, 1.0, 0.0]), 0.5) == 1.0


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0])
def test_pvar_sum_equals_dp_on_contracting_zigzag(p):
    v = contracting_zigzag(2000)
    assert kernels.reduce_to_extrema(v).size == v.size
    assert kernels.pvar_sum(v, p) == pvar_sum_reference(v, p)


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_pvar_sum_equals_dp_on_nested_zigzag(p):
    v = gen_zigzag(1.5, 6).values
    assert kernels.pvar_sum(v, p) == pvar_sum_reference(v, p)


def _records_read(values):
    """The number of records each step of pvar_sum reads, replayed on values.

    A rising step to x reads the backward minima newer than the last earlier
    maximum above x, a falling step the backward maxima newer than the last
    earlier minimum below x.
    """
    xs = kernels.reduce_to_extrema(values).tolist()
    lo, hi = [(xs[0], 0)], [(xs[0], 0)]
    reads = []
    for j, (prev, x) in enumerate(zip(xs, xs[1:]), 1):
        rising = x > prev
        mine, beyond = (lo, hi) if rising else (hi, lo)
        while beyond and (beyond[-1][0] <= x if rising else beyond[-1][0] >= x):
            beyond.pop()
        since = beyond[-1][1] if beyond else -1
        count = 0
        while count < len(mine) and mine[-1 - count][1] > since:
            count += 1
        reads.append(count)
        beyond.append((x, j))
    return reads


def staircase(count):
    # 0, 2, 1, 3, 2, ...: every minimum stays a record, and the last of the
    # count rising steps reads all count of them
    mins = np.arange(count, dtype=float)
    return np.column_stack((mins, mins + 2.0)).ravel()


def _mixed_stacks():
    # long reads on a staircase, short ones on the walk after it, and long
    # ones again on a larger staircase
    short = kernels.SHORT_STACK
    walk = 4.0 * gen_brownian(512, 1.0, 21).values
    return np.concatenate((staircase(2 * short), walk, 3.0 * staircase(2 * short)))


def test_contracting_zigzag_reads_one_record_per_step():
    assert set(_records_read(contracting_zigzag(2000))) == {1}


def test_mixed_stacks_cross_short_stack_both_ways():
    long_steps = np.asarray(_records_read(_mixed_stacks())) > kernels.SHORT_STACK
    changes = np.diff(long_steps.astype(int))
    assert 1 in changes and -1 in changes


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0])
def test_pvar_sum_equals_dp_across_short_stack(p):
    short = kernels.SHORT_STACK
    for v in (_mixed_stacks(), staircase(short), staircase(short + 1),
              -staircase(short), -staircase(short + 1)):
        assert kernels.pvar_sum(kernels.reduce_to_extrema(v).tolist(), p) == \
            pvar_sum_reference(v, p)
    assert max(_records_read(staircase(short))) == short
    assert max(_records_read(staircase(short + 1))) == short + 1
    assert max(_records_read(-staircase(short + 1))) == short + 1


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0])
def test_pvar_sum_of_contracting_zigzag_is_the_sequential_sum(p):
    # each step reads only the record before it, so V^p is the sum of the
    # swings' powers, added left to right: an O(m) reference at a size the
    # quadratic one cannot reach
    v = contracting_zigzag(16000)
    total = 0.0
    for term in (np.abs(np.diff(v)) ** p).tolist():
        total += term
    assert kernels.pvar_sum(kernels.reduce_to_extrema(v).tolist(), p) == total


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0])
def test_array_power_is_elementwise(p):
    # pvar_sum raises all short-step differences in one array: each term
    # must have the bits it has in an array of its own
    rng = np.random.default_rng(5)
    d = np.concatenate((rng.uniform(0.0, 4.0, 4099),
                        10.0 ** rng.uniform(-300.0, 300.0, 1000) / p,
                        [5e-324, 1.0, 2.0, 1.7976931348623157e308]))
    with np.errstate(over="ignore"):
        whole = d ** p
        for i in range(d.size):
            assert whole[i] == (d[i:i + 1] ** p)[0]


def test_tv_delta_equals_numpy_scalar_loop():
    arrays = _random_arrays(11)
    # seeded walks at several magnitudes, subnormal ones included
    for seed, scale in enumerate([1.0, 1e-300, 1e300, 1e-320, 3.0]):
        arrays.append(gen_brownian(4097, 1.0, seed=seed).values * scale)
    # ties: integer swings equal to the integer deltas below
    rng = np.random.default_rng(12)
    for _ in range(20):
        arrays.append(np.repeat(rng.integers(-3, 4, 30), rng.integers(1, 3, 30)).astype(float))
    arrays.append(np.asarray([0.0, 1.0, 1.0, 0.0, 0.0, 2.0, 1.0, 1.0, 3.0]))
    arrays.append(np.asarray([-0.0, 0.0, -0.0]))
    arrays.append(np.asarray([5.0]))
    arrays.append(np.asarray([]))
    for v in arrays:
        osc = float(np.ptp(v)) if v.size else 0.0
        for delta in (0.0, 1.0, 2.0, 1e-3 * osc, 0.25 * osc, 0.5 * osc, osc, 2.0 * osc):
            assert kernels.tv_delta(v, delta) == tv_delta_reference(v, delta)


def _window_paths(seed, count=150):
    """Seeded value sequences of 2-39 samples: walks, integer-valued paths
    with plateaus and ties, rounded walks, monotone paths, and walks with
    leading and trailing plateaus."""
    rng = np.random.default_rng(seed)
    out = [np.asarray([0.0, 1.0]), np.asarray([1.0, 1.0]), np.asarray([-0.0, 0.0, 1.0, 1.0])]
    for case in range(count):
        n = int(rng.integers(2, 40))
        kind = case % 5
        if kind == 0:
            v = np.cumsum(rng.normal(size=n))
        elif kind == 1:
            v = np.repeat(rng.integers(-3, 4, size=n), rng.integers(1, 4, size=n))[:n]
        elif kind == 2:
            v = np.round(np.cumsum(rng.normal(size=n)), 1)
        elif kind == 3:
            v = np.cumsum(np.abs(rng.normal(size=n))) * rng.choice([-1.0, 1.0])
        else:
            walk = np.cumsum(rng.normal(size=n))
            v = np.concatenate(([walk[0]] * int(rng.integers(1, 4)), walk,
                                [walk[-1]] * int(rng.integers(1, 4))))
        out.append(v.astype(float))
    return out


def test_window_extrema_equal_reduced_slices():
    windows = constant = 0
    for v in _window_paths(61):
        extrema = kernels.window_extrema(v)
        for i in range(v.size - 1):
            for j in range(i + 1, v.size):
                seg = v[i:j + 1]
                if np.all(seg == seg[0]):
                    assert extrema(i, j) == [seg[0]]
                    constant += 1
                else:
                    assert extrema(i, j) == kernels.reduce_to_extrema(seg).tolist()
                    windows += 1
    assert windows > 10000 and constant > 100


def test_reduce_to_extrema_equals_whole_window_extrema():
    # a constant sequence reduces to one sample whatever its length, as
    # window_extrema reads it
    constants = [[c] * n for n in range(1, 6) for c in (1.0, 0.0, -2.5)]
    constants += [[-0.0, 0.0], [0.0, -0.0, 0.0], [1e308] * 3]
    for v in [np.asarray(c) for c in constants] + _window_paths(62):
        reduced = kernels.reduce_to_extrema(v).tolist()
        assert repr(reduced) == repr(kernels.window_extrema(v)(0, v.size - 1))
        if np.all(v == v[0]):
            assert len(reduced) == 1


def test_reduce_to_extrema_compares_without_overflow():
    # the direction of a step is a comparison, so a step beyond float64
    # neither warns nor changes the extrema
    v = np.asarray([-1e308, 1e308, 1e308, -1e308, 0.0, 5.0])
    assert kernels.reduce_to_extrema(v).tolist() == [-1e308, 1e308, -1e308, 5.0]
    assert kernels.window_extrema(v)(0, 5) == [-1e308, 1e308, -1e308, 5.0]
