import numpy as np
import pytest

from roughtv import kernels
from roughtv.paths import gen_zigzag


def pvar_sum_reference(values, p):
    """The unpruned O(m^2) dynamic program, in the same NumPy arithmetic."""
    v = kernels.reduce_to_extrema(values)
    n = v.size
    if n < 2:
        return 0.0
    if p == 1.0:
        return float(np.sum(np.abs(np.diff(v))))
    best = np.zeros(n, dtype=np.float64)
    for j in range(1, n):
        best[j] = np.max(best[:j] + np.abs(v[j] - v[:j]) ** p)
    return float(best[-1])


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
