import numpy as np
import pytest

from roughtv import kernels


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
