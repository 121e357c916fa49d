import numpy as np
import pytest

from conftest import random_corpus
from roughtv.errors import BadExponentError, NegativeDeltaError, TooLargeError
from roughtv.norms import partition_sup_delta
from roughtv.oracle import (
    pvar_bruteforce,
    seminorm_bruteforce,
    sup_delta_grid,
    tv_partition_bruteforce,
)
from roughtv.paths import make_path, oscillation
from roughtv.truncation import total_variation


def test_tv_bruteforce_examples(tent):
    assert tv_partition_bruteforce(tent, 0.5) == 1.0
    assert tv_partition_bruteforce(tent, 0.0) == total_variation(tent)
    assert tv_partition_bruteforce(tent, oscillation(tent)) == 0.0


def test_pvar_bruteforce_examples(tent):
    assert pvar_bruteforce(tent, 2.0) == 2.0
    assert pvar_bruteforce(make_path([0.0, 1.0], [0.0, 1.0]), 3.0) == 1.0
    mono = make_path([0, 1, 2], [0.0, 1.0, 2.0])
    assert pvar_bruteforce(mono, 2.0) == 4.0


def test_seminorm_bruteforce_examples(tent):
    jump = make_path([0.0, 1.0], [0.0, 1.0])
    assert seminorm_bruteforce(jump, 2.0) == pytest.approx(0.5, abs=1e-12)
    assert seminorm_bruteforce(tent, 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    const = make_path([0.0, 1.0], [4.0, 4.0])
    assert seminorm_bruteforce(const, 2.0) == 0.0


def test_size_caps():
    big = make_path(np.arange(17.0), np.zeros(17))
    with pytest.raises(TooLargeError):
        tv_partition_bruteforce(big, 0.1)
    with pytest.raises(TooLargeError):
        pvar_bruteforce(big, 2.0)
    mid = make_path(np.arange(13.0), np.zeros(13))
    with pytest.raises(TooLargeError):
        seminorm_bruteforce(mid, 2.0)


def test_seminorm_dominates_single_partition():
    rng = np.random.default_rng(44)
    for path in random_corpus(seed=45, count=30, max_n=10):
        n = len(path)
        for _ in range(5):
            k = int(rng.integers(2, n + 1))
            idx = np.sort(rng.choice(n, size=k, replace=False))
            incs = np.abs(np.diff(path.values[idx]))
            for p in (1.5, 2.0):
                assert seminorm_bruteforce(path, p) >= partition_sup_delta(incs, p) - 1e-12


def test_grid_search_close_to_exact():
    rng = np.random.default_rng(46)
    for _ in range(20):
        xs = rng.uniform(0.0, 2.0, 5)
        for p in (1.5, 2.0, 2.5):
            exact = partition_sup_delta(xs, p)
            assert abs(sup_delta_grid(xs, p) - exact) <= 1e-6


def test_grid_search_of_zero_increments_is_zero():
    assert sup_delta_grid(np.zeros(3), 2.0) == partition_sup_delta(np.zeros(3), 2.0) == 0.0


def test_domain_checks(tent):
    with pytest.raises(NegativeDeltaError, match="^delta must be >= 0$"):
        tv_partition_bruteforce(tent, -1.0)
    with pytest.raises(BadExponentError, match="^needs p >= 1$"):
        pvar_bruteforce(tent, 0.5)
    with pytest.raises(BadExponentError, match="^needs p > 1$"):
        seminorm_bruteforce(tent, 1.0)
