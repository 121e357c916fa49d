import numpy as np
import pytest

from roughtv import pathio
from roughtv.paths import SampledPath, make_path, tent_path


@pytest.fixture(autouse=True)
def _empty_read_cache(monkeypatch):
    """Each test starts with an empty `pathio` read cache, so no test reads
    another's files from it."""
    monkeypatch.setattr(pathio, "_read_cache", pathio._ReadCache())


@pytest.fixture
def tent():
    return tent_path()


def random_path(rng, max_n=12, lo=-1.0, hi=1.0, min_n=2) -> SampledPath:
    n = int(rng.integers(min_n, max_n + 1))
    return make_path(np.linspace(0.0, 1.0, n), rng.uniform(lo, hi, n))


def random_corpus(seed, count, max_n=12, lo=-1.0, hi=1.0, min_n=2):
    rng = np.random.default_rng(seed)
    return [random_path(rng, max_n, lo, hi, min_n) for _ in range(count)]
