"""Property tests (Hypothesis) of the fast functionals against the oracle."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roughtv.norms import seminorm_with_argmax  # noqa: E402
from roughtv.oracle import seminorm_bruteforce  # noqa: E402
from roughtv.paths import make_path  # noqa: E402
from roughtv.truncation import truncated_variation  # noqa: E402

# small integers give exact ties, plateaus and monotone runs
_values = st.one_of(
    st.lists(st.integers(-3, 3), min_size=2, max_size=10),
    st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=2, max_size=10),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=_values,
       exponent=st.integers(-8, 8),
       p=st.sampled_from([1.01, 1.25, 1.5, 1.9, 2.0, 3.0]))
def test_seminorm_matches_bruteforce_oracle(values, exponent, p):
    scale = 10.0 ** exponent
    path = make_path(np.linspace(0.0, 1.0, len(values)), np.asarray(values, float) * scale)
    sem, arg = seminorm_with_argmax(path, p)
    slow = seminorm_bruteforce(path, p)
    assert sem == pytest.approx(slow, rel=1e-12, abs=0.0)
    # the argmax attains the supremum
    attained = (arg ** (p - 1.0) * truncated_variation(path, arg)) ** (1.0 / p)
    assert attained == pytest.approx(sem, rel=1e-12, abs=0.0)
