"""The no-regression verdict of `tools/pairs.py`, on made-up runs.

A metric is "worse" when the worktree's median is worse than the rev's by
more than its bound (a fraction of the rev's median), "unresolved" when the
rev's own q3 - q1 is wider than the bound and not every worktree run beats
every rev run, and "not worse" otherwise.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs_tool", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs_tool = _load_pairs()

STEADY = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0]
WIDE = [50.0, 150.0, 60.0, 140.0, 100.0, 100.0]


@pytest.mark.parametrize("old,new,sign,want", [
    pytest.param(STEADY, [x * 0.8 for x in STEADY], 1.0, "not worse", id="inside-the-bound"),
    pytest.param(STEADY, [x * 0.7 for x in STEADY], 1.0, "worse", id="past-the-bound"),
    pytest.param(STEADY, [x * 1.3 for x in STEADY], -1.0, "worse", id="lower-is-better"),
    pytest.param(STEADY, [x * 0.7 for x in STEADY], -1.0, "not worse", id="a-lower-gain"),
    pytest.param(WIDE, [100.0] * 6, 1.0, "unresolved", id="spread-past-the-bound"),
    pytest.param(WIDE, [151.0, 160.0, 155.0, 170.0, 152.0, 153.0], 1.0, "not worse",
                 id="every-run-beats-every-run"),
    pytest.param(WIDE, [40.0] * 6, 1.0, "worse", id="worse-before-unresolved"),
])
def test_verdict(old, new, sign, want):
    assert pairs_tool.verdict(pairs_tool.quartiles(old), old, new, sign, 0.25) == want
