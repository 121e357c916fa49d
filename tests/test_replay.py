"""The byte ledger: every benchmark request at seed 401, replayed in-process.

`tests/replay_ledger.txt` holds what `tools/replay.py --seeds 401` printed
when it was last written: a platform header, then one JSON line per
request with its exit code, its stdout report and the sha256 of its
stderr and `--out` file.  This test replays the same requests and compares
line by line, so a change that moves any byte fails here, naming the first
request that moved.  A change that means to move bytes regenerates the
file; its diff is then the list of moved outputs.  The bits of `sin`,
`**` and `loadtxt` come from NumPy and the C library, so on a platform
other than the header's the test skips.  The tool is loaded read-only, as
tests/test_benchmark_smoke.py loads `perfbench/workloads.py`.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "replay_ledger.txt"


def _load_replay():
    spec = importlib.util.spec_from_file_location("replay_tool", ROOT / "tools" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


replay_tool = _load_replay()


def test_replay_matches_the_committed_ledger():
    expected = LEDGER.read_text(encoding="utf-8").splitlines()
    header = json.loads(expected[0])
    here = replay_tool.platform_header()
    if header != here:
        pytest.skip(f"ledger written on {header}, running on {here}")
    got = list(replay_tool.ledger(replay_tool.WORKLOADS, [401]))
    for old, new in zip(expected[1:], got[1:]):
        if old != new:
            before, after = json.loads(old), json.loads(new)
            moved = "".join(f"\n{key}, ledger:\n{before[key]}\n{key}, now:\n{after[key]}"
                            for key in before if before[key] != after.get(key))
            pytest.fail(f"request {before['workload']} seed {before['seed']} "
                        f"index {before['index']} moved.{moved}")
    assert len(got) == len(expected), "the number of requests changed"
