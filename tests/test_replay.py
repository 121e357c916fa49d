"""The byte ledger: every benchmark request at seed 401, replayed in-process.

`tests/replay_ledger.txt` holds what `tools/replay.py --seeds 401` printed
when it was last written: a platform header, then per workload one JSON
line per set-up input CSV with its sha256, and one JSON line per request
with its exit code, its stdout report and the sha256 of its stderr and
`--out` file.  This test replays the same set-ups and requests and
compares line by line, so a change that moves any byte fails here, naming
the first input file or request that moved.  A change that means to move
bytes regenerates the file; its diff is then the list of moved outputs.
The bits of `sin`, `**` and `loadtxt` come from NumPy and the C library,
so on a platform other than the header's the test skips.  The tool is
loaded read-only, as tests/test_benchmark_smoke.py loads
`perfbench/workloads.py`.
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
            moved = "".join(f"\n{key}, ledger:\n{before[key]}\n{key}, now:\n{after.get(key)}"
                            for key in before if before[key] != after.get(key))
            what = (f"set-up file {before['setup']}" if "setup" in before
                    else f"request index {before['index']}")
            pytest.fail(f"{before['workload']} seed {before['seed']} {what} moved.{moved}")
    assert len(got) == len(expected), "the number of set-up files or requests changed"


def test_ledger_hashes_every_setup_input():
    # every input a request reads is a set-up file with its own hash line,
    # so an input that no request writes with --out, such as scan-large's
    # 16,384-sample walk, is covered too
    lines = [json.loads(line) for line in LEDGER.read_text(encoding="utf-8").splitlines()[1:]]
    for name in replay_tool.WORKLOADS:
        setup = {rec["setup"] for rec in lines if rec["workload"] == name and "setup" in rec}
        requests = [rec for rec in lines if rec["workload"] == name and "index" in rec]
        inputs = {arg for rec in requests for arg in rec["argv"]
                  if arg.startswith(replay_tool.WORK_TOKEN)}
        outs = {rec["argv"][rec["argv"].index("--out") + 1]
                for rec in requests if "--out" in rec["argv"]}
        assert setup and setup == inputs - outs, name
