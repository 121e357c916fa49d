"""The replay tool (`tools/replay.py`), run in-process.

Diffing its output from two checkouts is how a change shows that it keeps
every report, exit code and output file of the benchmark's requests, so
its lines must depend on nothing but those bytes.  The tool is loaded
read-only, as tests/test_benchmark_smoke.py loads `perfbench/workloads.py`.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_replay():
    spec = importlib.util.spec_from_file_location("replay_tool", ROOT / "tools" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


replay_tool = _load_replay()


def test_replay_prints_the_same_line_for_every_request_twice(tmp_path):
    workloads = replay_tool._load_workloads()
    first = list(replay_tool.replay(workloads, "picard-solve", 401))
    second = list(replay_tool.replay(workloads, "picard-solve", 401))
    assert first == second
    n = len(workloads.build("picard-solve", 401, tmp_path))
    fields = [line.split() for line in first]
    assert [f[:4] for f in fields] == [["picard-solve", "401", str(i), "0"] for i in range(n)]
    assert all(len(f) == 7 for f in fields)
