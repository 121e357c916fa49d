"""The no-regression verdict of `tools/pairs.py`, on made-up runs, and the
run length it hands the benchmark.

A metric is "worse" when the worktree's median is worse than the rev's by
more than its bound (a fraction of the rev's median), "unresolved" when the
rev's own q3 - q1 is wider than the bound and not every worktree run beats
every rev run, and "not worse" otherwise.
"""

import argparse
import importlib.util
import json
import subprocess
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


def test_each_run_takes_the_benchmarks_run_length(monkeypatch, capsys):
    # the benchmark sets the run length; the tool has no option for it
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {m["name"]: {"value": 1.0} for m in bench["end_to_end"]}
    commands = []

    def fake_run(command, **kwargs):
        commands.append(command)
        out = json.dumps({"correct": True, "metrics": values})
        return subprocess.CompletedProcess(command, 0, stdout=out + "\n")

    monkeypatch.setattr(pairs_tool.subprocess, "run", fake_run)
    pairs_tool.compare("profile-checks", bench, Path("rev"), Path("tree"),
                       argparse.Namespace(pairs=2, seed=401))
    assert len(commands) == 4 and bench["run_seconds"] == 20
    for command in commands:
        assert command[1] == "perfbench/run.py"
        assert command[command.index("--seconds") + 1] == "20"
    with pytest.raises(SystemExit):
        pairs_tool.main(["--rev", "HEAD", "--workload", "profile-checks", "--seconds", "8"])
    assert "unrecognized arguments: --seconds 8" in capsys.readouterr().err
