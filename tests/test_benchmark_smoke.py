"""One smoke cycle of every benchmark workload, run in-process.

The benchmark harness (`perfbench/`) sends each request of a workload
through `roughtv.cli.main` and checks its report; this runs the same
requests at smoke size with the same checks, so that a change to the
program that would make the benchmark fail shows up here first.  Nothing
under `perfbench/` is changed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import roughtv
from roughtv import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
NAMES = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_smoke_cycle(name, tmp_path, capsys):
    done = []
    for req in workloads.build(name, 1, tmp_path, smoke=True):
        code = cli.main(list(req.argv))
        out = capsys.readouterr().out
        assert code == 0, req.argv
        report = json.loads(out)
        req.check(report)
        done.append((req, report))
    assert done
    assert workloads.cross_check(done) == []


def test_harness_entry_points_exist():
    # the benchmark worker records both in every run
    assert roughtv.backend_name() == "pure"
    assert cli.thread_budget() >= 1
