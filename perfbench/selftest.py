"""Harness self-test at smoke size.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced with
tiny inputs (run.py --smoke) and asserts that

- every run is correct and prints every metric BENCHMARK.json names for
  its mode, with the unit BENCHMARK.json gives;
- in the traced run, the self times of the spans on the client thread add
  up to the time spent in the traced sends within SELF_SUM_SHARE (the rest
  is the send's own capture of output around the wrapped `cli.main`);
- the untraced run never imports the tracing wrappers.

Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELF_SUM_SHARE = 0.05
SEED = 1


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "_results" / f"{workload}-seed{SEED}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return last, record


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            last, record = run(workload, trace)
            where = f"{workload} trace={trace}"
            if not (last["correct"] and last["failed"] == 0 and last["attempted"] >= 1):
                errors.append(f"{where}: not correct: {record['worker']['problems']}")
            for metric in spec[section]:
                got = last["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    errors.append(f"{where}: {metric['name']} [{metric['unit']}] emitted as {got}")
            extra = set(last["metrics"]) - {m["name"] for m in spec[section]}
            if extra:
                errors.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            worker = record["worker"]
            if trace:
                share = worker["main_thread_self_s"] / worker["traced_wall_s"]
                if not 1.0 - SELF_SUM_SHARE <= share <= 1.0:
                    errors.append(f"{where}: self times sum to {share:.4f} of the traced wall")
            elif not worker["no_wrappers"]:
                errors.append(f"{where}: the untraced run loaded tracing wrappers")
            print(f"{where}: checked", flush=True)
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
