"""Layered CLI benchmark for roughtv.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the inputs and the checks):

- scan-large: `gen brownian --n 65536`, `tv` at four deltas on a
  65,536-sample walk and `pvar` at p = 1.5 and 2 on a 16,384-sample walk.
  It reaches the CSV reader and writer, the one-pass `tv_delta` and the
  O(m^2) `pvar_sum`, but never `tv_profile`.
- profile-checks: `norm` on six 384-sample walks, six `bounds` variants
  on 128-sample linear pairs, two on a step/step pair (300 and 42
  samples), and one `bounds --format svg` sweep on a 24-sample pair.  A few
  large profiles dominate it.
- picard-solve: `solve --out` on 36 rough 24-sample walks with sin, and on
  identity drivers: sqrt-abs from three initial values at n = 513, sin at
  n = 513 and identity at n = 4097.  Thousands of tiny profiles on
  restrictions, window certification and the splitting mesh.

Each run starts one fresh worker process, which sends round(S / nominal
cycle time) cycles, at least three, in a closed loop, checks every result
and reports.  Set-up is the time from spawning a worker until it reports
its first request ready (`import roughtv.cli` plus writing the seeded CSVs
with the program's writer).  The worker times eleven `--setup-only`
set-ups between its cycles, so the samples are spread over the run, and
`setup_s` is their median.  A request's latency is the median of its
sends, `throughput_rps` is the number of distinct requests over the sum of
those latencies, and `req_tail_s` is the send latency at the highest
percentile with at least ten sends beyond it (the record names the
percentile, the send count and the requests beyond it).

These times are in reference seconds: each interval is scaled by the speed
of the machine at that moment, measured by a fixed calibration loop run
just before and just after it (worker.calibrate), to the speed at which
that loop takes worker.CALIBRATION_REF_S.  On a virtual machine whose
cores are shared with other tenants the speed drifts by up to a factor of
two over minutes, in CPU time as much as on the wall clock; without the
scaling two runs of the same code there differ by more than the bounds.  The wall-clock
figures are printed in brackets and kept in the record.  ROUGHTV_THREADS
and ROUGHTV_PURE are removed from the worker's environment, so the
defaults users get are measured.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the cycles
untraced and half traced and prints the per-layer metrics.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}; the
full record, stamped with the machine and versions, is written to
perfbench/_results/.

Not measured: `kernels.lazy_band`, because no CLI command reaches it, and
the tier-1 test wall time, because every check runs each workload 22 times.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import MIN_CYCLES, NOMINAL_CYCLE_S, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 160
UNMEASURED = {
    "kernels.lazy_band": "no CLI command reaches it; only optimal_approximation calls it",
    "tier1_wall_s": "the test suite takes minutes, and every check runs each workload 22 times",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "req_tail_s": "s",
    "peak_rss_mb": "MB",
}
COUNT_SUFFIXES = (".calls", ".segments", ".m2", ".grid_points")
COUNT_NAMES = ("equations.windows", "equations.iterations")


def per_layer_unit(name):
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES:
        return "count"
    if name.endswith("_share") or name == "truncation.tv_delta_per_segment":
        return "ratio"
    return "s"


def git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_worker(args, cycles, work_root):
    """Run one fresh worker; returns (its set-up time, its report)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--cycles", str(cycles), "--trace", str(args.trace),
            "--work-dir", str(work_root / "main")]
    if args.smoke:
        argv.append("--smoke")
    env = {k: v for k, v in os.environ.items() if k not in ("ROUGHTV_THREADS", "ROUGHTV_PURE")}
    # string hashing is randomised per process; a fixed seed removes that
    # source of run-to-run difference without changing any result
    env["PYTHONHASHSEED"] = "0"
    (work_root / "main").mkdir(parents=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    return setup, json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "roughtv" / "cli.py").is_file():
        sys.stderr.write(f"error: no roughtv sources under {ROOT / 'src'}\n")
        return 2

    cycles = max(MIN_CYCLES, int(args.seconds / NOMINAL_CYCLE_S[args.workload] + 0.5))
    work_root = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup, report = run_worker(args, cycles, work_root)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {name: {"value": report[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    attempted = report["attempted"]
    completed = attempted - report["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "stamp": {
            "git_rev": git_rev(),
            "backend": report["backend"],
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": report["python"],
            "numpy": report["numpy"],
            "ROUGHTV_THREADS_effective": report["roughtv_threads_effective"],
            "ROUGHTV_PURE": report["roughtv_pure"] or "unset",
        },
        "first_setup_wall_s": setup,
        "fail_share": report["failed"] / attempted,
        "wrong_share": report["wrong"] / completed if completed else 0.0,
        "metrics": metrics,
        "unmeasured": UNMEASURED,
        "worker": report,
    }
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    dest = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dest.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    stamp = record["stamp"]
    print(f"# {args.workload} seed={args.seed} cycles={report['cycles']} "
          f"backend={stamp['backend']} nproc={stamp['nproc']} cpu={stamp['cpu_model']!r}")
    print(f"# fail_share={record['fail_share']:.6g} wrong_share={record['wrong_share']:.6g}")
    if not args.trace:
        print(f"# times in reference seconds (wall clock in brackets); "
              f"req_p50_s={report['req_p50_s']:.6g} [{report['wall_req_p50_s']:.6g}]")
        print(f"# req_tail_s={report['req_tail_s']:.6g} [{report['wall_req_tail_s']:.6g}] "
              f"is the p{report['req_tail_percentile']:.4g} of {report['sends']} sends "
              f"of {report['samples']} requests")
        print(f"# throughput_rps={report['throughput_rps']:.6g} "
              f"[{report['wall_throughput_rps']:.6g}]")
        print(f"# setup_s is the median of {len(report['setup_samples_s'])} set-ups: "
              + " ".join(f"{x:.4g}" for x in report["setup_samples_s"]))
        for kind, p50 in report["cmd_p50_s"].items():
            print(f"# cmd.{kind}.p50_s={p50:.6g} [{report['wall_cmd_p50_s'][kind]:.6g}] "
                  f"(n={report['cmd_samples'][kind]})")
    for problem in report["problems"]:
        print(f"# problem: {' '.join(problem['argv'])}: {problem['why']}")
    print(f"# record: {dest.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["failed"] == 0 and report["wrong"] == 0,
        "attempted": attempted,
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
