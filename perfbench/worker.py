"""One client in one fresh process: set up a workload, then run it.

Usage (started by run.py):

    python3 perfbench/worker.py --workload W --seed N --cycles K --trace 0|1
        --work-dir DIR [--setup-only] [--smoke]

Set-up is `import roughtv.cli` plus writing the seeded CSVs; the worker
prints ``ready`` when the first request can be sent.  With --setup-only it
stops there.  Otherwise it sends the cycle K times in a closed loop, each
request an in-process `roughtv.cli.main(argv)` call, then checks every
result and prints one JSON line.  An untraced run also times SETUP_SAMPLES
more fresh set-ups (`--setup-only` children), spread between its cycles.

Timings are also given in reference seconds.  On a virtual
machine whose cores are shared with other tenants the speed drifts by up
to a factor of two over minutes, and the drift reaches a thread's CPU time
as well as the wall clock.  So every timed interval (a send, a set-up) is
bracketed by runs of `calibrate`, a fixed pure-Python loop of the kind the
pure backend runs, and is scaled by CALIBRATION_REF_S over the mean of the
two calibration times: the result is the interval as it would read at the
speed where the loop takes CALIBRATION_REF_S.  A change to the program
moves these figures as it moves the wall clock; the calibration loop is
harness code and runs none of the program.

With --trace 1 the worker first runs half the cycles untraced, then
installs the tracing wrappers (`layertrace`) and runs the same number of
cycles traced; the per-layer figures are per cycle, and
`trace.overhead_share` compares the two halves in reference seconds.  An
untraced run never imports `layertrace`.
"""

import argparse
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Fresh set-ups timed between the cycles of an untraced run.
SETUP_SAMPLES = 11
# Sends beyond the send whose latency is reported as req_tail_s.
TAIL_BEYOND = 10
# Seconds `calibrate` takes at the reference speed: the quietest speed of
# the reference machine (2-core Xeon VM, numpy 2.x, CPython 3.11).
CALIBRATION_REF_S = 0.0115
_CAL_VALUES = np.cumsum(np.random.default_rng(20140913).standard_normal(4000))


def calibrate():
    """Seconds a fixed loop takes now.  Its two halves are the two kinds of
    work the pure backend does: a running-extremum pass over numpy scalars,
    and many numpy calls on small arrays (slicing, diff, concatenate,
    searchsorted), as in path restriction and validation."""
    t0 = time.perf_counter()
    lo = hi = _CAL_VALUES[0]
    total = 0.0
    for x in _CAL_VALUES:
        if x > hi:
            hi = x
        elif x < lo:
            lo = x
        total += hi - lo
    for k in range(0, _CAL_VALUES.size - 40, 4):
        window = _CAL_VALUES[k:k + 40]
        joined = np.concatenate(([window[0]], window[1:]))
        if np.all(np.diff(joined) != 0.0):
            total += float(joined.sum())
        total += int(np.searchsorted(window, 0.0))
    return time.perf_counter() - t0


@dataclass
class Record:
    request: object
    latency_s: float
    code: object       # exit code; None when the call raised
    stdout: str
    stderr: str
    out_digest: str    # sha256 of the request's --out file after the send
    ref_s: float       # the latency in reference seconds


def run_cycles(cli, cycle, count, tracer=None, after_cycle=None):
    """Send the cycle `count` times; returns one Record per send.

    Successive cycles run pinned to successive CPUs this process may use,
    so that a send and the calibration runs around it share a CPU and the
    sends of a request meet both CPUs.
    `after_cycle(k)`, if given, runs after cycle k (1-based) on that
    cycle's CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    records = []
    try:
        for k in range(count):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            records.extend(run_cycle(cli, cycle, tracer))
            if after_cycle is not None:
                after_cycle(k + 1)
    finally:
        os.sched_setaffinity(0, cpus)
    return records


def time_setup(args, work_dir):
    """Seconds from starting a --setup-only worker until it is ready, as
    measured and in reference seconds.

    The child inherits this process's CPU affinity and environment.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--cycles", "0", "--work-dir", str(work_dir),
            "--setup-only"]
    if args.smoke:
        argv.append("--smoke")
    Path(work_dir).mkdir(parents=True)
    before = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up worker failed (exit {proc.returncode})")
    return elapsed, to_reference(elapsed, before, calibrate())


def to_reference(elapsed, before, after):
    """`elapsed` in reference seconds, from the calibration times around it."""
    return elapsed * CALIBRATION_REF_S / (0.5 * (before + after))


def setup_sampler(args, count, samples):
    """An after_cycle hook that times SETUP_SAMPLES set-ups, evenly spread
    over `count` cycles (several after one cycle when there are few).

    Appends each set-up time (a pair, see time_setup) to `samples`.
    """
    due = [math.ceil((j + 1) * count / SETUP_SAMPLES) for j in range(SETUP_SAMPLES)]
    work_root = Path(args.work_dir).parent

    def after_cycle(k):
        for _ in range(due.count(k)):
            samples.append(time_setup(args, work_root / f"setup-{len(samples)}"))

    return after_cycle


def run_cycle(cli, cycle, tracer=None):
    records = []
    before = calibrate()
    for req in cycle:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_request()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(req.argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the run goes on; the request counts as failed
            code = None
            err.write(traceback.format_exc())
        latency = time.perf_counter() - t0
        after = calibrate()
        records.append(Record(req, latency, code, out.getvalue(), err.getvalue(),
                              file_digest(req.out), to_reference(latency, before, after)))
        before = after
    return records


def file_digest(path):
    if path is None:
        return None
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return "missing"


def check_records(workloads, records):
    """Split records into failed and wrong ones; returns (failed, wrong) lists.

    Every send of an argv must print the same bytes as its first send, traced
    or not, and leave the same --out file.  Each send rewrites that file at
    the same path, so the file left by the last send stands for all of them
    when a request's check reads it.
    """
    reference = {}
    failed, wrong, done = [], [], []
    for rec in records:
        argv = tuple(rec.request.argv)
        if rec.code != 0:
            failed.append((argv, f"exit {rec.code}: {rec.stderr.strip()[-300:]}"))
            continue
        first_stdout, first_digest = reference.setdefault(argv, (rec.stdout, rec.out_digest))
        try:
            if rec.stdout != first_stdout:
                raise workloads.Wrong("stdout differs from an earlier send of the same argv")
            if rec.out_digest != first_digest:
                raise workloads.Wrong("--out file differs from an earlier send of the same argv")
            report = json.loads(rec.stdout)
            rec.request.check(report)
        except (workloads.Wrong, ValueError, KeyError, OSError) as exc:
            wrong.append((argv, f"{type(exc).__name__}: {exc}"))
            continue
        done.append((rec.request, report))
    wrong.extend((tuple(req.argv), why) for req, why in workloads.cross_check(done))
    return failed, wrong


def median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail_index(n):
    """Index, in n sorted sends, of the send with TAIL_BEYOND beyond it."""
    return max(0, n - TAIL_BEYOND - 1)


def figures(records, latency):
    """Throughput, median and tail of the sends, timed by `latency(record)`."""
    by_argv = {}
    for r in records:
        by_argv.setdefault(tuple(r.request.argv), (r.request.kind, []))[1].append(latency(r))
    per_request = [(median(xs), kind) for kind, xs in by_argv.values()]
    by_kind = {}
    for m, kind in per_request:
        by_kind.setdefault(kind, []).append(m)
    sends = sorted(latency(r) for r in records)
    return {
        "throughput_rps": len(per_request) / sum(m for m, _ in per_request),
        "req_p50_s": median([m for m, _ in per_request]),
        "req_tail_s": sends[tail_index(len(sends))],
        "cmd_p50_s": {kind: median(v) for kind, v in sorted(by_kind.items())},
    }


def latency_summary(records):
    """Latency figures of the timed loop, in reference seconds.

    Every request of the cycle is sent once per cycle.  A request's latency
    is the median of its sends; `throughput_rps` is the number of distinct
    requests over the sum of those medians, the rate of one client sending
    the cycle.  `req_tail_s` is the send latency at the highest percentile
    with at least TAIL_BEYOND sends beyond it; the record names the
    percentile, the send count and the requests beyond it.  The same
    figures on the wall clock are recorded with the prefix `wall_`.
    """
    summary = figures(records, lambda r: r.ref_s)
    summary.update(("wall_" + k, v) for k, v in figures(records, lambda r: r.latency_s).items())
    at = tail_index(len(records))
    beyond = {}
    for r in sorted(records, key=lambda r: r.ref_s)[at + 1:]:
        argv = " ".join(r.request.argv)
        beyond[argv] = beyond.get(argv, 0) + 1
    requests = {}
    for r in records:
        entry = requests.setdefault(tuple(r.request.argv), {
            "kind": r.request.kind, "argv": list(r.request.argv), "ref_s": [], "wall_s": []})
        entry["ref_s"].append(r.ref_s)
        entry["wall_s"].append(r.latency_s)
    kinds = [entry["kind"] for entry in requests.values()]
    summary.update({
        "requests": list(requests.values()),
        "req_tail_percentile": 100.0 * (at + 1) / len(records),
        "req_tail_beyond": beyond,
        "sends": len(records),
        "samples": len(requests),
        "cmd_samples": {kind: kinds.count(kind) for kind in sorted(set(kinds))},
    })
    return summary


def no_wrappers_installed():
    """True when no roughtv function in any namespace is a tracing wrapper."""
    for name, module in list(sys.modules.items()):
        if name == "roughtv" or name.startswith("roughtv."):
            for obj in vars(module).values():
                if "Tracer._wrap" in getattr(obj, "__qualname__", ""):
                    return False
    return "layertrace" not in sys.modules


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import roughtv
    import roughtv.cli as cli
    import workloads

    cycle = workloads.build(args.workload, args.seed, args.work_dir, args.smoke)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"requests_per_cycle": len(cycle)}
    if args.trace:
        half = max(1, args.cycles // 2)
        untraced = run_cycles(cli, cycle, half)
        import layertrace
        tracer = layertrace.Tracer()
        tracer.install()
        traced = run_cycles(cli, cycle, half, tracer)
        tracer.uninstall()
        stats, counts = tracer.totals()
        layers = layertrace.layer_metrics(stats, counts, half)
        layers["trace.overhead_share"] = (sum(r.ref_s for r in traced)
                                          / sum(r.ref_s for r in untraced) - 1.0)
        records = untraced + traced
        result.update({
            "cycles": 2 * half,
            "per_layer": layers,
            # time inside the sends, which the client thread's spans cover
            "traced_wall_s": sum(r.latency_s for r in traced),
            "untraced_wall_s": sum(r.latency_s for r in untraced),
            "main_thread_self_s": tracer.main_thread_self_s(),
            "spans": {name: {"calls": row[0], "s": row[1], "self_s": row[2]}
                      for name, row in sorted(stats.items())},
            "counts": dict(sorted(counts.items())),
        })
    else:
        setups = []
        records = run_cycles(cli, cycle, args.cycles,
                             after_cycle=setup_sampler(args, args.cycles, setups))
        result.update({
            "cycles": args.cycles,
            "setup_s": median([ref for _, ref in setups]),
            "setup_samples_s": [ref for _, ref in setups],
            "setup_wall_samples_s": [wall for wall, _ in setups],
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "no_wrappers": no_wrappers_installed(),
        })
        result.update(latency_summary(records))

    failed, wrong = check_records(workloads, records)
    result.update({
        "attempted": len(records),
        "failed": len(failed),
        "wrong": len(wrong),
        "problems": [{"argv": list(a), "why": w} for a, w in failed + wrong],
        "backend": roughtv.backend_name(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "roughtv_threads_effective": cli.thread_budget(),
        "roughtv_pure": os.environ.get("ROUGHTV_PURE"),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
