"""Benchmark a git rev against the worktree in alternating pairs of runs.

Usage, from the root of a checkout:

    python3 tools/pairs.py --rev HEAD --workload picard-solve
        [--workload profile-checks ...] [--pairs 10] [--seed 401]

The rev is exported with `git archive` and the worktree's files (tracked or
untracked, not ignored) are copied, each into a temporary directory, so
both sides run from a fresh tree and nothing is written under `.git`.
For each workload, pair k (k = 0, 1, ...) runs `perfbench/run.py --trace 0`
at seed + k on both sides, for the `run_seconds` of `BENCHMARK.json`, the
benchmark's own run length: the rev first when k is even, the worktree
first when k is odd.
It prints each pair's end-to-end metrics, then for each metric each side's
median and q1-q3 and the number of pairs the worktree won (ties count for
neither), and whether that is a gain: at least nine tenths of the pairs won
and medians further apart than the rev's q3 - q1.  Last comes the
no-regression verdict, with the metric's `BENCHMARK.json` bound taken as a
fraction of the rev's median: "worse" when the worktree's median is worse
than the rev's by more than the bound, else "unresolved" when the rev's
q3 - q1 is wider than the bound and not every worktree run beats every rev
run, else "not worse".  Each run is waited for, and the temporary
directories are deleted at the end.

One run's "gain: yes" is not evidence by itself.  The gain rule compares
the medians with the rev's own q3 - q1 within one run, which does not cover
the drift between the two copies from one run to the next: a scan-large
run once read `throughput_rps` 34.34 -> 34.87 and won 10 of 10 pairs on a
workload the change did not touch, and the next run won 5 of 10.  A gain
claim needs a second run at seeds that no step of the change used, such
as `--seed 601`.  The spread itself can hide a gain: over 6 pairs at
seeds 601-606, profile-checks `throughput_rps` of one rev read q1-q3
719.8-798.6, about 10% of its median of 751.7 (2-core Xeon VM), so a gain
claim on that workload needs more than that.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def run(checkout, workload, seed, seconds):
    """The end-to-end metrics of one benchmark run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    last = json.loads(proc.stdout.splitlines()[-1])
    if not last["correct"]:
        raise SystemExit(f"{checkout.name} seed {seed}: a request failed or was wrong")
    return {name: metric["value"] for name, metric in last["metrics"].items()}


def quartiles(xs):
    """q1, median and q3 of the runs xs."""
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3


def verdict(q_old, old, new, sign, bound):
    """The no-regression verdict of the tree's runs `new` against the rev's `old`.

    q_old is `quartiles(old)`; sign is 1 when higher is better, -1 when
    lower is; bound is a fraction of the rev's median.
    """
    q1, median, q3 = q_old
    allowed = bound * abs(median)
    if sign * (statistics.median(new) - median) < -allowed:
        return "worse"
    if q3 - q1 > allowed and not all(sign * (b - a) > 0 for a in old for b in new):
        return "unresolved"
    return "not worse"


def compare(workload, bench, rev, tree, args):
    """Run `args.pairs` alternating pairs of `workload` and print the verdicts."""
    print(f"workload {workload}", flush=True)
    metrics = bench["end_to_end"]
    runs = {"rev": [], "tree": []}
    for k in range(args.pairs):
        for side in ("rev", "tree") if k % 2 == 0 else ("tree", "rev"):
            checkout = rev if side == "rev" else tree
            runs[side].append(run(checkout, workload, args.seed + k, bench["run_seconds"]))
        print(f"pair {k + 1} seed {args.seed + k}: " + "  ".join(
            f"{m['name']} {runs['rev'][k][m['name']]:.6g} -> {runs['tree'][k][m['name']]:.6g}"
            for m in metrics), flush=True)
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        old, new = ([r[name] for r in runs[side]] for side in ("rev", "tree"))
        won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        q_old, q_new = quartiles(old), quartiles(new)
        gain = won >= 0.9 * len(old) and sign * (q_new[1] - q_old[1]) > q_old[2] - q_old[0]
        print(f"{workload} {name} ({m['better']} is better): rev {q_old[1]:.6g} "
              f"[{q_old[0]:.6g}, {q_old[2]:.6g}]  tree {q_new[1]:.6g} [{q_new[0]:.6g}, "
              f"{q_new[2]:.6g}]  won {won}/{len(old)}  gain: {'yes' if gain else 'no'}  "
              f"bound {m['bound']}: {verdict(q_old, old, new, sign, m['bound'])}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=401)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        rev, tree = Path(tmp, "rev"), Path(tmp, "tree")
        with tarfile.open(fileobj=io.BytesIO(git("archive", args.rev))) as archive:
            archive.extractall(rev, filter="data")
        for name in filter(None, git("ls-files", "-z", "-co", "--exclude-standard").split(b"\0")):
            src, dest = ROOT / os.fsdecode(name), tree / os.fsdecode(name)
            if src.is_file():  # a tracked file deleted in the worktree is not
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest)
        for workload in args.workload:
            compare(workload, bench, rev, tree, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
