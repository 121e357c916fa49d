"""Replay the benchmark's requests through `roughtv.cli.main` and hash them.

Usage, from the root of a checkout:

    python3 tools/replay.py [--workloads NAME ...] [--seeds N ...]

For each workload and seed (default: every workload of BENCHMARK.json at
seeds 401, 402 and 403), it writes the seeded inputs of
`perfbench/workloads.py` into a fresh temporary directory and sends every
request of one full-size cycle in-process, as the benchmark worker does.
It prints one line per request:

    workload seed index exit-code sha256(stdout) sha256(stderr) sha256(--out file)

with the temporary directory's name replaced by a fixed token before
hashing, and "-" for a request that writes no file.  Two checkouts that
give the same bytes print the same lines, so diffing their output checks
that a change keeps every report and output file.  The workloads module is
loaded read-only, as tests/test_benchmark_smoke.py loads it.
"""

import argparse
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from roughtv import cli  # noqa: E402

WORK_TOKEN = b"<work>"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(data, work_dir):
    return hashlib.sha256(data.replace(work_dir, WORK_TOKEN)).hexdigest()


def replay(workloads, name, seed):
    """Yield the line of every request of one cycle of `name` at `seed`."""
    with tempfile.TemporaryDirectory() as work:
        work_dir = work.encode()
        for index, req in enumerate(workloads.build(name, seed, work)):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(req.argv))
            written = Path(req.out) if req.out else None
            file_hash = (_digest(written.read_bytes(), work_dir)
                         if written is not None and written.exists() else "-")
            yield " ".join([name, str(seed), str(index), str(code),
                            _digest(out.getvalue().encode(), work_dir),
                            _digest(err.getvalue().encode(), work_dir), file_hash])


def main(argv=None):
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[401, 402, 403])
    args = parser.parse_args(argv)
    workloads = _load_workloads()
    for name in args.workloads:
        for seed in args.seeds:
            for line in replay(workloads, name, seed):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
