"""Replay the benchmark's requests through `roughtv.cli.main` as a byte ledger.

Usage, from the root of a checkout:

    python3 tools/replay.py [--workloads NAME ...] [--seeds N ...]

For each workload and seed (default: every workload of BENCHMARK.json at
seeds 401, 402 and 403), it writes the seeded inputs of
`perfbench/workloads.py` into a fresh temporary directory and sends every
request of one full-size cycle in-process, as the benchmark worker does.
The first line it prints is a JSON header naming what the bits depend on:
the Python and NumPy versions, the machine, the C library and NumPy's
enabled CPU features.  Then, for each workload and seed, it prints one JSON
line per input CSV that the set-up wrote (with the program's
`write_path_csv`): workload, seed, the file's name and its sha256.  Then
one JSON line per request: workload, seed, index, argv, exit code, the
exact stdout text, and the sha256 of stderr and of the `--out` file (null
for a request that writes none).  The temporary directory's name reads
`<work>` everywhere.  Two checkouts that give the same bytes print the
same lines, so diffing their output checks that a change keeps every
input file, report and output file.

`tests/replay_ledger.txt` is this output at seed 401, and
`tests/test_replay.py` replays it; regenerate it with

    python3 tools/replay.py --seeds 401 > tests/replay_ledger.txt

The workloads module is loaded read-only, as tests/test_benchmark_smoke.py
loads it.
"""

import argparse
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from roughtv import cli  # noqa: E402

WORK_TOKEN = "<work>"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def platform_header():
    """What the ledger's bits depend on besides the program."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "libc": list(platform.libc_ver()),
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def _digest(data, work):
    return hashlib.sha256(data.replace(work.encode(), WORK_TOKEN.encode())).hexdigest()


def replay(workloads, name, seed):
    """Yield the JSON line of every set-up input, then of every request of
    one cycle of `name` at `seed`."""
    with tempfile.TemporaryDirectory() as work:
        cycle = workloads.build(name, seed, work)
        # before any request runs, the directory holds only the set-up's inputs
        for written in sorted(Path(work).iterdir()):
            yield json.dumps({
                "workload": name, "seed": seed,
                "setup": str(written).replace(work, WORK_TOKEN),
                "sha256": _digest(written.read_bytes(), work)})
        for index, req in enumerate(cycle):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(req.argv))
            written = Path(req.out) if req.out else None
            file_hash = (_digest(written.read_bytes(), work)
                         if written is not None and written.exists() else None)
            yield json.dumps({
                "workload": name, "seed": seed, "index": index,
                "argv": [str(arg).replace(work, WORK_TOKEN) for arg in req.argv],
                "exit": code, "stdout": out.getvalue().replace(work, WORK_TOKEN),
                "stderr_sha256": _digest(err.getvalue().encode(), work),
                "out_sha256": file_hash})


def ledger(names, seeds):
    """Yield the header line, then every request line of `names` x `seeds`."""
    yield json.dumps(platform_header())
    workloads = _load_workloads()
    for name in names:
        for seed in seeds:
            yield from replay(workloads, name, seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[401, 402, 403])
    args = parser.parse_args(argv)
    for line in ledger(args.workloads, args.seeds):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
