"""The workloads: seeded CSV inputs, one request cycle each, and the checks.

A workload is a list of requests (`Request`) that the worker sends in a
closed loop, cycle after cycle, one client in one process.  Every request
is an argv for `roughtv.cli.main`; the program sees only the CSV files
written here, by its own `roughtv.pathio.write_path_csv`, so that set-up
time includes the program's writer.  The same seed gives the same files and
the same cycle.

Each request carries a check that compares its report with a reference
computed by this module, within a stated tolerance:

- `roughtv.oracle` on small probes (n <= 12) interleaved with the traffic;
- closed forms for solves driven by the identity path (y0 e^t for the
  identity field, (sqrt(y0) + t/2)^2 for sqrt-abs) and classical RK4 for sin;
- on large inputs, invariants of the paper: TV^0 is the sum of |increments|,
  TV^delta lies between (osc - delta)_+ and TV^0 and does not increase with
  delta, V^p lies between max(osc^p, sum |increment|^p) and (TV^0)^p,
  c_p^(1/p) osc <= seminorm <= c_p^(1/p) (V^p)^(1/p), a bound's lhs <= rhs,
  and a solve's residual, recomputed from its output CSV, is below tol.
"""

import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Relative slack of the invariant and oracle checks: the acceptance suite's
# rounding allowance (roughtv.reports.PASS_SLACK).
REL_TOL = 1e-9
# A seeded walk is regenerated here to check `gen`; both sides sum the same
# float64 steps, so they agree to the last few ulps.
GEN_TOL = 1e-12
SOLVE_TOL = 1e-8

BOUND_VARIANTS = ("loeve-ptv-left", "min-series", "integral-ptv-theorem",
                  "young-s", "gamma-level-ladder", "integral-pvar-remark")
STEP_VARIANTS = ("loeve-ptv-left", "integral-ptv-theorem")
P_BOUNDS = "1.9"
TV_DELTAS = (0.0, 0.001, 0.01, 0.1)
PVAR_PS = (1.5, 2.0)
NORM_P = 2.0
PROBE_N = 12

# Input sizes; the smoke sizes keep the harness self-test short.  Every
# request stays under about a second, so that each one is sent many times
# in a run (see worker.latency_summary).
SIZES = {
    "full": {"scan": 65536, "pvar": 16384, "norm": 384, "norm_walks": 6,
             "bounds": 128, "step": (300, 42), "svg": 24,
             "rough": (24,) * 36, "smooth": 513, "smooth_long": 4097},
    "smoke": {"scan": 2048, "pvar": 512, "norm": 64, "norm_walks": 3,
              "bounds": 32, "step": (30, 7), "svg": 16,
              "rough": (8,) * 12, "smooth": 129, "smooth_long": 257},
}

# Seconds one cycle takes at the reference speed (worker.CALIBRATION_REF_S)
# on the reference machine (2-core Xeon, pure backend), calibration runs
# included.  A run sends round(seconds / cycle) cycles, at least
# MIN_CYCLES, so the request count, and with it the tail percentile, is the
# same for every commit measured with the same --seconds.
NOMINAL_CYCLE_S = {"scan-large": 1.4, "profile-checks": 4.1, "picard-solve": 4.3}
MIN_CYCLES = 3

WORKLOADS = tuple(NOMINAL_CYCLE_S)


class Wrong(Exception):
    """A completed request whose result is outside its tolerance."""


@dataclass
class Request:
    kind: str                          # the command, or "probe"
    argv: list
    check: Callable[[dict], None]      # raises Wrong; gets the parsed report
    tv_at: tuple = None                # (input, delta) of a tv request
    out: str = None                    # the file the request writes with --out


def _close(value, ref, what, rel=REL_TOL):
    if not abs(float(value) - ref) <= rel * max(1.0, abs(ref)):
        raise Wrong(f"{what}: got {value!r}, reference {ref!r}")


def _at_most(lo, hi, what):
    if not lo <= hi + REL_TOL * max(1.0, abs(hi)):
        raise Wrong(f"{what}: {lo!r} > {hi!r}")


def _walk(rng, n):
    """Gaussian walk on [0, 1] scaled to quadratic variation exactly 1.

    Fixing the sum of squared increments keeps the work of a solve or a
    profile from swinging with the seed as much as a plain walk's does.
    """
    steps = rng.standard_normal(n - 1)
    steps /= np.linalg.norm(steps)
    return np.linspace(0.0, 1.0, n), np.concatenate(([0.0], np.cumsum(steps)))


def read_csv(src):
    data = np.loadtxt(src, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


class Inputs:
    """Writes seeded CSVs into a work directory and names them."""

    def __init__(self, workload, seed, work_dir):
        self.rng = np.random.default_rng([zlib.crc32(workload.encode()), int(seed)])
        self.dir = Path(work_dir)
        self.count = 0

    def path(self, stem):
        self.count += 1
        return str(self.dir / f"{self.count:02d}-{stem}.csv")

    def write(self, stem, times, values):
        # imported here: run.py loads this module without the program
        from roughtv.pathio import write_path_csv
        from roughtv.paths import make_path
        dest = self.path(stem)
        write_path_csv(make_path(times, values), dest)
        return dest

    def walk(self, n, stem="walk", step=False):
        times, values = _walk(self.rng, n)
        if step:
            # a step pair must not share the jump at t = 1
            values[-1] = values[-2]
        return self.write(stem, times, values), values

    def probe(self):
        n = int(self.rng.integers(6, PROBE_N + 1))
        values = self.rng.uniform(-1.0, 1.0, n)
        return self.write("probe", np.linspace(0.0, 1.0, n), values), values


# -- probes against the exhaustive oracle -----------------------------------

# command -> (flags, result key, oracle function, its parameter)
PROBES = {
    "tv": (["--delta", "0.1"], "tv", "tv_partition_bruteforce", 0.1),
    "pvar": (["--p", "1.5"], "pvar", "pvar_bruteforce", 1.5),
    "norm": (["--p", "1.5"], "seminorm", "seminorm_bruteforce", 1.5),
}


def probe_request(inputs, command):
    dest, values = inputs.probe()
    flags, key, oracle_name, param = PROBES[command]

    def check(rep):
        from roughtv import oracle
        from roughtv.paths import make_path
        path = make_path(np.linspace(0.0, 1.0, values.size), values)
        _close(rep["results"][key], getattr(oracle, oracle_name)(path, param),
               f"{command} vs oracle")

    return Request("probe", [command, dest, *flags], check)


# -- scan-large ---------------------------------------------------------------

def _tv_check(values, delta):
    def check(rep):
        tv = float(rep["results"]["tv"])
        tv0 = float(np.sum(np.abs(np.diff(values))))
        osc = float(np.max(values) - np.min(values))
        if delta == 0.0:
            _close(tv, tv0, "tv at delta 0 vs sum |increments|")
        _at_most(max(osc - delta, 0.0), tv, "(osc - delta)_+ <= tv")
        _at_most(tv, tv0, "tv <= tv at delta 0")
    return check


def _pvar_check(values, p):
    def check(rep):
        res = rep["results"]
        pvar = float(res["pvar"])
        inc = np.abs(np.diff(values))
        osc = float(np.max(values) - np.min(values))
        _at_most(max(osc ** p, float(np.sum(inc ** p))), pvar, "pvar lower bound")
        _at_most(pvar, float(np.sum(inc)) ** p, "pvar <= tv0^p")
        _close(res["pvar_root"], pvar ** (1.0 / p), "pvar_root")
    return check


def _gen_check(dest, n, seed):
    def check(rep):
        if int(rep["results"]["samples"]) != n:
            raise Wrong(f"gen wrote {rep['results']['samples']} samples, wanted {n}")
        times, values = read_csv(dest)
        rng = np.random.default_rng(seed)
        ref = np.concatenate(([0.0], np.cumsum(rng.standard_normal(n - 1)
                                               * np.sqrt(1.0 / (n - 1)))))
        if times.size != n or not np.allclose(values, ref, rtol=0.0,
                                              atol=GEN_TOL * max(1.0, np.max(np.abs(ref)))):
            raise Wrong("gen output differs from the seeded walk")
    return check


def scan_large(inputs, size):
    cycle = []
    n = size["scan"]
    gen_seed = int(inputs.rng.integers(2 ** 31))
    gen_out = inputs.path("gen")
    cycle.append(Request("gen", ["gen", "brownian", "--n", str(n), "--seed", str(gen_seed),
                                 "--out", gen_out], _gen_check(gen_out, n, gen_seed),
                         out=gen_out))
    dest, values = inputs.walk(n)
    for delta in TV_DELTAS:
        cycle.append(Request("tv", ["tv", dest, "--delta", repr(delta)],
                             _tv_check(values, delta), tv_at=(dest, delta)))
    cycle.append(probe_request(inputs, "tv"))
    dest, values = inputs.walk(size["pvar"])
    for p in PVAR_PS:
        cycle.append(Request("pvar", ["pvar", dest, "--p", repr(p)], _pvar_check(values, p)))
    cycle.append(probe_request(inputs, "pvar"))
    return cycle


# -- profile-checks -----------------------------------------------------------

def _norm_check(values, p):
    def check(rep):
        res = rep["results"]
        scale = ((p - 1.0) ** (p - 1.0) / p ** p) ** (1.0 / p)
        osc = float(np.max(values) - np.min(values))
        _close(res["osc"], osc, "osc")
        _at_most(scale * osc, float(res["seminorm"]), "c_p^(1/p) osc <= seminorm")
        _at_most(float(res["seminorm"]), scale * float(res["pvar"]),
                 "seminorm <= c_p^(1/p) pvar_root")
        _close(res["full_norm"], abs(float(values[0])) + float(res["seminorm"]), "full_norm")
    return check


def _bound_check(rep):
    res = rep["results"]
    _at_most(float(res["lhs"]), float(res["rhs"]), f"{res['variant']}: lhs <= rhs")
    if res["passed"] is not True:
        raise Wrong(f"{res['variant']} reports passed = {res['passed']}")


def _svg_check(dest, points):
    def check(rep):
        _bound_check(rep)
        svg = Path(dest).read_text(encoding="utf-8")
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            raise Wrong("svg is not a complete document")
        lines = [ln for ln in svg.splitlines() if ln.startswith("<polyline")]
        if len(lines) != 2 or any(ln.count(",") != points for ln in lines):
            raise Wrong(f"svg needs two polylines of {points} points")
    return check


def profile_checks(inputs, size):
    cycle = []
    for _ in range(size["norm_walks"]):
        dest, values = inputs.walk(size["norm"])
        cycle.append(Request("norm", ["norm", dest, "--p", repr(NORM_P)],
                             _norm_check(values, NORM_P)))
    for variant in BOUND_VARIANTS:
        f, _ = inputs.walk(size["bounds"], "f")
        g, _ = inputs.walk(size["bounds"], "g")
        cycle.append(Request("bounds", ["bounds", f, g, "--p", P_BOUNDS, "--q", P_BOUNDS,
                                        "--variant", variant], _bound_check))
    cycle.append(probe_request(inputs, "norm"))
    n_f, n_g = size["step"]
    sf, _ = inputs.walk(n_f, "step-f", step=True)
    sg, _ = inputs.walk(n_g, "step-g", step=True)
    for variant in STEP_VARIANTS:
        cycle.append(Request("bounds", ["bounds", sf, sg, "--p", P_BOUNDS, "--q", P_BOUNDS,
                                        "--variant", variant, "--mode", "step"], _bound_check))
    vf, _ = inputs.walk(size["svg"], "svg-f")
    vg, _ = inputs.walk(size["svg"], "svg-g")
    svg_out = str(Path(inputs.dir) / "sweep.svg")
    cycle.append(Request("bounds_svg", ["bounds", vf, vg, "--p", P_BOUNDS, "--q", P_BOUNDS,
                                        "--variant", "young-s", "--format", "svg",
                                        "--out", svg_out], _svg_check(svg_out, 16),
                         out=svg_out))
    cycle.append(probe_request(inputs, "tv"))
    return cycle


# -- picard-solve -------------------------------------------------------------

def _rk4_sin(y0, t_end, steps=4096):
    h = t_end / steps
    y = y0
    for _ in range(steps):
        k1 = math.sin(y)
        k2 = math.sin(y + 0.5 * h * k1)
        k3 = math.sin(y + 0.5 * h * k2)
        k4 = math.sin(y + h * k3)
        y += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return y


FIELDS = {
    "identity": lambda y: y,
    "sin": np.sin,
    "sqrt-abs": lambda y: np.sqrt(np.abs(y)),
}
# y(t) for dy = F(y) dx with x(t) = t and y(0) = y0 > 0
REFERENCE = {
    "identity": lambda y0, t: y0 * math.exp(t),
    "sqrt-abs": lambda y0, t: (math.sqrt(y0) + 0.5 * t) ** 2,
    "sin": _rk4_sin,
}


def _solve_check(driver_values, out, field_name, y0, smooth):
    def check(rep):
        res = rep["results"]
        if res["converged"] is not True:
            raise Wrong(f"solve did not converge (residual {res['residual']})")
        times, y = read_csv(out)
        if not np.array_equal(times, np.linspace(0.0, 1.0, driver_values.size)):
            raise Wrong("solution grid differs from the driver grid")
        fy = FIELDS[field_name](y)
        integral = np.concatenate(([0.0], np.cumsum(0.5 * (fy[:-1] + fy[1:])
                                                    * np.diff(driver_values))))
        residual = float(np.max(np.abs(y - (y0 + integral))))
        if not residual < SOLVE_TOL:
            raise Wrong(f"recomputed residual {residual!r} >= tol {SOLVE_TOL}")
        _close(res["terminal"], float(y[-1]), "terminal vs output CSV", rel=0.0)
        if smooth:
            # the trapezoid rule's error is O(h^2); for these fields on [0, 1]
            # its constant is below 1
            h = float(times[1] - times[0])
            _close(y[-1], REFERENCE[field_name](y0, 1.0),
                   f"{field_name} solve vs reference", rel=h * h)
    return check


def picard_solve(inputs, size):
    jobs = [(inputs.walk(n, "rough"), "sin", 1.0, "1.5", False) for n in size["rough"]]
    smooth = size["smooth"]
    # Three sqrt-abs solves share one driver: their cost depends on neither
    # y0 nor the seed, and they are the slowest requests, whose sends set the
    # tail (more than worker.TAIL_BEYOND of them, so it is not one outlier).
    for n, field_name, y0, p in ((smooth, "sqrt-abs", 1.0, "1.25"),
                                 (smooth, "sqrt-abs", 2.0, "1.25"),
                                 (smooth, "sqrt-abs", 3.0, "1.25"),
                                 (smooth, "sin", 1.0, "1.5"),
                                 (size["smooth_long"], "identity", 1.0, "1.5")):
        t = np.linspace(0.0, 1.0, n)
        jobs.append(((inputs.write("identity", t, t), t), field_name, y0, p, True))
    cycle = []
    for (dest, values), field_name, y0, p, smooth_driver in jobs:
        out = inputs.path("solution")
        cycle.append(Request("solve", ["solve", dest, "--field", field_name,
                                       "--y0", repr(y0), "--p", p,
                                       "--tol", repr(SOLVE_TOL), "--out", out],
                             _solve_check(values, out, field_name, y0, smooth_driver),
                             out=out))
    return cycle


BUILDERS = {"scan-large": scan_large, "profile-checks": profile_checks,
            "picard-solve": picard_solve}


def build(workload, seed, work_dir, smoke=False):
    """Write the workload's inputs into work_dir; return its request cycle."""
    inputs = Inputs(workload, seed, work_dir)
    return BUILDERS[workload](inputs, SIZES["smoke" if smoke else "full"])


def cross_check(records):
    """Checks across requests: tv must not rise with delta on one input.

    `records` are (request, report) pairs of completed requests; returns
    the requests found wrong, with the reason.
    """
    by_input = {}
    for req, rep in records:
        if req.tv_at is not None:
            dest, delta = req.tv_at
            by_input.setdefault(dest, []).append((delta, float(rep["results"]["tv"]), req))
    wrong = []
    for rows in by_input.values():
        rows.sort(key=lambda row: row[0])
        for (d0, tv0, _), (d1, tv1, req) in zip(rows, rows[1:]):
            if d1 > d0 and tv1 > tv0 * (1.0 + REL_TOL):
                wrong.append((req, f"tv rose from {tv0!r} at {d0} to {tv1!r} at {d1}"))
    return wrong
