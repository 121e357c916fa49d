"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install()` replaces every public function of the layer modules with
a timing wrapper, in every loaded `roughtv` module namespace that binds it.
That covers names imported into another module (`norms` and `integrals`
import `tv_profile` by name) and module globals a kernel calls
(`kernels.pure.tv_delta` calls `reduce_to_extrema`).  `uninstall()` puts the
originals back.  The program's files are not changed.

Each wrapper call is a span.  Spans are aggregated when they close, per
thread, under the span's name:

- ``calls``: entries that are not nested inside a span of the same name;
- ``s``: inclusive time of those outermost entries;
- ``self_s``: time of every entry minus the time of its direct child spans.

A few spans also carry counts taken from their arguments and results (see
`_HOOKS`).  The SVG sweep of ``bounds --format svg`` runs in a thread pool;
spans opened there are recorded on their own thread-local stack, so their
times include waits for the interpreter lock.

This module is imported only by a traced run.
"""

import hashlib
import inspect
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYER_OF_MODULE = {
    "roughtv.kernels": "kernels",
    "roughtv.kernels.pure": "kernels",
    "roughtv.kernels._fast": "kernels",
    "roughtv.truncation": "truncation",
    "roughtv.norms": "norms",
    "roughtv.paths": "paths",
    "roughtv.pathio": "pathio",
    "roughtv.integrals": "integrals",
    "roughtv.equations": "equations",
    "roughtv.cli": "cli",
}

# Functions reported under a shared span name instead of their own.
SPAN_ALIAS = {
    "pathio.read_path_csv": "pathio.read",
    "pathio.write_path_csv": "pathio.write",
    "norms.p_tv_seminorm": "norms.seminorm",
    "norms.seminorm_with_argmax": "norms.seminorm",
    "norms.seminorm_from_profile": "norms.seminorm",
    "integrals.young_bound_S": "integrals.series",
    "integrals.young_bound_S_tilde": "integrals.series",
    "integrals.gamma_level_check": "integrals.series",
    "integrals.lemma_sum_bound": "integrals.series",
    "integrals.loeve_young_constant": "integrals.constants",
    "integrals.d_e_constants": "integrals.constants",
}


def _file_size(dest):
    return os.path.getsize(dest) if isinstance(dest, (str, os.PathLike)) else 0


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []                # child-time accumulators of open spans
        self.depth = defaultdict(int)  # open spans per name
        self.stats = None              # name -> [calls, s, self_s]
        self.counts = None             # counter name -> value


class Tracer:
    def __init__(self):
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._per_thread = []          # (stats, counts) of every thread seen
        self._originals = {}           # id(wrapper) -> original function
        self._seen_values = set()      # digests of values profiled this request
        self._hooks = {
            "kernels.reduce_to_extrema": self._on_reduce,
            "kernels.tv_delta": self._on_tv_delta,
            "truncation.tv_profile": self._on_tv_profile,
            "pathio.read": self._on_read,
            "pathio.write": self._on_write,
            "integrals.rs_integral": self._on_rs_integral,
            "equations.picard_solve": self._on_picard_solve,
        }

    # -- installation ------------------------------------------------------

    def install(self):
        wrappers = {}
        for modname, layer in LAYER_OF_MODULE.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isroutine(obj)
                        or getattr(obj, "__module__", None) not in LAYER_OF_MODULE
                        or id(obj) in wrappers):
                    continue
                owner = LAYER_OF_MODULE[obj.__module__]
                name = f"{owner}.{obj.__name__}"
                wrappers[id(obj)] = (obj, self._wrap(SPAN_ALIAS.get(name, name), obj))
        for modname, module in list(sys.modules.items()):
            if modname != "roughtv" and not modname.startswith("roughtv."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._originals[(modname, attr)] = obj

    def uninstall(self):
        for (modname, attr), obj in self._originals.items():
            setattr(sys.modules[modname], attr, obj)
        self._originals.clear()

    def _state(self):
        local = self._local
        if local.stats is None:
            local.stats = defaultdict(lambda: [0, 0.0, 0.0])
            local.counts = defaultdict(float)
            with self._lock:
                self._per_thread.append((local.stats, local.counts))
        return local

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            local = self._state()
            stack = local.stack
            depth = local.depth
            child = [0.0]
            stack.append(child)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += dt
                row = local.stats[name]
                row[2] += dt - child[0]
                if depth[name] == 0:
                    row[0] += 1
                    row[1] += dt
            if hook is not None:
                hook(local, args, result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _on_reduce(self, local, args, result):
        counts = local.counts
        counts["reduce.in"] += len(args[0])
        counts["reduce.out"] += len(result)
        if local.depth["kernels.pvar_sum"] and not local.depth["kernels.tv_delta"]:
            counts["pvar_sum.m2"] += float(len(result)) ** 2

    def _on_tv_delta(self, local, args, result):
        if local.depth["truncation.tv_profile"]:
            local.counts["tv_delta.in_profile"] += 1

    def _on_tv_profile(self, local, args, result):
        local.counts["tv_profile.segments"] += result.n_segments
        digest = hashlib.sha1(args[0].values.tobytes()).digest()
        with self._lock:
            repeat = digest in self._seen_values
            self._seen_values.add(digest)
        if repeat:
            local.counts["tv_profile.repeats"] += 1

    def _on_read(self, local, args, result):
        local.counts["pathio.read.bytes"] += _file_size(args[0])

    def _on_write(self, local, args, result):
        local.counts["pathio.write.bytes"] += _file_size(args[1])

    def _on_rs_integral(self, local, args, result):
        local.counts["rs_integral.grid_points"] += result.partitions_used

    def _on_picard_solve(self, local, args, result):
        local.counts["equations.windows"] += len(result.windows) - 1
        local.counts["equations.iterations"] += sum(result.iterations)

    # -- reporting ---------------------------------------------------------

    def begin_request(self):
        """Start a new request: profile repeats are counted within one."""
        with self._lock:
            self._seen_values.clear()

    def main_thread_self_s(self):
        stats = self._state().stats
        return sum(row[2] for row in stats.values())

    def totals(self):
        """(stats, counts) summed over every thread that recorded spans."""
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        counts = defaultdict(float)
        with self._lock:
            for thread_stats, thread_counts in self._per_thread:
                for name, row in list(thread_stats.items()):
                    for k in range(3):
                        stats[name][k] += row[k]
                for name, value in list(thread_counts.items()):
                    counts[name] += value
        return stats, counts


def layer_metrics(stats, counts, cycles):
    """The per-layer metrics of BENCHMARK.json, per workload cycle."""

    def per_cycle(x):
        return x / cycles

    def share(num, den):
        return num / den if den else 0.0

    def row(name):
        return stats.get(name, [0, 0.0, 0.0])

    out = {}
    for name in ("kernels.tv_delta", "kernels.reduce_to_extrema", "kernels.pvar_sum",
                 "norms.p_variation", "norms.seminorm", "norms.seminorm_on",
                 "paths.restrict", "integrals.rs_integral", "integrals.constants",
                 "equations.contraction_window", "truncation.tv_profile"):
        out[f"{name}.calls"] = per_cycle(row(name)[0])
    for name in ("kernels.tv_delta", "kernels.reduce_to_extrema", "kernels.pvar_sum",
                 "paths.restrict", "pathio.read", "pathio.write", "integrals.rs_integral",
                 "integrals.indefinite_integral", "integrals.constants", "cli.to_json",
                 "cli.render_svg"):
        out[f"{name}.s"] = per_cycle(row(name)[1])
    for name in ("truncation.tv_profile", "norms.seminorm", "integrals.series",
                 "equations.contraction_window", "equations.splitting_mesh",
                 "equations.picard_solve", "cli.main"):
        out[f"{name}.self_s"] = per_cycle(row(name)[2])
    segments = counts["tv_profile.segments"]
    out["kernels.extrema_kept_share"] = share(counts["reduce.out"], counts["reduce.in"])
    out["kernels.pvar_sum.m2"] = per_cycle(counts["pvar_sum.m2"])
    out["truncation.tv_profile.segments"] = per_cycle(segments)
    out["truncation.tv_delta_per_segment"] = share(counts["tv_delta.in_profile"], segments)
    out["truncation.tv_profile.repeat_share"] = share(counts["tv_profile.repeats"],
                                                      row("truncation.tv_profile")[0])
    out["pathio.read.bytes"] = per_cycle(counts["pathio.read.bytes"])
    out["pathio.write.bytes"] = per_cycle(counts["pathio.write.bytes"])
    out["integrals.rs_integral.grid_points"] = per_cycle(counts["rs_integral.grid_points"])
    out["equations.windows"] = per_cycle(counts["equations.windows"])
    out["equations.iterations"] = per_cycle(counts["equations.iterations"])
    return out
