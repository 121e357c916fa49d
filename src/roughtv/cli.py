"""Command-line front end.

Subcommands: gen (signal generation), tv / pvar / norm (functional
evaluation), bounds (inequality verification), solve (integral equations).
Reports are JSON objects {command, params, results, diagnostics, version}
printed to stdout with 17-significant-digit numbers so byte-identical reruns
diff cleanly.  Exit codes: 0 all asserted checks pass, 1 a bound was
violated, 2 invalid input or regime, 3 I/O failure.
"""

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__
from .equations import field_catalog, picard_solve
from .errors import BadParameterError, RoughTVError
from .integrals import (
    default_ladder_pair,
    integral_norm_check,
    gamma_level_check,
    loeve_young_check,
    min_series_check,
    young_series_check,
)
from .norms import p_variation, tv_p_full_norm
from .paths import (
    Mode,
    constant_path,
    gen_brownian,
    gen_counterexample_fx,
    gen_zigzag,
    identity_path,
    tent_path,
)
from .pathio import read_path_csv, write_path_csv
from .truncation import truncated_variation

BOUND_VARIANTS = (
    "loeve-pvar-left", "loeve-pvar-right", "loeve-pvar-xi",
    "loeve-ptv-left", "loeve-ptv-right", "loeve-ptv-xi",
    "young-s", "min-series",
    "integral-ptv-theorem", "integral-ptv-corollary", "integral-pvar-remark",
    "gamma-level-ladder",
)
# the E-form corollary check is reported, never asserted
UNASSERTED_VARIANTS = ("integral-ptv-corollary",)


def thread_budget() -> int:
    """Worker cap from ROUGHTV_THREADS (0 or unset = auto)."""
    raw = os.environ.get("ROUGHTV_THREADS", "0").strip() or "0"
    try:
        n = int(raw)
    except ValueError:
        raise BadParameterError(f"ROUGHTV_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise BadParameterError("ROUGHTV_THREADS must be >= 0")
    return n if n > 0 else (os.cpu_count() or 1)


def _json_scalar(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    return '"' + str(x).replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_json(obj, indent=0) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if is_dataclass(obj):
        obj = asdict(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{inner}"{key}": {to_json(obj[key], indent + 1)}'
            for key in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{to_json(item, indent + 1)}" for item in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return _json_scalar(obj)


def make_report(command, params, results, diagnostics=None) -> str:
    return to_json({
        "command": command,
        "params": params,
        "results": results,
        "diagnostics": diagnostics or {},
        "version": __version__,
    }) + "\n"


def render_svg(series, title, xlabel, ylabel) -> str:
    """Static polyline plot; series is a list of (label, xs, ys)."""
    width, height = 640, 400
    ml, mr, mt, mb = 70, 20, 40, 50
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    ys_all = ys_all[np.isfinite(ys_all)]
    if ys_all.size == 0:
        ys_all = np.asarray([0.0, 1.0])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" font-size="12" '
        f'transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})" text-anchor="middle">{ylabel}</text>',
        f'<text x="{ml}" y="{height - mb + 16}" text-anchor="middle" font-size="10">{x_lo:.4g}</text>',
        f'<text x="{width - mr}" y="{height - mb + 16}" text-anchor="middle" font-size="10">{x_hi:.4g}</text>',
        f'<text x="{ml - 6}" y="{height - mb}" text-anchor="end" font-size="10">{y_lo:.4g}</text>',
        f'<text x="{ml - 6}" y="{mt + 4}" text-anchor="end" font-size="10">{y_hi:.4g}</text>',
    ]
    for k, (label, xs, ys) in enumerate(series):
        color = colors[k % len(colors)]
        pts = " ".join(
            f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(float(y))
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{width - mr - 6}" y="{mt + 16 * (k + 1)}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_text(dest, text):
    with open(dest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(report, out=None):
    sys.stdout.write(report)
    if out:
        _write_text(out, report)


def _named_path(name, n, horizon, value):
    if name == "identity":
        return identity_path(n=n, horizon=horizon)
    if name == "tent":
        return tent_path()
    if name == "constant":
        return constant_path(value, 0.0, horizon)
    raise BadParameterError(f"unknown named path {name!r}")


def cmd_gen(args) -> int:
    if args.format != "csv":
        raise BadParameterError("gen only writes csv")
    diagnostics = {}
    if args.kind == "brownian":
        path = gen_brownian(args.n, args.horizon, args.seed)
    elif args.kind == "zigzag":
        path = gen_zigzag(args.p, args.levels)
    elif args.kind == "fx":
        path = gen_counterexample_fx(args.x)
        diagnostics["jump_times"] = path.jump_times().tolist()
        diagnostics["mode"] = "step"
    else:
        path = _named_path(args.name, args.n, args.horizon, args.value)
    write_path_csv(path, args.out)
    params = {"kind": args.kind, "n": args.n, "horizon": args.horizon,
              "seed": args.seed, "p": args.p, "levels": args.levels,
              "x": args.x, "name": args.name, "value": args.value}
    results = {"samples": len(path), "span": [path.a, path.b], "out": args.out}
    sys.stdout.write(make_report("gen", params, results, diagnostics))
    return 0


def _load(args, attr="input"):
    return read_path_csv(getattr(args, attr), Mode(args.mode))


def cmd_tv(args) -> int:
    path = _load(args)
    value = truncated_variation(path, args.delta)
    report = make_report("tv", {"input": args.input, "delta": args.delta,
                                "mode": args.mode},
                         {"tv": value})
    _emit(report, args.out)
    return 0


def cmd_pvar(args) -> int:
    path = _load(args)
    value = p_variation(path, args.p)
    report = make_report("pvar", {"input": args.input, "p": args.p,
                                  "mode": args.mode},
                         {"pvar": value, "pvar_root": value ** (1.0 / args.p)})
    _emit(report, args.out)
    return 0


def cmd_norm(args) -> int:
    path = _load(args)
    rep = tv_p_full_norm(path, args.p)
    report = make_report("norm", {"input": args.input, "p": args.p,
                                  "mode": args.mode}, asdict(rep))
    _emit(report, args.out)
    return 0


def _bound_report(f, g, args):
    variant = args.variant
    if variant.startswith("loeve-"):
        _, family, form = variant.split("-")
        form = {"left": "left", "right": "right-symmetric", "xi": "midpoint-xi"}[form]
        return loeve_young_check(f, g, args.p, args.q, family, form)
    if variant == "young-s":
        return young_series_check(f, g, args.p, args.q)
    if variant == "min-series":
        return min_series_check(f, g, args.p, args.q)
    if variant.startswith("integral-"):
        return integral_norm_check(f, g, args.p, args.q, variant[len("integral-"):])
    if variant == "gamma-level-ladder":
        ladder, _ = default_ladder_pair(f, g, args.p, args.q)
        return gamma_level_check(f, g, ladder)
    raise BadParameterError(f"unknown variant {variant!r}")


def _bounds_sweep_svg(f, g, args):
    """rhs/lhs of the chosen bound across a regime sweep toward (p, q)."""
    thetas = np.linspace(0.25, 1.0, 16)
    budget = thread_budget()

    def eval_point(theta):
        local = argparse.Namespace(**vars(args))
        local.p = 1.0 + theta * (args.p - 1.0)
        local.q = 1.0 + theta * (args.q - 1.0)
        rep = _bound_report(f, g, local)
        return local.p, rep.lhs, rep.rhs

    if budget > 1:
        with ThreadPoolExecutor(max_workers=budget) as pool:
            points = list(pool.map(eval_point, thetas))
    else:
        points = [eval_point(t) for t in thetas]
    ps = [pt[0] for pt in points]
    return render_svg(
        [("lhs", ps, [pt[1] for pt in points]),
         ("rhs", ps, [pt[2] for pt in points])],
        f"{args.variant} sweep", "p", "bound value",
    )


def cmd_bounds(args) -> int:
    f = read_path_csv(args.f, Mode(args.mode))
    g = read_path_csv(args.g, Mode(args.mode))
    rep = _bound_report(f, g, args)
    params = {"f": args.f, "g": args.g, "p": args.p, "q": args.q,
              "variant": args.variant, "mode": args.mode}
    results = asdict(rep)
    diagnostics = {"asserted": args.variant not in UNASSERTED_VARIANTS,
                   "threads": thread_budget()}
    report = make_report("bounds", params, results, diagnostics)
    if args.format == "svg":
        if not args.out:
            raise BadParameterError("--format svg needs --out")
        _write_text(args.out, _bounds_sweep_svg(f, g, args))
        sys.stdout.write(report)
    else:
        _emit(report, args.out)
    if not rep.passed and args.variant not in UNASSERTED_VARIANTS:
        return 1
    return 0


def cmd_solve(args) -> int:
    x = read_path_csv(args.x, Mode(args.mode))
    catalog = field_catalog()
    if args.field not in catalog:
        raise BadParameterError(
            f"unknown field {args.field!r}; choose from {sorted(catalog)}"
        )
    sol = picard_solve(x, catalog[args.field], args.y0, args.p, args.tol)
    if args.out:
        write_path_csv(sol.path, args.out)
    params = {"x": args.x, "field": args.field, "y0": args.y0, "p": args.p,
              "tol": args.tol, "mode": args.mode}
    results = {
        "terminal": float(sol.path.values[-1]),
        "converged": sol.converged,
        "residual": sol.residual,
        "windows": list(sol.windows),
        "iterations": list(sol.iterations),
        "out": args.out,
    }
    sys.stdout.write(make_report("solve", params, results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughtv",
        description="Truncated-variation calculus for sampled paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a test signal as CSV")
    p_gen.add_argument("kind", choices=("brownian", "zigzag", "fx", "named"))
    p_gen.add_argument("--n", type=int, default=1024)
    p_gen.add_argument("--horizon", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--p", type=float, default=1.5)
    p_gen.add_argument("--levels", type=int, default=4)
    p_gen.add_argument("--x", type=float, default=3.0)
    p_gen.add_argument("--name", default="identity")
    p_gen.add_argument("--value", type=float, default=0.0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--format", default="csv", choices=("csv",))
    p_gen.set_defaults(handler=cmd_gen)

    for name, handler in (("tv", cmd_tv), ("pvar", cmd_pvar), ("norm", cmd_norm)):
        sp = sub.add_parser(name, help=f"evaluate {name} on a CSV path")
        sp.add_argument("input")
        sp.add_argument("--mode", default="linear", choices=("linear", "step"))
        if name == "tv":
            sp.add_argument("--delta", type=float, required=True)
        else:
            sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", default="json", choices=("json",))
        sp.set_defaults(handler=handler)

    p_b = sub.add_parser("bounds", help="verify an integral inequality")
    p_b.add_argument("f")
    p_b.add_argument("g")
    p_b.add_argument("--p", type=float, required=True)
    p_b.add_argument("--q", type=float, required=True)
    p_b.add_argument("--variant", default="loeve-ptv-left", choices=BOUND_VARIANTS)
    p_b.add_argument("--mode", default="linear", choices=("linear", "step"))
    p_b.add_argument("--out", default=None)
    p_b.add_argument("--format", default="json", choices=("json", "svg"))
    p_b.set_defaults(handler=cmd_bounds)

    p_s = sub.add_parser("solve", help="solve y = y0 + int F(y) dx")
    p_s.add_argument("x")
    p_s.add_argument("--field", default="identity")
    p_s.add_argument("--y0", type=float, default=0.0)
    p_s.add_argument("--p", type=float, default=1.5)
    p_s.add_argument("--tol", type=float, default=1e-8)
    p_s.add_argument("--mode", default="linear", choices=("linear",))
    p_s.add_argument("--out", default=None)
    p_s.add_argument("--format", default="csv", choices=("csv",))
    p_s.set_defaults(handler=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except RoughTVError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
