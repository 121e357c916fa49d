"""Command-line front end.

Subcommands: gen (signal generation), tv / pvar / norm (functional
evaluation), bounds (inequality verification), solve (integral equations).
Reports are JSON objects {command, params, results, diagnostics, version}
printed to stdout with 17-significant-digit numbers so byte-identical reruns
diff cleanly; `params` holds every parsed flag but `command`, `out` and
`format`.  tv, pvar, norm and JSON bounds also write the report to --out;
the --out of gen, solve and SVG bounds names their data file.  Exit codes:
0 all asserted checks pass, 1 a bound was violated, 2 invalid input or
regime, 3 I/O failure.

`main` builds its argparse parser once per process, on its first call, and
reuses it; it parses an argv once, with the subcommand's own parser when
argv[0] names one, and looks the `cmd_*` handler up by subcommand name on
every call.  `build_parser()` still returns a fresh parser.  A subcommand's
arguments are added on its first parse, and each handler imports the layer
it calls, so `import roughtv.cli` loads only `errors`, `kernels`, `paths`
and `pathio`: only a `bounds` argv loads `integrals` (for the `--variant`
choices), and only a `solve` argv loads `equations` (for the `--field`
choices).  No module loads `json`: a report escapes its strings itself.
"""

import argparse
import functools
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import BadParameterError, RoughTVError
from .paths import (
    Mode,
    constant_path,
    gen_brownian,
    gen_counterexample_fx,
    gen_zigzag,
    identity_path,
    tent_path,
)
from .pathio import read_path_csv, write_path_csv, write_text


def thread_budget() -> int:
    """Worker cap: 1, since every command runs on one thread."""
    return 1


# what json.dumps(s, ensure_ascii=False) escapes in a string: the quote, the
# backslash and U+0000-U+001F, five of them by their short forms
_ESCAPES = {**{c: f"\\u{c:04x}" for c in range(0x20)},
            **{ord(c): "\\" + e for c, e in zip('"\\\b\t\n\f\r', '"\\btnfr')}}


def to_json(value, indent=0) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys.

    A report holds only plain values, and each is written by its exact
    type: a dict (str keys, sorted and escaped as every str is), a list or
    tuple, a str, an int, a bool, None and a float, NaN and +-inf as the
    strings "nan", "inf" and "-inf".  Any other type, a NumPy scalar or
    array, a dataclass or a str subclass such as `Mode`, raises TypeError,
    as does a dict key of any type but str.
    """
    kind = type(value)
    if kind is float:
        text = format(value, ".17g")  # "nan", "inf" or "-inf" when not finite
        return text if math.isfinite(value) else f'"{text}"'
    if kind is str:
        return '"' + value.translate(_ESCAPES) + '"'
    if kind is int:
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if kind is dict:
        if not value:
            return "{}"
        for key in value:
            if type(key) is not str:
                kind = type(key)
                raise TypeError(f"to_json cannot write a {kind.__module__}.{kind.__qualname__} key")
        rows = [f"{inner}{to_json(key)}: {to_json(value[key], indent + 1)}" for key in sorted(value)]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        rows = [f"{inner}{to_json(item, indent + 1)}" for item in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"to_json cannot write a {kind.__module__}.{kind.__qualname__}")


def make_report(args, results, diagnostics=None) -> str:
    """The report of the command parsed into `args`."""
    params = {key: value for key, value in vars(args).items()
              if key not in ("command", "out", "format")}
    return to_json({
        "command": args.command,
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


def _emit(args, results, diagnostics=None):
    """Print the report and write it to --out when given."""
    report = make_report(args, results, diagnostics)
    sys.stdout.write(report)
    if args.out:
        write_text(args.out, [report])


def _named_path(name, n, horizon, value):
    if name == "identity":
        return identity_path(n=n, horizon=horizon)
    if name == "tent":
        return tent_path()
    return constant_path(value, 0.0, horizon)


def cmd_gen(args) -> int:
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
    sys.stdout.write(make_report(
        args, {"samples": len(path), "span": [path.a, path.b], "out": args.out}, diagnostics))
    return 0


def _load(args):
    return read_path_csv(args.input, Mode(args.mode))


def cmd_tv(args) -> int:
    from .truncation import truncated_variation
    _emit(args, {"tv": truncated_variation(_load(args), args.delta)})
    return 0


def cmd_pvar(args) -> int:
    from .norms import p_variation
    value = p_variation(_load(args), args.p)
    _emit(args, {"pvar": value, "pvar_root": value ** (1.0 / args.p)})
    return 0


def cmd_norm(args) -> int:
    from .norms import tv_p_full_norm
    _emit(args, asdict(tv_p_full_norm(_load(args), args.p)))
    return 0


def _bounds_sweep_svg(pair, args):
    """rhs/lhs of the chosen bound across a regime sweep toward (p, q).

    The 16 checks read the report's pair, so what the pair and its paths
    keep (validation, integrals, tag gaps, extrema, profiles) is built
    once; only what depends on (p, q) is redone per point.
    """
    from .integrals import BOUND_CHECKS
    check = BOUND_CHECKS[args.variant]

    def eval_point(theta):
        p = 1.0 + theta * (args.p - 1.0)
        rep = check(pair, p, 1.0 + theta * (args.q - 1.0))
        return p, rep.lhs, rep.rhs

    ps, lhs, rhs = zip(*[eval_point(t) for t in np.linspace(0.25, 1.0, 16)])
    return render_svg([("lhs", ps, lhs), ("rhs", ps, rhs)],
                      f"{args.variant} sweep", "p", "bound value")


def cmd_bounds(args) -> int:
    from .integrals import BOUND_CHECKS, SampledPair
    if args.format == "svg" and not args.out:
        raise BadParameterError("--format svg needs --out")
    mode = Mode(args.mode)
    pair = SampledPair(read_path_csv(args.f, mode), read_path_csv(args.g, mode))
    rep = BOUND_CHECKS[args.variant](pair, args.p, args.q)
    # an informational report (the E-form corollary) is never asserted
    diagnostics = {"asserted": rep.extras.get("asserted", True)}
    if args.format == "svg":
        write_text(args.out, [_bounds_sweep_svg(pair, args)])
        sys.stdout.write(make_report(args, asdict(rep), diagnostics))
    else:
        _emit(args, asdict(rep), diagnostics)
    return 0 if rep.passed or not diagnostics["asserted"] else 1


def cmd_solve(args) -> int:
    from .equations import field_catalog, picard_solve
    x = read_path_csv(args.x)
    sol = picard_solve(x, field_catalog()[args.field], args.y0, args.p, args.tol)
    if args.out:
        write_path_csv(sol.path, args.out)
    sys.stdout.write(make_report(args, {
        "terminal": float(sol.path.values[-1]),
        "converged": sol.converged,
        "residual": sol.residual,
        "windows": sol.windows,
        "iterations": sol.iterations,
        "out": args.out,
    }))
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: `add_args(self)` adds its arguments on its
    first parse, so a layer that only a subcommand's choices read is loaded
    only when that subcommand is parsed."""

    def __init__(self, *args, add_args, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_args = add_args

    def parse_known_args(self, args=None, namespace=None):
        if self._add_args is not None:
            add_args, self._add_args = self._add_args, None
            add_args(self)
        return super().parse_known_args(args, namespace)


def _gen_args(sp):
    sp.add_argument("kind", choices=("brownian", "zigzag", "fx", "named"))
    sp.add_argument("--n", type=int, default=1024)
    sp.add_argument("--horizon", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--p", type=float, default=1.5)
    sp.add_argument("--levels", type=int, default=4)
    sp.add_argument("--x", type=float, default=3.0)
    sp.add_argument("--name", default="identity", choices=("identity", "tent", "constant"))
    sp.add_argument("--value", type=float, default=0.0)
    sp.add_argument("--out", required=True)


def _functional_args(sp, name):
    sp.add_argument("input")
    sp.add_argument("--mode", default="linear", choices=("linear", "step"))
    if name == "tv":
        sp.add_argument("--delta", type=float, required=True)
    else:
        sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--out", default=None)


def _bounds_args(sp):
    from .integrals import BOUND_CHECKS
    sp.add_argument("f")
    sp.add_argument("g")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--variant", default="loeve-ptv-left", choices=tuple(BOUND_CHECKS))
    sp.add_argument("--mode", default="linear", choices=("linear", "step"))
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", default="json", choices=("json", "svg"))


def _solve_args(sp):
    from .equations import field_catalog
    sp.add_argument("x")
    sp.add_argument("--field", default="identity", choices=sorted(field_catalog()))
    sp.add_argument("--y0", type=float, default=0.0)
    sp.add_argument("--p", type=float, default=1.5)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; its `commands` maps each subcommand to its parser."""
    parser = argparse.ArgumentParser(
        prog="roughtv",
        description="Truncated-variation calculus for sampled paths",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)
    sub.add_parser("gen", help="generate a test signal as CSV", add_args=_gen_args)
    for name in ("tv", "pvar", "norm"):
        sub.add_parser(name, help=f"evaluate {name} on a CSV path",
                       add_args=functools.partial(_functional_args, name=name))
    sub.add_parser("bounds", help="verify an integral inequality", add_args=_bounds_args)
    sub.add_parser("solve", help="solve y = y0 + int F(y) dx", add_args=_solve_args)
    parser.commands = sub.choices
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: built on the first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line; returns its exit code.

    argv is parsed once.  When argv[0] names a subcommand, its own parser
    takes argv[1:], as the top-level parser would hand them over, and a
    leftover token is the top-level parser's "unrecognized arguments"
    error; any other argv (no command, an unknown one, -h) goes through
    the top-level parser.  Either way the namespace, the output and the
    exit code are those of `build_parser().parse_args(argv)`.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        args = parser.parse_args(argv)
    else:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    # looked up per call, so a rebound cmd_* (a test double, a tracing
    # wrapper) is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except RoughTVError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
