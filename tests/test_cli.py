import errno
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from roughtv import cli, integrals, pathio
from roughtv.cli import main, to_json
from roughtv.equations import field_catalog
from roughtv.errors import BadParameterError, RoughTVError
from roughtv.pathio import read_path_csv, write_path_csv
from roughtv.paths import (
    MAX_SAMPLES,
    Mode,
    gen_brownian,
    identity_path,
    scale_path,
    shift_path,
    tent_path,
)
from roughtv.reports import PASS_SLACK, bound_report

BOUND_VARIANTS = tuple(integrals.BOUND_CHECKS)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def tent_csv(tmp_path):
    dest = tmp_path / "tent.csv"
    write_path_csv(tent_path(), dest)
    return str(dest)


def test_json_serializer_is_deterministic():
    payload = {"b": 1.0 / 3.0, "a": [1, 2.5], "c": {"nested": True}}
    first = to_json(payload)
    assert first == to_json(payload)
    assert "0.33333333333333331" in first
    assert to_json(float("inf")) == '"inf"'


@dataclass
class _Point:
    x: float


@pytest.mark.parametrize("value", [np.float64(1.0), np.int64(1), np.bool_(True), np.zeros(2),
                                   _Point(1.0), {1}, Mode.LINEAR],
                         ids=lambda value: type(value).__name__)
def test_to_json_refuses_anything_but_plain_values(value):
    # a report holds only plain values; anything else is named, not quoted
    name = f"{type(value).__module__}.{type(value).__qualname__}"
    for tree in (value, {"results": [value]}):
        with pytest.raises(TypeError, match=f"^to_json cannot write a {re.escape(name)}$"):
            to_json(tree)


def test_to_json_escapes_dict_keys_and_refuses_keys_but_str():
    # a key is a str like any other, so json.loads reads it back; an int
    # key was once quoted as if it were one
    key = 'a"b\\c\nd'
    assert json.loads(to_json({key: 1, "e": [{key: None}]})) == {key: 1, "e": [{key: None}]}
    for tree in ({1: 2}, {"a": {None: 1}}, {"a": 1, 2.5: 3}):
        with pytest.raises(TypeError, match=r" key$"):
            to_json(tree)
    with pytest.raises(TypeError, match=r"^to_json cannot write a builtins\.int key$"):
        to_json({"a": 1, 2: 3})


def _json_scalar_reference(x):
    # every scalar by isinstance tests, one at a time
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
    return json.dumps(str(x), ensure_ascii=False)


def to_json_reference(obj, indent=0):
    # the serializer before scalars were tested for first, with its own
    # scalar writer, kept as the reference `to_json` must equal
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
            f"{inner}{_json_scalar_reference(key)}: {to_json_reference(obj[key], indent + 1)}"
            for key in sorted(obj, key=str)
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{to_json_reference(item, indent + 1)}" for item in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return _json_scalar_reference(obj)


def test_gen_is_byte_stable(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _, _ = run_cli(capsys, "gen", "brownian", "--n", "64", "--seed", "7",
                          "--out", str(out1))
    code2, _, _ = run_cli(capsys, "gen", "brownian", "--n", "64", "--seed", "7",
                          "--out", str(out2))
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_zigzag_boundary_zeros(tmp_path, capsys):
    out = tmp_path / "z.csv"
    code, _, _ = run_cli(capsys, "gen", "zigzag", "--p", "1.5", "--levels", "4",
                         "--out", str(out))
    assert code == 0
    z = read_path_csv(out)
    for n in range(1, 5):
        assert z.value_at(2.0 ** -n) == 0.0


@pytest.mark.parametrize("argv", [
    ("zigzag", "--p", "1000", "--levels", "4"),
    ("zigzag", "--p", "inf"),
    ("zigzag", "--p", "1.01", "--levels", "2000"),
    ("brownian", "--n", "3", "--horizon", "inf"),
    ("named", "--name", "identity", "--horizon", "inf"),
    ("brownian", "--seed", "-1"),
    ("named", "--name", "identity", "--n", "-3"),
])
def test_gen_out_of_range_exits_two(tmp_path, capsys, argv):
    # no OverflowError or ValueError traceback (exit 1) and no NumPy warning
    # before the line
    code, stdout, stderr = run_cli(capsys, "gen", *argv, "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr.endswith("\n")
    assert not (tmp_path / "x.csv").exists()


def test_gen_zigzag_names_the_sample_count(tmp_path, capsys):
    # every level summed: the exact count; stopped at the cap: the cap
    code, _, stderr = run_cli(capsys, "gen", "zigzag", "--p", "3", "--levels", "8",
                              "--out", str(tmp_path / "z.csv"))
    assert (code, stderr) == (2, "error: BadCountError: zigzag would need 19173961 "
                                 "samples; lower p or levels\n")
    code, _, stderr = run_cli(capsys, "gen", "zigzag", "--p", "3", "--levels", "9",
                              "--out", str(tmp_path / "z.csv"))
    assert (code, stderr) == (2, "error: BadCountError: zigzag would need more than "
                                 "10000001 samples; lower p or levels\n")


@pytest.mark.parametrize("argv", [
    ("brownian", "--n", "10000000000000"),
    ("named", "--name", "identity", "--n", "10000000000000"),
    ("brownian", "--n", str(MAX_SAMPLES + 1)),
    ("named", "--name", "identity", "--n", str(MAX_SAMPLES + 1)),
])
def test_gen_past_the_sample_cap_exits_two(tmp_path, capsys, monkeypatch, argv):
    # rejected before any array is made: no MemoryError traceback (exit 1)
    def no_arrays(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    for name in ("linspace", "empty", "zeros"):
        monkeypatch.setattr(np, name, no_arrays)
    monkeypatch.setattr(np.random, "default_rng", no_arrays)
    code, stdout, stderr = run_cli(capsys, "gen", *argv, "--out", str(tmp_path / "x.csv"))
    name = "brownian" if argv[0] == "brownian" else "identity"
    assert (code, stdout) == (2, "")
    assert stderr == f"error: BadCountError: {name} would need {argv[-1]} samples; lower n\n"
    assert not (tmp_path / "x.csv").exists()


def test_gen_fx_reports_jumps(tmp_path, capsys):
    out = tmp_path / "fx.csv"
    code, stdout, _ = run_cli(capsys, "gen", "fx", "--x", "3", "--out", str(out))
    assert code == 0
    assert '"jump_times"' in stdout and '"mode": "step"' in stdout
    fx = read_path_csv(out, Mode.STEP)
    assert fx.values.tolist() == [0.0, 1.0, 1.0, -2.0]


def test_gen_named_tent(tmp_path, capsys):
    dest = tmp_path / "tent.csv"
    code, out, err = run_cli(capsys, "gen", "named", "--name", "tent", "--out", str(dest))
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["samples"] == 3
    q = read_path_csv(dest)
    assert (q.times.tolist(), q.values.tolist()) == ([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])


def test_tv_command(tent_csv, capsys):
    code, stdout, _ = run_cli(capsys, "tv", tent_csv, "--delta", "0.5")
    assert code == 0
    assert '"tv": 1' in stdout
    for key in ("command", "params", "results", "diagnostics", "version"):
        assert f'"{key}"' in stdout


REPORT_ARGVS = {
    "gen": ["gen", "brownian", "--n", "16", "--seed", "3", "--out", "{out}.csv"],
    "tv": ["tv", "{f}", "--delta", "0.25", "--out", "{out}.json"],
    "pvar": ["pvar", "{f}", "--p", "2", "--mode", "step", "--out", "{out}.json"],
    "norm": ["norm", "{f}", "--p", "1.5"],
    "bounds-json": ["bounds", "{f}", "{g}", "--p", "1.8", "--q", "1.8", "--out", "{out}.json"],
    "bounds-svg": ["bounds", "{f}", "{g}", "--p", "1.8", "--q", "1.8", "--variant", "young-s",
                   "--format", "svg", "--out", "{out}.svg"],
    "solve": ["solve", "{f}", "--field", "sin", "--y0", "0.5", "--out", "{out}.csv"],
}


@pytest.mark.parametrize("name", REPORT_ARGVS)
def test_report_params_are_the_parsed_flags(tmp_path, capsys, name):
    f_csv, g_csv = tmp_path / "f.csv", tmp_path / "g.csv"
    write_path_csv(gen_brownian(24, 1.0, 5), f_csv)
    write_path_csv(gen_brownian(24, 1.0, 6), g_csv)
    argv = [arg.format(f=f_csv, g=g_csv, out=tmp_path / "out") for arg in REPORT_ARGVS[name]]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stderr) == (0, "")
    flags = vars(cli.build_parser().parse_args(argv))
    for key in ("command", "out", "format"):
        flags.pop(key, None)
    report = json.loads(stdout)
    assert report["command"] == argv[0]
    assert report["params"] == flags
    if "--out" in argv:
        written = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        # the --out of gen, solve and an SVG sweep is their data file
        assert (written == stdout) is (name in ("tv", "pvar", "bounds-json"))


def test_norm_command(tent_csv, capsys):
    code, stdout, _ = run_cli(capsys, "norm", tent_csv, "--p", "2")
    assert code == 0
    assert '"seminorm": 0.70710678118654757' in stdout
    assert '"argmax_delta": 0.5' in stdout


OVERFLOW_ERROR = "error: NonFiniteValueError: oscillation of the path overflows float64\n"


def test_norm_overflowing_oscillation_exits_two(tmp_path, capsys):
    dest = tmp_path / "huge.csv"
    dest.write_text("t,value\n0,-1e308\n0.5,1e308\n1,-1e308\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "norm", str(dest), "--p", "2")
    assert code == 2
    assert stdout == ""
    assert stderr == OVERFLOW_ERROR


@pytest.fixture
def overflowing_csv(tmp_path):
    # finite samples whose oscillation, max - min, overflows float64
    dest = tmp_path / "overflow.csv"
    dest.write_text("t,value\n0,-1e308\n0.5,1e308\n1,0\n", encoding="utf-8")
    return str(dest)


def test_pvar_overflowing_oscillation_exits_two(overflowing_csv, capsys):
    code, stdout, stderr = run_cli(capsys, "pvar", overflowing_csv, "--p", "2")
    assert code == 2
    assert stdout == ""
    assert stderr == OVERFLOW_ERROR


def test_tv_overflowing_oscillation_exits_two(overflowing_csv, capsys):
    code, stdout, stderr = run_cli(capsys, "tv", overflowing_csv, "--delta", "0.5")
    assert code == 2
    assert stdout == ""
    assert stderr == OVERFLOW_ERROR


def test_norm_p_one_overflowing_oscillation_exits_two(overflowing_csv, capsys):
    code, stdout, stderr = run_cli(capsys, "norm", overflowing_csv, "--p", "1")
    assert code == 2
    assert stdout == ""
    assert stderr == OVERFLOW_ERROR


def test_pvar_overflowing_sum_exits_two(tmp_path, capsys):
    dest = tmp_path / "tall.csv"
    dest.write_text("t,value\n0,0\n0.5,1e200\n1,0\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "pvar", str(dest), "--p", "1.9")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: NonFiniteValueError: p-variation overflows float64\n"


@pytest.mark.parametrize("variant", ["loeve-ptv-left", "integral-ptv-theorem",
                                     "integral-pvar-remark"])
def test_bounds_overflowing_integral_exits_two(tmp_path, capsys, variant):
    # finite oscillations, but f * dg overflows on the cells where g swings by 1e308
    f = tmp_path / "f.csv"
    g = tmp_path / "g.csv"
    f.write_text("t,value\n0,0\n0.3,1\n1,2\n", encoding="utf-8")
    g.write_text("t,value\n0,0\n0.25,1e308\n0.5,0\n0.75,1e308\n1,0\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "bounds", str(f), str(g), "--p", "1.5",
                                   "--q", "1.5", "--variant", variant)
    assert code == 2
    assert stdout == ""
    assert stderr == (
        "error: NonFiniteValueError: Riemann-Stieltjes integral overflows float64\n"
    )


def test_gamma_level_rejects_a_jump_that_centering_rounds_away(tmp_path, capsys):
    # f - f(a) = [0, -1, -1, -1] no longer jumps at 0.5, but f and g both do
    f = tmp_path / "f.csv"
    g = tmp_path / "g.csv"
    f.write_text("t,value\n0,1\n0.25,1e-20\n0.5,2e-20\n1,2e-20\n", encoding="utf-8")
    g.write_text("t,value\n0,0\n0.25,0\n0.5,1\n1,1\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "bounds", str(f), str(g), "--p", "1.5",
                                   "--q", "1.5", "--variant", "gamma-level-ladder",
                                   "--mode", "step")
    assert (code, stdout) == (2, "")
    assert stderr == "error: CommonDiscontinuityError: shared jump times [0.5]\n"


@pytest.fixture
def tall_tv_csv(tmp_path):
    # finite oscillation 1e308, but the total variation 4e308 overflows
    dest = tmp_path / "tall_tv.csv"
    dest.write_text("t,value\n0,0\n0.25,1e308\n0.5,0\n0.75,1e308\n1,0\n",
                    encoding="utf-8")
    return str(dest)


def test_report_escapes_control_characters(tmp_path, capsys):
    name = str(tmp_path / 'tab\there "quoted" \\ \x01.csv')
    write_path_csv(tent_path(), name)
    code, stdout, _ = run_cli(capsys, "tv", name, "--delta", "0")
    assert code == 0
    assert json.loads(stdout)["params"]["input"] == name


def test_tv_nan_delta_exits_two(tent_csv, capsys):
    code, stdout, stderr = run_cli(capsys, "tv", tent_csv, "--delta", "nan")
    assert (code, stdout) == (2, "")
    assert stderr == "error: NegativeDeltaError: delta must be >= 0\n"


@pytest.mark.parametrize("delta", ["0", "1"])
def test_tv_overflowing_sum_exits_two(tall_tv_csv, capsys, delta):
    code, stdout, stderr = run_cli(capsys, "tv", tall_tv_csv, "--delta", delta)
    assert code == 2
    assert stdout == ""
    assert stderr == "error: NonFiniteValueError: truncated variation overflows float64\n"


def test_norm_overflowing_total_variation_exits_two(tall_tv_csv, capsys):
    code, stdout, stderr = run_cli(capsys, "norm", tall_tv_csv, "--p", "1.5")
    assert code == 2
    assert stdout == ""
    assert stderr == (
        "error: NonFiniteValueError: total variation of the path overflows float64\n"
    )


@pytest.mark.parametrize("variant", BOUND_VARIANTS)
def test_bounds_overflowing_oscillation_exits_two(overflowing_csv, tmp_path, capsys, variant):
    small = tmp_path / "small.csv"
    small.write_text("t,value\n0,0\n0.3,1\n1,2\n", encoding="utf-8")
    for f, g in ((overflowing_csv, str(small)), (str(small), overflowing_csv)):
        for mode in ("linear", "step"):
            code, stdout, stderr = run_cli(capsys, "bounds", f, g, "--p", "1.5", "--q", "1.5",
                                           "--variant", variant, "--mode", mode)
            assert code == 2
            assert stdout == ""
            assert stderr == OVERFLOW_ERROR


@pytest.mark.parametrize("variant", ["min-series", "loeve-pvar-xi", "loeve-ptv-xi"])
def test_bounds_overflowing_tagged_sum_exits_two(tmp_path, capsys, variant):
    # int f dg = 0 (f vanishes where g moves), but the tagged sum
    # f(xi) (g(b) - g(a)) = 1e300 * 1e10 overflows, and so does S
    f = tmp_path / "f.csv"
    g = tmp_path / "g.csv"
    f.write_text("t,value\n0,0\n0.1,1e300\n0.2,0\n1,0\n", encoding="utf-8")
    g.write_text("t,value\n0,0\n0.25,0\n0.75,1e10\n1,1e10\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "bounds", str(f), str(g), "--p", "1.01",
                                   "--q", "1.5", "--variant", variant)
    assert code == 2
    assert stdout == ""
    assert stderr == "error: NonFiniteValueError: tagged sum f(xi) dg overflows float64\n"


def _write_pair(tmp_path, f, g):
    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    write_path_csv(f, f_csv)
    write_path_csv(g, g_csv)
    return str(f_csv), str(g_csv)


def test_young_s_reports_its_finite_sum_past_1e300(tmp_path, capsys):
    # S = 1.2e300 is finite, so the report carries it: an inf rhs checks nothing
    pair = _write_pair(tmp_path, scale_path(gen_brownian(6, 1.0, 1), 1e150),
                       scale_path(gen_brownian(6, 1.0, 2), 7.5e149))
    code, stdout, _ = run_cli(capsys, "bounds", *pair, "--p", "1.5", "--q", "1.05",
                              "--variant", "young-s")
    assert code == 0
    assert '"rhs": 1.2058103472642348e+300,' in stdout


@pytest.mark.parametrize("variant", BOUND_VARIANTS)
def test_bounds_against_an_overflowing_rhs_exit_two(tmp_path, capsys, variant):
    # near the regime boundary C, D and E overflow: no bound passes against inf
    pair = _write_pair(tmp_path, gen_brownian(64, 1.0, 1), gen_brownian(64, 1.0, 2))
    code, stdout, stderr = run_cli(capsys, "bounds", *pair, "--p", "1.999", "--q", "1.999",
                                   "--variant", variant)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: NonFiniteValueError: ") and stderr.count("\n") == 1


def test_ptv_bound_stands_where_the_pvar_bound_overflows(tmp_path, capsys):
    # C |f|_p-var |g|_q-var is about 1e308 and overflows, while every p-TV rhs
    # stays finite: a ptv variant reads no p-variation seminorm
    pair = _write_pair(tmp_path, scale_path(gen_brownian(256, 1.0, 100), 1.585e147),
                       scale_path(gen_brownian(256, 1.0, 200), 1.585e147))
    argv = ("bounds", *pair, "--p", "1.9", "--q", "1.9", "--variant")
    code, stdout, _ = run_cli(capsys, *argv, "loeve-ptv-left")
    rhs = json.loads(stdout)["results"]["rhs"]
    assert code == 0 and isinstance(rhs, float) and math.isfinite(rhs)
    code, stdout, stderr = run_cli(capsys, *argv, "loeve-pvar-left")
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: NonFiniteValueError: loeve-pvar-left: ")


def test_pvar_command(tent_csv, capsys):
    code, stdout, _ = run_cli(capsys, "pvar", tent_csv, "--p", "2")
    assert code == 0
    assert '"pvar": 2' in stdout


def test_pvar_p_one_prints_the_tv_digits(tmp_path, capsys):
    dest = tmp_path / "walk.csv"
    write_path_csv(gen_brownian(1000, 1.0, 0), dest)
    code, stdout, _ = run_cli(capsys, "pvar", str(dest), "--p", "1")
    assert code == 0
    pvar = re.search(r'"pvar": ([^,\s]+)', stdout).group(1)
    code, stdout, _ = run_cli(capsys, "tv", str(dest), "--delta", "0")
    assert code == 0
    assert re.search(r'"tv": ([^,\s]+)', stdout).group(1) == pvar


def test_constant_csv_zeroes(tmp_path, capsys):
    dest = tmp_path / "const.csv"
    dest.write_text("t,value\n0,5\n1,5\n", encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "tv", str(dest), "--delta", "0.1")
    assert code == 0 and '"tv": 0' in stdout
    code, stdout, _ = run_cli(capsys, "norm", str(dest), "--p", "2")
    assert code == 0 and '"seminorm": 0' in stdout


def test_bounds_command_and_reports(tmp_path, capsys):
    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "brownian", "--n", "128", "--seed", "7", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "128", "--seed", "8", "--out", str(g_csv))
    code, stdout, _ = run_cli(capsys, "bounds", str(f_csv), str(g_csv),
                              "--p", "1.9", "--q", "1.9", "--variant", "loeve-ptv-left")
    assert code == 0
    assert '"passed": true' in stdout
    # byte-stable rerun
    code2, stdout2, _ = run_cli(capsys, "bounds", str(f_csv), str(g_csv),
                                "--p", "1.9", "--q", "1.9",
                                "--variant", "loeve-ptv-left")
    assert stdout2 == stdout


def test_bounds_regime_violation_exit_code(tmp_path, capsys):
    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "brownian", "--n", "32", "--seed", "1", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "32", "--seed", "2", "--out", str(g_csv))
    code, _, err = run_cli(capsys, "bounds", str(f_csv), str(g_csv),
                           "--p", "3", "--q", "3")
    assert code == 2
    assert "BadExponents" in err


@pytest.mark.parametrize("variant", ["young-s", "gamma-level-ladder"])
def test_bounds_ladder_term_cap_exit_code(tmp_path, capsys, variant):
    # just inside the Young regime the ladder needs more than
    # SERIES_MAX_TERMS terms to underflow, and the command says so
    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "brownian", "--n", "32", "--seed", "1", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "32", "--seed", "2", "--out", str(g_csv))
    code, out, err = run_cli(capsys, "bounds", str(f_csv), str(g_csv), "--p", "1.99999",
                             "--q", "1.99999", "--variant", variant)
    assert (code, out) == (2, "")
    assert err == "error: BadExponentsError: (p, q) too close to the Young regime boundary\n"


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "tv", "no-such-file.csv", "--delta", "0.5")
    assert code == 3


@pytest.mark.parametrize("rows, message", [
    ("0,zero\n", "non-numeric row '0,zero'"),
    ("0,0,0\n1,1,1\n", "expected 't,value' row, got '0,0,0'"),
])
def test_malformed_csv_exits_two(tmp_path, capsys, rows, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,value\n" + rows, encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "tv", str(bad), "--delta", "0")
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: CsvFormatError: {message}\n"


NON_UTF8_ARGV = {
    "tv": ("tv", "{bad}", "--delta", "0.1"),
    "pvar": ("pvar", "{bad}", "--p", "2"),
    "norm": ("norm", "{bad}", "--p", "2"),
    "bounds": ("bounds", "{good}", "{bad}", "--p", "1.9", "--q", "1.9"),
    "solve": ("solve", "{bad}", "--field", "sin"),
}


@pytest.mark.parametrize("later", [False, True], ids=["first-piece", "later-piece"])
@pytest.mark.parametrize("command", NON_UTF8_ARGV)
def test_non_utf8_csv_exits_two(tmp_path, capsys, command, later):
    # a byte that is not UTF-8 is a CSV error, named the same wherever it lies
    good = tmp_path / "good.csv"
    write_path_csv(gen_brownian(24, 1.0, 1), good)
    rows = b"".join(b"%d,0\n" % i for i in range(1, 2 * pathio.PIECE_BYTES // 6 if later else 2))
    assert (len(rows) > 2 * pathio.PIECE_BYTES) is later
    bad = tmp_path / "bad.csv"
    head = b"t,value\n0,1\n" + rows
    bad.write_bytes(head + b"1e9,\xff2\n")
    argv = [word.format(good=good, bad=bad) for word in NON_UTF8_ARGV[command]]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    # the offset and line of the bad byte, which follows "1e9," on the last line
    line = head.count(b"\n") + 1
    assert stderr == ("error: CsvFormatError: not UTF-8 text: invalid start byte "
                      f"at byte offset {len(head) + 4}, line {line}\n")


def test_violated_bound_exits_one(tmp_path, capsys, monkeypatch):
    # fake a failing report to pin the exit-code contract without relying on
    # an input that violates a bound
    from roughtv.reports import BoundReport

    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "brownian", "--n", "16", "--seed", "1", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "16", "--seed", "2", "--out", str(g_csv))
    failing = BoundReport(2.0, 1.0, -1.0, False, 1.0, "loeve-ptv-left", {})
    monkeypatch.setitem(integrals.BOUND_CHECKS, "loeve-ptv-left", lambda pair, p, q: failing)
    code, stdout, _ = run_cli(capsys, "bounds", str(f_csv), str(g_csv),
                              "--p", "1.9", "--q", "1.9")
    assert code == 1
    assert '"passed": false' in stdout


def _half_rhs(lhs, rhs, *args, **kwargs):
    # the check's own lhs, constant and term scale against rhs = lhs / 2
    return bound_report(lhs, lhs / 2.0, *args, **kwargs)


@pytest.mark.parametrize("c,shift,variant", [
    *[(c, 0.0, "young-s") for c in (1.0, 1e-3, 1e-6, 1e6)],
    *[(1.0, 1e7, variant) for variant in ("young-s", "min-series", "loeve-ptv-left")],
])
def test_a_bound_violated_by_half_exits_one_at_any_scale(tmp_path, capsys, monkeypatch,
                                                         c, shift, variant):
    # at c = 1e-6 the lhs is 3.78e-14: an allowance of PASS_SLACK in absolute
    # terms passed it.  The lhs, |int [f - f(a)] dg| or its xi form, does not
    # move with f + 1e7, and nor may the allowance: sup |f| TV(g) passed it
    f_csv, g_csv = tmp_path / "f.csv", tmp_path / "g.csv"
    write_path_csv(shift_path(scale_path(gen_brownian(64, 1.0, seed=1), c), shift), f_csv)
    write_path_csv(scale_path(gen_brownian(64, 1.0, seed=2), c), g_csv)
    monkeypatch.setattr(integrals, "bound_report", _half_rhs)
    code, stdout, err = run_cli(capsys, "bounds", str(f_csv), str(g_csv), "--p", "1.9",
                                "--q", "1.9", "--variant", variant)
    res = json.loads(stdout)["results"]
    assert (code, err, res["passed"]) == (1, "", False)
    assert 0.0 < res["rhs"] == res["lhs"] / 2.0


REPORT_VARIANT = {
    "loeve-pvar-left": "loeve-pvar-left",
    "loeve-pvar-right": "loeve-pvar-right-symmetric",
    "loeve-pvar-xi": "loeve-pvar-midpoint-xi",
    "loeve-ptv-left": "loeve-ptv-left",
    "loeve-ptv-right": "loeve-ptv-right-symmetric",
    "loeve-ptv-xi": "loeve-ptv-midpoint-xi",
    "young-s": "young-s",
    "min-series": "min-series",
    "integral-ptv-theorem": "integral-ptv-theorem",
    "integral-ptv-corollary": "integral-ptv-corollary",
    "integral-pvar-remark": "integral-pvar-remark",
    "gamma-level-ladder": "gamma-level",
}


@pytest.fixture
def walk_pair(tmp_path, capsys):
    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "brownian", "--n", "24", "--seed", "5", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "24", "--seed", "6", "--out", str(g_csv))
    return str(f_csv), str(g_csv)


def test_bound_variant_table(walk_pair, capsys):
    # the order is the one the argparse usage message prints
    assert BOUND_VARIANTS == tuple(REPORT_VARIANT)
    for variant, reported in REPORT_VARIANT.items():
        code, stdout, _ = run_cli(capsys, "bounds", *walk_pair, "--p", "1.9", "--q", "1.9",
                                  "--variant", variant)
        assert code == 0
        report = json.loads(stdout)
        assert report["results"]["variant"] == reported
        assert report["diagnostics"]["asserted"] is (variant != "integral-ptv-corollary")


def test_readme_lists_every_bound_variant():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Bound variants", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1].strip().strip("`") for line in section.splitlines()
            if line.startswith("| `")]
    assert tuple(rows) == BOUND_VARIANTS


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("roughtv ")]
    assert examples
    parser = cli.build_parser()
    for words in examples:
        parser.parse_args(words[1:])


@pytest.fixture
def constant_f_pair(tmp_path, capsys):
    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "named", "--name", "constant", "--value", "2", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "33", "--seed", "3", "--out", str(g_csv))
    return str(f_csv), str(g_csv)


def test_pvar_remark_measures_the_integral_with_q(constant_f_pair, capsys):
    # int 2 dg = 2 (g - g(0)) has q-variation seminorm 2 |g|_q-var, which is
    # the rhs exactly when f is constant; with f's exponent p = 1.2 the lhs
    # exceeded it
    code, stdout, _ = run_cli(capsys, "bounds", *constant_f_pair, "--p", "1.2", "--q", "1.8",
                              "--variant", "integral-pvar-remark")
    assert code == 0
    res = json.loads(stdout)["results"]
    assert abs(res["lhs"] - res["rhs"]) <= PASS_SLACK * res["rhs"]
    assert res["passed"] is True


@pytest.mark.parametrize("p,q", [("1.2", "1.8"), ("1.8", "1.2")])
def test_every_bound_holds_off_the_diagonal(tmp_path, capsys, constant_f_pair, p, q):
    pairs = [constant_f_pair]
    for seed in range(8):
        f_csv = tmp_path / f"f{seed}.csv"
        g_csv = tmp_path / f"g{seed}.csv"
        run_cli(capsys, "gen", "brownian", "--n", str(16 + 8 * seed), "--seed",
                str(40 + 2 * seed), "--out", str(f_csv))
        run_cli(capsys, "gen", "brownian", "--n", str(48 - 4 * seed), "--seed",
                str(41 + 2 * seed), "--out", str(g_csv))
        pairs.append((str(f_csv), str(g_csv)))
    for f_csv, g_csv in pairs:
        for variant in BOUND_VARIANTS:
            code, _, stderr = run_cli(capsys, "bounds", f_csv, g_csv, "--p", p, "--q", q,
                                      "--variant", variant)
            assert (code, stderr) == (0, ""), (f_csv, variant)


def test_bounds_svg(tmp_path, capsys):
    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "brownian", "--n", "48", "--seed", "3", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "48", "--seed", "4", "--out", str(g_csv))
    svg = tmp_path / "sweep.svg"
    code, _, _ = run_cli(capsys, "bounds", str(f_csv), str(g_csv),
                         "--p", "1.8", "--q", "1.8", "--variant", "young-s",
                         "--format", "svg", "--out", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text and "</svg>" in text


def test_svg_of_a_flat_x_range_widens_it_by_one():
    # every x equal: the x range [2, 2] is widened to [2, 3], so the line
    # stands on the y axis
    text = cli.render_svg([("v", [2.0, 2.0], [0.0, 1.0])], "t", "x", "y")
    assert 'points="70.00,350.00 70.00,40.00"' in text
    assert ">2</text>" in text and ">3</text>" in text


@pytest.mark.parametrize("variant", ["loeve-ptv-left", "young-s"])
def test_bounds_svg_of_a_flat_sweep(tmp_path, capsys, variant):
    # a constant f gives lhs = rhs = 0 at every p: the flat y range is
    # widened to [0, 1], so both series lie on the x axis, all finite
    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "named", "--name", "constant", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "48", "--seed", "4", "--out", str(g_csv))
    svg = tmp_path / "sweep.svg"
    code, _, err = run_cli(capsys, "bounds", str(f_csv), str(g_csv), "--p", "1.8",
                           "--q", "1.8", "--variant", variant, "--format", "svg",
                           "--out", str(svg))
    assert (code, err) == (0, "")
    text = svg.read_text()
    lines = re.findall(r'<polyline [^>]* points="([^"]*)"/>', text)
    assert len(lines) == text.count("<polyline") == 2
    assert all({pt.split(",")[1] for pt in pts.split()} == {"350.00"} for pts in lines)
    assert "nan" not in text.lower() and "inf" not in text.lower()


def test_bounds_svg_without_out_fails_before_any_check(tmp_path, capsys, monkeypatch):
    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "brownian", "--n", "24", "--seed", "3", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "24", "--seed", "4", "--out", str(g_csv))

    def never(*args):
        raise AssertionError("the bound was evaluated")

    monkeypatch.setitem(integrals.BOUND_CHECKS, "young-s", never)
    code, out, err = run_cli(capsys, "bounds", str(f_csv), str(g_csv), "--p", "1.8",
                             "--q", "1.8", "--variant", "young-s", "--format", "svg")
    assert (code, out) == (2, "")
    assert err == "error: BadParameterError: --format svg needs --out\n"


def test_bounds_output_is_machine_independent(tmp_path, capsys, monkeypatch):
    # the same input prints the same bytes whatever the CPU count
    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "brownian", "--n", "24", "--seed", "5", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "24", "--seed", "6", "--out", str(g_csv))
    outputs = []
    for cpus in (1, 8):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        argv = ("bounds", str(f_csv), str(g_csv), "--p", "1.8", "--q", "1.8",
                "--variant", "young-s")
        svg = tmp_path / f"sweep{cpus}.svg"
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0
        code, svg_report, _ = run_cli(capsys, *argv, "--format", "svg", "--out", str(svg))
        assert code == 0
        outputs.append((report, svg_report, svg.read_bytes()))
    assert outputs[0] == outputs[1]
    assert "threads" not in outputs[0][0]


# ---------------------------------------------------------------------------
# --out files are rewritten in place
# ---------------------------------------------------------------------------
def test_out_rewrites_a_longer_file_in_place(tent_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_bytes(b"x" * 100_000)
    inode = out.stat().st_ino
    code, stdout, _ = run_cli(capsys, "tv", tent_csv, "--delta", "0.5", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == stdout.encode("utf-8")
    assert out.stat().st_ino == inode


def test_out_writes_through_a_symlink(tmp_path, capsys):
    x_csv = tmp_path / "x.csv"
    write_path_csv(gen_brownian(24, 1.0, 2), x_csv)
    target = tmp_path / "target.csv"
    target.write_text("stale\n" * 1000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "solve", str(x_csv), "--field", "sin", "--y0", "1",
                         "--out", str(link))
    assert code == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    fresh = tmp_path / "fresh.csv"
    run_cli(capsys, "solve", str(x_csv), "--field", "sin", "--y0", "1", "--out", str(fresh))
    assert target.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_out_to_the_null_device_exits_zero(tent_csv, capsys):
    # a device is written, never truncated
    for argv in (("gen", "brownian", "--n", "16"), ("tv", tent_csv, "--delta", "0.5")):
        code, stdout, stderr = run_cli(capsys, *argv, "--out", os.devnull)
        assert (code, stderr) == (0, "") and stdout


def test_failed_write_exits_three_and_keeps_no_old_bytes(tent_csv, tmp_path, capsys,
                                                         monkeypatch):
    out = tmp_path / "report.json"
    out.write_bytes(b"old contents " * 1000)
    real_write = os.write

    def failing(fd, data):
        real_write(fd, bytes(data[:7]))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", failing)
    code, _, stderr = run_cli(capsys, "tv", tent_csv, "--delta", "0.5", "--out", str(out))
    monkeypatch.undo()
    assert code == 3 and "No space left on device" in stderr
    assert out.read_bytes() == b""


def test_failed_write_of_a_later_csv_piece_exits_three(tmp_path, capsys, monkeypatch):
    out = tmp_path / "walk.csv"
    out.write_bytes(b"old contents " * 100_000)
    real_write = os.write
    writes = []

    def failing_second(fd, data):
        writes.append(len(data))
        if len(writes) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", failing_second)
    n = str(2 * pathio.PIECE_ROWS + 1)
    code, stdout, stderr = run_cli(capsys, "gen", "brownian", "--n", n, "--out", str(out))
    monkeypatch.undo()
    assert (code, stdout) == (3, "") and "No space left on device" in stderr
    assert len(writes) == 2
    assert out.read_bytes() == b""


def test_multi_piece_csv_rewrites_a_longer_file_in_place(tmp_path, capsys, monkeypatch):
    argv = ("gen", "brownian", "--n", str(3 * pathio.PIECE_ROWS + 5), "--seed", "9", "--out")
    fresh = tmp_path / "fresh.csv"
    assert run_cli(capsys, *argv, str(fresh))[0] == 0
    out = tmp_path / "walk.csv"
    out.write_bytes(b"#" * (2 * fresh.stat().st_size))
    inode = out.stat().st_ino
    real_open = os.open
    flags = []

    def recording(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    code = run_cli(capsys, *argv, str(out))[0]
    monkeypatch.undo()
    assert code == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_ino == inode
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC


def test_output_files_are_never_opened_with_o_trunc(tmp_path, capsys, monkeypatch):
    outs = [tmp_path / name for name in ("x.csv", "y.csv", "tv.json", "sol.csv", "sweep.svg")]
    for out in outs:
        out.write_bytes(b"#" * 50_000)
    real_open = os.open
    flags = {}

    def recording(path, flag, *args, **kwargs):
        flags[os.fspath(path)] = flag
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    x, y, tv, sol, svg = map(str, outs)
    for argv in (("gen", "brownian", "--n", "24", "--seed", "1", "--out", x),
                 ("gen", "brownian", "--n", "24", "--seed", "2", "--out", y),
                 ("tv", x, "--delta", "0.1", "--out", tv),
                 ("solve", x, "--field", "sin", "--out", sol),
                 ("bounds", x, y, "--p", "1.8", "--q", "1.8", "--variant", "young-s",
                  "--format", "svg", "--out", svg)):
        assert run_cli(capsys, *argv)[0] == 0
    assert sorted(flags) == sorted(map(str, outs))
    assert all(not flag & os.O_TRUNC for flag in flags.values())
    assert not any(out.read_bytes().endswith(b"#") for out in outs)


def test_solve_command(tmp_path, capsys):
    x_csv = tmp_path / "x.csv"
    sol_csv = tmp_path / "sol.csv"
    run_cli(capsys, "gen", "named", "--name", "identity", "--n", "4097",
            "--out", str(x_csv))
    code, stdout, _ = run_cli(capsys, "solve", str(x_csv), "--field", "identity",
                              "--y0", "1", "--p", "1.5", "--tol", "1e-8",
                              "--out", str(sol_csv))
    assert code == 0
    assert '"converged": true' in stdout
    sol = read_path_csv(sol_csv)
    assert abs(sol.values[-1] - np.e) < 1e-6


def _solve_walk(tmp_path, *options):
    x_csv = tmp_path / "x.csv"
    write_path_csv(gen_brownian(64, 1.0, 3), x_csv)
    return "solve", str(x_csv), *options


def test_solve_zero_field_at_a_large_y0_is_no_blowup(tmp_path, capsys):
    # the exact solution is the constant 1e13, above the absolute 1e12 the
    # blow-up guard once was
    sol_csv = tmp_path / "sol.csv"
    code, stdout, stderr = run_cli(capsys, *_solve_walk(
        tmp_path, "--field", "zero", "--y0", "1e13", "--out", str(sol_csv)))
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["results"]["converged"] is True
    assert np.all(read_path_csv(sol_csv).values == 1e13)


def test_solve_identity_field_at_a_large_y0_is_no_blowup(tmp_path, capsys):
    # y = 2e12 exp(x - x(0)) stays finite; tol is absolute, so it must be
    # above the spacing of floats near 2e12 (2.4e-4)
    code, stdout, stderr = run_cli(capsys, *_solve_walk(
        tmp_path, "--field", "identity", "--y0", "2e12", "--tol", "1"))
    assert (code, stderr) == (0, "")
    results = json.loads(stdout)["results"]
    x = gen_brownian(64, 1.0, 3).values
    assert results["converged"] is True
    assert results["terminal"] == pytest.approx(2e12 * math.exp(x[-1] - x[0]), rel=1e-2)


def test_solve_overflow_at_a_huge_y0_is_a_blowup(tmp_path, capsys):
    # 1e12 * 1e300 is inf; the guard, capped at the largest float, still
    # stops the iterate that overflows instead of iterating 80 times on inf
    x_csv = tmp_path / "x.csv"
    x_csv.write_text("t,value\n0,0\n1,3\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "solve", str(x_csv), "--field", "identity",
                                   "--y0", "1e300")
    assert (code, stdout) == (2, "")
    assert stderr == "error: BlowupSuspectedError: solution exceeded the overflow guard\n"


def test_solve_overflow_on_an_array_window_exits_two_without_a_warning(tmp_path, capsys):
    # the first window has 457 samples and iterates on arrays, whose first
    # cell overflows: the guard reports it, and NumPy prints no warning
    x_csv = tmp_path / "x.csv"
    write_path_csv(identity_path(4097), x_csv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr = run_cli(capsys, "solve", str(x_csv), "--field", "identity",
                                       "--y0", "1.7e308")
    assert (code, stdout) == (2, "")
    assert stderr == "error: BlowupSuspectedError: solution exceeded the overflow guard\n"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("option, message", [
    pytest.param("--y0=inf", "y0 must be finite", id="inf"),
    pytest.param("--y0=-inf", "y0 must be finite", id="-inf"),
    pytest.param("--y0=nan", "y0 must be finite", id="nan"),
    pytest.param("--tol=inf", "tol must be finite and > 0", id="tol-inf"),
])
def test_solve_non_finite_y0_exits_two(tmp_path, capsys, option, message):
    x_csv = tmp_path / "x.csv"
    write_path_csv(tent_path(), x_csv)
    code, stdout, stderr = run_cli(capsys, "solve", str(x_csv), "--field", "sin",
                                   option, "--p", "1.5")
    assert (code, stdout) == (2, "")
    assert stderr == f"error: BadParameterError: {message}\n"


def test_solve_overflowing_window_seminorm_exits_two(tmp_path, capsys):
    # every window's oscillation is finite, but its seminorm at p = 1.05
    # overflows float64: an error line, no traceback and no NumPy warning
    x_csv = tmp_path / "x.csv"
    x_csv.write_text("t,value\n0,0\n0.5,1.7e308\n1,0\n1.5,-1.7e308\n2,0\n2.5,1.7e308\n3,0\n",
                     encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, stderr = run_cli(capsys, "solve", str(x_csv), "--field", "sqrt-abs",
                                       "--y0", "1", "--p", "1.05", "--tol", "1e-8")
    assert (code, stdout) == (2, "")
    assert stderr == "error: NonFiniteValueError: p-TV seminorm overflows float64\n"


@pytest.mark.parametrize("command, message", [
    ("norm", "seminorm needs p >= 1"),
    ("pvar", "p-variation needs p >= 1"),
])
def test_infinite_p_exits_two(tent_csv, capsys, command, message):
    code, stdout, stderr = run_cli(capsys, command, tent_csv, "--p", "inf")
    assert (code, stdout) == (2, "")
    assert stderr == f"error: BadExponentError: {message}\n"


def test_main_builds_its_parser_once(tent_csv, capsys, monkeypatch):
    builds = []
    fresh = cli.build_parser

    def counting():
        builds.append(1)
        return fresh()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for delta in ("0.5", "0.25", "0"):
            assert run_cli(capsys, "tv", tent_csv, "--delta", delta)[0] == 0
        assert run_cli(capsys, "pvar", tent_csv, "--p", "2")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


def _run_caught(capsys, argv, run=main):
    """(exit code or ("SystemExit", code), stdout, stderr) of one `run` call."""
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def _parse_args_then_run(argv):
    """`main` as one parse of a fresh top-level parser, then the handler."""
    args = cli.build_parser().parse_args(list(argv))
    try:
        return getattr(cli, f"cmd_{args.command}")(args)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except RoughTVError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


def test_reused_parser_matches_a_fresh_one(tmp_path, capsys):
    # main's reused parser, which hands argv[1:] to the subcommand's own
    # parser when argv[0] names one, against build_parser().parse_args
    f_csv = str(tmp_path / "f.csv")
    g_csv = str(tmp_path / "g.csv")
    run_cli(capsys, "gen", "brownian", "--n", "24", "--seed", "5", "--out", f_csv)
    run_cli(capsys, "gen", "brownian", "--n", "24", "--seed", "6", "--out", g_csv)
    svg = tmp_path / "sweep.svg"
    argvs = [
        ("gen", "zigzag", "--levels", "3", "--out", str(tmp_path / "z.csv")),
        ("tv", f_csv, "--delta", "0.1"),
        ("pvar", f_csv, "--p", "2", "--mode", "step"),
        ("norm", f_csv, "--p", "1.5"),
        ("bounds", f_csv, g_csv, "--p", "1.8", "--q", "1.8", "--variant", "young-s"),
        ("bounds", f_csv, g_csv, "--p", "1.8", "--q", "1.8", "--format", "svg",
         "--out", str(svg)),
        ("solve", f_csv, "--field", "sin", "--y0", "1"),
        # an abbreviated flag, a joined value and "--" before a positional
        ("tv", f_csv, "--del", "0.1"),
        ("tv", f_csv, "--delta=0.1"),
        ("tv", "--delta", "0.1", "--", f_csv),
        ("solve", f_csv, "--field", "no-such-field"),
        ("gen", "named", "--name", "nope", "--out", str(tmp_path / "n.csv")),
        ("frobnicate", f_csv),
        ("tv", f_csv),
        ("bounds", f_csv, g_csv, "--p", "1.8", "--q", "1.8", "--variant", "bogus"),
        # "--" makes every later token positional, so --delta is left over
        ("tv", "--", f_csv, "--delta", "0.1"),
        # a trailing positional is left over, for the top-level parser to reject
        ("tv", f_csv, "--delta", "0.1", "extra"),
        ("--help",),
        ("solve", "--help"),
        ("-h", "tv"),
        (),
        # only bounds has a --format, for its svg sweep, and solve reads
        # linear paths only, so it has no --mode
        ("gen", "zigzag", "--out", str(tmp_path / "z.csv"), "--format", "csv"),
        ("tv", f_csv, "--delta", "0.1", "--format", "json"),
        ("pvar", f_csv, "--p", "2", "--format", "json"),
        ("norm", f_csv, "--p", "1.5", "--format", "json"),
        ("solve", f_csv, "--field", "sin", "--format", "csv"),
        ("solve", f_csv, "--field", "sin", "--mode", "linear"),
    ]
    reused = [_run_caught(capsys, argv) for argv in argvs]
    reused_svg = svg.read_bytes()
    svg.unlink()
    for argv, expected in zip(argvs, reused):
        assert _run_caught(capsys, argv, _parse_args_then_run) == expected, argv
    assert svg.read_bytes() == reused_svg
    assert [code for code, _, _ in reused] == [0] * 10 + [("SystemExit", 2)] * 7 + [
        ("SystemExit", 0), ("SystemExit", 0), ("SystemExit", 0), ("SystemExit", 2),
    ] + [("SystemExit", 2)] * 6
    extra = reused[argvs.index(("tv", f_csv, "--delta", "0.1", "extra"))][2]
    assert extra.startswith("usage: roughtv [-h]")
    assert extra.endswith("roughtv: error: unrecognized arguments: extra\n")
    solve_help = reused[argvs.index(("solve", "--help"))][1]
    assert "{constant,identity,sin,sqrt-abs,zero}" in solve_help
    assert "{identity,tent,constant}" in _run_caught(capsys, ("gen", "--help"))[1]


def test_main_runs_the_current_handler(tent_csv, capsys, monkeypatch):
    # the reused parser must not pin the handler it saw on its first call
    assert run_cli(capsys, "tv", tent_csv, "--delta", "0.5")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_tv", lambda args: seen.append(args.delta) or 7)
    assert run_cli(capsys, "tv", tent_csv, "--delta", "0.25") == (7, "", "")
    assert seen == [0.25]


def _loaded_modules(tmp_path, argv):
    """The roughtv submodules a fresh interpreter loads to import the CLI
    and run `argv` (nothing when empty)."""
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
        "import roughtv.cli\n"
        f"argv = {list(argv)!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = roughtv.cli.main(argv) if argv else 0\n"
        "print(code, *sorted(m[8:] for m in sys.modules if m.startswith('roughtv.')))\n"
        "print('numpy.ma' in sys.modules, 'json' in sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    roughtv_line, other_line = run.stdout.splitlines()
    code, *modules = roughtv_line.split()
    assert code == "0", run.stderr
    # no command needs masked arrays: np.unique (as np.union1d calls it)
    # loads them; nor json: a report escapes its strings itself
    assert other_line == "False False"
    return set(modules)


CLI_MODULES = {"cli", "errors", "kernels", "pathio", "paths"}
NORM_MODULES = CLI_MODULES | {"norms", "reports", "truncation"}


@pytest.mark.parametrize("argv, extra", [
    ((), set()),
    (("gen", "zigzag", "--out", "z.csv"), set()),
    (("tv", "f.csv", "--delta", "0.1"), {"truncation"}),
    (("pvar", "f.csv", "--p", "2"), NORM_MODULES - CLI_MODULES),
    (("norm", "f.csv", "--p", "2"), NORM_MODULES - CLI_MODULES),
    (("bounds", "f.csv", "g.csv", "--p", "1.8", "--q", "1.8"),
     NORM_MODULES - CLI_MODULES | {"integrals"}),
    (("solve", "f.csv"), NORM_MODULES - CLI_MODULES | {"integrals", "equations"}),
], ids=["import", "gen", "tv", "pvar", "norm", "bounds", "solve"])
def test_each_command_loads_only_its_layers(tmp_path, argv, extra):
    # a command never compiles a layer it does not call: only bounds loads
    # the series, and only solve the Picard solver
    write_path_csv(gen_brownian(24, 1.0, 5), tmp_path / "f.csv")
    write_path_csv(gen_brownian(24, 1.0, 6), tmp_path / "g.csv")
    assert _loaded_modules(tmp_path, argv) == CLI_MODULES | extra


@pytest.mark.parametrize("command, flag, names", [
    ("bounds", "--variant", tuple(integrals.BOUND_CHECKS)),
    ("solve", "--field", tuple(sorted(field_catalog()))),
], ids=["bounds", "solve"])
def test_choices_come_from_their_tables(tmp_path, capsys, command, flag, names):
    code, help_text, _ = _run_caught(capsys, (command, "--help"))
    assert code == ("SystemExit", 0)
    assert "{" + ",".join(names) + "}" in help_text
    f_csv = str(tmp_path / "f.csv")
    argv = (command, f_csv, f_csv, "--p", "2", "--q", "2") if command == "bounds" else (
        command, f_csv)
    code, out, err = _run_caught(capsys, argv + (flag, "bogus"))
    assert (code, out) == (("SystemExit", 2), "")
    assert f"error: argument {flag}: invalid choice: 'bogus' (choose from " in err
    assert all(name in err for name in names)
