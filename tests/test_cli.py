import numpy as np
import pytest

from roughtv.cli import main, thread_budget, to_json
from roughtv.errors import BadParameterError
from roughtv.pathio import read_path_csv, write_path_csv
from roughtv.paths import Mode, tent_path


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


def test_gen_fx_reports_jumps(tmp_path, capsys):
    out = tmp_path / "fx.csv"
    code, stdout, _ = run_cli(capsys, "gen", "fx", "--x", "3", "--out", str(out))
    assert code == 0
    assert '"jump_times"' in stdout and '"mode": "step"' in stdout
    fx = read_path_csv(out, Mode.STEP)
    assert fx.values.tolist() == [0.0, 1.0, 1.0, -2.0]


def test_tv_command(tent_csv, capsys):
    code, stdout, _ = run_cli(capsys, "tv", tent_csv, "--delta", "0.5")
    assert code == 0
    assert '"tv": 1' in stdout
    for key in ("command", "params", "results", "diagnostics", "version"):
        assert f'"{key}"' in stdout


def test_norm_command(tent_csv, capsys):
    code, stdout, _ = run_cli(capsys, "norm", tent_csv, "--p", "2")
    assert code == 0
    assert '"seminorm": 0.70710678118654757' in stdout
    assert '"argmax_delta": 0.5' in stdout


def test_norm_overflowing_oscillation_exits_two(tmp_path, capsys):
    dest = tmp_path / "huge.csv"
    dest.write_text("t,value\n0,-1e308\n0.5,1e308\n1,-1e308\n", encoding="utf-8")
    code, stdout, stderr = run_cli(capsys, "norm", str(dest), "--p", "2")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: NonFiniteValueError: oscillation of the path overflows float64\n"


def test_pvar_command(tent_csv, capsys):
    code, stdout, _ = run_cli(capsys, "pvar", tent_csv, "--p", "2")
    assert code == 0
    assert '"pvar": 2' in stdout


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


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "tv", "no-such-file.csv", "--delta", "0.5")
    assert code == 3


def test_violated_bound_exits_one(tmp_path, capsys, monkeypatch):
    # no honest input violates the asserted bounds, so fake a failing report
    # to pin the exit-code contract
    import roughtv.cli as cli
    from roughtv.reports import BoundReport

    f_csv = tmp_path / "f.csv"
    g_csv = tmp_path / "g.csv"
    run_cli(capsys, "gen", "brownian", "--n", "16", "--seed", "1", "--out", str(f_csv))
    run_cli(capsys, "gen", "brownian", "--n", "16", "--seed", "2", "--out", str(g_csv))
    failing = BoundReport(2.0, 1.0, -1.0, False, 1.0, "loeve-ptv-left", {})
    monkeypatch.setattr(cli, "_bound_report", lambda f, g, args: failing)
    code, stdout, _ = run_cli(capsys, "bounds", str(f_csv), str(g_csv),
                              "--p", "1.9", "--q", "1.9")
    assert code == 1
    assert '"passed": false' in stdout


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


def test_thread_budget_env(monkeypatch):
    monkeypatch.setenv("ROUGHTV_THREADS", "3")
    assert thread_budget() == 3
    monkeypatch.setenv("ROUGHTV_THREADS", "0")
    assert thread_budget() >= 1
    monkeypatch.setenv("ROUGHTV_THREADS", "junk")
    with pytest.raises(BadParameterError):
        thread_budget()
