"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_corpus
from roughtv.cli import main as cli_main
from roughtv.equations import (
    composition_norm_check,
    field_catalog,
    picard_solve,
    solution_radius,
)
from roughtv.integrals import (
    BOUND_CHECKS,
    SampledPair,
    default_ladder_pair,
    integral_norm_check,
    gamma_level_check,
    lemma_sum_bound,
    min_series_check,
    rs_sum,
    young_series_check,
    young_bound_S,
)
from roughtv.norms import (
    p_tv_seminorm,
    p_variation,
    partition_sup_delta,
    seminorm_on,
    seminorm_with_argmax,
    tv_p_full_norm,
)
from roughtv.oracle import (
    pvar_bruteforce,
    seminorm_bruteforce,
    sup_delta_grid,
    tv_partition_bruteforce,
)
from roughtv.paths import (
    Partition,
    TaggedPartition,
    add_paths,
    gen_brownian,
    gen_counterexample_fx,
    gen_zigzag,
    identity_path,
    make_path,
    oscillation,
    scale_path,
    tent_path,
)
from roughtv.truncation import (
    optimal_approximation,
    total_variation,
    truncated_variation,
)


def _report(num, text):
    print(f"[criterion {num:02d}] PASS - {text}")


def test_criterion_01_tv_oracle_equivalence():
    start = time.perf_counter()
    corpus = random_corpus(seed=101, count=500, max_n=12)
    deltas = np.linspace(0.0, 2.0, 9)
    worst = 0.0
    for path in corpus:
        for delta in deltas:
            gap = abs(truncated_variation(path, delta)
                      - tv_partition_bruteforce(path, delta))
            worst = max(worst, gap)
            assert gap <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"500 paths x 9 deltas, max |fast - oracle| = {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_02_pvar_oracle_equivalence():
    corpus = random_corpus(seed=101, count=500, max_n=12)
    worst = 0.0
    for path in corpus:
        for p in (1.0, 1.5, 2.0, 3.0):
            gap = abs(p_variation(path, p) - pvar_bruteforce(path, p))
            worst = max(worst, gap)
            assert gap <= 1e-10
    _report(2, f"500 paths x 4 exponents, max |dp - oracle| = {worst:.2e}")


def test_criterion_03_seminorm_oracle_equivalence():
    rng = np.random.default_rng(103)
    corpus = random_corpus(seed=102, count=200, max_n=10)
    worst = 0.0
    for path in corpus:
        for p in (1.5, 2.0):
            gap = abs(p_tv_seminorm(path, p) - seminorm_bruteforce(path, p))
            worst = max(worst, gap)
            assert gap <= 1e-8
        # rearrangement identity vs dense-grid search on random partitions
        n = len(path)
        for _ in range(3):
            k = int(rng.integers(2, n + 1))
            idx = np.sort(rng.choice(n, size=k, replace=False))
            incs = np.abs(np.diff(path.values[idx]))
            for p in (1.5, 2.0):
                exact = partition_sup_delta(incs, p)
                assert abs(exact - sup_delta_grid(incs, p)) <= 1e-6
    _report(3, f"200 paths, profile vs exhaustive seminorm, max gap = {worst:.2e}")


def test_criterion_04_optimal_approximation_contract():
    corpus = random_corpus(seed=104, count=200, max_n=12)
    checked = 0
    for path in corpus:
        osc = oscillation(path)
        if osc == 0.0:
            continue
        for frac in (0.1, 0.5, 1.0):
            delta = frac * osc
            approx = optimal_approximation(path, delta)
            assert np.max(np.abs(approx.values - path.values)) <= delta / 2 + 1e-12
            assert abs(total_variation(approx)
                       - truncated_variation(path, delta)) <= 1e-9
            checked += 1
    _report(4, f"{checked} (path, delta) cases satisfy both defining properties")


def test_criterion_05_closed_form_single_jump():
    jump = make_path([0.0, 1.0], [0.0, 1.0])
    sem, arg = seminorm_with_argmax(jump, 2.0)
    assert abs(sem - 0.5) <= 1e-12
    assert abs(arg - 0.5) <= 1e-12
    _report(5, f"unit jump, p=2: seminorm = {sem}, argmax delta = {arg}")


def test_criterion_06_banach_space_properties():
    rng = np.random.default_rng(106)
    count = 500
    for i in range(count):
        n = int(rng.integers(2, 13))
        t = np.linspace(0.0, 1.0, n)
        f = make_path(t, rng.uniform(-1.0, 1.0, n))
        g = make_path(t, rng.uniform(-1.0, 1.0, n))
        scalar = float(rng.uniform(-3.0, 3.0))
        p = 1.5 if i % 2 == 0 else 2.0
        # triangle inequality for seminorm and full norm
        sem_sum = p_tv_seminorm(add_paths(f, g), p)
        assert sem_sum <= p_tv_seminorm(f, p) + p_tv_seminorm(g, p) + 1e-9
        full_sum = tv_p_full_norm(add_paths(f, g), p).full_norm
        assert full_sum <= (tv_p_full_norm(f, p).full_norm
                            + tv_p_full_norm(g, p).full_norm + 1e-9)
        # absolute homogeneity
        scaled = tv_p_full_norm(scale_path(f, scalar), p).full_norm
        assert scaled == pytest.approx(
            abs(scalar) * tv_p_full_norm(f, p).full_norm, abs=1e-9, rel=1e-9
        )
        # split and perturbation inequalities
        d1, d2 = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5))
        assert truncated_variation(add_paths(f, g), d1 + d2) <= (
            truncated_variation(f, d1) + truncated_variation(g, d2) + 1e-9
        )
        assert truncated_variation(add_paths(f, g), d1) <= (
            truncated_variation(f, d1) + total_variation(g) + 1e-9
        )
    _report(6, f"{count} random pairs: triangle, homogeneity, split, perturbation")


def test_criterion_07_zigzag_bounds():
    from roughtv.paths import restrict

    p = 1.5
    levels = 8
    phi = gen_zigzag(p, levels)
    for n in range(1, levels + 1):
        delta_n = 2.0 ** -n
        band = restrict(phi, 2.0 ** -n, 2.0 ** (-n + 1))
        level_value = delta_n ** (p - 1.0) * truncated_variation(band, delta_n)
        assert level_value >= 1.0 - 1e-9
        assert seminorm_on(phi, 2.0 ** -n, 2.0 ** (-n + 1), p) ** p >= 1.0 - 1e-9
    cap = 4.0 * 2.0 ** (2.0 * (p - 1.0)) / (2.0 ** (p - 1.0) - 1.0)
    grid = np.linspace(1e-6, oscillation(phi), 200)
    sup = max(d ** (p - 1.0) * truncated_variation(phi, d) for d in grid)
    assert sup <= cap + 1e-9
    _report(7, f"levels 1..8 lower bounds hold; grid sup {sup:.3f} <= {cap:.3f}")


def test_criterion_08_superadditivity_failure():
    p, x = 2.0, 3.0
    fx = gen_counterexample_fx(x)
    whole = p_tv_seminorm(fx, p) ** p
    parts = seminorm_on(fx, -1.0, 0.0, p) ** p + seminorm_on(fx, 0.0, 1.0, p) ** p
    assert parts - whole > 1e-6
    _report(8, f"interval power sums exceed the whole by {parts - whole:.3f}")


def test_criterion_09_loeve_young_every_variant():
    start = time.perf_counter()
    p = q = 1.9
    for seed in range(200):
        pair = SampledPair(gen_brownian(128, 1.0, 2000 + 2 * seed),
                           gen_brownian(128, 1.0, 2001 + 2 * seed))
        reports = {name: check(pair, p, q) for name, check in BOUND_CHECKS.items()
                   if name.startswith("loeve-")}
        for rep in reports.values():
            assert rep.passed
        for form in ("left", "right", "xi"):
            assert reports[f"loeve-ptv-{form}"].rhs <= reports[f"loeve-pvar-{form}"].rhs + 1e-9
        assert min_series_check(pair, p, q).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(9, f"200 pairs x 6 variants + 2*min(S,S~) xi sweep, {elapsed:.1f}s")


def test_criterion_10_series_bound_estimate():
    tent = tent_path()
    ident = identity_path(3, horizon=2.0)
    assert young_series_check(SampledPair(tent, ident), 1.5, 1.5).passed
    for seed in range(50):
        f = gen_brownian(64, 1.0, 3000 + 2 * seed)
        g = gen_brownian(64, 1.0, 3001 + 2 * seed)
        pair = SampledPair(f, g)
        ladder, _ = default_ladder_pair(pair, 1.9, 1.9)
        s = young_bound_S(pair, ladder)
        integral = pair.integral
        lhs = abs(integral - float(f.values[0])
                  * float(g.values[-1] - g.values[0]))
        assert lhs <= s + 1e-9
        # finite tagged-sum bounds on an 8-cell partition
        grid = pair.grid
        idx = tuple(np.linspace(0, grid.size - 1, 9).astype(int))
        deltas = [oscillation(f) * 2.0 ** -(k + 1) for k in range(4)]
        epsilons = [oscillation(g) * 2.0 ** -(k + 1) for k in range(4)]
        for tags in (idx[:-1], idx[1:]):
            tagged = TaggedPartition(Partition(idx), tags)
            observed = abs(
                rs_sum(pair, tagged)
                - f.value_at(grid[idx[0]])
                * (g.value_at(grid[idx[-1]]) - g.value_at(grid[idx[0]]))
            )
            assert observed <= lemma_sum_bound(pair, tagged, deltas, epsilons) + 1e-9
    _report(10, "tent/identity and 50 pairs dominated by S and the lemma bounds")


def test_criterion_11_integral_norm_bound():
    p = q = 1.9
    e_form_passes = 0
    for seed in range(100):
        pair = SampledPair(gen_brownian(96, 1.0, 4000 + 2 * seed),
                           gen_brownian(96, 1.0, 4001 + 2 * seed))
        thm = integral_norm_check(pair, p, q, "ptv-theorem")
        assert thm.passed
        ladder, _ = default_ladder_pair(pair, p, q)
        assert gamma_level_check(pair, ladder).passed
        if integral_norm_check(pair, p, q, "ptv-corollary").passed:
            e_form_passes += 1
    _report(11, f"100 pairs pass the D-form and gamma-level bounds "
                f"(informational E-form: {e_form_passes}/100)")


def test_criterion_12_embedding():
    from roughtv.norms import embedding_bound

    for seed in range(200):
        walk = gen_brownian(64, 1.0, 5000 + seed)
        for p, q in ((1.5, 2.0), (1.2, 1.8)):
            rep = embedding_bound(walk, p, q)
            assert rep.margin >= -1e-9
            sq = p_tv_seminorm(walk, q)
            sp = p_tv_seminorm(walk, p)
            osc = oscillation(walk)
            assert sq <= osc ** (1.0 - p / q) * sp ** (p / q) + 1e-9
    _report(12, "200 walks x 2 exponent pairs: embedding and q-from-p domination")


def test_criterion_13_composition_bound():
    field = field_catalog()["sqrt-abs"]
    for seed in range(200):
        walk = gen_brownian(64, 1.0, 6000 + seed)
        rep = composition_norm_check(walk, field, 1.5)
        assert rep.passed
    # scalar inequality on a 10^4-point (x, delta, K) grid
    xs = np.linspace(-2.0, 2.0, 25)
    alpha = 0.5
    for k in np.linspace(0.1, 4.0, 20):
        for d in np.linspace(1e-3, 3.0, 20):
            lhs = np.maximum(k * np.abs(xs) ** alpha - d, 0.0)
            rhs = (k ** (1.0 / alpha) * d ** (1.0 - 1.0 / alpha)
                   * np.maximum(np.abs(xs) - (d / k) ** (1.0 / alpha), 0.0))
            assert np.all(lhs <= rhs + 1e-12)
    _report(13, "200 composition checks and the 10^4-point scalar inequality grid")


def test_criterion_14_ode_correctness():
    cat = field_catalog()
    x12 = identity_path(2 ** 12 + 1)
    sol = picard_solve(x12, cat["identity"], 1.0, 1.5, 1e-9)
    err_e = abs(sol.path.values[-1] - math.e)
    assert err_e < 1e-6

    n = 2 ** 10 + 1
    x10 = identity_path(n)
    sol_sin = picard_solve(x10, cat["sin"], 1.0, 1.5, 1e-8)

    def rk4(y0, steps):
        h = 1.0 / steps
        y = y0
        for _ in range(steps):
            k1 = math.sin(y)
            k2 = math.sin(y + h / 2 * k1)
            k3 = math.sin(y + h / 2 * k2)
            k4 = math.sin(y + h * k3)
            y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return y

    err_sin = abs(sol_sin.path.values[-1] - rk4(1.0, (n - 1) * 10))
    assert err_sin < 1e-4

    field = cat["sqrt-abs"]
    sol_a = picard_solve(x10, field, 1.0, 1.25, 1e-8)
    radius = solution_radius(x10, field, 1.0, 1.25)
    norm = tv_p_full_norm(sol_a.path, 1.25).full_norm
    assert norm <= radius + 1e-9
    _report(14, f"|y(1)-e| = {err_e:.1e}; sin vs RK4 = {err_sin:.1e}; "
                f"norm {norm:.3f} <= radius {radius:.3f}")


def test_criterion_15_cli_end_to_end(tmp_path, capsys):
    start = time.perf_counter()

    def run(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    base = tmp_path

    # deterministic generation
    code, _ = run("gen", "brownian", "--n", "128", "--seed", "7",
                  "--out", str(base / "w1.csv"))
    assert code == 0
    code, _ = run("gen", "brownian", "--n", "128", "--seed", "7",
                  "--out", str(base / "w2.csv"))
    assert code == 0
    assert (base / "w1.csv").read_bytes() == (base / "w2.csv").read_bytes()
    code, _ = run("gen", "zigzag", "--p", "1.5", "--levels", "4",
                  "--out", str(base / "z.csv"))
    assert code == 0
    code, out_fx = run("gen", "fx", "--x", "3", "--out", str(base / "fx.csv"))
    assert code == 0 and '"jump_times"' in out_fx

    # functional reports are byte-stable
    (base / "tent.csv").write_text("t,value\n0,0\n1,1\n2,0\n", encoding="utf-8")
    tv_runs = [run("tv", str(base / "tent.csv"), "--delta", "0.5")[1]
               for _ in range(2)]
    assert tv_runs[0] == tv_runs[1] and '"tv": 1' in tv_runs[0]
    norm_runs = [run("norm", str(base / "tent.csv"), "--p", "2")[1]
                 for _ in range(2)]
    assert norm_runs[0] == norm_runs[1]
    assert '"seminorm": 0.70710678118654757' in norm_runs[0]

    # bounds: pass, byte-stable, regime violation exits 2
    args = ("bounds", str(base / "w1.csv"), str(base / "w2.csv"),
            "--p", "1.9", "--q", "1.9", "--variant", "loeve-ptv-left")
    code1, rep1 = run(*args)
    code2, rep2 = run(*args)
    assert code1 == code2 == 0 and rep1 == rep2 and '"passed": true' in rep1
    code_bad, _ = run("bounds", str(base / "w1.csv"), str(base / "w2.csv"),
                      "--p", "3", "--q", "3")
    assert code_bad == 2

    # solve: identity field reaches e; zero field stays constant; sin converges
    run("gen", "named", "--name", "identity", "--n", "4097",
        "--out", str(base / "id.csv"))
    code, out_solve = run("solve", str(base / "id.csv"), "--field", "identity",
                          "--y0", "1", "--p", "1.5", "--tol", "1e-8",
                          "--out", str(base / "sol.csv"))
    assert code == 0 and '"converged": true' in out_solve
    from roughtv.pathio import read_path_csv

    sol = read_path_csv(base / "sol.csv")
    assert abs(sol.values[-1] - math.e) < 1e-6
    code, out_zero = run("solve", str(base / "id.csv"), "--field", "zero",
                         "--y0", "2", "--p", "1.5")
    assert code == 0 and '"terminal": 2' in out_zero
    run("gen", "brownian", "--n", "257", "--seed", "12",
        "--out", str(base / "rough.csv"))
    code, out_sin = run("solve", str(base / "rough.csv"), "--field", "sin",
                        "--y0", "1", "--p", "1.9", "--tol", "1e-6")
    assert code == 0 and '"converged": true' in out_sin

    elapsed = time.perf_counter() - start
    _report(15, f"CLI pipeline byte-stable and correct in {elapsed:.1f}s")
