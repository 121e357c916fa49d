"""What a path or a pair keeps once computed: the same results, warm or cold.

A `SampledPath` keeps its extrema and `TvProfile`, and a `SampledPair`,
validated once, keeps its grid, exact cells and their sum, the running
integrals of f and of f - f(a), its tag gaps and its term scales, each
built on first request.  Every result read from them must equal, to the
bit, the result on a fresh copy of the paths, and no new path or pair may
start with them.
"""

import dataclasses
import functools

import numpy as np
import pytest

from roughtv import integrals, kernels, norms, truncation
from roughtv.cli import main, to_json
from roughtv.errors import RoughTVError
from roughtv.integrals import BOUND_CHECKS, SampledPair, integral_norm_check
from roughtv.norms import p_tv_seminorm, p_variation, seminorm_with_argmax
from roughtv.paths import Mode, gen_brownian, make_path, restrict, shift_path
from roughtv.pathio import write_path_csv
from roughtv.truncation import total_variation, tv_profile

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

CACHED = ("_extrema", "_profile")
PAIR_CACHED = ("grid", "dg", "cells", "integral", "running", "centered_cells", "centered",
               "tag_gaps", "scale", "centered_scale")

_small = st.floats(-4.0, 4.0, allow_nan=False, width=32)
# values near the float64 limits make the checks raise, warm as cold
_values = st.one_of(
    st.lists(_small, min_size=2, max_size=10),
    st.lists(st.one_of(_small, st.sampled_from([1e308, -1e308, 1e-300])), min_size=2, max_size=6),
)
_young = st.sampled_from([(1.5, 1.5), (1.9, 1.9), (1.3, 2.5), (2.5, 1.3), (1.1, 3.0)])


def _pair(f_values, g_values, f_mode, g_mode):
    f = make_path(np.linspace(0.0, 1.0, len(f_values)), f_values, f_mode)
    g = make_path(np.linspace(0.0, 1.0, len(g_values)), g_values, g_mode)
    return f, g


def _fresh(path):
    return make_path(path.times.copy(), path.values.copy(), path.mode)


def _raised_or(call):
    """call(), or the roughtv error it raises."""
    try:
        return call()
    except RoughTVError as exc:
        return type(exc).__name__, str(exc)


def _outcome(check, make_pair, p, q):
    """The report as the CLI prints it, or the error it raises."""
    return _raised_or(lambda: to_json(dataclasses.asdict(check(make_pair(), p, q))))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(f_values=_values, g_values=_values, pq=_young,
       modes=st.sampled_from([(Mode.LINEAR, Mode.LINEAR), (Mode.STEP, Mode.LINEAR),
                              (Mode.LINEAR, Mode.STEP), (Mode.STEP, Mode.STEP)]))
def test_every_check_reads_the_same_warm_and_cold(f_values, g_values, pq, modes):
    f, g = _pair(f_values, g_values, *modes)
    p, q = pq
    # one pair for every variant, as a request's SVG sweep shares one
    warm = functools.cache(lambda: SampledPair(f, g))
    for variant, check in BOUND_CHECKS.items():
        first = _outcome(check, warm, p, q)
        again = _outcome(check, warm, p, q)
        cold = _outcome(check, lambda: SampledPair(_fresh(f), _fresh(g)), p, q)
        assert first == again == cold, variant


@settings(derandomize=True, deadline=None, max_examples=60)
@given(values=_values, ps=st.lists(st.sampled_from([1.0, 1.2, 1.5, 2.0, 3.5]),
                                   min_size=1, max_size=4))
def test_profile_and_seminorm_bytes_warm_and_cold(values, ps):
    path = make_path(np.linspace(0.0, 1.0, len(values)), values)

    def profile_bytes(path):
        prof = tv_profile(path)
        assert tv_profile(path) is prof
        return [np.array(piece).tobytes() for piece in prof.pieces]

    def seminorm_bytes(path, p):
        return np.float64(p_tv_seminorm(path, p)).tobytes(), seminorm_with_argmax(path, p)

    warm = _raised_or(lambda: profile_bytes(path))
    assert _raised_or(lambda: profile_bytes(path)) == warm
    assert _raised_or(lambda: profile_bytes(_fresh(path))) == warm
    for p in ps:
        cold = _raised_or(lambda: seminorm_bytes(_fresh(path), p))
        assert _raised_or(lambda: seminorm_bytes(path, p)) == cold


def _refuses_writes(array):
    # read-only by more than its flag: NumPy will not set the flag again
    with pytest.raises(ValueError):
        array[0] = 1.0
    with pytest.raises(ValueError):
        array.flags.writeable = True


def test_cached_arrays_are_read_only():
    f = gen_brownian(30, 1.0, seed=3)
    g = gen_brownian(20, 1.0, seed=4)
    pair = SampledPair(f, g)
    integral_norm_check(pair, 1.5, 1.5)
    integral_norm_check(pair, 1.5, 1.5, "pvar-remark")
    running, centered = pair.running, pair.centered
    # both running integrals are kept on the pair, on the pair's own grid
    assert pair.running is running and running.times is pair.grid is centered.times
    for array in (pair.grid, pair.cells, running.values, centered.values):
        _refuses_writes(array)
    assert SampledPair(f, g).running.values.tobytes() == running.values.tobytes()
    assert np.all(running.times[1:] > running.times[:-1])


def test_centered_cells_hold_the_bits_of_the_shifted_path():
    # f - f(a) has the bits of shift_path(f, -f(a)), and where f(a) is +0.0
    # the bits of f itself
    g = gen_brownian(25, 1.0, seed=6)
    walk = gen_brownian(30, 1.0, seed=5)
    negative_zero = make_path(walk.times, np.concatenate(([-0.0], walk.values[1:])))
    step = dataclasses.replace(walk, mode=Mode.STEP)
    for f in (walk, shift_path(walk, 0.5), negative_zero, step):
        pair = SampledPair(f, g)
        shifted = SampledPair(shift_path(f, -f.values[0]), g)
        assert pair.centered_cells.tobytes() == shifted.cells.tobytes()
        if f.values[0] == 0.0 and not np.signbit(f.values[0]):
            assert pair.centered_cells.tobytes() == pair.cells.tobytes()


def test_a_pair_is_frozen_and_its_arrays_refuse_writes():
    f = gen_brownian(12, 1.0, seed=3)
    g = gen_brownian(9, 1.0, seed=4)
    pair = SampledPair(f, g)
    for name, value in (("f", g), ("g", f), ("grid", pair.grid), ("scale", 0.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pair, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del pair.cells
    for array in (pair.grid, pair.cells, pair.running.values, pair.centered.values,
                  pair.centered.times):
        _refuses_writes(array)
    assert pair.f is f and pair.g is g


def test_a_paths_arrays_refuse_the_writeable_flag():
    # a path's samples stay those its cached extrema were reduced from
    path = make_path([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert total_variation(path) == 4.0
    for array in (path.times, path.values):
        _refuses_writes(array)
    assert path.value_at(1.0) == 2.0 and total_variation(_fresh(path)) == 4.0
    # a path's arrays are shared by the paths built on them, not copied
    assert shift_path(path, 0.0).times is path.times


def _counting(monkeypatch, calls, module, name):
    """Count in calls[name] the calls of module.name."""
    original = getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_a_pair_is_validated_and_integrated_once(monkeypatch):
    calls = {"_check_pair": 0, "_exact_cells": 0, "_running": 0}
    for name in calls:
        _counting(monkeypatch, calls, integrals, name)
    f = shift_path(gen_brownian(30, 1.0, seed=5), 0.5)
    g = gen_brownian(25, 1.0, seed=6)
    pair = SampledPair(f, g)
    reports = [check(pair, 1.5, 1.5) for check in BOUND_CHECKS.values()]
    assert [check(pair, 1.5, 1.5) for check in BOUND_CHECKS.values()] == reports
    # one validation; the cells of f and of f - f(a), each summed once
    assert calls == {"_check_pair": 1, "_exact_cells": 2, "_running": 2}
    assert all(name in vars(pair) for name in PAIR_CACHED)
    # a new pair of the same paths is validated again and gives the same
    # bits, and the paths keep nothing of either pair
    fresh = SampledPair(f, g)
    assert fresh.integral == pair.integral
    assert fresh.running.values.tobytes() == pair.running.values.tobytes()
    assert calls["_check_pair"] == 2
    for path in (f, g):
        assert set(vars(path)) <= {"times", "values", "mode", *CACHED}


def test_new_paths_carry_no_cache():
    f = gen_brownian(30, 1.0, seed=8)
    g = gen_brownian(30, 1.0, seed=9)
    tv_profile(f)
    p_tv_seminorm(f, 1.5)
    pair = SampledPair(f, g)
    for variant in ("ptv-theorem", "pvar-remark"):
        integral_norm_check(pair, 1.5, 1.5, variant)
    pair.integral, pair.tag_gaps
    assert all(name in vars(f) for name in CACHED)
    assert all(name in vars(pair) for name in PAIR_CACHED)
    for new in (restrict(f, 0.0, 1.0), shift_path(f, 0.0), dataclasses.replace(f),
                dataclasses.replace(f, mode=Mode.STEP)):
        assert not any(name in vars(new) for name in CACHED)
    for new in (SampledPair(f, g), dataclasses.replace(pair)):
        assert not any(name in vars(new) for name in PAIR_CACHED)


# swing_pieces builds per sweep: one per path whose profile or p-TV seminorm
# the variant reads (f, g and, for the centered lhs, int [f - f(a)] dg)
SWEEP_SWING_PIECES = {
    "loeve-pvar-left": 0, "loeve-pvar-right": 0, "loeve-pvar-xi": 0,
    "loeve-ptv-left": 2, "loeve-ptv-right": 2, "loeve-ptv-xi": 2,
    "young-s": 2, "min-series": 2,
    "integral-ptv-theorem": 3, "integral-ptv-corollary": 3, "integral-pvar-remark": 0,
    "gamma-level-ladder": 3,
}


@pytest.mark.parametrize("variant", list(BOUND_CHECKS))
def test_svg_sweep_builds_each_profile_and_the_pair_once(tmp_path, monkeypatch, capsys,
                                                         variant):
    # f(a) != 0, so the centered integrand f - f(a) differs from f
    f_path = shift_path(gen_brownian(24, 1.0, seed=10), 0.5)
    g_path = gen_brownian(24, 1.0, seed=11)
    f_csv, g_csv = tmp_path / "f.csv", tmp_path / "g.csv"
    write_path_csv(f_path, f_csv)
    write_path_csv(g_path, g_csv)
    calls = {"swing_pieces": 0, "_check_pair": 0, "_running": 0, "tag_gaps": 0}
    checked = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            if name == "_check_pair":
                checked.append(tuple(path.values.tolist() for path in args))
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(truncation, "swing_pieces")
    counting(norms, "swing_pieces")
    counting(integrals, "_check_pair")
    counting(integrals, "_running")
    build_tag_gaps = SampledPair.tag_gaps.func

    def tag_gaps(pair):
        calls["tag_gaps"] += 1
        return build_tag_gaps(pair)

    monkeypatch.setattr(SampledPair, "tag_gaps", functools.cached_property(tag_gaps))
    SampledPair.tag_gaps.__set_name__(SampledPair, "tag_gaps")
    code = main(["bounds", str(f_csv), str(g_csv), "--p", "1.9", "--q", "1.9",
                 "--variant", variant, "--format", "svg",
                 "--out", str(tmp_path / "sweep.svg")])
    assert code == 0 and capsys.readouterr().err == ""
    # the report and the 16 sweep points validate the pair once, as (f, g),
    # and build each path's pieces, each running integral and the tag gaps
    # they read once
    assert checked == [(f_path.values.tolist(), g_path.values.tolist())]
    integrals_read = variant.startswith(("integral-", "gamma-"))
    assert calls == {"swing_pieces": SWEEP_SWING_PIECES[variant], "_check_pair": 1,
                     "_running": int(integrals_read), "tag_gaps": int(not integrals_read)}


def test_a_path_keeps_no_buffer_its_caller_can_write():
    t = np.linspace(0.0, 1.0, 3)
    a = np.array([0.0, 2.0, 0.0])
    b = np.array([0.0, 2.0, 0.0])
    path, on_view = make_path(t, a), make_path(t, b[:])

    def results(path):
        return (path.values.tolist(), total_variation(path), p_variation(path, 2.0),
                p_tv_seminorm(path, 1.0), seminorm_with_argmax(path, 2.0),
                tv_profile(path).pieces)

    before = results(path)
    assert results(on_view) == before
    assert t.flags.writeable and a.flags.writeable and b.flags.writeable
    a[1] = b[1] = 5.0
    assert results(path) == results(on_view) == before
    assert before[1] == 4.0 and results(_fresh(on_view)) == before


# a request reduces each distinct path it reads once: its values, extrema
# and profile are kept on the path, and the kernels read the extrema
REDUCTIONS = {
    ("norm", "{f}", "--p", "2"): 1,
    ("bounds", "{f}", "{g}", "--p", "1.9", "--q", "1.9", "--variant", "young-s"): 2,
    ("bounds", "{f}", "{g}", "--p", "1.9", "--q", "1.9",
     "--variant", "gamma-level-ladder"): 3,
    ("bounds", "{f}", "{g}", "--p", "1.9", "--q", "1.9", "--variant", "young-s",
     "--format", "svg", "--out", "{svg}"): 2,
}


@pytest.mark.parametrize("argv", list(REDUCTIONS), ids=["norm", "young-s", "gamma", "young-s-svg"])
def test_a_request_reduces_each_path_once(tmp_path, monkeypatch, capsys, argv):
    files = {"f": tmp_path / "f.csv", "g": tmp_path / "g.csv", "svg": tmp_path / "s.svg"}
    write_path_csv(shift_path(gen_brownian(128, 1.0, seed=12), 0.5), files["f"])
    write_path_csv(gen_brownian(128, 1.0, seed=13), files["g"])
    reduced = []
    reduce_to_extrema = kernels.reduce_to_extrema
    monkeypatch.setattr(kernels, "reduce_to_extrema",
                        lambda values: reduced.append(len(values)) or reduce_to_extrema(values))
    code = main([word.format(**files) for word in argv])
    assert code == 0 and capsys.readouterr().err == ""
    assert len(reduced) == REDUCTIONS[argv]
