import collections
import dataclasses
import math

import numpy as np
import pytest

from roughtv import equations, kernels
from roughtv.equations import (
    LipschitzField,
    Quotient,
    composition_norm_check,
    field_catalog,
    fixed_point_radius,
    picard_solve,
    solution_radius,
)
from roughtv.errors import (
    BadAlphaError,
    BadExponentError,
    BadParameterError,
    BlowupSuspectedError,
    NoConvergenceError,
    NoSplittingError,
    NonFiniteValueError,
)
from roughtv.integrals import d_e_constants
from roughtv.norms import extrema_seminorm, p_tv_seminorm, seminorm_on, tv_p_full_norm
from roughtv.paths import (
    constant_path,
    gen_brownian,
    gen_zigzag,
    identity_path,
    make_path,
    scale_path,
)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------
def test_catalog_fields_satisfy_declared_constants():
    rng = np.random.default_rng(50)
    probes = rng.uniform(-3.0, 3.0, 200)
    for field in field_catalog().values():
        fv = field(probes)
        du = np.abs(probes[:, None] - probes[None, :])
        df = np.abs(fv[:, None] - fv[None, :])
        alpha = field.composition_alpha()
        mask = du > 0
        assert np.all(df[mask] <= field.lipschitz * du[mask] ** alpha + 1e-9)
        if field.sup_bound is not None:
            assert np.all(np.abs(fv) <= field.sup_bound)
        if field.quotient is not None:
            # G(y, x) = (F(y) - F(x)) / (y - x) off the diagonal
            assert np.all(df[mask] / du[mask] <= field.quotient.sup_bound + 1e-9)


def _field(func):
    return LipschitzField(func=func, alpha=1.0, lipschitz=1.0)


def test_field_call_broadcasts_and_converts():
    u = np.linspace(-1.0, 1.0, 5)
    scalar = _field(lambda v: 2.5)(u)
    assert scalar.dtype == np.float64 and scalar.shape == u.shape
    assert np.all(scalar == 2.5)
    ints = _field(lambda v: np.ones(v.shape, dtype=np.int64))(u)
    assert ints.dtype == np.float64 and np.all(ints == 1.0)
    singles = _field(lambda v: v.astype(np.float32) * 2)(u)
    assert singles.dtype == np.float64
    assert np.array_equal(singles, (u.astype(np.float32) * 2).astype(np.float64))
    listed = field_catalog()["sin"]([0.0, 1.0, 2.0])
    assert listed.dtype == np.float64
    assert np.array_equal(listed, np.sin(np.array([0.0, 1.0, 2.0])))
    with pytest.raises(ValueError):
        _field(lambda v: np.zeros(v.size + 1))(u)


@pytest.mark.parametrize("field", [
    field_catalog()["identity"],
    _field(lambda v: v[:]),
    _field(lambda v: v.reshape(v.shape)),
], ids=["identity", "slice", "reshape"])
def test_field_call_never_hands_back_the_input(field):
    u = np.array([0.5, -1.0, 2.0])
    before = u.copy()
    out = field(u)
    assert out is not u and np.array_equal(out, before)
    if out.flags.writeable:
        out[...] = 9.0
    else:
        with pytest.raises(ValueError):
            out[...] = 9.0
    assert np.array_equal(u, before)


def test_field_validation():
    with pytest.raises(BadAlphaError):
        LipschitzField(np.sin, alpha=1.5, lipschitz=1.0)
    with pytest.raises(BadParameterError, match="^lipschitz must be finite and >= 0$"):
        LipschitzField(np.sin, alpha=0.5, lipschitz=-1.0)
    # a quotient with K_G > 0 brings |F|_inf into the certification
    with pytest.raises(BadParameterError, match="requires sup_bound"):
        dataclasses.replace(field_catalog()["sin"], sup_bound=None)


def test_field_order_is_whether_a_quotient_is_declared():
    with pytest.raises(TypeError, match="'order'"):
        LipschitzField(np.sin, alpha=1.0, order="alpha", lipschitz=1.0)
    orders = {name: field.order for name, field in field_catalog().items()}
    assert orders == {"identity": "one_plus_alpha", "sin": "one_plus_alpha",
                      "sqrt-abs": "alpha", "constant": "one_plus_alpha",
                      "zero": "one_plus_alpha"}


@pytest.mark.parametrize("changes, name", [
    pytest.param({"quotient": Quotient(1.0, -1.0)}, "quotient.sup_bound", id="negative-G-sup"),
    pytest.param({"sup_bound": -1.0}, "sup_bound", id="negative-sup"),
    pytest.param({"sup_bound": math.nan}, "sup_bound", id="nan-sup"),
    pytest.param({"quotient": Quotient(-5.0, 1.0)}, "quotient.lipschitz", id="negative-K_G"),
    pytest.param({"lipschitz": math.inf}, "lipschitz", id="inf-lipschitz"),
])
def test_field_rejects_constants_that_certify_too_much(changes, name):
    # the windows are certified from the declared constants: on a scaled
    # walk with sin, a negative sup gave 235 longer windows than the 250 the
    # true constants certify, a NaN sup 256 uncertified windows that still
    # reported converged, and a negative K_G was read as 0
    with pytest.raises(BadParameterError, match=f"^{name} must be finite and >= 0$"):
        dataclasses.replace(field_catalog()["sin"], **changes)


# ---------------------------------------------------------------------------
# fixed-point radius
# ---------------------------------------------------------------------------
def test_fixed_point_radius_examples():
    assert fixed_point_radius(0.0, 3.0, 0.5) == 3.0
    assert fixed_point_radius(1.0, 0.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    golden_sq = ((1.0 + math.sqrt(5.0)) / 2.0) ** 2
    assert fixed_point_radius(1.0, 1.0, 0.5) == pytest.approx(golden_sq, rel=1e-11)
    # alpha near 1: the contraction rate of R <- A R^alpha + B nears 1 too
    for a, b, alpha in ((1.0, 1e-3, 0.999), (1.0, 1e-6, 0.9999)):
        r = fixed_point_radius(a, b, alpha)
        below = math.nextafter(r, 0.0)
        assert r - a * r ** alpha - b >= 0.0 > below - a * below ** alpha - b
        assert r == pytest.approx(a * r ** alpha + b, rel=1e-15, abs=0.0)
    with pytest.raises(BadAlphaError):
        fixed_point_radius(1.0, 1.0, 1.0)
    # A ** (1 / (1 - alpha)) overflows a Python float, and so does the root
    with pytest.raises(NonFiniteValueError, match="^the a-priori radius overflows float64$"):
        fixed_point_radius(1e308, 1.0, 0.99)
    # NaN is rejected as a negative value is: a NaN A once doubled forever
    for a, b in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(BadParameterError, match="A and B must be >= 0"):
            fixed_point_radius(a, b, 0.5)


def test_fixed_point_radius_is_fixed_point():
    rng = np.random.default_rng(51)
    for _ in range(50):
        a = float(rng.uniform(0.0, 5.0))
        b = float(rng.uniform(0.0, 5.0))
        alpha = float(rng.uniform(0.05, 0.95))
        r = fixed_point_radius(a, b, alpha)
        assert r == pytest.approx(a * r ** alpha + b, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# windows and splitting
# ---------------------------------------------------------------------------
def test_contraction_window_flat_stretch():
    # x constant on [0; 0.5]: the first window must reach past the flat stretch
    t = np.linspace(0.0, 1.0, 101)
    v = np.maximum(t - 0.5, 0.0)
    x = make_path(t, v)
    sol = picard_solve(x, field_catalog()["sin"], 1.0, 1.5, 1e-8)
    assert sol.converged and sol.windows[1] > 0.5


def test_contraction_window_positive_and_monotone():
    x = identity_path(101)
    sin_field = field_catalog()["sin"]
    sol = picard_solve(x, sin_field, 1.0, 1.5, 1e-8)
    assert sol.windows[1] > 0.0
    smaller = picard_solve(scale_path(x, 0.1), sin_field, 1.0, 1.5, 1e-8)
    assert smaller.windows[1] >= sol.windows[1]


def test_splitting_mesh_zigzag_obstruction():
    # each level band of the zigzag carries seminorm >= 1, far above the
    # eps = 0.039 of sqrt-abs at p = 1.25: the driver splits into no windows
    with pytest.raises(NoSplittingError):
        picard_solve(gen_zigzag(1.5, 5), field_catalog()["sqrt-abs"], 1.0, 1.25, 1e-8)


def test_contraction_window_matches_restricting_reference():
    # the binary search on restricted paths (`seminorm_on`) gives the same
    # window as the galloping search over the driver's extrema
    sin_field = field_catalog()["sin"]
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(3, 30))
        times = np.cumsum(rng.uniform(0.05, 1.0, size=n))
        x = make_path(times, np.cumsum(rng.normal(size=n)) * 10.0 ** rng.uniform(-2.0, 0.5))
        p = float(rng.choice([1.25, 1.5, 1.9]))
        e_pp = d_e_constants(p, p)[1]
        f_sup = sin_field.sup_bound

        def certified(pos, idx):
            s = seminorm_on(x, times[pos], times[idx], p)
            return (e_pp * s <= 0.5) and (4.0 * e_pp * (1.0 + 8.0 * f_sup * s) * s < 1.0)

        extrema = kernels.window_extrema(x.values)
        accept = equations._window_test(sin_field, p)[0]
        for pos in range(n - 1):
            lo, hi = pos + 1, n - 1
            if not certified(pos, lo):
                expected = (lo, False)
            elif certified(pos, hi):
                expected = (hi, True)
            else:
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if certified(pos, mid):
                        lo = mid
                    else:
                        hi = mid
                expected = (lo, True)
            assert equations._window_end(extrema, n - 1, pos, p, accept) == expected


# ---------------------------------------------------------------------------
# the window searches against the slice-by-slice ones they replaced
# ---------------------------------------------------------------------------
def _slice_seminorm(values, p):
    """The p-TV seminorm of the path through the value slice `values`."""
    return extrema_seminorm(kernels.reduce_to_extrema(values).tolist(), p)


def _slice_contraction_test(field, p):
    """The contraction inequalities on a window's seminorm, |F|_inf taken
    as the declared sup_bound (or 0 when K_G = 0)."""
    e_pp = d_e_constants(p, p)[1]
    e_pa = d_e_constants(p / field.alpha, p)[1]
    k_f = field.lipschitz
    g_sup = field.quotient.sup_bound
    k_g = field.quotient.lipschitz
    f_sup = field.sup_bound if k_g > 0 else 0.0

    def certified(s):
        radius = 2.0 * f_sup * s
        return (e_pp * k_f * s <= 0.5) and (4.0 * e_pa * (g_sup + 4.0 * k_g * radius) * s < 1.0)

    return certified


def _slice_alpha_test(field, p):
    """The order-alpha window bound: seminorm <= eps = 1/(2 (E + 1) K)."""
    eps = 0.5 / ((d_e_constants(p / field.alpha, p)[1] + 1.0) * field.lipschitz)
    return lambda s: s <= eps


def _slice_window_end(x, pos, p, accept):
    """(end, certified) of the longest window from sample pos whose value
    slice's seminorm passes `accept`, as the contraction search once found
    it: the one-step window, then the whole rest, then a binary search."""
    def certified(idx):
        return accept(_slice_seminorm(x.values[pos:idx + 1], p))

    lo = pos + 1
    if not certified(lo):
        return lo, False
    hi = x.times.size - 1
    if certified(hi):
        return hi, True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            lo = mid
        else:
            hi = mid
    return lo, True


def _rough_driver(rng, n):
    # a walk on [0; 1] with quadratic variation 1, as the benchmark drives
    steps = rng.standard_normal(n - 1)
    return make_path(np.linspace(0.0, 1.0, n),
                     np.concatenate(([0.0], np.cumsum(steps / np.linalg.norm(steps)))))


def _search_cases():
    rng = np.random.default_rng(803)
    sizes = [24, 24, 24, 24, 24, 24, 33, 40, 57, 65, 100, 129, 180, 257, 300, 400,
             513, 700, 1025, 4097]
    cases = []
    for k, n in enumerate(sizes):
        x = _rough_driver(rng, n)
        cases += [(x, "sin", 1.0, 1.5), (x, "identity", 0.5 + 0.1 * k, 1.5)]
        # sqrt-abs splits a rough walk of quadratic variation 1 into
        # one-step windows at best, so it drives a flatter one
        cases.append((scale_path(x, 0.05), "sqrt-abs", 1.0 + k % 3, 1.25))
    for n in (24, 513, 1025):
        x = identity_path(n)
        cases += [(x, "sin", 1.0, 1.5), (x, "identity", 1.0, 1.5), (x, "sqrt-abs", 2.0, 1.25)]
    return cases


def _solve_outcome(x, field, y0, p):
    try:
        return picard_solve(x, field, y0, p, 1e-8)
    except (NoSplittingError, NoConvergenceError, BlowupSuspectedError) as exc:
        return type(exc).__name__, str(exc)


def test_picard_solve_matches_slice_window_searches(monkeypatch):
    cases = _search_cases()
    got = [_solve_outcome(x, field_catalog()[name], y0, p) for x, name, y0, p in cases]
    solved = 0
    for (x, name, y0, p), sol in zip(cases, got):
        field = field_catalog()[name]
        test = _slice_contraction_test if field.order == "one_plus_alpha" else _slice_alpha_test
        accept = test(field, p)

        def slice_window_end(extrema, last, pos, p_, accept_, guess_):
            return _slice_window_end(x, pos, p, accept)

        monkeypatch.setattr(equations, "_window_end", slice_window_end)
        ref = _solve_outcome(x, field, y0, p)
        monkeypatch.undo()
        if isinstance(ref, tuple):
            assert sol == ref
            continue
        solved += 1
        assert np.array_equal(sol.path.values, ref.path.values)
        assert np.array_equal(sol.windows, ref.windows)
        assert sol.iterations == ref.iterations
        assert sol.residual == ref.residual and sol.converged == ref.converged
    assert solved >= 50


def test_window_search_certifications_are_logarithmic(monkeypatch):
    # at most 2 ceil(log2(L + 1)) + 2 seminorms for a window of L steps,
    # whatever the length of the driver, for the contraction test (sin) and
    # the order-alpha bound (sqrt-abs, on the flatter drivers it splits)
    calls = []
    counted = equations.extrema_seminorm

    def counting(extrema, p):
        calls.append(len(extrema))
        return counted(extrema, p)

    monkeypatch.setattr(equations, "extrema_seminorm", counting)
    rng = np.random.default_rng(804)
    drivers = [_rough_driver(rng, n) for n in (24, 513, 4097, 16385)]
    drivers += [gen_brownian(4097, 1.0, 7), identity_path(4097)]
    cat = field_catalog()
    cases = [(x, 1.5, equations._window_test(cat["sin"], 1.5)[0]) for x in drivers]
    cases += [(scale_path(x, 0.05), 1.25, _slice_alpha_test(cat["sqrt-abs"], 1.25))
              for x in drivers]
    windows = collections.Counter()
    for x, p, accept in cases:
        extrema = equations.window_extrema(x.values)
        last = x.times.size - 1
        pos = 0
        while pos < last:
            calls.clear()
            end, certified = equations._window_end(extrema, last, pos, p, accept)
            steps = end - pos
            assert len(calls) <= 2 * math.ceil(math.log2(steps + 1)) + 2, (len(x), pos, end)
            pos = end
            windows[p, certified, steps > 1] += 1
    assert windows[1.5, True, True] > 500 and windows[1.25, True, True] > 50, windows


def _seed_drivers():
    rng = np.random.default_rng(807)
    drivers = []
    for n in (2, 3, 5, 9, 17, 24, 40):
        x = _rough_driver(rng, n)
        drivers += [scale_path(x, scale) for scale in (0.02, 0.1, 0.5)]
    drivers += [scale_path(identity_path(n), scale) for n in (2, 9, 33, 65)
                for scale in (0.3, 1.0, 3.0)]
    return drivers


@pytest.mark.parametrize("name, p", [("sin", 1.5), ("sqrt-abs", 1.25)])
def test_seeded_window_search_equals_the_unseeded_one(name, p):
    # the contraction test (sin) and the order-alpha bound (sqrt-abs): from
    # every start and with every guess, the search finds the guess-1 end
    accept = equations._window_test(field_catalog()[name], p)[0]
    ends = collections.Counter()
    for x in _seed_drivers():
        extrema = kernels.window_extrema(x.values)
        last = len(x) - 1
        for pos in range(last):
            want = equations._window_end(extrema, last, pos, p, accept, 1)
            ends[want[1], want[0] - pos > 1, want[0] == last] += 1
            for guess in range(1, len(x) + 1):
                assert equations._window_end(extrema, last, pos, p, accept, guess) == want
    # failed one-step windows, one-step windows and longer ones, ending
    # inside the driver and at its end
    assert len(ends) >= 4 and all(count >= 5 for count in ends.values()), ends


def test_seeded_window_search_costs_three_seminorms_on_a_uniform_driver(monkeypatch):
    # each window of the solve is as long as the one before it (or the rest
    # of the driver): one-step probe, the guess, and one past it
    calls = []
    counted_seminorm = equations.extrema_seminorm
    search = equations._window_end
    costs = []

    def counting(extrema, p):
        calls.append(len(extrema))
        return counted_seminorm(extrema, p)

    def recording(*args):
        calls.clear()
        result = search(*args)
        costs.append(len(calls))
        return result

    monkeypatch.setattr(equations, "extrema_seminorm", counting)
    monkeypatch.setattr(equations, "_window_end", recording)
    sol = picard_solve(identity_path(4097), field_catalog()["sin"], 1.0, 1.5, 1e-8)
    assert len(costs) == len(sol.windows) - 1 > 10
    assert max(costs[1:]) <= 3, costs


def test_driver_is_reduced_once_per_solve(monkeypatch):
    builds = []
    counted = equations.window_extrema

    def counting(values):
        builds.append(len(values))
        return counted(values)

    monkeypatch.setattr(equations, "window_extrema", counting)
    x = _rough_driver(np.random.default_rng(805), 513)
    sol = picard_solve(x, field_catalog()["sin"], 1.0, 1.5, 1e-8)
    assert len(sol.windows) > 10 and builds == [513]
    builds.clear()
    sol = picard_solve(identity_path(513), field_catalog()["sqrt-abs"], 1.0, 1.25, 1e-8)
    assert len(sol.windows) > 10 and builds == [513]


def _counting_calls(field):
    """`field` with F wrapped to record the size of every argument."""
    sizes = []
    func = field.func

    def counted(u):
        sizes.append(np.size(u))
        return func(u)

    return dataclasses.replace(field, func=counted), sizes


def _iterate_and_residual_sizes(x, sol):
    # F on each window once per iterate, then on the whole solution for the
    # residual: no evaluation on a probe grid
    ends = np.searchsorted(x.times, sol.windows)
    sizes = []
    for length, its in zip(np.diff(ends) + 1, sol.iterations):
        sizes += [int(length)] * its
    return sizes + [len(x)]


def test_alpha_order_solve_makes_no_sup_probe():
    # the order-alpha windows never read sup |F| (sqrt-abs declares none)
    field, sizes = _counting_calls(field_catalog()["sqrt-abs"])
    x = identity_path(129)
    sol = picard_solve(x, field, 1.0, 1.25, 1e-8)
    assert sol.converged and len(sol.windows) > 2
    assert sizes == _iterate_and_residual_sizes(x, sol)


@pytest.mark.parametrize("name", ["sin", "identity"])
def test_contraction_solve_makes_no_sup_probe(name):
    # the windows rest on declared constants: F is never sampled for its sup,
    # and with K_G = 0 (identity) the sup does not enter, so any declared
    # value gives the same solve
    field, sizes = _counting_calls(field_catalog()[name])
    x = _rough_driver(np.random.default_rng(806), 257)
    sol = picard_solve(x, field, -2.0, 1.5, 1e-8)
    assert sol.converged and len(sol.windows) > 10
    assert sizes == _iterate_and_residual_sizes(x, sol)
    if field.quotient.lipschitz > 0:
        with pytest.raises(BadParameterError, match="requires sup_bound"):
            dataclasses.replace(field, sup_bound=None)
    else:
        ref = picard_solve(x, dataclasses.replace(field, sup_bound=1e300), -2.0, 1.5, 1e-8)
        assert np.array_equal(sol.path.values, ref.path.values)
        assert sol.windows == ref.windows and sol.iterations == ref.iterations
        assert sol.residual == ref.residual


# ---------------------------------------------------------------------------
# picard_solve
# ---------------------------------------------------------------------------
def test_picard_linear_field_reaches_e():
    x = identity_path(2 ** 12 + 1)
    sol = picard_solve(x, field_catalog()["identity"], 1.0, 1.5, 1e-9)
    assert sol.converged
    assert abs(sol.path.values[-1] - math.e) < 1e-6
    assert sol.residual < 1e-9


def test_picard_zero_field_constant():
    x = identity_path(257)
    sol = picard_solve(x, field_catalog()["zero"], 4.0, 1.5, 1e-10)
    assert np.all(sol.path.values == 4.0)


def test_picard_sin_matches_rk4():
    n = 2 ** 10 + 1
    x = identity_path(n)
    sol = picard_solve(x, field_catalog()["sin"], 1.0, 1.5, 1e-8)

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

    ref = rk4(1.0, (n - 1) * 10)
    assert abs(sol.path.values[-1] - ref) < 1e-4


def test_picard_windows_chain_on_sample_times():
    x = identity_path(513)
    sol = picard_solve(x, field_catalog()["sin"], 0.3, 1.5, 1e-8)
    assert sol.windows[0] == x.a and sol.windows[-1] == x.b
    for w in sol.windows:
        assert np.any(x.times == w)
    assert np.all(np.diff(np.asarray(sol.windows)) > 0)


def test_picard_alpha_order_membership():
    x = identity_path(2 ** 10 + 1)
    field = field_catalog()["sqrt-abs"]
    sol = picard_solve(x, field, 1.0, 1.25, 1e-8)
    assert sol.converged
    # exact solution of y' = sqrt(y), y(0)=1 is (1 + t/2)^2
    assert sol.path.values[-1] == pytest.approx(2.25, abs=1e-6)
    radius = solution_radius(x, field, 1.0, 1.25)
    assert tv_p_full_norm(sol.path, 1.25).full_norm <= radius + 1e-9


def _record_damped(monkeypatch):
    """The (route, damped) of every window iteration a solve runs, on both
    routes: `_iterate_step` for a one-step window, `_iterate_window` else."""
    calls = []
    for name in ("_iterate_step", "_iterate_window"):
        def recording(*args, _name=name, _iterate=getattr(equations, name)):
            calls.append((_name, args[-2]))  # the damped flag, before the guard
            return _iterate(*args)

        monkeypatch.setattr(equations, name, recording)
    return calls


def _assert_damped_rescue(monkeypatch, x, y0, route):
    # sqrt-abs near 0: the plain iteration of the first window does not
    # settle in max_iter steps, the damped y <- (y + Ty)/2 does
    field = field_catalog()["sqrt-abs"]
    calls = _record_damped(monkeypatch)
    sol = picard_solve(x, field, y0, 1.25, 1e-8)
    assert sol.converged and sol.residual < 1e-8
    assert calls[:2] == [(route, False), (route, True)]

    iterate = getattr(equations, route)

    def undamped(*args):
        return iterate(*args[:-2], False, args[-1])

    monkeypatch.setattr(equations, route, undamped)
    with pytest.raises(NoConvergenceError):
        picard_solve(x, field, y0, 1.25, 1e-8)


def test_picard_damped_retry_rescues_a_nonsmooth_window(monkeypatch):
    _assert_damped_rescue(monkeypatch, scale_path(gen_brownian(9, 1.0, 1), 0.05), 1e-6,
                          "_iterate_window")


def test_picard_damped_retry_rescues_a_one_step_window(monkeypatch):
    _assert_damped_rescue(monkeypatch, make_path([0.0, 1.0], [0.0, -0.015]), 1e-4,
                          "_iterate_step")


def test_picard_contraction_order_has_no_damped_retry(monkeypatch):
    # the damped retry is for the nonsmooth order-alpha fields; an order
    # one_plus_alpha window that does not settle raises at once, on either
    # route: the first window of this walk is one step, of the second longer
    calls = _record_damped(monkeypatch)
    with pytest.raises(NoConvergenceError):
        picard_solve(gen_brownian(24, 1.0, 3), field_catalog()["sin"], 1.0, 1.5, 1e-8,
                     max_iter=1)
    assert calls == [("_iterate_step", False)]
    calls.clear()
    with pytest.raises(NoConvergenceError):
        picard_solve(identity_path(257), field_catalog()["sin"], 1.0, 1.5, 1e-14,
                     max_iter=1)
    assert calls == [("_iterate_window", False)]


@pytest.mark.parametrize("y0", [0.0, 5.0, -2.5])
def test_picard_one_sample_driver_is_the_initial_value(y0):
    # no window runs on a one-sample driver; the solution is y0 alone
    sol = picard_solve(make_path([0.25], [1.0]), field_catalog()["sin"], y0, 1.5, 1e-8)
    assert sol.path.values.tolist() == [y0]
    assert sol.residual == 0.0 and sol.converged
    assert sol.windows == (0.25,) and sol.iterations == ()


def test_picard_rejects_bad_driver_and_exponent():
    step = make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], "step")
    with pytest.raises(BadParameterError):
        picard_solve(step, field_catalog()["identity"], 0.0, 1.5, 1e-6)
    x = identity_path(9)
    with pytest.raises(BadExponentError, match=r"^need p in \(1; 2\)$"):
        picard_solve(x, field_catalog()["sin"], 0.0, 2.5, 1e-6)
    with pytest.raises(BadAlphaError, match="^order alpha solving needs p - 1 < alpha$"):
        picard_solve(x, field_catalog()["sqrt-abs"], 0.0, 1.6, 1e-6)
    with pytest.raises(BadParameterError,
                       match="^the a-priori radius applies to order alpha fields$"):
        solution_radius(x, field_catalog()["sin"], 0.0, 1.5)


def _explosive():
    # y' = 1 + y^2 blows up near pi/4 from y = 1; deliberately optimistic
    # constants keep the window wide so the iteration runs into the guard
    return LipschitzField(
        func=lambda u: 1.0 + np.asarray(u, dtype=np.float64) ** 2,
        alpha=1.0,
        lipschitz=0.01,
        quotient=Quotient(lipschitz=0.01, sup_bound=0.01),
        sup_bound=0.01,
    )


def test_picard_blowup_guard():
    x = identity_path(257, horizon=2.0)
    with pytest.raises(BlowupSuspectedError):
        picard_solve(x, _explosive(), 1.0, 1.5, 1e-8, max_iter=200)


@pytest.mark.parametrize("x, y0, first_inf", [
    # one uncertified one-step window: z1 = y0 + 1.5 (y0 + y1) grows to inf
    (make_path([0.0, 1.0], [0.0, 3.0]), 1e300, 1.0),
    # one certified window of 457 samples: F(y0) + F(y0) overflows in the
    # first cell of the first iterate
    (identity_path(4097), 1.7e308, 1 / 4096),
], ids=["one-step", "array"])
def test_picard_blowup_guard_trips_on_overflow_at_a_large_y0(x, y0, first_inf):
    # 1e12 |y0| is inf here; the guard is capped at the largest float, so
    # the first infinite sample trips it instead of the iteration stalling
    with pytest.raises(BlowupSuspectedError) as err:
        picard_solve(x, field_catalog()["identity"], y0, 1.5, 1e-8)
    assert err.value.time == first_inf


# ---------------------------------------------------------------------------
# the window loop against the plain loop it replaced
# ---------------------------------------------------------------------------
def _reference_call(field, values):
    out = field.func(np.asarray(values, dtype=np.float64))
    return np.broadcast_to(np.asarray(out, dtype=np.float64),
                           np.shape(values)).astype(np.float64, copy=False)


def _reference_trapezoid(f_vals, x_vals):
    cells = 0.5 * (f_vals[:-1] + f_vals[1:]) * np.diff(x_vals)
    return np.concatenate(([0.0], np.cumsum(cells)))


def _reference_iterate_window(field, t, xv, y_start, tol, max_iter, damped, guard):
    y = np.full(t.size, y_start, dtype=np.float64)
    for it in range(1, max_iter + 1):
        z = y_start + _reference_trapezoid(_reference_call(field, y), xv)
        bad = np.abs(z) > guard
        if np.any(bad):
            raise BlowupSuspectedError(
                "solution exceeded the overflow guard",
                time=float(t[int(np.argmax(bad))]),
            )
        change = float(np.max(np.abs(z - y)))
        if change < tol:
            return z, it
        y = z if not damped else 0.5 * (y + z)
    raise NoConvergenceError(f"window iteration did not reach {tol} in {max_iter} steps")


def _outcome(loop, *args):
    try:
        z, its = loop(*args)
    except (BlowupSuspectedError, NoConvergenceError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "time", None)
    return z, its


def _assert_same_outcome(got, want):
    # the bytes, so that a -0.0 for a 0.0 counts too
    if isinstance(want[0], np.ndarray):
        assert isinstance(got[0], np.ndarray) and got[0].dtype == np.float64
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
        assert got[1] == want[1]
    else:
        assert got == want


def _step_as_window(field, t, xv, y_start, tol, max_iter, damped, guard):
    """`_iterate_step` on a one-step window, as `_iterate_window` is called:
    the two floats it returns as a float64 array."""
    z0, z1, its = equations._iterate_step(field, t.item(1), xv.item(0), xv.item(1),
                                          y_start, tol, max_iter, damped, guard)
    assert type(z0) is float and type(z1) is float and type(its) is int
    return np.array((z0, z1)), its


def _window_drivers():
    # one-step windows, rising, falling, flat and tiny, and windows of 3 to
    # 64 samples, walks and lines
    rng = np.random.default_rng(801)
    drivers = []
    for n in (2, 3, 5, 17, 64, 31, 32, 33):
        steps = rng.standard_normal(n - 1)
        drivers.append(np.concatenate(([0.0], np.cumsum(steps / np.linalg.norm(steps)))))
    for n in (2, 9, 64, 31, 32, 33):
        drivers.append(np.linspace(0.0, 1.0, n))
    for step in (-1.0, -0.015, 3.0, 0.0, -0.0, 1e-300):
        drivers.append(np.array((0.5, 0.5 + step)))
    return drivers


def _beyond(level, value):
    # u + 1 up to level, value above it: the iterates cross the level
    return LipschitzField(
        func=lambda u: np.where(np.asarray(u) > level, value, np.asarray(u) + 1.0),
        alpha=1.0, lipschitz=1.0,
    )


# a NaN is not first in a window's change (z[0] is y_start), where Python's
# max would skip it: the window must not be reported as converged; a Python
# scalar, a 0-d array, an int or float32 array take the coercion of F's
# output; the input itself, a view of it and a strided view of a new array
# are float64 arrays of the window's shape, listed as they are
_WINDOW_FIELDS = dict(field_catalog(), explosive=_explosive(),
                      nan_above=_beyond(1.5, np.nan), inf_above=_beyond(1.5, np.inf),
                      scalar=_field(lambda v: 0.75),
                      zero_dim=_field(lambda v: np.array(-0.5)),
                      int_array=_field(lambda v: np.floor(v).astype(np.int64)),
                      float32=_field(lambda v: np.sin(v).astype(np.float32)),
                      itself=_field(lambda v: v),
                      view=_field(lambda v: v[:]),
                      strided=_field(lambda v: np.cos(np.repeat(v, 2))[::2]))


@pytest.mark.parametrize("name", sorted(_WINDOW_FIELDS))
def test_iterate_window_matches_reference_loop(name):
    # a one-step window on both routes: the arrays, and the Python floats
    # of a solve's one-step windows
    field = _WINDOW_FIELDS[name]
    for xv in _window_drivers():
        t = np.linspace(0.25, 0.75, xv.size)
        loops = (equations._iterate_window,) + ((_step_as_window,) if xv.size == 2 else ())
        for y_start in (0.0, -0.0, 1.0, -2.5):
            for tol in (1e-6, 1e-12):
                for damped in (False, True):
                    args = (field, t, xv, y_start, tol, 40, damped, equations.BLOWUP_GUARD)
                    # the arrays' inf - inf warns; Python floats give the NaN silently
                    with np.errstate(invalid="ignore" if name == "inf_above" else "warn"):
                        want = _outcome(_reference_iterate_window, *args)
                        for loop in loops:
                            _assert_same_outcome(_outcome(loop, *args), want)


def test_iterate_window_errors_match_reference_loop():
    t = np.linspace(0.0, 2.0, 257)
    blowup = (_explosive(), t, t, 1.0, 1e-8, 200, False, equations.BLOWUP_GUARD)
    got = _outcome(equations._iterate_window, *blowup)
    assert got[0] == "BlowupSuspectedError"
    assert got == _outcome(_reference_iterate_window, *blowup)
    stalled = (field_catalog()["sin"], t[:9], t[:9], 1.0, 1e-14, 2, False,
               equations.BLOWUP_GUARD)
    got = _outcome(equations._iterate_window, *stalled)
    assert got[0] == "NoConvergenceError"
    assert got == _outcome(_reference_iterate_window, *stalled)


def _solve_cases():
    rng = np.random.default_rng(802)
    cases = []
    for _ in range(14):
        n = int(rng.integers(6, 40))
        steps = rng.standard_normal(n - 1)
        values = np.concatenate(([0.0], np.cumsum(steps / np.linalg.norm(steps))))
        cases.append((make_path(np.linspace(0.0, 1.0, n), values), "sin",
                      float(rng.uniform(-2.0, 2.0)), 1.5))
    for n, name, y0, p in ((65, "sqrt-abs", 1.0, 1.25), (65, "sqrt-abs", 3.0, 1.25),
                           (33, "sin", 1.0, 1.5), (257, "identity", 1.0, 1.5),
                           (17, "constant", -1.0, 1.5), (9, "zero", 2.0, 1.5)):
        cases.append((identity_path(n), name, y0, p))
    return cases


def test_picard_solve_matches_reference_loop(monkeypatch):
    # every window, one-step windows included, is iterated by the reference
    # loop in the reference solve
    cases = _solve_cases()
    got = [picard_solve(x, field_catalog()[name], y0, p, 1e-9) for x, name, y0, p in cases]
    routes = collections.Counter()

    def reference_window(*args):
        routes["window"] += 1
        return _reference_iterate_window(*args)

    def reference_step(field, t1, x0, x1, y_start, tol, max_iter, damped, guard):
        # t0 is not passed; the guard is never tripped at a window's start
        routes["step"] += 1
        z, its = _reference_iterate_window(field, np.array((t1, t1)), np.array((x0, x1)),
                                           y_start, tol, max_iter, damped, guard)
        return float(z[0]), float(z[1]), its

    monkeypatch.setattr(equations, "_iterate_window", reference_window)
    monkeypatch.setattr(equations, "_iterate_step", reference_step)
    for (x, name, y0, p), sol in zip(cases, got):
        field = field_catalog()[name]
        ref = picard_solve(x, field, y0, p, 1e-9)
        assert sol.path.values.tobytes() == ref.path.values.tobytes()
        assert sol.iterations == ref.iterations and sol.windows == ref.windows
        ys = ref.path.values
        residual = float(np.max(np.abs(
            ys - (y0 + _reference_trapezoid(_reference_call(field, ys), x.values))
        )))
        assert sol.residual == residual and sol.converged == (residual < 1e-9)
    # both routes ran, so neither was skipped unchecked
    assert routes["step"] > 100 and routes["window"] > 10, routes


# ---------------------------------------------------------------------------
# composition bound and the scalar inequality behind it
# ---------------------------------------------------------------------------
def test_composition_check_constant_and_identity(tent):
    cat = field_catalog()
    const_path_ = constant_path(2.0, 0.0, 1.0)
    rep = composition_norm_check(const_path_, cat["sqrt-abs"], 1.5)
    assert rep.lhs == 0.0 and rep.passed
    rep_id = composition_norm_check(tent, cat["identity"], 2.0)
    assert rep_id.lhs == pytest.approx(rep_id.rhs, rel=1e-12)
    assert rep_id.passed
    with pytest.raises(BadExponentError, match="^needs p >= 1$"):
        composition_norm_check(tent, cat["identity"], 0.5)


def test_composition_check_sqrt_sweep():
    field = field_catalog()["sqrt-abs"]
    for seed in range(50):
        walk = gen_brownian(64, 1.0, seed)
        assert composition_norm_check(walk, field, 1.5).passed


def test_scalar_hinge_inequality():
    # (K|x|^a - d)_+ <= K^(1/a) d^(1-1/a) (|x| - (d/K)^(1/a))_+
    xs = np.linspace(-2.0, 2.0, 25)
    ds = np.linspace(1e-3, 3.0, 20)
    ks = np.linspace(0.1, 4.0, 20)
    alpha = 0.5
    for k in ks:
        for d in ds:
            lhs = np.maximum(k * np.abs(xs) ** alpha - d, 0.0)
            rhs = (
                k ** (1.0 / alpha)
                * d ** (1.0 - 1.0 / alpha)
                * np.maximum(np.abs(xs) - (d / k) ** (1.0 / alpha), 0.0)
            )
            assert np.all(lhs <= rhs + 1e-12)


def test_quotient_difference_seminorm_bound():
    # composed-difference bound for F = sin with quotient (sin y - sin x)/(y - x)
    p = 1.5
    alpha = 1.0
    for seed in range(25):
        f = gen_brownian(48, 1.0, 2 * seed)
        g = gen_brownian(48, 1.0, 2 * seed + 1)
        m = max(np.max(np.abs(f.values)), np.max(np.abs(g.values)))
        g_sup = 1.0  # |G| <= 1 everywhere for sin
        k_g = 1.0
        diff = make_path(f.times, f.values - g.values)
        composed = make_path(f.times, np.sin(f.values) - np.sin(g.values))
        lhs = p_tv_seminorm(composed, p / alpha)
        osc_d = float(np.max(diff.values) - np.min(diff.values))
        rhs = (
            2.0 * g_sup ** (1.0 - alpha) * osc_d ** (1.0 - alpha)
            * p_tv_seminorm(diff, p) ** alpha
            + 4.0 * k_g
            * (p_tv_seminorm(f, p) ** alpha + p_tv_seminorm(g, p) ** alpha)
            * float(np.max(np.abs(diff.values)))
        )
        assert lhs <= rhs + 1e-9
