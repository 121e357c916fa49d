"""Property tests (Hypothesis) of the fast functionals against the oracle."""

import heapq
import io
import json
import math
import struct
import warnings
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from roughtv import cli, integrals, pathio  # noqa: E402
from roughtv.cli import to_json  # noqa: E402
from roughtv.errors import CsvFormatError, NonFiniteValueError, RoughTVError  # noqa: E402
from roughtv.integrals import BOUND_CHECKS, SampledPair  # noqa: E402
from roughtv.kernels import lazy_band, pvar_sum, reduce_to_extrema, tv_delta  # noqa: E402
from roughtv.norms import p_variation, seminorm_with_argmax  # noqa: E402
from roughtv.oracle import (  # noqa: E402
    pvar_bruteforce,
    seminorm_bruteforce,
    tv_partition_bruteforce,
)
from roughtv.pathio import read_path_csv, write_path_csv  # noqa: E402
from roughtv.paths import (  # noqa: E402
    Mode,
    common_jump_times,
    gen_brownian,
    gen_zigzag,
    make_path,
    merge_times,
    scale_path,
)
from roughtv.truncation import swing_pieces, truncated_variation, tv_profile  # noqa: E402
from test_cli import _half_rhs, to_json_reference  # noqa: E402
from test_kernels import (  # noqa: E402
    contracting_zigzag,
    lazy_band_reference,
    pvar_sum_reference,
    tv_delta_reference,
)
from test_paths import read_path_csv_reference, write_path_csv_reference  # noqa: E402

# small integers give exact ties, plateaus and monotone runs
_values = st.one_of(
    st.lists(st.integers(-3, 3), min_size=2, max_size=10),
    st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=2, max_size=10),
)


def _scaled_path(values, exponent):
    scale = 10.0 ** exponent
    return make_path(np.linspace(0.0, 1.0, len(values)), np.asarray(values, float) * scale)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=_values,
       exponent=st.integers(-8, 8),
       p=st.sampled_from([1.01, 1.25, 1.5, 1.9, 2.0, 3.0]))
def test_seminorm_matches_bruteforce_oracle(values, exponent, p):
    path = _scaled_path(values, exponent)
    sem, arg = seminorm_with_argmax(path, p)
    slow = seminorm_bruteforce(path, p)
    assert sem == pytest.approx(slow, rel=1e-12, abs=0.0)
    # the argmax attains the supremum
    attained = (arg ** (p - 1.0) * truncated_variation(path, arg)) ** (1.0 / p)
    assert attained == pytest.approx(sem, rel=1e-12, abs=0.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=_values,
       exponent=st.integers(-8, 8),
       delta=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]))
def test_truncated_variation_matches_bruteforce_oracle(values, exponent, delta):
    # delta in units of the scale, so integer values give swings equal to delta
    path = _scaled_path(values, exponent)
    delta *= 10.0 ** exponent
    fast = truncated_variation(path, delta)
    assert fast == pytest.approx(tv_partition_bruteforce(path, delta), rel=1e-12, abs=0.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=_values,
       exponent=st.integers(-8, 8),
       p=st.sampled_from([1.0, 1.01, 1.5, 2.0, 3.0]))
def test_p_variation_matches_bruteforce_oracle(values, exponent, p):
    path = _scaled_path(values, exponent)
    assert p_variation(path, p) == pytest.approx(pvar_bruteforce(path, p), rel=1e-12, abs=0.0)


def _integer_staircase(moves, sign):
    # rises of 1-4 units and falls of 0-3: mostly a rising staircase (falling
    # for sign -1), whose rising steps read every earlier minimum; a rise
    # equal to the fall before it returns to the last maximum exactly, which
    # the step pops as a tie
    out = [0]
    for up, down in moves:
        out += [out[-1] + up, out[-1] + up - down]
    return [sign * x for x in out]


def _integer_zigzag(count, step):
    # 0, h, -h, h + step, -(h + step), ...: contracting for step < 0, where
    # every extremum stays a record, expanding for step > 0, and of equal
    # heights for step 0
    heights = 3 * count + step * np.arange(count)
    return [0, *np.column_stack((heights, -heights)).ravel().tolist()]


# long walks, integer ties and plateaus, uniform values at every scale,
# integer staircases and zigzags
_pvar_values = st.one_of(
    st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=20, max_size=200)
    .map(lambda steps: np.cumsum(steps).tolist()),
    st.lists(st.integers(-3, 3), min_size=0, max_size=60),
    st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=0, max_size=60),
    st.builds(_integer_staircase,
              st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3)), min_size=1, max_size=40),
              st.sampled_from([1, -1])),
    st.builds(_integer_zigzag, st.integers(1, 40), st.integers(-3, 3)),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=_pvar_values,
       exponent=st.integers(-300, 300),
       p=st.sampled_from([1.0, 1.01, 1.5, 1.9, 2.0, 3.0]))
def test_pvar_sum_equals_quadratic_dp(values, exponent, p):
    v = np.asarray(values, float) * 10.0 ** exponent
    # large scales overflow; both sides must then agree on inf
    with np.errstate(over="ignore"):
        fast = pvar_sum(reduce_to_extrema(v).tolist(), p)
        slow = pvar_sum_reference(v, p)
    assert fast == slow
    if len(values) <= 12 and np.isfinite(fast) and len(values) >= 2:
        path = make_path(np.linspace(0.0, 1.0, len(values)), v)
        assert fast == pytest.approx(pvar_bruteforce(path, p), rel=1e-12, abs=0.0)


# integer ties and plateaus, uniform values with subnormals, and signed zeros
_kernel_values = st.one_of(
    st.lists(st.integers(-3, 3), min_size=0, max_size=40),
    st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=40),
    st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0]), min_size=0, max_size=12),
)


def _kernel_deltas(v, scale):
    # 0, deltas equal to integer swings, the oscillation and beyond it
    osc = float(v.max()) - float(v.min()) if v.size else 0.0
    return [0.0, 0.5 * scale, scale, 2.0 * scale, 0.25 * osc, osc, 1.5 * osc]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=_kernel_values, exponent=st.integers(-300, 300))
def test_tv_delta_equals_the_two_branch_loop(values, exponent):
    scale = 10.0 ** exponent
    v = np.asarray(values, float) * scale
    for delta in _kernel_deltas(v, scale):
        assert tv_delta(v, delta) == tv_delta_reference(v, delta)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=_kernel_values, exponent=st.integers(-300, 300))
def test_lazy_band_has_the_bits_of_the_numpy_scalar_loop(values, exponent):
    # bytes, so that a signed zero counts
    scale = 10.0 ** exponent
    v = np.asarray(values, float) * scale
    for delta in _kernel_deltas(v, scale):
        assert lazy_band(v, delta).tobytes() == lazy_band_reference(v, delta).tobytes()


# every finite double: magnitudes 1e-300 to 1e300, subnormals, -0.0 and
# values whose shortest repr needs all 17 digits
_csv_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-300, 1e300).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(-1e-307, 1e-307, allow_nan=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0]),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.lists(st.tuples(_csv_floats, _csv_floats), min_size=1, max_size=30,
                     unique_by=lambda tv: tv[0]))
def test_csv_io_equals_reference(data):
    path = make_path(sorted(t for t, _ in data), [v for _, v in data])
    buf, ref = io.BytesIO(), io.BytesIO()
    write_path_csv(path, buf)
    write_path_csv_reference(path, ref)
    raw = buf.getvalue()
    assert raw == ref.getvalue()
    back = read_path_csv(io.BytesIO(raw))
    old = read_path_csv_reference(io.StringIO(raw.decode("utf-8")))
    assert back.times.tobytes() == path.times.tobytes() == old.times.tobytes()
    assert back.values.tobytes() == path.values.tobytes() == old.values.tobytes()


# characters that str.strip removes and `_split_rows` does not split at
_strip_pads = st.text(st.sampled_from(
    [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028",
     "\u3000"]), max_size=2)


@st.composite
def _csv_bytes(draw):
    """CSV bytes: rows, padded at either end by characters that str.strip
    removes, and blank or whitespace-only lines, with mixed line ends,
    perhaps a byte order mark, perhaps a bad row or header, and perhaps a
    byte that is not UTF-8, anywhere, so that of two faults either may come
    first.
    """
    values = draw(st.lists(st.sampled_from(["1", "-0", " 2.5 ", "1e3", "\t-7\t", "0.125"]),
                           max_size=12))
    lines = ["t,value"] + [f"{i},{v}" for i, v in enumerate(values)]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_strip_pads))
    fault = draw(st.sampled_from(["none", "row", "header"]))
    if fault == "row":
        bad = draw(st.sampled_from(["2,zero", "1,2,3", "5", "1_0,2", "\u0663,2", "x\x0cy"]))
        lines.insert(draw(st.integers(1, len(lines))), bad)
    elif fault == "header":
        lines[lines.index("t,value")] = draw(st.sampled_from(["t;value", "value,t", "t,v,x"]))
    lines = [draw(_strip_pads) + ln + draw(_strip_pads) if ln.strip() else ln for ln in lines]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(ln + end for ln, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    raw = ("\ufeff" * draw(st.booleans()) + text).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80"])) + raw[at:]
    return raw


def _csv_outcome(raw):
    """The rows of `raw` as bytes, or the class and message of its error."""
    try:
        path = read_path_csv(io.BytesIO(raw))
    except RoughTVError as exc:
        return type(exc), str(exc)
    return path.times.tobytes(), path.values.tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(raw=_csv_bytes(), size=st.integers(1, 64))
def test_csv_pieces_never_change_the_outcome(raw, size):
    # fails if a piece is cut inside a "\r\n" and the line count is not
    # corrected, if a cut misses a line break of `_split_rows`, or if the
    # reader names the fault its pieces meet first, not the first in the file
    want = _csv_outcome(raw)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pathio, "PIECE_BYTES", size)
        assert _csv_outcome(raw) == want


def _read_rows_stripping_every_line(fh):
    """`pathio._read_rows` as it was when it stripped every line before
    `loadtxt` saw it, kept as the reference of the reader's outcome."""
    header = None
    blocks = []
    offset = lines_before = 0
    for piece in pathio._pieces(fh):
        try:
            text, bad = piece.decode("utf-8"), None
        except UnicodeDecodeError as exc:
            text, bad = piece[:exc.start].decode("utf-8"), exc
        if not offset:
            text = text.removeprefix("\ufeff")
        split = pathio._split_rows(text)
        lines_before += len(split) - 1
        if bad is not None:
            split.pop()
        lines = [s for s in map(str.strip, split) if s]
        if header is None and lines:
            header = lines.pop(0)
            if header.replace(" ", "") != pathio.HEADER:
                raise CsvFormatError(f"expected header '{pathio.HEADER}', got '{header}'")
        if lines:
            try:
                data = pathio._parse_rows(lines)
            except ValueError:
                raise pathio._first_bad_row(lines) from None
            if data.shape[1] != 2:
                raise pathio._first_bad_row(lines)
            blocks.append(data)
        if bad is not None:
            raise CsvFormatError(f"not UTF-8 text: {bad.reason} at byte offset "
                                 f"{offset + bad.start}, line {lines_before + 1}")
        offset += len(piece)
    if header is None:
        raise CsvFormatError("empty CSV")
    return np.concatenate(blocks or [np.empty((0, 2))])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(raw=_csv_bytes(), size=st.integers(1, 64))
def test_csv_lines_read_as_split_give_what_stripped_lines_give(raw, size):
    # fails if `loadtxt` takes a padded line as split to other doubles than
    # the stripped line, or takes a line the stripped read rejects, if a
    # rejected piece is not read again stripped, or if `loadtxt` warns on
    # a piece of blank lines
    for piece_bytes in (size, pathio.PIECE_BYTES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pathio, "PIECE_BYTES", piece_bytes)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _csv_outcome(raw)
            patch.setattr(pathio, "_read_rows", _read_rows_stripping_every_line)
            assert got == _csv_outcome(raw)


_grid_points = st.sets(st.integers(1, 40), max_size=12)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(f_points=_grid_points, g_points=_grid_points,
       f_zero=st.sampled_from([-0.0, 0.0]), g_zero=st.sampled_from([-0.0, 0.0]))
def test_merge_times_is_union1d(f_points, g_points, f_zero, g_zero):
    # the grids share times, and start at 0.0 or -0.0; of two equal times
    # f's is kept, where np.union1d's unstable sort may keep either zero
    f = make_path([f_zero] + sorted(k / 8 for k in f_points), [0.0] * (len(f_points) + 1))
    g = make_path([g_zero] + sorted(k / 8 for k in g_points), [0.0] * (len(g_points) + 1))
    merged = merge_times(f, g)
    assert np.array_equal(merged, np.union1d(f.times, g.times))
    f_wins = {**{t: t for t in g.times.tolist()}, **{t: t for t in f.times.tolist()}}
    assert merged.tobytes() == np.array(sorted(f_wins.values())).tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(f_values=st.lists(st.integers(0, 2), min_size=1, max_size=16),
       g_values=st.lists(st.integers(0, 2), min_size=1, max_size=16))
def test_common_jump_times_is_intersect1d(f_values, g_values):
    # step paths on two grids that share every other time, so jumps can coincide
    f = make_path(np.arange(len(f_values)) / 2.0, f_values, Mode.STEP)
    g = make_path(np.arange(len(g_values)) / 4.0, g_values, Mode.STEP)
    want = np.intersect1d(f.jump_times(), g.jump_times())
    assert common_jump_times(f, g).tobytes() == want.tobytes()


def _ties(exp):
    """Doubles of decimal exponent `exp` (-6..15) halfway between two 17-digit
    decimals: odd / 2**(17 - exp), so that x * 10**(16 - exp) ends in .5."""
    low = math.ceil(2 ** 17 * Fraction(5) ** exp)
    high = math.ceil(min(2 ** 18 * Fraction(5) ** (exp + 1), Fraction(2 ** 53)))
    return st.integers(low // 2, (high - 2) // 2).map(lambda j: (2 * j + 1) * 2.0 ** (exp - 17))


# doubles for the array route of the CSV writer: every decimal exponent,
# subnormals and zeros (formatted by "%.17g"), powers of ten and their
# neighbours, both sides of the fixed/exponent layouts (exponents -5/-4 and
# 16/17), integers to and past 2**53, and 17-digit ties, which "%.17g"
# rounds to even
_array_route_floats = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0, exclude_max=True),
              st.integers(-310, 308)).filter(math.isfinite),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-8, 18).flatmap(lambda k: st.sampled_from(
        [np.nextafter(10.0 ** k, 0.0), 10.0 ** k, np.nextafter(10.0 ** k, math.inf)])),
    st.floats(9e-6, 2e-4),
    st.floats(9e15, 2e17),
    st.integers(0, 2 ** 60).map(float),
    st.integers(-6, 15).flatmap(_ties),
    st.sampled_from([0.0, 5e-324, 1000000000000000.25, 9.9999999999999995e-07,
                     9.999999999999999e16, 1e17, 1e-7, 2.0 ** 53 + 2.0]),
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rows=st.lists(st.tuples(_array_route_floats, _array_route_floats),
                     min_size=1, max_size=32))
def test_csv_array_route_text_is_percent_17g(rows):
    # fails if hi + rint(lo) becomes hi + floor(lo) (ties and halves move),
    # or if the exponent is moved on hi alone (9.9999999999999995e-07 has
    # hi == 1e16 and lo < 0, so it would print as 1e-06)
    text = pathio._format_rows(np.array(rows).ravel())
    assert text == "".join("%.17g,%.17g\n" % row for row in rows)


def _pair_swings(v):
    """Pair off the swings of the extrema v, smallest first: (levels, counts)."""
    m = len(v)
    prev = list(range(-1, m - 1))
    succ = list(range(1, m)) + [-1]  # -2 marks a removed extremum
    heap = [(abs(v[i + 1] - v[i]), i, i + 1) for i in range(m - 1)]
    heapq.heapify(heap)
    levels = []  # distinct popped swings, increasing
    counts = []  # swings retired at each level
    while heap:
        s, i, j = heapq.heappop(heap)
        if succ[i] != j:
            continue  # stale: the swing i -> j no longer exists
        h, k = prev[i], succ[j]
        if h == -1:  # first swing: drop the first extremum
            prev[j] = -1
            succ[i] = -2
            retired = 1
        elif k == -1:  # last swing: drop the last extremum
            succ[i] = -1
            succ[j] = -2
            retired = 1
        else:  # inner swing: h -> i -> j -> k becomes h -> k
            succ[h] = k
            prev[k] = h
            succ[i] = succ[j] = -2
            heapq.heappush(heap, (abs(v[k] - v[h]), h, k))
            retired = 2
        if levels and levels[-1] == s:
            counts[-1] += retired
        else:
            levels.append(s)
            counts.append(retired)
    return levels, counts


def swing_pieces_reference(extrema):
    # an independent pairing: a heap pops the smallest swing left each time;
    # a constant path's one extremum pairs nothing
    levels, counts = _pair_swings(extrema)
    coef_a = list(accumulate(c * level for c, level in zip(counts[::-1], levels[::-1])))
    coef_b = list(accumulate(float(c) for c in counts[::-1]))
    return [0.0] + levels, coef_a[::-1], coef_b[::-1]


_signed_magnitudes = st.builds(
    lambda m, negative: -m if negative else m,
    st.floats(1e-300, 1e300), st.booleans(),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=st.one_of(
    st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=40),
    st.lists(_signed_magnitudes, min_size=2, max_size=40),
))
def test_swing_pieces_match_the_heap_pairing(values):
    extrema = reduce_to_extrema(np.asarray(values)).tolist()
    # repr tells the float 1.0 from the int 1, and -0.0 from 0.0
    assert repr(swing_pieces(extrema)) == repr(swing_pieces_reference(extrema))


def _expanding_zigzag(count):
    # 0, 1, -1, 1.001, -1.001, ...: every push retires the first swing
    heights = 1.0 + 0.001 * np.arange(count)
    return np.concatenate(([0.0], np.column_stack((heights, -heights)).ravel()))


@pytest.mark.parametrize("values", [
    pytest.param(contracting_zigzag(2000), id="contracting-zigzag"),
    pytest.param(_expanding_zigzag(2000), id="expanding-zigzag"),
    pytest.param(gen_zigzag(1.5, 6).values, id="nested-zigzag"),
    pytest.param(gen_brownian(65537, 1, 7).values, id="brownian-65537"),
])
def test_swing_pieces_match_the_heap_pairing_at_extreme_depths(values):
    # the stack grows to every extremum, stays at three, or fuses inner swings
    extrema = reduce_to_extrema(values).tolist()
    assert swing_pieces(extrema) == swing_pieces_reference(extrema)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(f_values=_values, g_values=_values,
       f_exponent=st.integers(-150, 150), g_exponent=st.integers(-150, 150),
       p=st.sampled_from([1.05, 1.5, 1.9, 2.5, 4.0]),
       slack=st.sampled_from([0.01, 0.1, 0.5, 0.9]))
def test_every_bound_report_is_finite_or_raises(f_values, g_values, f_exponent, g_exponent,
                                                p, slack):
    # 1/p + 1/q = 1 + slack/p: the Young regime, near its boundary at slack 0.01
    q = 1.0 / (1.0 - (1.0 - slack) / p)
    f = _scaled_path(f_values, f_exponent)
    g = _scaled_path(np.resize(g_values, len(f_values)).tolist(), g_exponent)
    for name, check in BOUND_CHECKS.items():
        try:
            rep = check(SampledPair(f, g), p, q)
        except NonFiniteValueError:
            continue
        assert all(map(math.isfinite, (rep.lhs, rep.rhs, rep.margin, rep.constant_used))), name


def _verdicts(f, g, p, q):
    """Each variant's verdict on the pair (f, g), or the error it raises."""
    verdicts = {}
    for name, check in BOUND_CHECKS.items():
        try:
            verdicts[name] = check(SampledPair(f, g), p, q).passed
        except RoughTVError as exc:
            verdicts[name] = type(exc).__name__
    return verdicts


@settings(derandomize=True, deadline=None, max_examples=60)
@given(f_values=_values, g_values=_values, j=st.integers(-60, 60), k=st.integers(-60, 60),
       p=st.sampled_from([1.05, 1.5, 1.9, 2.5]), slack=st.sampled_from([0.1, 0.5, 0.9]))
def test_every_verdict_is_the_same_at_every_scale(f_values, g_values, j, k, p, slack):
    # every inequality is homogeneous: (2^j f, 2^k g) multiplies each lhs,
    # rhs and term scale by 2^(j + k), so no verdict may depend on j or k;
    # with rhs = lhs / 2 every lhs above the rounding allowance is violated
    q = 1.0 / (1.0 - (1.0 - slack) / p)
    f, g = _scaled_path(f_values, 0), _scaled_path(g_values, 0)
    scaled = scale_path(f, 2.0 ** j), scale_path(g, 2.0 ** k)
    assert _verdicts(*scaled, p, q) == _verdicts(f, g, p, q)
    with mock.patch.object(integrals, "bound_report", _half_rhs):
        half = _verdicts(f, g, p, q)
        assert _verdicts(*scaled, p, q) == half


# dyadic samples in [-4; 4] on a 2^-8 grid: adding +-2^j, j in [-50, 44],
# to them is exact, and so is every difference of the shifted samples
_dyadic = st.lists(st.integers(-1024, 1024), min_size=2, max_size=10)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(f_ints=_dyadic, g_ints=_dyadic, j=st.integers(-50, 44), sign=st.sampled_from([-1, 1]),
       modes=st.tuples(*[st.sampled_from(list(Mode))] * 2),
       p=st.sampled_from([1.05, 1.5, 1.9, 2.5]), slack=st.sampled_from([0.1, 0.5, 0.9]))
def test_every_verdict_is_the_same_for_f_plus_a_constant(f_ints, g_ints, j, sign, modes,
                                                         p, slack):
    # every check but integral-pvar-remark reads f only through f - f(a) or
    # its differences, so adding c = +-2^j to f moves no lhs, rhs or term
    # scale; unpatched and with rhs = lhs / 2, no verdict may move
    q = 1.0 / (1.0 - (1.0 - slack) / p)
    f = make_path(np.linspace(0.0, 1.0, len(f_ints)), np.ldexp(f_ints, -8), modes[0])
    g = make_path(np.linspace(0.0, 1.0, len(g_ints)), np.ldexp(g_ints, -8), modes[1])
    shifted = make_path(f.times, f.values + sign * 2.0 ** j, f.mode)
    assert np.array_equal(shifted.values - sign * 2.0 ** j, f.values)

    def verdicts(f):
        out = _verdicts(f, g, p, q)
        del out["integral-pvar-remark"]
        return out

    assert verdicts(shifted) == verdicts(f)
    with mock.patch.object(integrals, "bound_report", _half_rhs):
        assert verdicts(shifted) == verdicts(f)


def _value_reference(profile, delta):
    # TvProfile.value on NumPy scalars, before it read list copies
    delta = float(delta)
    bp, coef_a, coef_b = map(np.array, profile.pieces)
    if coef_a.size == 0 or delta >= bp[-1]:
        return 0.0
    j = bisect_right(bp, delta) - 1
    return max(float(coef_a[j] - coef_b[j] * delta), 0.0)


def _bits(x):
    return type(x), struct.pack("<d", x)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=_values, exponent=st.integers(-300, 300),
       fractions=st.lists(st.floats(0.0, 1.5), max_size=8))
def test_profile_value_has_the_bits_of_the_numpy_scalar_form(values, exponent, fractions):
    profile = tv_profile(_scaled_path(values, exponent))
    osc = profile.oscillation
    deltas = [0.0, 5e-324, 1e308, math.inf] + [f * osc for f in fractions]
    for b in profile.pieces[0]:
        deltas += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
    for delta in deltas:
        if delta >= 0:
            with np.errstate(over="ignore"):  # b * 1e308 on NumPy scalars
                want = _value_reference(profile, delta)
            assert _bits(profile.value(delta)) == _bits(want), delta


_json_leaves = st.one_of(
    st.booleans(), st.none(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
    st.text(st.characters(codec="utf-8"), max_size=6),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u2028", "\x7f"]),
)
# lists of one scalar type, as a report's windows, iterations and spans are,
# and lists that mix ints with a bool
_json_floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
_json_flat_lists = st.one_of(
    st.lists(_json_floats, max_size=6), st.lists(_json_floats, max_size=6).map(tuple),
    st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6),
    st.lists(st.booleans(), max_size=4), st.lists(st.none(), max_size=3),
    st.lists(st.text(st.characters(codec="utf-8"), max_size=4), max_size=4),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(lambda xs: xs + [True]),
)
_json_trees = st.recursive(_json_leaves, lambda children: st.one_of(
    _json_flat_lists,
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), children, max_size=4),
), max_leaves=20)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(tree=_json_trees)
def test_to_json_equals_the_recursive_reference(tree):
    assert to_json(tree) == to_json_reference(tree)


# every ASCII character, DEL, NEL, U+2028, a letter beyond ASCII, a lone
# surrogate and a character beyond the BMP
_json_chars = st.one_of(
    st.characters(max_codepoint=0x7f),
    st.sampled_from(["\x7f", "\x85", " ", "\xe9", "\ud800", "\U0001f600"]),
    st.characters(),
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(text=st.text(_json_chars, max_size=16))
def test_report_strings_are_escaped_as_json_dumps_escapes_them(text):
    assert cli.to_json(text) == json.dumps(text, ensure_ascii=False)
