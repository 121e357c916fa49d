import csv
import io
import math
import os
import re
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from conftest import random_corpus
from roughtv.errors import (
    BadCountError,
    BadExponentError,
    BadParameterError,
    CsvFormatError,
    EmptyIntervalError,
    InvalidPartitionError,
    LengthMismatchError,
    NonFiniteValueError,
    NonMonotoneTimesError,
    OutOfSpanError,
)
from roughtv.paths import (
    Mode,
    Partition,
    SampledPath,
    TaggedPartition,
    add_paths,
    gen_brownian,
    gen_counterexample_fx,
    gen_zigzag,
    make_path,
    osc_from_start,
    oscillation,
    restrict,
    scale_path,
    shift_path,
)
from roughtv import pathio
from roughtv.norms import seminorm_on
from roughtv.pathio import read_path_csv, write_path_csv
from roughtv.truncation import total_variation


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------
def test_make_path_minimal():
    p = make_path([0.0, 1.0], [0.0, 1.0])
    assert len(p) == 2 and p.mode is Mode.LINEAR
    # times whose span overflows float64 are still ordered, with no NumPy warning
    assert len(make_path([-1e308, 1.7976931348623157e308], [0.0, 0.0])) == 2


def test_make_path_rejects_bad_input():
    with pytest.raises(NonMonotoneTimesError):
        make_path([0.0, 0.0], [0.0, 1.0])
    with pytest.raises(LengthMismatchError):
        make_path([0.0, 1.0], [0.0])
    with pytest.raises(NonFiniteValueError):
        make_path([0.0, 1.0], [0.0, np.nan])
    with pytest.raises(NonFiniteValueError):
        make_path([0.0, np.inf], [0.0, 1.0])
    with pytest.raises(LengthMismatchError, match="^times and values must be 1-d sequences$"):
        SampledPath(np.zeros((2, 2)), np.zeros((2, 2)))


def test_tent_is_valid(tent):
    assert tent.values.tolist() == [0.0, 1.0, 0.0]


def test_paths_are_immutable(tent):
    with pytest.raises(ValueError):
        tent.values[0] = 5.0


@pytest.mark.parametrize("f_mode, g_mode, values, mode", [
    ("linear", "linear", [1.0, 0.5, 2.0], Mode.LINEAR),
    ("linear", "step", [1.0, 0.5, 2.0], Mode.STEP),
    ("step", "linear", [1.0, 0.0, 2.0], Mode.STEP),
    ("step", "step", [1.0, 0.0, 2.0], Mode.STEP),
])
def test_add_paths_on_different_grids(f_mode, g_mode, values, mode):
    # f is 0 then 1 on [0; 1]; g samples 1, 0, 1 at 0, 1/2, 1; at t = 1/2
    # a linear f reads 1/2 and a step f still 0
    f = make_path([0.0, 1.0], [0.0, 1.0], f_mode)
    g = make_path([0.0, 0.5, 1.0], [1.0, 0.0, 1.0], g_mode)
    total = add_paths(f, g)
    assert total.times.tolist() == [0.0, 0.5, 1.0]
    assert total.values.tolist() == values
    assert total.mode is mode


@pytest.mark.parametrize("transform", [
    lambda f: scale_path(f, 2.0),
    lambda f: shift_path(f, 1e308),
    lambda f: add_paths(f, f),
])
def test_overflowing_transforms_raise_without_a_warning(transform):
    # the values overflow to inf, which the path rejects; NumPy's overflow
    # warning would be an error under the suite's error::RuntimeWarning
    f = make_path([0.0, 1.0], [1e308, 1.5e308])
    with pytest.raises(NonFiniteValueError, match="times and values must be finite"):
        transform(f)


# ---------------------------------------------------------------------------
# restrict
# ---------------------------------------------------------------------------
def test_restrict_left_half(tent):
    r = restrict(tent, 0.0, 1.0)
    assert r.times.tolist() == [0.0, 1.0]
    assert r.values.tolist() == [0.0, 1.0]


def test_restrict_interpolates(tent):
    r = restrict(tent, 0.5, 1.5)
    assert r.values.tolist() == [0.5, 1.0, 0.5]


def test_restrict_empty_interval(tent):
    with pytest.raises(EmptyIntervalError):
        restrict(tent, 1.0, 1.0)
    with pytest.raises(OutOfSpanError):
        restrict(tent, -1.0, 1.0)
    with pytest.raises(OutOfSpanError, match=r"^query outside span \[0.0; 2.0\]$"):
        tent.values_at([-0.5, 1.0])


@pytest.mark.parametrize("mode", list(Mode))
def test_a_nan_query_is_out_of_span(mode):
    # a step path once answered its last sample, a linear one NaN
    path = make_path([0.0, 1.0], [0.0, 1.0], mode)
    with pytest.raises(OutOfSpanError, match=r"^query outside span \[0.0; 1.0\]$"):
        path.values_at([math.nan])
    with pytest.raises(OutOfSpanError, match=r"^query outside span \[0.0; 1.0\]$"):
        path.value_at(math.nan)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("c, d", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_a_nan_bound_is_an_empty_interval(mode, c, d):
    path = make_path([0.0, 0.5, 1.0], [0.0, 2.0, 1.0], mode)
    with pytest.raises(EmptyIntervalError, match=r"^need c < d, got \["):
        restrict(path, c, d)
    with pytest.raises(EmptyIntervalError, match=r"^need c < d, got \["):
        seminorm_on(path, c, d, 2.0)


def test_restrict_step_uses_right_limit():
    p = make_path([0.0, 1.0, 2.0], [0.0, 5.0, 7.0], Mode.STEP)
    r = restrict(p, 0.5, 1.5)
    # on [0;1) the step value is 0, at 1 it jumps to 5
    assert r.values.tolist() == [0.0, 5.0, 5.0]


def test_restrict_never_increases_oscillation():
    rng = np.random.default_rng(7)
    for path in random_corpus(seed=8, count=50, max_n=16):
        c, d = np.sort(rng.uniform(path.a, path.b, 2))
        if d - c < 1e-6:
            continue
        assert oscillation(restrict(path, c, d)) <= oscillation(path) + 1e-12


# ---------------------------------------------------------------------------
# elementary norms
# ---------------------------------------------------------------------------
def test_oscillation_examples(tent):
    assert oscillation(tent) == 1.0
    assert oscillation(make_path([0.0, 1.0], [3.0, 3.0])) == 0.0
    assert oscillation(make_path([0, 1, 2, 3], [0.0, 3.0, -1.0, 2.0])) == 4.0
    assert oscillation(make_path([0, 1, 2, 3], [0.0, 3.0, -1.0, 2.0])) == 4.0
    with pytest.raises(NonFiniteValueError):
        oscillation(make_path([0, 1], [-1e308, 1e308]))


def test_osc_from_start_examples(tent):
    assert osc_from_start(tent) == 1.0
    assert osc_from_start(make_path([0.0, 1.0], [5.0, 3.0])) == 2.0
    assert osc_from_start(make_path([0, 1, 2, 3], [1.0, -2.0, 4.0, 1.0])) == 3.0


def test_oscillation_sandwich():
    for path in random_corpus(seed=3, count=100):
        half = osc_from_start(path)
        full = oscillation(path)
        assert half <= full + 1e-15
        assert full <= 2.0 * half + 1e-15


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
def test_brownian_two_points():
    p = gen_brownian(2, 1.0, seed=5)
    assert len(p) == 2 and p.values[0] == 0.0


def test_brownian_deterministic():
    p1 = gen_brownian(257, 2.0, seed=42)
    p2 = gen_brownian(257, 2.0, seed=42)
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(p1.times, p2.times)


@pytest.mark.parametrize("n, horizon, seed", [
    (2, 1.0, 5), (3, 2.5, 0), (257, 2.0, 42), (4097, 1e-3, 9), (65536, 1.0, 601), (17, 1e6, 3)])
def test_brownian_bits_are_the_concatenated_running_sum(n, horizon, seed):
    # the array filled in place holds the bits of the concatenated steps
    steps = np.random.default_rng(seed).standard_normal(n - 1) * np.sqrt(horizon / (n - 1))
    reference = np.concatenate(([0.0], np.cumsum(steps)))
    p = gen_brownian(n, horizon, seed)
    assert p.values.tobytes() == reference.tobytes()
    assert p.times.tobytes() == np.linspace(0.0, horizon, n).tobytes()


def test_brownian_increment_variance():
    p = gen_brownian(4097, 1.0, seed=9)
    var = np.var(np.diff(p.values))
    assert abs(var - 1.0 / 4096) <= 0.2 / 4096


def test_brownian_rejects_bad_args():
    with pytest.raises(BadCountError):
        gen_brownian(1, 1.0, 0)
    with pytest.raises(BadParameterError):
        gen_brownian(10, 0.0, 0)


def test_zigzag_rejects_bad_args():
    with pytest.raises(BadExponentError, match="^zigzag exponent must satisfy p > 1$"):
        gen_zigzag(1.0, 3)
    with pytest.raises(BadCountError, match="^need at least one level$"):
        gen_zigzag(1.5, 0)


def test_zigzag_level_one():
    # ceil(2^0.5) = 2 tents of height 1 on [1/2; 1]
    z = gen_zigzag(1.5, 1)
    assert z.a == 0.5 and z.b == 1.0
    assert np.max(z.values) == 1.0
    assert np.sum(z.values == 1.0) == 2


def test_zigzag_zero_at_level_boundaries():
    z = gen_zigzag(1.7, 5)
    for n in range(1, 6):
        assert z.value_at(2.0 ** -n) == 0.0
    assert z.value_at(1.0) == 0.0


def test_zigzag_level_three_count():
    # level n=3: ceil(2^3.5) = 12 tents of height 1/4
    z = gen_zigzag(1.5, 3)
    peaks = (z.values == 0.25) & (z.times > 0.125) & (z.times < 0.25)
    assert np.sum(peaks) == 12


def test_fx_counterexample():
    f3 = gen_counterexample_fx(3.0)
    assert f3.mode is Mode.STEP
    jumps = np.abs(np.diff(f3.values))
    assert sorted(j for j in jumps if j > 0) == [1.0, 3.0]
    assert oscillation(f3) == 3.0
    assert total_variation(f3) == 4.0  # 1 + x
    with pytest.raises(BadParameterError):
        gen_counterexample_fx(1.0)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------
def test_partition_validation():
    with pytest.raises(InvalidPartitionError):
        Partition(())
    with pytest.raises(InvalidPartitionError):
        Partition((0, 0))
    with pytest.raises(InvalidPartitionError, match="^indices must be nonnegative$"):
        Partition((-1, 2))
    Partition((0, 2, 5)).validate_for(6)
    with pytest.raises(InvalidPartitionError):
        Partition((0, 2, 5)).validate_for(5)


def test_tagged_partition_validation():
    part = Partition((0, 2, 4))
    TaggedPartition(part, (1, 3))
    TaggedPartition(part, (0, 4))
    with pytest.raises(InvalidPartitionError):
        TaggedPartition(part, (3, 3))
    with pytest.raises(InvalidPartitionError):
        TaggedPartition(part, (1,))


def test_partition_indices_must_be_integers():
    # int() truncated 1.5 to 1; NumPy integers are indices
    assert Partition((0, np.int64(2), 3)).indices == (0, 2, 3)
    assert TaggedPartition(Partition((0, 2)), (np.intp(1),)).tags == (1,)
    for bad in ((0, 1.5, 3), (0, 1.0, 3), (0, np.float64(1.0), 3)):
        with pytest.raises(InvalidPartitionError, match="^indices must be integers$"):
            Partition(bad)
    with pytest.raises(InvalidPartitionError, match="^indices must be integers$"):
        TaggedPartition(Partition((0, 2)), (1.5,))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------
def test_csv_roundtrip(tmp_path):
    p = gen_brownian(65, 1.0, seed=1)
    dest = tmp_path / "walk.csv"
    write_path_csv(p, dest)
    q = read_path_csv(dest)
    assert np.array_equal(p.times, q.times)
    assert np.array_equal(p.values, q.values)


def test_csv_roundtrip_through_one_stream():
    # the writer fills a binary file object that the reader takes back
    p = gen_brownian(2 * pathio.PIECE_ROWS + 3, 1.0, seed=2)
    buf = io.BytesIO()
    write_path_csv(p, buf)
    buf.seek(0)
    q = read_path_csv(buf)
    assert p.times.tobytes() == q.times.tobytes()
    assert p.values.tobytes() == q.values.tobytes()


def test_csv_bytes_match_numpy_scalar_formatting():
    # rows are formatted from Python floats; NumPy float64 scalars format the same
    values = [0.0, -0.0, 5e-324, -2.2250738585072e-309, 1e308, -1e308,
              0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0e-200, 123456789.01234567]
    p = make_path(np.linspace(0.0, 1.0, len(values)) / 3.0, values)
    buf = io.BytesIO()
    write_path_csv(p, buf)
    rows = [f"{t:.17g},{v:.17g}" for t, v in zip(p.times, p.values)]
    assert buf.getvalue() == ("\n".join(["t,value"] + rows) + "\n").encode("ascii")


def _stream(text):
    """A binary file object holding `text` as UTF-8, as the reader takes."""
    return io.BytesIO(text.encode("utf-8"))


def test_csv_header_enforced():
    with pytest.raises(CsvFormatError):
        read_path_csv(_stream("time,val\n0,0\n1,1\n"))
    with pytest.raises(CsvFormatError):
        read_path_csv(_stream("t,value\n0,zero\n"))


# The reader and writer before rows were parsed by np.loadtxt, kept as the
# references the current ones must equal.
def read_path_csv_reference(src, mode=Mode.LINEAR):
    if hasattr(src, "read"):
        text = src.read()
    else:
        with open(src, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    # rows end at "\n", "\r\n" and "\r", as in the csv module
    rows = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = [ln.strip() for ln in rows if ln.strip()]
    if not lines:
        raise CsvFormatError("empty CSV")
    if lines[0].replace(" ", "") != "t,value":
        raise CsvFormatError(f"expected header 't,value', got '{lines[0]}'")
    times = []
    values = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"expected 't,value' row, got '{ln}'")
        try:
            times.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise CsvFormatError(f"non-numeric row '{ln}'") from exc
    return SampledPath(np.asarray(times), np.asarray(values), Mode(mode))


def write_path_csv_reference(path, dest):
    lines = ["t,value"]
    for t, v in zip(path.times.tolist(), path.values.tolist()):
        lines.append(f"{t:.17g},{v:.17g}")
    dest.write(("\n".join(lines) + "\n").encode("utf-8"))


@pytest.mark.parametrize("text, message", [
    ("time,val\n0,0\n1,1\n", "expected header 't,value', got 'time,val'"),
    ("", "empty CSV"),
    ("\n \t\n\r\n", "empty CSV"),
    ("t,value\n0,1,2\n1,2,3\n", "expected 't,value' row, got '0,1,2'"),
    ("t,value\n0\n1\n", "expected 't,value' row, got '0'"),
    ("t,value\n0,1\n1,2,3\n2,3\n", "expected 't,value' row, got '1,2,3'"),
    ("t,value\n0,1\n1\n2,3\n", "expected 't,value' row, got '1'"),
    ("t,value\n0,1\n1,2,\n", "expected 't,value' row, got '1,2,'"),
    ("t,value\n0,1\n1,\n", "non-numeric row '1,'"),
    ("t,value\n0,zero\n", "non-numeric row '0,zero'"),
    ("t,value\n0,0\n1,2 # c\n", "non-numeric row '1,2 # c'"),
    # the first bad row is named, whichever check it fails
    ("t,value\n0,x\n1,2,3\n", "non-numeric row '0,x'"),
    ("t,value\n0,1,2\n1,x\n", "expected 't,value' row, got '0,1,2'"),
    # digit separators and non-ASCII digits: float() takes them, loadtxt does not
    ("t,value\n0,0\n1_0,2\n", "non-numeric row '1_0,2'"),
    ("t,value\n0,0\n\u0663,2\n", "non-numeric row '\u0663,2'"),
])
def test_csv_error_messages(text, message):
    with pytest.raises(CsvFormatError) as exc:
        read_path_csv(_stream(text))
    assert str(exc.value) == message


def _first_bad_row_by_rows(rows):
    """The message of the first bad row, by one `_parse_rows` call per row."""
    for ln in rows:
        if ln.count(",") != 1:
            return f"expected 't,value' row, got '{ln}'"
        try:
            pathio._parse_rows([ln])
        except ValueError:
            return f"non-numeric row '{ln}'"
    return "malformed rows"


def test_csv_bad_rows_found_by_one_scan_of_the_piece(monkeypatch):
    # long files with bad rows at random places: the reader names the row
    # the row-by-row scan and the float() reader name; each piece before
    # the failing one parses once as split, the failing piece once as split
    # and once stripped, then each of its rows once, up to and including
    # the first bad row
    rng = np.random.default_rng(91)
    bad_rows = ["2,zero", "1,2,3", "5", "1,", "1_0,2", "0,x", ",1", "3;4"]
    parses = []
    counted = pathio._parse_rows

    def counting(rows):
        parses.append(len(rows))
        return counted(rows)

    for case in range(24):
        n = int(rng.integers(2000, 9000))
        rows = [f"{i},{v!r}" for i, v in enumerate(rng.normal(size=n).tolist())]
        for _ in range(int(rng.integers(1, 4))):
            rows[int(rng.integers(0, n))] = bad_rows[int(rng.integers(len(bad_rows)))]
        if case == 0:
            rows[-1] = "2,zero"
        text = "t,value\n" + "\n".join(rows) + "\n"
        want = _first_bad_row_by_rows(rows)
        parses.clear()
        monkeypatch.setattr(pathio, "_parse_rows", counting)
        with pytest.raises(CsvFormatError) as exc:
            read_path_csv(_stream(text))
        monkeypatch.undo()
        assert str(exc.value) == want
        if "1_0" not in want:
            with pytest.raises(CsvFormatError) as ref:
                read_path_csv_reference(io.StringIO(text))
            assert str(ref.value) == want
        # the lines of each piece as split, less the header of the first
        split = [pathio._split_rows(piece.decode()) for piece in pathio._pieces(_stream(text))]
        del split[0][0]
        bad = want.rsplit("'", 2)[1]
        k = next(k for k, piece in enumerate(split) if bad in piece)
        stripped = [ln for ln in map(str.strip, split[k]) if ln]
        scanned = stripped.index(bad) + (bad.count(",") == 1)
        assert parses == ([len(piece) for piece in split[:k + 1]] + [len(stripped)]
                          + [1] * scanned)


@pytest.mark.parametrize("text", [
    "t,value\r\n0,1\r\n0.5,-2\r\n1,3\r\n",
    "\n  \nt , value\n\n0,1\n \t \n0.5,-2\n\n1,3\n  \n",
    "t,value\n 0 , 1 \n\t0.5\t,\t-2\n1 ,3\n",
    "t,value\n+0,+1e0\n5e-1,-2\n1E0,3.\n",
    "t,value\n0,1e3\n",
    "t,value\n-0,-0.0\n",
    "t,value\n1e-320,1.7976931348623157e308\n",
])
def test_csv_accepted_forms_match_reference(text):
    p = read_path_csv(_stream(text))
    q = read_path_csv_reference(io.StringIO(text))
    # bytes, so that -0.0 and 0.0 differ
    assert p.times.tobytes() == q.times.tobytes()
    assert p.values.tobytes() == q.values.tobytes()


@pytest.mark.parametrize("row", [f"0,1{sep}1,2" for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]
                         + ["0,1\x0c1,2\x853,4"])
def test_csv_rows_end_only_at_line_breaks(row):
    # str.splitlines ends a line at a form feed, NEL, U+2028 and more; the
    # csv module, and so the reader, ends a row only at "\n", "\r\n", "\r"
    text = f"t,value\n{row}\n"
    assert len(list(csv.reader(io.StringIO(text, newline="")))) == 2
    message = f"expected 't,value' row, got '{row}'"
    assert _read_outcome(read_path_csv, _stream(text)) == message
    assert _read_outcome(read_path_csv_reference, io.StringIO(text)) == message


def test_csv_byte_order_mark(tmp_path):
    dest = tmp_path / "bom.csv"
    dest.write_text("t,value\n0,1\n1,2\n", encoding="utf-8-sig")
    assert dest.read_bytes().startswith(b"\xef\xbb\xbf")
    p = read_path_csv(dest)
    assert p.times.tolist() == [0.0, 1.0] and p.values.tolist() == [1.0, 2.0]


NON_UTF8 = {
    "start-byte": (b"t,value\n0,1\n1,\xff\n",
                   "invalid start byte at byte offset 14, line 3"),
    "bom-crlf": (b"\xef\xbb\xbft,value\r\n0,1\r\n\xe2\x28\xa1,2\r\n",
                 "invalid continuation byte at byte offset 17, line 3"),
    "cr-only": (b"t,value\r0,1\r1,\xff\r", "invalid start byte at byte offset 14, line 3"),
    "cr-only-later-row": (b"t,value\r0,1\r1,2\r2,\xff3\r",
                          "invalid start byte at byte offset 18, line 4"),
    "mixed-ends": (b"t,value\r\n0,1\r1,2\n\n2,3\r\n3,\xff\n",
                   "invalid start byte at byte offset 25, line 6"),
    "form-feed-row": (b"t,value\n0,1\x0c\n1,\xff\n",
                      "invalid start byte at byte offset 15, line 3"),
    "nel-row": (b"t,value\n0,1\xc2\x85\n1,\xff\n",
                "invalid start byte at byte offset 16, line 3"),
    "cut-at-end": (b"t,value\n0,1\n1,2\xe2\x82", "unexpected end of data at byte offset 15, line 3"),
    "later-row": (b"t,value\n" + b"".join(b"%d,0\n" % i for i in range(40)) + b"\xc0,1\n",
                  "invalid start byte at byte offset 198, line 42"),
}


@pytest.mark.parametrize("data, where", NON_UTF8.values(), ids=NON_UTF8)
def test_non_utf8_stream_is_named_like_a_file(data, where, tmp_path, monkeypatch):
    # a stream and a named file of the same bytes name the first bad byte
    # by its offset and line, wherever the pieces cut them
    dest = tmp_path / "bad.csv"
    dest.write_bytes(data)
    message = f"not UTF-8 text: {where}"
    assert _read_outcome(read_path_csv, dest) == message
    for size in (1, 2, 3, 5, 8, 13, 64, 1 << 16):
        monkeypatch.setattr(pathio, "PIECE_BYTES", size)
        assert _read_outcome(read_path_csv, io.BytesIO(data)) == message
        assert _read_outcome(read_path_csv, dest) == message


def test_a_rejected_non_utf8_file_is_opened_once(tmp_path, monkeypatch):
    dest = tmp_path / "bad.csv"
    dest.write_bytes(NON_UTF8["start-byte"][0])
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    monkeypatch.setattr(pathio, "open", counting_open, raising=False)
    with pytest.raises(CsvFormatError, match="byte offset 14, line 3$"):
        read_path_csv(dest)
    assert opened == [(dest, "rb")]


def test_csv_bom_crlf_padding_and_blank_lines(tmp_path):
    # each line is stripped once: padded rows, whitespace-only lines, CRLF
    # ends and a byte order mark give the rows and errors of the reference
    dest = tmp_path / "padded.csv"
    dest.write_bytes(b"\xef\xbb\xbf t , value \r\n \t \r\n\t0 , 1\r\n\r\n 0.5,-2 \r\n1,3\r\n  ")
    p = read_path_csv(dest)
    with open(dest, encoding="utf-8-sig") as fh:
        q = read_path_csv_reference(fh)
    assert p.times.tobytes() == q.times.tobytes()
    assert p.values.tobytes() == q.values.tobytes()
    assert p.values.tolist() == [1.0, -2.0, 3.0]
    dest.write_bytes(b"\xef\xbb\xbft,value\r\n 0 , 1 \r\n \r\n 1 , x \r\n")
    with pytest.raises(CsvFormatError, match="^non-numeric row '1 , x'$"):
        read_path_csv(dest)


def _read_outcome(read, src):
    try:
        p = read(src)
    except CsvFormatError as exc:
        return str(exc)
    # bytes, so that -0.0 and 0.0 differ
    return p.times.tobytes(), p.values.tobytes()


PIECE_TEXTS = {
    "crlf": "t,value\r\n0,1\r\n0.5,-2\r\n1,3\r\n",
    "lone-cr": "t,value\r0,1\r0.5,-2\r1,3\r",
    "blank-lines": "\n\n  \n\t\nt,value\n\n0,1\n \t \n\n0.5,-2\n\n1,3\n  \n",
    "padded": " t , value \n 0 , 1 \n\t0.5\t,\t-2\n1 ,3  \n  2 ,-0",
    "mixed": " \r\n\r\n t , value \r\n\t0 , 1\r\n\r\n 0.5,-2 \r1,3\n  ",
    "bad-header": "\n \r\n\ntime,value\n0,1\n",
    "blank": " \r\n\n\t\r \n",
}


@pytest.mark.parametrize("text", PIECE_TEXTS.values(), ids=PIECE_TEXTS)
def test_csv_pieces_match_reference(text, tmp_path, monkeypatch):
    # pieces of 1 to 12 bytes cut every line, the header and each "\r\n"
    # somewhere; from a file, a byte order mark leads the first piece
    dest = tmp_path / "pieces.csv"
    dest.write_bytes(("\ufeff" + text).encode("utf-8"))
    want = _read_outcome(read_path_csv_reference, io.StringIO(text))
    with open(dest, encoding="utf-8-sig") as fh:
        assert _read_outcome(read_path_csv_reference, fh) == want
    for size in range(1, 13):
        monkeypatch.setattr(pathio, "PIECE_BYTES", size)
        # the file is parsed at every size, not read back from the cache
        monkeypatch.setattr(pathio, "_read_cache", pathio._ReadCache())
        pieces = list(pathio._pieces(_stream(text)))
        assert b"".join(pieces) == text.encode("utf-8")
        assert all(piece.endswith((b"\n", b"\r")) for piece in pieces[:-1])
        assert not any(piece.endswith(b"\r") and after.startswith(b"\n")
                       for piece, after in zip(pieces, pieces[1:]))
        assert _read_outcome(read_path_csv, _stream(text)) == want
        assert _read_outcome(read_path_csv, dest) == want


def test_csv_crlf_straddling_a_piece_boundary(monkeypatch):
    # reads of 4: "t,va", "lue\r", "\n0,1", "\r\n"; a "\r" that ends the
    # bytes in hand waits for the next byte, so the "\r\n" stays whole
    monkeypatch.setattr(pathio, "PIECE_BYTES", 4)
    pieces = list(pathio._pieces(_stream("t,value\r\n0,1\r\n")))
    assert pieces == [b"t,value\r\n", b"0,1\r\n"]
    assert _read_outcome(read_path_csv, _stream("t,value\r\n0,1\r\n")) == (
        np.array([0.0]).tobytes(), np.array([1.0]).tobytes())


def test_csv_cr_only_file_streams(tmp_path, monkeypatch):
    # a file with "\r" line ends only is cut after its "\r"s, not carried
    # whole into one piece, and gives the rows of the reference
    rows = [f"{i / 8!r},{(-1) ** i * i / 3!r}" for i in range(200)]
    text = "t,value\r" + "\r".join(rows) + "\r"
    dest = tmp_path / "cr.csv"
    dest.write_bytes(text.encode("utf-8"))
    want = _read_outcome(read_path_csv_reference, io.StringIO(text))
    assert isinstance(want, tuple)
    monkeypatch.setattr(pathio, "PIECE_BYTES", 64)
    with open(dest, "rb") as fh:
        pieces = list(pathio._pieces(fh))
    assert len(pieces) > len(text) // 128
    assert max(map(len, pieces)) <= 2 * 64
    assert _read_outcome(read_path_csv, dest) == want


@pytest.mark.parametrize("bad, message", [
    ("2,zero", "non-numeric row '2,zero'"),
    ("1,2,3", "expected 't,value' row, got '1,2,3'"),
    ("  5 ", "expected 't,value' row, got '5'"),
])
def test_csv_first_bad_row_in_a_later_piece(bad, message, monkeypatch):
    # the bad row lies in a later piece, whole or cut by a read, and a
    # second bad row after it is not the one named
    rows = [f"{i},{i / 7!r}" for i in range(40)]
    for at in (25, 39):
        text = "t,value\n" + "\n".join(rows[:at] + [bad] + rows[at:] + ["x,y"]) + "\n"
        assert _read_outcome(read_path_csv_reference, io.StringIO(text)) == message
        for size in range(5, 60, 3):
            monkeypatch.setattr(pathio, "PIECE_BYTES", size)
            assert len(next(pathio._pieces(_stream(text)))) <= text.index(bad)
            assert _read_outcome(read_path_csv, _stream(text)) == message


def test_csv_writer_pieces_match_reference(tmp_path):
    # a piece one row short of, at, and one over the array route's cutoff;
    # one piece short of, at, and one over PIECE_ROWS rows, and four pieces
    rows = pathio.PIECE_ROWS
    cutoff = pathio._ARRAY_ROWS
    dest = tmp_path / "walk.csv"
    for n in (cutoff - 1, cutoff, cutoff + 1, rows - 1, rows, rows + 1, 3 * rows + 5):
        p = gen_brownian(n, 1.0, seed=n)
        ref = io.BytesIO()
        write_path_csv_reference(p, ref)
        pieces = []
        write_path_csv(p, types.SimpleNamespace(write=pieces.append))
        assert len(pieces) == -(-n // rows)
        assert b"".join(pieces) == ref.getvalue()
        buf = io.BytesIO()
        write_path_csv(p, buf)
        assert buf.getvalue() == ref.getvalue()
        write_path_csv(p, dest)
        assert dest.read_bytes() == ref.getvalue()


def _count_routes(monkeypatch):
    """Count the pieces formatted in arrays and the numbers sent to "%.17g"."""
    counts = {"arrays": 0, "dtoa": 0}
    format_rows, dtoa = pathio._format_rows, pathio._dtoa

    def counted_format_rows(cells):
        counts["arrays"] += 1
        return format_rows(cells)

    def counted_dtoa(x):
        counts["dtoa"] += 1
        return dtoa(x)

    monkeypatch.setattr(pathio, "_format_rows", counted_format_rows)
    monkeypatch.setattr(pathio, "_dtoa", counted_dtoa)
    return counts


@pytest.mark.parametrize("n", [16384, 65536])
def test_long_walks_are_written_by_the_array_route(n, monkeypatch):
    # every piece of a long walk is formatted in arrays, and no number of
    # it is handed to "%.17g" on its own
    counts = _count_routes(monkeypatch)
    p = gen_brownian(n, 1.0, seed=4)
    text = "".join(pathio._csv_pieces(p))
    assert counts == {"arrays": n // pathio.PIECE_ROWS, "dtoa": 0}
    ref = io.BytesIO()
    write_path_csv_reference(p, ref)
    assert text.encode("ascii") == ref.getvalue()


def test_array_route_sends_only_out_of_range_numbers_to_dtoa(monkeypatch):
    # the array route covers zeros and decimal exponents -6 to 16; 1e-6
    # (9.9999999999999995e-07) and 1e-7 lie below, 1e17 above
    counts = _count_routes(monkeypatch)
    cells = [0.0, -0.0, 1e-7, 1e17, 5e-324, 1e-6, 2.5e-6, -1.7e308,
             123456.789, 9.999999999999999e16, -3.0, 1.0]
    text = pathio._format_rows(np.array(cells))
    outside = [x for x in cells
               if x != 0.0 and not -6 <= int(("%.16e" % x).split("e")[1]) <= 16]
    assert counts["dtoa"] == len(outside) == 5
    assert text == ("%.17g,%.17g\n" * 6) % tuple(cells)


def test_write_text_cuts_the_file_when_a_later_piece_fails(tmp_path):
    dest = tmp_path / "out.csv"
    dest.write_bytes(b"old contents " * 1000)

    def pieces():
        yield "t,value\n0,1\n"
        raise ValueError("formatting failed")

    with pytest.raises(ValueError, match="formatting failed"):
        pathio.write_text(dest, pieces())
    assert dest.read_bytes() == b""


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_io_memory_is_one_piece(tmp_path):
    # a 65,536-row path is 1 MB of samples and 2.4 MB of text: the writer
    # holds one formatted piece, the reader one piece of text, the parsed
    # rows and the output arrays.  The writer's peak does not grow with n;
    # a quarter of the rows keeps the traced writes under a second
    dest = tmp_path / "walk.csv"
    quarter_peak = _traced_peak(write_path_csv, gen_brownian(16384, 1.0, seed=4), dest)
    write_peak = _traced_peak(write_path_csv, gen_brownian(65536, 1.0, seed=4), dest)
    read_peak = _traced_peak(read_path_csv, dest)
    assert write_peak <= 2 * 2**20
    assert read_peak <= 4 * 2**20
    assert write_peak <= 1.1 * quarter_peak


def _counting_read_rows(monkeypatch):
    """The file objects `pathio._read_rows` parses from now on, one a call."""
    parsed = []
    read_rows = pathio._read_rows

    def counting(fh):
        parsed.append(fh)
        return read_rows(fh)

    monkeypatch.setattr(pathio, "_read_rows", counting)
    return parsed


def test_a_second_read_of_the_same_bytes_parses_nothing(tmp_path, monkeypatch):
    cache = pathio._read_cache
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_path_csv(gen_brownian(3000, 1.0, seed=21), first)
    second.write_bytes(first.read_bytes())
    p = read_path_csv(first)
    parsed = _counting_read_rows(monkeypatch)
    for mode in (Mode.LINEAR, Mode.STEP):
        q = read_path_csv(second, mode)
        assert q.mode is mode
        assert q.times.tobytes() == p.times.tobytes()
        assert q.values.tobytes() == p.values.tobytes()
        assert not q.times.flags.writeable and not q.values.flags.writeable
    assert parsed == []
    assert cache.samples == 3000


def test_a_same_size_rewrite_is_parsed_afresh(tmp_path, monkeypatch):
    # neither the name nor the modification time says the bytes are the same
    dest = tmp_path / "walk.csv"
    dest.write_text("t,value\n0,1\n1,2\n")
    assert read_path_csv(dest).values.tolist() == [1.0, 2.0]
    info = dest.stat()
    dest.write_text("t,value\n0,1\n1,3\n")
    os.utime(dest, ns=(info.st_atime_ns, info.st_mtime_ns))
    assert dest.stat().st_mtime_ns == info.st_mtime_ns and dest.stat().st_size == info.st_size
    parsed = _counting_read_rows(monkeypatch)
    assert read_path_csv(dest).values.tolist() == [1.0, 3.0]
    assert len(parsed) == 1


@pytest.mark.parametrize("bad, error, message", [
    ("t,value\n0,1\n1,x\n", CsvFormatError, "non-numeric row '1,x'"),
    ("t,value\n0,1\n1,inf\n", NonFiniteValueError, "times and values must be finite"),
    ("t,value\n0,1\n0,2\n", NonMonotoneTimesError, "times must be strictly increasing"),
], ids=["parse", "non-finite", "non-monotone"])
def test_a_rejected_file_is_not_kept(tmp_path, monkeypatch, bad, error, message):
    cache = pathio._read_cache
    dest = tmp_path / "bad.csv"
    dest.write_text(bad)
    parsed = _counting_read_rows(monkeypatch)
    for _ in range(2):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            read_path_csv(dest)
    assert len(parsed) == 2 and cache.samples == 0
    dest.write_text("t,value\n0,1\n1,2\n")
    assert read_path_csv(dest).values.tolist() == [1.0, 2.0]
    assert len(parsed) == 3 and cache.samples == 2


def test_the_read_cache_holds_at_most_its_bound(tmp_path, monkeypatch):
    # least recently used first out; a file of more samples than the bound
    # is read but not kept
    cache = pathio._read_cache
    monkeypatch.setattr(pathio, "READ_CACHE_SAMPLES", 10)
    files = {}
    for seed, (name, n) in enumerate((("a", 4), ("b", 4), ("c", 4), ("big", 11))):
        files[name] = tmp_path / f"{name}.csv"
        write_path_csv(gen_brownian(n, 1.0, seed=seed), files[name])
    parsed = _counting_read_rows(monkeypatch)
    # a, b; a again (kept); c drops b; b drops a; big is not kept and drops
    # nothing; c and b again; a drops c
    reads = [("a", 1), ("b", 1), ("a", 0), ("c", 1), ("b", 1), ("big", 1), ("c", 0), ("b", 0),
             ("a", 1), ("b", 0), ("c", 1)]
    for name, parses in reads:
        before = len(parsed)
        read_path_csv(files[name])
        assert (name, len(parsed) - before) == (name, parses)
        assert cache.samples <= pathio.READ_CACHE_SAMPLES
    assert cache.samples == 8


def test_the_default_read_cache_keeps_a_65536_sample_walk(tmp_path):
    dest = tmp_path / "walk.csv"
    write_path_csv(gen_brownian(65536, 1.0, seed=4), dest)
    read_path_csv(dest)
    assert pathio._read_cache.samples == 65536


def test_a_file_rewritten_between_the_passes_is_kept_under_the_parsed_bytes(
        tmp_path, monkeypatch):
    cache = pathio._read_cache
    dest, twin = tmp_path / "walk.csv", tmp_path / "twin.csv"
    old, new, late = (b"t,value\n0,1\n1,%d\n" % k for k in (2, 3, 4))
    dest.write_bytes(old)
    read_path_csv(dest)
    # the same size as a kept file, so a digest pass reads `new` and misses;
    # the file then changes before the parse pass reads it
    dest.write_bytes(new)
    read_rows = pathio._read_rows

    def rewrite_then_read(fh):
        dest.write_bytes(late)
        return read_rows(fh)

    monkeypatch.setattr(pathio, "_read_rows", rewrite_then_read)
    assert read_path_csv(dest).values.tolist() == [1.0, 4.0]
    # `late` and `old` are kept under their own bytes, `new` is not
    parsed = _counting_read_rows(monkeypatch)
    for data, value, parses in ((late, 4.0, 0), (old, 2.0, 0), (new, 3.0, 1)):
        twin.write_bytes(data)
        assert read_path_csv(twin).values.tolist() == [1.0, value]
        assert len(parsed) == parses


def test_the_read_cache_is_consistent_under_threads(tmp_path, monkeypatch):
    # readers of several files, on a cache that holds two of them, never
    # see another file's columns and leave the counts consistent
    cache = pathio._read_cache
    monkeypatch.setattr(pathio, "READ_CACHE_SAMPLES", 2 * 64)
    paths = [gen_brownian(64, 1.0, seed=k) for k in range(4)]
    for k, p in enumerate(paths):
        write_path_csv(p, tmp_path / f"{k}.csv")
    errors = []

    def reader(k):
        try:
            for j in range(40):
                q = read_path_csv(tmp_path / f"{(k + j) % 4}.csv")
                assert q.values.tobytes() == paths[(k + j) % 4].values.tobytes()
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    entries = cache._entries.values()
    assert cache.samples == sum(times.size for _, times, _ in entries) <= 2 * 64
    assert sum(cache._sizes.values()) == len(entries)


def test_csv_header_only_is_length_mismatch():
    with pytest.raises(LengthMismatchError):
        read_path_csv(_stream("t,value\n"))


@pytest.mark.parametrize("row", ["1,1e500", "1,inf", "1,-inf", "1,nan", "1e500,0"])
def test_csv_non_finite_rows(row):
    with pytest.raises(NonFiniteValueError):
        read_path_csv(_stream(f"t,value\n0,0\n{row}\n"))


def test_csv_mode_out_of_band(tmp_path):
    p = gen_counterexample_fx(2.0)
    dest = tmp_path / "fx.csv"
    write_path_csv(p, dest)
    q = read_path_csv(dest, Mode.STEP)
    assert q.mode is Mode.STEP
    assert np.array_equal(p.values, q.values)
