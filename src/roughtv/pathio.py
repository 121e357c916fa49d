"""CSV ingestion and emission for sampled paths.

Schema: UTF-8, header ``t,value``, one decimal-notation row per sample.  The
interpolation mode travels out-of-band (CLI flag / function argument).
Numbers are written with 17 significant digits so files round-trip exactly
and regenerate byte-identically.

Rows are parsed by NumPy's ``loadtxt``, which rounds correctly (the same
doubles as Python's ``float``).  A field is an ASCII decimal number with an
optional sign, fraction and exponent (``-1``, ``+.5``, ``1e3``, ``2.5E-7``),
or ``inf`` / ``nan``, padded by whitespace if at all; ``inf``, ``nan`` and
numbers that overflow to infinity are then rejected as non-finite.  Digit
separators (``1_0``) and non-ASCII digits are rejected, although ``float``
would take them.  Blank lines are skipped; there is no comment syntax.  A
file that is not UTF-8 is a `CsvFormatError` too, which gives the offset
of the first byte that is not, and its line as the reader splits lines.

Both directions stream bytes, of a named file or a binary file object: the
reader decodes and parses PIECE_BYTES at a time, cut at whole line breaks,
and the writer formats PIECE_ROWS rows at a time, so either holds one
piece of text beside the arrays of the path, whatever its length.

A named regular file is read once per distinct content in a process: the
parsed columns are kept under the SHA-256 of the file's bytes, least
recently used first, READ_CACHE_SAMPLES samples (16 B each) in all, and a
file of more samples is not kept.  The parse pass hashes exactly the bytes
it parses, so a first read is one streamed pass and a file changed while it
is read is kept under the digest of what was parsed.  Only when a file of
the same byte size is held does a digest-only pass go first; if it finds
the digest, the path is built from the kept columns under any name and in
either mode, its checks run again, and no byte is parsed.  The name and the
modification time play no part.  Binary file objects and named files that
are not regular (pipes, FIFOs, devices) are parsed as streamed, and a file
that fails to parse or to make a path is never kept.

A piece of fewer than _ARRAY_ROWS rows is formatted by one "%.17g"
expression; a longer one gets the same bytes from NumPy arrays, without
one correctly rounded C conversion per number.  A number x of decimal
exponent X (10**X <= |x| < 10**(X+1)) with -6 <= X <= 16 prints the 17
digits of D = |x| * 10**(16 - X), rounded to an integer, ties to even.  The
scale 10**(16 - X) is an exact double (0 <= 16 - X <= 22), and Dekker's
product of the Veltkamp splits of |x| and of the scale gives the product
exactly as hi + lo in float64 arithmetic, with no fused multiply-add and no
long double (T. J. Dekker, "A floating-point technique for extending the
available precision", Numer. Math. 18, 1971).  X starts as
floor(log10|x|) and moves by one where hi + lo, compared exactly, lies
outside [10**16, 10**17).  Then hi is an even integer (above 2**53) and
|lo| <= ulp(hi) / 2, so D = hi + rint(lo), ties to even, as the C library
rounds; a D of 10**17 carries into X + 1.  Integer division cuts D into a
digit and four groups of four, whose characters come from a table of the
10,000 groups.  The "%g" layout (fixed notation for -4 <= X < 17, else the
exponent form; trailing zeros and a bare point dropped; "-0" for -0.0) is
a keep mask per exponent and count of trailing zeros over one template row
per number, and one compress of all the rows gives the text.  Zeros take
the arrays too; any other number (nonzero, below about 1e-6 or from 1e17
on) is formatted by "%.17g" alone and spliced in, so every double prints
as "%.17g" prints it, on every platform.

Every file the package writes (CSV paths, JSON reports, SVG plots) goes
through `write_text`, which rewrites an existing file in place: it is not
truncated when opened, only cut to the new length after the write if it
was longer.
"""

import collections
import contextlib
import functools
import os
import stat
import threading

import numpy as np

from .errors import CsvFormatError
from .paths import Mode, SampledPath

HEADER = "t,value"
# bytes per read of a CSV, and rows per formatted piece of one
PIECE_BYTES = 1 << 16
PIECE_ROWS = 1024
# the most samples the read cache holds in all: 2 MiB of columns
READ_CACHE_SAMPLES = 1 << 17

# A piece of at least this many rows is formatted in arrays, a shorter one
# by one "%" expression (see the module docstring).  The array route costs
# about 100 us a piece plus 0.4 us a row, the "%" route about 1.1 us a row
# of 17-digit numbers and 0.8 us a row of short dyadic decimals (NumPy 2.4,
# Python 3.11, 2-core Xeon VM, best of 9 rounds).  They cost the same at
# about 130 rows of walk data and 200 rows of an identity path on a
# dyadic grid; at 512 rows the arrays take 0.5 to 0.65 of the time.  The
# cutoff sits well above both, as a process's first array piece also pays
# about 0.6 ms for `_tables` and NumPy's first calls.
_ARRAY_ROWS = 512


def write_text(dest, pieces):
    """Write the str `pieces` as UTF-8 to the file named `dest`, in place.

    The pieces are encoded and written one at a time, so a caller can
    format a large file piece by piece; a whole text is one piece.  The
    bytes, the inode, the permissions of a new file and the following of
    symlinks are those of `open(dest, "w", encoding="utf-8")`, but the file
    is opened without O_TRUNC, written from its start and then, if it is a
    regular file that was longer, cut to the total length written.  On ext4
    (auto_da_alloc) truncating a non-empty file to zero makes its close
    start writeback of the new blocks, which costs more than the write
    itself for a small file that is rewritten on every run.  Devices and
    pipes (`/dev/null`) are written and never truncated.  If a write fails,
    or producing a later piece raises, a regular file is cut to 0 bytes, as
    far as that still works, and the error is raised: no tail of the old
    contents, and no head of the new, survives.
    """
    fd = os.open(dest, os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC, 0o666)
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        try:
            size = 0
            for piece in pieces:
                view = memoryview(piece.encode("utf-8"))
                size += len(view)
                while view:
                    view = view[os.write(fd, view):]
            if regular and info.st_size > size:
                os.ftruncate(fd, size)
        except BaseException:
            if regular:
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


# Veltkamp's splitter for float64, 2**27 + 1
_SPLITTER = 134217729.0
# 10**k for k = 0..22, the powers of ten that are doubles, and their splits
_POW10 = np.array([10.0 ** k for k in range(23)])
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
# A number's characters before the keep mask: padding, the sign, "0.000",
# the 17 digits (the last sixteen at a 4-byte boundary), a point, the 17
# digits again, "e-05", "e-06", the field separator and padding.  The keep
# mask takes a run of the first digits, the point and a run of the second,
# so the point goes after any digit, and the kept characters come in a few
# runs, which a boolean-mask compress copies fastest.
_TEMPLATE = np.frombuffer(b" -0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e-05e-06, ",
                          dtype=np.uint8)
_WIDTH = _TEMPLATE.size
_SEPARATOR = _WIDTH - 2


def _ranks(exp):
    """The ranks of the _TEMPLATE characters for "%.17g" of a number of
    decimal exponent `exp` (-6..16), but for its sign: a character is kept
    when its rank exceeds the number's count of trailing zero digits.

    A fraction digit's rank is its distance from the last digit, so
    trailing zeros go; the point has the rank of the first fraction digit,
    so it goes with the whole fraction; other characters of the layout are
    always kept (rank 99), the rest never (rank 0).
    """
    rank = [0] * _WIDTH
    fraction = list(range(17, 0, -1))
    if exp >= 0:
        # fixed: the first exp + 1 digits, then the point and the fraction
        rank[7:8 + exp] = [99] * (exp + 1)
        if exp < 16:
            rank[24] = 16 - exp
            rank[26 + exp:42] = fraction[exp + 1:]
    elif exp >= -4:
        # fixed: "0." and -exp - 1 zeros, then the digits (the first is not 0)
        rank[2:3 - exp] = [99] * (1 - exp)
        rank[7:24] = fraction
    else:
        # exponent form: a digit, the point, the fraction and "e-05" or "e-06"
        rank[7] = 99
        rank[24] = 16
        rank[26:42] = fraction[1:]
        rank[22 - 4 * exp:26 - 4 * exp] = [99] * 4
    rank[_SEPARATOR] = 99
    return rank


@functools.cache
def _tables():
    """The array route's tables, built on its first use: the characters of
    each group of four digits "0000" to "9999" as one uint32, the group's
    count of trailing zero digits, and the keep masks, but for the sign, by
    17 * (exp + 6) + trailing zeros, for the exponents -6..16 and 0 to 16
    trailing zeros (a zero counts 16: its first digit stays).

    Built at import they would cost a fresh process about 0.6 ms, mostly
    NumPy's first calls, which one that writes no long piece need not pay.
    """
    pairs = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), dtype=np.uint16)
    groups = np.empty((100, 100, 2), dtype=np.uint16)
    groups[:, :, 0] = pairs[:, None]
    groups[:, :, 1] = pairs
    zeros = np.array([2] + [1 - bool(k % 10) for k in range(1, 100)])
    keep = np.array([_ranks(exp) for exp in range(-6, 17)])[:, None, :] > np.arange(17)[:, None]
    return (groups.view(np.uint32).ravel(), (zeros + zeros // 2 * zeros[:, None]).ravel(),
            keep.reshape(-1, _WIDTH))


def _scaled(a, k):
    """hi, lo with hi + lo = a * 10**k exactly: Dekker's product of the
    Veltkamp splits of `a` and of the double 10**k (0 <= k <= 22)."""
    t = a * _SPLITTER
    a_hi = t - (t - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _dtoa(x):
    # one number by the C library, the route of the numbers out of range
    return "%.17g" % x


def _decimal(cells):
    """The decimal exponent (-6..16) and 17-digit integer of each number of
    `cells` (see the module docstring), and the indices of the zeros and of
    the numbers out of that range, whose exponent and integer are 0."""
    a = np.abs(cells)
    ok = (a >= 1e-7) & (a < 1e17)
    a[~ok] = 1.0
    exp = np.floor(np.log10(a)).astype(np.intp)
    np.clip(exp, -6, 16, out=exp)
    hi, lo = _scaled(a, 16 - exp)
    # log10 may miss a power of ten: move exp until 10**16 <= hi + lo < 10**17
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    moved = np.flatnonzero(low | high)
    if moved.size:
        exp[moved] += np.where(high[moved], 1, -1)
        ok[moved] &= exp[moved] >= -6
        exp[moved] = np.maximum(exp[moved], -6)
        hi[moved], lo[moved] = _scaled(a[moved], 16 - exp[moved])
    # hi is an even integer (ulp >= 2 above 2**53) and |lo| <= ulp(hi) / 2,
    # so hi + rint(lo) is hi + lo rounded to an integer, ties to even
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    other = np.flatnonzero(~ok)
    digits[other] = 0
    exp[other] = 0
    carry = np.flatnonzero(digits == 10 ** 17)
    digits[carry] = 10 ** 16
    exp[carry] += 1
    return exp, digits, other


def _format_rows(cells):
    """The CSV rows of `cells`, a time and a value in turn: the bytes of
    "%.17g,%.17g\\n" for each pair.  Zeros and numbers of decimal exponent
    -6 to 16 are formatted in arrays, the rest by `_dtoa`."""
    group_chars, group_zeros, keep_masks = _tables()
    exp, digits, other = _decimal(cells)
    # the first digit, then four groups of four
    top = digits // 10 ** 8
    first = top // 10 ** 8
    groups = np.empty((cells.size, 2, 2), dtype=np.intp)
    groups[:, 0, 1] = top - first * 10 ** 8
    groups[:, 1, 1] = digits - top * 10 ** 8
    groups[:, :, 0] = groups[:, :, 1] // 10 ** 4
    groups[:, :, 1] -= groups[:, :, 0] * 10 ** 4
    groups = groups.reshape(-1, 4)
    chars = np.empty((cells.size, _WIDTH), dtype=np.uint8)
    chars[:] = _TEMPLATE
    chars[:, 7] = np.take(_DIGITS, first)
    chars.view(np.uint32)[:, 2:6] = np.take(group_chars, groups)
    chars[:, 25:42] = chars[:, 7:24]
    # trailing zero digits: of the last group, then of each group before
    # it while all after it are zero (count // (4 * (3 - j)) is then 1,
    # else 0)
    zeros = np.take(group_zeros, groups)
    count = zeros[:, 3].copy()
    for j in (2, 1, 0):
        count += count // (4 * (3 - j)) * zeros[:, j]
    keep = np.take(keep_masks, 17 * (exp + 6) + count, axis=0)
    keep[:, 1] = np.signbit(cells)
    chars[1::2, _SEPARATOR] = ord("\n")
    for i in other[cells[other] != 0.0].tolist():
        text = _dtoa(cells[i]).encode("ascii")
        chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        keep[i] = np.arange(_WIDTH) < len(text)
        keep[i, _SEPARATOR] = True
    return chars[keep].tobytes().decode("ascii")


def _csv_pieces(path):
    """The CSV text of `path`: the header and PIECE_ROWS rows per piece."""
    head = HEADER + "\n"
    for start in range(0, len(path), PIECE_ROWS):
        block = slice(start, start + PIECE_ROWS)
        times = path.times[block]
        cells = np.empty(2 * times.size)
        cells[0::2] = times
        cells[1::2] = path.values[block]
        if cells.size >= 2 * _ARRAY_ROWS:
            yield head + _format_rows(cells)
        else:
            cells = cells.tolist()
            yield head + ("%.17g,%.17g\n" * (len(cells) // 2)) % tuple(cells)
        head = ""


def write_path_csv(path: SampledPath, dest):
    """Write `path` as UTF-8 CSV to a binary file object, or to the file `dest`."""
    pieces = _csv_pieces(path)
    if hasattr(dest, "write"):
        for piece in pieces:
            dest.write(piece.encode("utf-8"))
    else:
        write_text(dest, pieces)


def _parse_rows(rows):
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _first_bad_row(rows):
    """The error for the first row `_parse_rows` cannot take as a 't,value' pair.

    The rows are parsed one at a time: a row parses alone exactly when it
    parses among the others and has one comma.  Only a rejected piece, at
    most PIECE_BYTES and the line it carries, is scanned.
    """
    for ln in rows:
        if ln.count(",") != 1:
            return CsvFormatError(f"expected 't,value' row, got '{ln}'")
        try:
            _parse_rows([ln])
        except ValueError:
            return CsvFormatError(f"non-numeric row '{ln}'")
    return CsvFormatError("malformed rows")


def _pieces(fh):
    """The bytes of `fh` in whole lines, read PIECE_BYTES at a time.

    The bytes in hand (the carry and the new read) are cut after their
    last b"\n", or their last b"\r" but the final byte, and the rest is
    carried: a cut is a line break for `_split_rows` too, never inside a
    "\r\n" or a UTF-8 character, and a file with "\r" line ends streams
    too.  Only an empty read ends the file: a raw stream may return short
    reads before its end.
    """
    carry = b""
    while piece := fh.read(PIECE_BYTES):
        piece = carry + piece
        cut = max(piece.rfind(b"\n"), piece.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield piece[:cut]
        carry = piece[cut:]
    if carry:
        yield carry


def _split_rows(text):
    """`text` split at "\n", "\r\n" and "\r", where the csv module ends a row.

    `str.splitlines` would also split at a form feed, a vertical tab,
    "\x1c"-"\x1e", NEL and U+2028/U+2029.  A text with k line breaks gives
    k + 1 strings, the last one empty when the text ends with a break.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _parse_piece(rows):
    """The (k, 2) rows of a piece's lines, as `_split_rows` gives them.

    `loadtxt` skips empty lines and trims the whitespace (`str.isspace`)
    around each field, so the lines parse as split as they do stripped.  A
    whitespace-only line makes it raise, so a piece it rejects as split is
    stripped, rid of its blank lines and parsed again, and only a piece
    that fails that too is scanned for its first bad row.
    """
    try:
        data = _parse_rows(rows)
    except ValueError:
        pass
    else:
        if data.shape[1] == 2:
            return data
    lines = [s for s in map(str.strip, rows) if s]
    if not lines:
        return np.empty((0, 2))
    try:
        data = _parse_rows(lines)
    except ValueError:
        raise _first_bad_row(lines) from None
    if data.shape[1] != 2:
        raise _first_bad_row(lines)
    return data


def _read_rows(fh):
    """The times and values of the CSV bytes `fh`, decoded and parsed piece
    by piece, as two float64 arrays over `bytes` (`paths.read_only` keeps
    them): each piece's rows go to the bytes of their columns at once, and
    the columns are joined at the end, with no (n, 2) array of all rows.

    Every cut is a line break for `_split_rows`, and every field is
    parsed on its own, so the pieces give the rows, the errors and the
    doubles of one parse of the whole text.  Only the lines up to the
    header are stripped; the rest go to `_parse_piece` as split, and a
    piece with no non-empty line is skipped, since `loadtxt` warns on it.
    A piece that fails names the file's first bad row, since every piece
    before it parsed.  A byte that is not UTF-8 is named by its offset and
    its line, counted by the line breaks before it with no second read of
    the file, once the header and the rows of the complete lines before
    its line have passed the same checks: the first fault in file order is
    named, wherever the pieces are cut.
    """
    header = None
    times, values = [], []  # the bytes of each column, one part a piece
    offset = lines_before = 0
    for piece in _pieces(fh):
        try:
            text, bad = piece.decode("utf-8"), None
        except UnicodeDecodeError as exc:
            text, bad = piece[:exc.start].decode("utf-8"), exc
        if not offset:  # a byte order mark, as "utf-8-sig" drops it
            text = text.removeprefix("\ufeff")
        rows = _split_rows(text)
        lines_before += len(rows) - 1
        if bad is not None:
            rows.pop()  # the head of the bad byte's line
        if header is None:
            k = next((k for k, s in enumerate(rows) if s.strip()), len(rows))
            if k < len(rows):
                header = rows[k].strip()
                if header.replace(" ", "") != HEADER:
                    raise CsvFormatError(f"expected header '{HEADER}', got '{header}'")
            del rows[:k + 1]
        if any(rows):
            block = _parse_piece(rows)
            times.append(block[:, 0].tobytes())
            values.append(block[:, 1].tobytes())
        if bad is not None:
            raise CsvFormatError(f"not UTF-8 text: {bad.reason} at byte offset "
                                 f"{offset + bad.start}, line {lines_before + 1}")
        offset += len(piece)
    if header is None:
        raise CsvFormatError("empty CSV")
    # a header-only file gives empty columns, which SampledPath rejects;
    # the times' parts go once joined, so about 24 bytes a row are held
    times = np.frombuffer(b"".join(times))
    return times, np.frombuffer(b"".join(values))


class _ReadCache:
    """The (times, values) columns of the named CSV files read so far, by
    the SHA-256 digest of each file's bytes, least recently used first, at
    most READ_CACHE_SAMPLES samples in all (see the module docstring)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}  # digest -> (byte size, times, values)
        self._sizes = collections.Counter()  # byte size -> entries of that size
        self.samples = 0

    def holds_size(self, size):
        return size in self._sizes

    def get(self, digest):
        """The columns kept under `digest`, made the most recently used, or None."""
        with self._lock:
            entry = self._entries.pop(digest, None)
            if entry is None:
                return None
            self._entries[digest] = entry
            return entry[1:]

    def put(self, digest, size, times, values):
        """Keep the columns of `size` bytes of digest `digest`, dropping the
        least recently used entries until the samples fit the bound."""
        if times.size > READ_CACHE_SAMPLES:
            return
        with self._lock:
            if self._entries.pop(digest, None) is None:
                self._sizes[size] += 1
                self.samples += times.size
            self._entries[digest] = (size, times, values)
            while self.samples > READ_CACHE_SAMPLES:
                old_size, old_times, _ = self._entries.pop(next(iter(self._entries)))
                self._sizes[old_size] -= 1
                if not self._sizes[old_size]:
                    del self._sizes[old_size]
                self.samples -= old_times.size


_read_cache = _ReadCache()


class _Hashed:
    """A binary file whose reads are fed to the hash `digest` and counted
    in `size`, so a parse pass hashes exactly the bytes it parses."""

    def __init__(self, fh, digest):
        self._fh = fh
        self.digest = digest
        self.size = 0

    def read(self, n):
        piece = self._fh.read(n)
        self.digest.update(piece)
        self.size += len(piece)
        return piece


def _read_regular(fh, size, mode):
    """The path of the regular file `fh` of `size` bytes, through `_read_cache`."""
    import hashlib  # on the first named read, not at import: a cold start skips it

    if _read_cache.holds_size(size):
        digest = hashlib.sha256()
        while piece := fh.read(PIECE_BYTES):
            digest.update(piece)
        columns = _read_cache.get(digest.digest())
        if columns is not None:
            return SampledPath(*columns, Mode(mode))
        fh.seek(0)
    hashed = _Hashed(fh, hashlib.sha256())
    path = SampledPath(*_read_rows(hashed), Mode(mode))
    _read_cache.put(hashed.digest.digest(), hashed.size, path.times, path.values)
    return path


def read_path_csv(src, mode=Mode.LINEAR) -> SampledPath:
    """Read a CSV path from a binary file object, or from the file named `src`.

    At most one piece (PIECE_BYTES and the line it cuts) is held at a time,
    as bytes and as text, beside the bytes of the parsed columns.  A
    named file is opened once and read unbuffered, each read straight into
    its piece: `_pieces` reads until an empty read, so a short read costs
    nothing.  A named regular file goes through the read cache of the
    module docstring; anything else is parsed as it streams.
    """
    if hasattr(src, "read"):
        columns = _read_rows(src)
    else:
        with open(src, "rb", buffering=0) as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):
                return _read_regular(fh, info.st_size, mode)
            columns = _read_rows(fh)
    return SampledPath(*columns, Mode(mode))
