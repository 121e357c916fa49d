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
file that is not UTF-8 is a `CsvFormatError` too.

Both directions stream: the reader parses PIECE_CHARS characters at a time,
cut after a line break, and the writer formats PIECE_ROWS rows at a time,
so either holds one piece of text beside the arrays of the path, whatever
its length.  A file that fits in one piece is read and parsed in one go.

Every file the package writes (CSV paths, JSON reports, SVG plots) goes
through `write_text`, which rewrites an existing file in place: it is not
truncated when opened, only cut to the new length after the write if it
was longer.
"""

import contextlib
import os
import stat

import numpy as np

from .errors import CsvFormatError
from .paths import Mode, SampledPath

HEADER = "t,value"
# rows per parse when a file is rejected, to find its first bad row
BAD_ROW_BLOCK = 256
# characters per read of a CSV, and rows per formatted piece of one
PIECE_CHARS = 1 << 16
PIECE_ROWS = 4096


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


def _csv_pieces(path):
    """The CSV text of `path`: the header and PIECE_ROWS rows per piece."""
    head = HEADER + "\n"
    for start in range(0, len(path), PIECE_ROWS):
        block = slice(start, start + PIECE_ROWS)
        cells = np.stack((path.times[block], path.values[block]), axis=1).ravel().tolist()
        yield head + ("%.17g,%.17g\n" * (len(cells) // 2)) % tuple(cells)
        head = ""


def write_path_csv(path: SampledPath, dest):
    """Write `path` as CSV to a file object, or to the file named `dest`."""
    pieces = _csv_pieces(path)
    if hasattr(dest, "write"):
        for piece in pieces:
            dest.write(piece)
    else:
        write_text(dest, pieces)


def _parse_rows(rows):
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _first_bad_row(rows):
    """The error for the first row `_parse_rows` cannot take as a 't,value' pair.

    Rows are parsed BAD_ROW_BLOCK at a time, and only the first block that
    fails is parsed again row by row: a block parses exactly when each of
    its rows has one comma and parses alone.
    """
    for start in range(0, len(rows), BAD_ROW_BLOCK):
        block = rows[start:start + BAD_ROW_BLOCK]
        if all(ln.count(",") == 1 for ln in block):
            try:
                _parse_rows(block)
                continue
            except ValueError:
                pass
        for ln in block:
            if ln.count(",") != 1:
                return CsvFormatError(f"expected 't,value' row, got '{ln}'")
            try:
                _parse_rows([ln])
            except ValueError:
                return CsvFormatError(f"non-numeric row '{ln}'")
    return CsvFormatError("malformed rows")


def _pieces(fh):
    """The text of `fh` in whole lines, read PIECE_CHARS characters at a time.

    A full read is cut after its last "\n" and the rest carried into the
    next piece.  A shorter read ends the text, as `read(n)` of an `io` text
    stream does only at the end of the file, and is yielded whole with what
    was carried: a file that fits in one read is one piece, not copied.
    """
    carry = ""
    while True:
        try:
            piece = fh.read(PIECE_CHARS)
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"not UTF-8 text: {exc.reason}") from None
        if len(piece) < PIECE_CHARS:
            yield carry + piece
            return
        cut = piece.rfind("\n") + 1
        if cut:
            yield carry + piece[:cut]
            carry = piece[cut:]
        else:
            carry += piece


def _read_rows(fh):
    """The (n, 2) rows of the CSV text `fh`, parsed piece by piece.

    A cut after "\n" is a line break for `splitlines` too and every field
    is parsed on its own, so the pieces give the rows, the errors and the
    doubles of one parse of the whole text.  A piece that fails names the
    file's first bad row, since every piece before it parsed.
    """
    header = None
    blocks = []
    for piece in _pieces(fh):
        lines = [s for s in map(str.strip, piece.splitlines()) if s]
        if header is None and lines:
            header = lines.pop(0)
            if header.replace(" ", "") != HEADER:
                raise CsvFormatError(f"expected header '{HEADER}', got '{header}'")
        if lines:
            try:
                data = _parse_rows(lines)
            except ValueError:
                raise _first_bad_row(lines) from None
            if data.shape[1] != 2:
                raise _first_bad_row(lines)
            blocks.append(data)
    if header is None:
        raise CsvFormatError("empty CSV")
    if len(blocks) > 1:
        return np.concatenate(blocks)
    # one piece, not copied, or a header-only file: SampledPath rejects
    # its empty columns
    return blocks[0] if blocks else np.empty((0, 2))


def read_path_csv(src, mode=Mode.LINEAR) -> SampledPath:
    """Read a CSV path from a text file object, or from the file named `src`.

    At most one piece of text (PIECE_CHARS characters and the line it cuts)
    is held at a time, beside the parsed rows and the output arrays.
    """
    if hasattr(src, "read"):
        data = _read_rows(src)
    else:
        with open(src, "r", encoding="utf-8-sig") as fh:
            data = _read_rows(fh)
    return SampledPath(data[:, 0], data[:, 1], Mode(mode))
