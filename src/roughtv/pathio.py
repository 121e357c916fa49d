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
would take them.  Blank lines are skipped; there is no comment syntax.

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


def write_text(dest, text):
    """Write `text` as UTF-8 to the file named `dest`, in place.

    The bytes, the inode, the permissions of a new file and the following
    of symlinks are those of `open(dest, "w", encoding="utf-8")`, but the
    file is opened without O_TRUNC, written from its start and then, if it
    is a regular file that was longer, cut to the written length.  On ext4
    (auto_da_alloc) truncating a non-empty file to zero makes its close
    start writeback of the new blocks, which costs more than the write
    itself for a small file that is rewritten on every run.  Devices and
    pipes (`/dev/null`) are written and never truncated.  If the write
    fails, a regular file is cut to 0 bytes, as far as that still works,
    and the error is raised: no tail of the old contents survives.
    """
    data = text.encode("utf-8")
    fd = os.open(dest, os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC, 0o666)
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if regular and info.st_size > len(data):
                os.ftruncate(fd, len(data))
        except BaseException:
            if regular:
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


def write_path_csv(path: SampledPath, dest):
    """Write `path` as CSV to a file object, or to the file named `dest`."""
    cells = np.stack((path.times, path.values), axis=1).ravel().tolist()
    data = HEADER + "\n" + ("%.17g,%.17g\n" * len(path)) % tuple(cells)
    if hasattr(dest, "write"):
        dest.write(data)
    else:
        write_text(dest, data)


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


def read_path_csv(src, mode=Mode.LINEAR) -> SampledPath:
    if hasattr(src, "read"):
        text = src.read()
    else:
        with open(src, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    lines = [s for s in map(str.strip, text.splitlines()) if s]
    if not lines:
        raise CsvFormatError("empty CSV")
    if lines[0].replace(" ", "") != HEADER:
        raise CsvFormatError(f"expected header '{HEADER}', got '{lines[0]}'")
    rows = lines[1:]
    try:
        # loadtxt warns on no rows; SampledPath rejects a header-only file
        data = _parse_rows(rows) if rows else np.empty((0, 2))
    except ValueError:
        raise _first_bad_row(rows) from None
    if data.shape[1] != 2:
        raise _first_bad_row(rows)
    return SampledPath(data[:, 0], data[:, 1], Mode(mode))
