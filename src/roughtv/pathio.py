"""CSV ingestion and emission for sampled paths.

Schema: UTF-8, header ``t,value``, one decimal-notation row per sample.  The
interpolation mode travels out-of-band (CLI flag / function argument).
Numbers are written with 17 significant digits so files round-trip exactly
and regenerate byte-identically.
"""

import numpy as np

from .errors import CsvFormatError
from .paths import Mode, SampledPath

HEADER = "t,value"


def write_path_csv(path: SampledPath, dest):
    lines = [HEADER]
    for t, v in zip(path.times.tolist(), path.values.tolist()):
        lines.append(f"{t:.17g},{v:.17g}")
    data = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(data)
    else:
        with open(dest, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)


def read_path_csv(src, mode=Mode.LINEAR) -> SampledPath:
    if hasattr(src, "read"):
        text = src.read()
    else:
        with open(src, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CsvFormatError("empty CSV")
    if lines[0].replace(" ", "") != HEADER:
        raise CsvFormatError(f"expected header '{HEADER}', got '{lines[0]}'")
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
