"""The one writer and reader of trailnav's table files: run logs, scan logs,
trajectories and analysis results. A cell is written as ``repr(float(v))``,
except a Python ``int`` or ``str`` as it is and ``None`` as an empty cell."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np


class CsvFormatError(ValueError):
    """A table file whose header, row width or cell is not the expected one,
    whose rows break its table's rules (a trajectory's stamps must increase),
    or that holds too few rows; the message names the file."""


def write_csv(path, header, rows) -> None:
    with open(Path(path), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(["" if v is None else v if isinstance(v, (int, str))
                     else repr(float(v)) for v in row] for row in rows)


def read_csv(path, header, types=None) -> list[list]:
    """Rows of the table file at ``path``, whose first line must be
    ``header`` and whose rows must have one cell per column. Cell i is parsed
    by ``types[i]``; every cell is a float when ``types`` is omitted."""
    path = Path(path)
    header = list(header)
    types = types or [float] * len(header)
    expected = f"expected header {','.join(header)}"
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise CsvFormatError(f"{path}: line 1: not the {expected}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise CsvFormatError(f"{where}: {len(row)} cells where the "
                                     f"{expected} has {len(header)}")
            try:
                rows.append([t(v) for t, v in zip(types, row)])
            except ValueError as exc:
                raise CsvFormatError(f"{where}: {exc} ({expected})") from exc
    return rows


def read_float_csv(path, header) -> np.ndarray:
    """An all-float table as an (n, len(header)) array."""
    return np.array(read_csv(path, header),
                    dtype=np.float64).reshape(-1, len(header))
