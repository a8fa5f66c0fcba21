"""
The data-file format, in one place.

Every CSV the package writes is an optional `# comment` line (the CLI puts
`# config_sha256=<hash>` there), a header row, then one row per record.
The `save_*` writers end rows with CRLF, the `csv` module's default; the two
tables the CLI writes itself (`tables123.csv`, `critzone_cells.csv`) use LF.
The comment line always ends with LF.  Readers skip leading `#` lines, check
the header, skip blank and `#` rows, and name the file and physical line of
the first bad row, including a row that repeats an earlier row's key.

Floats are written with one of two formats: velocities with `VELOCITY_FMT`,
which round-trips every float64 exactly, and derived tables (rates, areas,
masses) with `TABLE_FMT`.
"""

from __future__ import annotations

import csv

import numpy as np

VELOCITY_FMT = ".17g"
TABLE_FMT = ".9g"


def _write_csv(path, header, rows, comment: str | None = None, line_end: str = "\r\n") -> None:
    """Write `header` then every row of the iterable `rows`, streaming."""
    with open(path, "w", newline="") as f:
        if comment:
            f.write(f"# {comment}\n")
        w = csv.writer(f, lineterminator=line_end)
        w.writerow(header)
        w.writerows(rows)


def _read_csv(path, header):
    """Yield `(line number, row)` for each data row of a file with `header`."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        first = next(reader, None)
        while first and first[0].startswith("#"):
            first = next(reader, None)
        if first != header:
            raise ValueError(f"{path}: expected header {','.join(header)}")
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}"
                )
            yield reader.line_num, row



def _check_no_repeats(path, header, v, n_rows: int) -> None:
    """Raise naming `path:line` if a data row repeats an earlier row's key.

    `v` started all-NaN and each of the `n_rows` rows read filled the slot
    keyed by its leading integer fields.  Only when more rows were read than
    slots are filled (a repeated key, or a nan velocity) is the file read
    again, to find the first repeat.
    """
    if n_rows <= np.count_nonzero(~np.isnan(v)):
        return
    seen = np.zeros(v.shape, dtype=bool)
    for lineno, row in _read_csv(path, header):
        key = tuple(int(x) for x in row[: v.ndim])
        if seen[key]:
            named = ", ".join(f"{name} {k}" for name, k in zip(header, key))
            raise ValueError(f"{path}:{lineno}: repeated row for {named}")
        seen[key] = True
