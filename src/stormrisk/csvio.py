"""
The data-file format, in one place.

Every CSV the package writes is an optional `# comment` line (the CLI puts
`# config_sha256=<hash>` there), a header row, then one row per record.
`_write_velocities` writes the two velocity tables (wind field, ensemble)
from a row template per block of cells; `_write_csv` writes the other,
smaller tables through the `csv` module.  The comment line ends with LF and
rows with CRLF, except in the two tables the CLI writes itself
(`tables123.csv`, `critzone_cells.csv`), which use LF throughout.  Readers
skip leading `#` lines, check the header, skip blank and `#` rows, and name
the file and physical line of the first bad row, including a row that
repeats an earlier row's key.

Floats are written with one of two formats: velocities with `VELOCITY_FMT`,
which round-trips every float64 exactly, and derived tables (rates, areas,
masses) with `TABLE_FMT`.
"""

from __future__ import annotations

import csv

import numpy as np

VELOCITY_FMT = ".17g"
TABLE_FMT = ".9g"

_BLOCK_CELLS = 128  # cells per row template in `_write_velocities`


def _write_csv(path, header, rows, comment: str | None = None, line_end: str = "\r\n") -> None:
    """Write `header` then every row of the iterable `rows`, streaming."""
    with open(path, "w", newline="") as f:
        if comment:
            f.write(f"# {comment}\n")
        w = csv.writer(f, lineterminator=line_end)
        w.writerow(header)
        w.writerows(rows)


def _write_velocities(path, header, fields, comment: str | None = None) -> int:
    """Write `header`, then a CRLF row `[member,]cell,t,velocity` for every
    value of each (cells, steps) array of the iterable `fields`, written as
    each arrives; the member column comes when `header` has four.  Returns
    the number of arrays.  Each block of `_BLOCK_CELLS` cells is one row
    template filled by one `%`.  The bytes are `_write_csv`'s with velocities
    as `format(x, VELOCITY_FMT)`: `%` formats through the same
    `PyOS_double_to_string`, and the `csv` module never quotes a number.
    """
    with open(path, "w", newline="") as f:
        if comment:
            f.write(f"# {comment}\n")
        f.write(",".join(header) + "\r\n")
        for i, v in enumerate(fields):
            n_cells, n_steps = v.shape
            # "c," joined over these is cell c's rows: "c,0,%.17g\r\nc,1,%.17g\r\n..."
            steps = [""] + [f"{t},%{VELOCITY_FMT}\r\n" for t in range(n_steps)]
            member = f"{i}," if len(header) == 4 else ""
            for lo in range(0, n_cells, _BLOCK_CELLS):
                cells = range(lo, min(lo + _BLOCK_CELLS, n_cells))
                template = "".join([f"{member}{c},".join(steps) for c in cells])
                f.write(template % tuple(v[lo : cells.stop].ravel().tolist()))
    return i + 1


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


def _read_velocities(path, header, shape) -> np.ndarray:
    """Read a `_write_velocities` table into an array of `shape`, indexed by
    each row's integer columns.  Every slot must be given exactly once: bad
    rows, repeated keys, gaps and an empty table raise errors naming the file
    and the physical line or the slot.
    """
    names = [name.split("_")[0] for name in header[:-1]]  # member, cell, time
    v = np.full(shape, np.nan)
    n_rows = 0
    for lineno, row in _read_csv(path, header):
        try:
            key = tuple(map(int, row[:-1]))
            vel = float(row[-1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from None
        if not all(0 <= k < n for k, n in zip(key, shape)):
            raise ValueError(f"{path}:{lineno}: {'/'.join(names)} out of range")
        v[key] = vel
        n_rows += 1
    if n_rows == 0:
        raise ValueError(f"{path}: no {names[0]}s")
    if n_rows > np.count_nonzero(~np.isnan(v)):
        # A repeated key, or a nan velocity: read again to find the first repeat.
        seen = np.zeros(shape, dtype=bool)
        for lineno, row in _read_csv(path, header):
            key = tuple(map(int, row[:-1]))
            if seen[key]:
                named = ", ".join(f"{name} {k}" for name, k in zip(header, key))
                raise ValueError(f"{path}:{lineno}: repeated row for {named}")
            seen[key] = True
    missing = np.argwhere(np.isnan(v))
    if missing.size:
        where = ", ".join(f"{name} {k}" for name, k in zip(names, missing[0]))
        raise ValueError(f"{path}: missing velocity for {where}")
    return v
