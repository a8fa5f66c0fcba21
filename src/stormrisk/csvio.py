"""
The data-file format, in one place.

Every CSV the package writes is an optional `# comment` line (the CLI puts
`# config_sha256=<hash>` there), a header row, then one row per record.
The `save_*` writers end rows with CRLF, the `csv` module's default; the two
tables the CLI writes itself (`tables123.csv`, `critzone_cells.csv`) use LF.
The comment line always ends with LF.  Readers skip leading `#` lines, check
the header, skip blank and `#` rows, and name the file and physical line of
the first bad row.

Floats are written with one of two formats: velocities with `VELOCITY_FMT`,
which round-trips every float64 exactly, and derived tables (rates, areas,
masses) with `TABLE_FMT`.
"""

from __future__ import annotations

import csv

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
