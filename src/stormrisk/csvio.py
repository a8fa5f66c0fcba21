"""
The data-file format, in one place.

Every CSV the package writes is an optional `# comment` line (the CLI puts
`# config_sha256=<hash>` there), a header row, then one row per record.
`_write_velocities` writes the two velocity tables (wind field, ensemble)
from a bytes row template per block of cells.  `_write_table` writes every
derived table (failure rates and distributions, zone and damage/loss sweeps,
`tables123.csv`, `critzone_cells.csv`) through `_write_csv`, the `csv`
module's writer, which also writes the two fixture files (observations,
counties).  The comment line ends with LF and rows with CRLF, except in
`tables123.csv` and `critzone_cells.csv`, which use LF throughout.  Readers
skip leading `#` lines, check the header, skip blank and `#` rows, and name
the file and physical line of the first bad row, including a row that
repeats an earlier row's key.  Files are UTF-8 in any locale.

Floats are written with one of two formats: velocities with `VELOCITY_FMT`,
which round-trips every float64 exactly, and derived tables (rates, areas,
masses) with `TABLE_FMT`.  The velocity bytes are those of `%.17g`, but a
velocity in [1, 1e16) (nearly every wind speed) is formatted by digit
arithmetic in numpy (`_fixed_17g`): its 17 digits are the exactly rounded
product of x and a power of ten, written through a table of four-digit
groups.  Every other value goes through `%` itself.

JSON documents (the config, the ensemble sidecar, the reports) go through
`_read_json` and `_write_json`, and the config's and the sidecar's fields
through one kind checker, `_check`.  The parameter records (storm, grid,
time axis, failure, repair, ensemble, county, observation) check their
numeric fields through `_require`, against the same check texts, and the
kind each field's annotation declares (an integer, a pair of numbers).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import numbers
import sys

import numpy as np

VELOCITY_FMT = ".17g"
TABLE_FMT = ".9g"

_BLOCK_CELLS = 128  # cells per row template in `_write_velocities`

# `_digits17`'s tables: the powers of ten 10^0..10^17 (all exact in float64)
# with their Veltkamp halves.
_SPLIT = 2.0**27 + 1
_POW10 = (10 ** np.arange(18, dtype=np.int64)).astype(np.float64)
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


@functools.cache
def _quads() -> np.ndarray:
    """`_fixed_17g`'s table of "0000".."9999" as little-endian uint32s whose
    four bytes are the ASCII digits in order, made from the 100 two-digit
    pairs "00".."99" on first use: only the velocity tables need it."""
    pairs = np.arange(100, dtype=np.uint32) // 10 | np.arange(100, dtype=np.uint32) % 10 << 8 | 0x3030
    return (pairs[:, None] | pairs << 16).ravel().astype("<u4", copy=False)


def _write_csv(path, header, rows, comment: str | None = None, line_end: str = "\r\n") -> None:
    """Write `header` then every row of the iterable `rows`, streaming."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        if comment:
            f.write(f"# {comment}\n")
        w = csv.writer(f, lineterminator=line_end)
        w.writerow(header)
        w.writerows(rows)


def _write_table(path, header, keys, values, comment: str | None = None, line_end: str = "\r\n") -> None:
    """Write a derived table: `header`, then one row per entry of the key
    columns `keys` as the `csv` module prints them and of the value columns
    `values` at `TABLE_FMT`.  Columns are any iterables, read as the rows
    are written."""
    formatted = (map(format, column, itertools.repeat(TABLE_FMT)) for column in values)
    _write_csv(path, header, zip(*keys, *formatted), comment, line_end)


def _write_velocities(path, header, fields, comment: str | None = None) -> int:
    """Write `header`, then a CRLF row `[member,]cell,t,velocity` for every
    value of each (cells, steps) array of the iterable `fields`, written as
    each arrives; the member column comes when `header` has four.  Returns
    the number of arrays; with none it raises `ValueError` before making the
    file.  Each block of `_BLOCK_CELLS` cells is one bytes template filled by
    one `%` with the `_velocity_bytes` of its values, so the bytes are
    `_write_csv`'s with velocities as `format(x, VELOCITY_FMT)` (the `csv`
    module never quotes a number).
    """
    fields = iter(fields)
    v = next(fields, None)
    if v is None:
        raise ValueError(f"{path}: no {header[0].split('_')[0]}s")
    n = 0
    with open(path, "wb") as f:
        if comment:
            f.write(f"# {comment}\n".encode())
        f.write(",".join(header).encode() + b"\r\n")
        while v is not None:
            v = np.asarray(v, dtype=np.float64)
            n_cells, n_steps = v.shape
            # b"c," joined over these is cell c's rows: b"c,0,%b\r\nc,1,%b\r\n..."
            steps = [b""] + [b"%d,%%b\r\n" % t for t in range(n_steps)]
            member = b"%d," % n if len(header) == 4 else b""
            for lo in range(0, n_cells, _BLOCK_CELLS):
                cells = range(lo, min(lo + _BLOCK_CELLS, n_cells))
                template = b"".join([(member + b"%d," % c).join(steps) for c in cells])
                f.write(template % tuple(_velocity_bytes(v[lo : cells.stop].ravel())))
            n += 1
            v = next(fields, None)
    return n


def _velocity_bytes(x: np.ndarray) -> list[bytes]:
    """`b"%.17g" % v` for each value `v` of the float64 array `x`, in order.

    Values in [1, 1e16) go through `_fixed_17g`; every other value (below 1,
    zeros of both signs, negative, huge, nan, inf) through `%` itself.
    """
    fast = (x >= 1.0) & (x < 1e16)
    if fast.all():
        return _fixed_17g(x).tolist()
    out = np.zeros(x.shape, "S24")  # the longest %.17g: -2.2250738585072014e-308
    out[fast] = _fixed_17g(x[fast])
    out[~fast] = [b"%.17g" % v for v in x[~fast].tolist()]
    return out.tolist()  # an S array drops each value's trailing NUL padding


def _fixed_17g(x: np.ndarray) -> np.ndarray:
    """`%.17g` of each value of `x`, all in [1, 1e16), as an `S18` array.

    There `%.17g` prints fixed notation: the 17 significant digits of `x`
    (`_digits17`) with the point after the first e + 1 of them, then
    trailing zeros stripped from the fraction, and the point with them when
    none of it is left.
    """
    n = len(x)
    e, d = _digits17(x)
    # Their ASCII, four at a time: "000" + the first digit, then four groups.
    top, low = np.divmod(d, 10**8)
    quads = _quads()
    words = np.empty((n, 5), "<u4")
    words[:, 0] = quads[top // 10**8]
    words[:, 1] = quads[top // 10**4 % 10**4]
    words[:, 2] = quads[top % 10**4]
    words[:, 3] = quads[low // 10**4]
    words[:, 4] = quads[low % 10**4]
    digits = words.view(np.uint8)[:, 3:]
    # "d.ddd...", then on the rows with e >= k the point moves past digit k.
    out = np.empty((n, 18), np.uint8)
    out[:, 0] = digits[:, 0]
    out[:, 1] = ord(".")
    out[:, 2:] = digits[:, 1:]
    for k in range(1, e.max(initial=0) + 1):
        moved = e >= k
        np.copyto(out[:, k], digits[:, k], where=moved)
        np.copyto(out[:, k + 1], ord("."), where=moved)
    # Only a row whose last digit is 0 has zeros to strip.  NULs stand for
    # the stripped bytes: an S array drops them at the end of each value.
    rows = np.flatnonzero(digits[:, 16] == ord("0"))
    if rows.size:
        tail = out[rows]
        zeros = np.logical_and.accumulate(tail[:, ::-1] == ord("0"), axis=1)[:, ::-1]
        r, point = np.arange(rows.size), e[rows] + 1
        zeros[r, point] = zeros[r, point + 1]  # the point goes with the whole fraction
        tail[zeros] = 0
        out[rows] = tail
    return out.view("S18").ravel()


def _digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(e, d)` for each value of `x`, all in [1, 1e16): e = floor(log10 x),
    0..15, and d in [1e16, 1e17), the int64 of x's 17 significant digits,
    correctly rounded with ties to even.  Only float64 and int64 arithmetic;
    the one inexact step, log10, is checked against the exact powers of ten.
    """
    e = np.floor(np.log10(x)).astype(np.intp)
    e += (x >= _POW10[e + 1]).astype(np.intp) - (x < _POW10[e])
    # Dekker's two-product: hi + lo == x * 10^(16 - e) exactly, from the
    # 26/27-bit Veltkamp halves of both factors.  hi lies in [1e16, 1e17],
    # above 2^53, so it is an even integer and hi + rint(lo) is the product
    # rounded half to even.
    p = 16 - e
    hi = x * _POW10[p]
    t = x * _SPLIT
    xh = t - (t - x)
    xl = x - xh
    ph, pl = _POW10_HI[p], _POW10_LO[p]
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    return e, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


class ConfigError(ValueError):
    """Invalid input value; the message starts with `path`, which names its
    field: a dotted config path, or a JSON file and key."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


def _pair(value) -> tuple[float, float]:
    return float(value[0]), float(value[1])


# A field's kind: the JSON types it accepts, what a message calls them, and the
# conversion of its value for the builders (None: used as it is).
_STRING = ((str,), "a string", None)
_INTEGER = ((int,), "an integer", None)
_NUMBER = ((int, float), "a number", float)
_BOOLEAN = ((bool,), "a boolean", None)
_XY = ((list,), "[x, y]", _pair)
_VXY = ((list,), "[vx, vy]", _pair)
_PATH = ((str,), "a path string", None)
_OPTIONAL_PATH = ((str, type(None)), "a path string or null", None)

def _interval(check: str):
    """The ends `(lo, hi)` of an interval check "in [lo, hi]" or "in (lo, hi]"."""
    lo, hi = check[4:-1].split(", ")
    return float(lo), float(hi)


# The checks that are not intervals, with their tests.  The intervals are the
# model's domain, and inside them every result is finite.  A speed is at most
# Vm + ||Vtr|| = 150 + 75 sqrt(2) = 256 m/s.  The largest rate, lambda T alpha
# (Vmax / Vcrit)^2, is 1.6e21 over the longest run (1e9 steps of 24 h).  The
# largest loss is Lf / 2Y = 5e11 times a rate squared, 1.5e35 over the sweeps'
# 24 h.  The fits' regressors are powers up to Rm^4 g^8 = 1.5e28 (g = Vm /
# Vcrit - 1 <= 149; the damage fit's Rm^2 / g <= 1.7e23, as g >= 1.5e-18), so
# their weighted normal equations of a million storms stay below 1e303 with
# `aggregate._MIN_RESPONSE`.  A critical radius is at most Rm (Vm /
# Vthres)^(2/B) e^(1/B) = 1.9e12 km, its obround 8e25 km^2; an outage fit's
# households times exposure squared 2.5e51 per row.
_CHECKS = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    '"N" or "S"': lambda v: v in ("N", "S"),
}


@functools.cache
def _test(check: str):
    """The test of a check text, as messages and the README give it: an
    interval "in [lo, hi]" or "in (lo, hi]", which takes an array as well as
    a number, or one of `_CHECKS`."""
    if not check.startswith("in "):
        return _CHECKS[check]
    lo, hi = _interval(check)
    return (lambda v: (v > lo) & (v <= hi)) if check[3] == "(" else (lambda v: (v >= lo) & (v <= hi))


def _finite(v) -> bool:
    """Whether `v` is a number, not a boolean, finite as a float; a huge integer is not."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# The kinds a record field's annotation declares beyond its check text, with their tests.
_KINDS = {
    "int": _is_integer,
    "frozenset[int]": lambda ids: all(map(_is_integer, ids)),
    "tuple[float, float]": lambda pair: isinstance(pair, tuple) and len(pair) == 2,
}


def _require_value(name: str, value, check: str | None) -> None:
    """Raise ValueError naming `name` unless `value` is finite (a pair entry
    by entry) and passes the test of its check text `check` (None: finite only)."""
    for v in value if hasattr(value, "__len__") else (value,):
        if not (_finite(v) and (check is None or _test(check)(v))):
            rule = "finite" if check is None else f"finite and {check}"
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def _require(record, **checks) -> None:
    """`_require_value` of each field of `record` in `checks`, in order, then
    the `_KINDS` test of each field's annotation (an `int` is an integer)."""
    for field, check in checks.items():
        _require_value(field, getattr(record, field), check)
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if f.type in _KINDS and not _KINDS[f.type](value):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")


def _type_name(value) -> str:
    return "a boolean" if isinstance(value, bool) else type(value).__name__


def _check(path: str, value, kind, check: str | None):
    """`value` converted by its `kind`, once it has the kind and passes the
    test of its check text `check` (a pair entry by entry); otherwise ConfigError
    naming `path`."""
    types, name, convert = kind
    if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
        raise ConfigError(path, f"expected {name}, got {_type_name(value)}")
    if int in types and not _finite(value):  # a number, or an integer past the float range
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    if convert is _pair and len(value) != 2:
        raise ConfigError(path, f"value {value!r} out of range ({name})")
    if convert is _pair and not all(type(v) in (int, float) and _finite(v) for v in value):
        raise ConfigError(path, "entries must be finite numbers")
    if check is not None and not all(map(_test(check), value if convert is _pair else [value])):
        raise ConfigError(path, f"value {value!r} out of range ({check})")
    return value if convert is None else convert(value)


def _read_json(path) -> dict:
    """The JSON object in the file at `path`.  A file that does not hold
    one raises ConfigError naming the file."""
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8/16/32, too long, too deep
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), f"expected a JSON object, got {_type_name(doc)}")
    return doc


def _write_json(path, doc: dict) -> None:
    """Write `doc` as strict JSON (a non-finite number raises ValueError)
    with sorted keys, indented by two spaces, and a final LF.  The text is
    formed before the file is opened, so a failure leaves no partial file."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w") as f:
        f.write(text)


def _read_csv(path, header, types):
    """Yield `(line number, fields)` for each data row of a file with
    `header`, each field converted by its callable in `types`: `int`,
    `float` or `str`.  A field that does not convert names the file and
    line as a malformed row; a line that is not UTF-8 names them too."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
        reader = csv.reader(_utf8_lines(path, f))
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
            try:
                fields = [convert(field) for convert, field in zip(types, row)]
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: malformed row: {exc}") from None
            yield reader.line_num, fields


def _utf8_lines(path, f):
    """Yield the lines of `f`, opened with `errors="surrogateescape"`; a line
    holding a byte that is not UTF-8 raises `ValueError` naming its place."""
    for lineno, line in enumerate(f, 1):
        try:
            line.encode()
        except UnicodeEncodeError as exc:  # an escaped byte
            byte = ord(line[exc.start]) - 0xDC00
            raise ValueError(f"{path}:{lineno}: byte 0x{byte:02x} is not UTF-8") from None
        yield line


def _read_velocities(path, header, shape) -> np.ndarray:
    """Read a `_write_velocities` table into an array of `shape`, indexed by
    each row's integer columns, in one pass.  Every slot must be given
    exactly once, with a velocity that is nan (read as missing), or finite
    and not negative.  The first bad row in the file (malformed, out of
    range, repeated, or with such a velocity) raises an error naming the
    file and its physical line; then a gap or an empty table raises one
    naming the file and the slot.
    """
    names = [name.split("_")[0] for name in header[:-1]]  # member, cell, time
    types = [int] * len(shape) + [float]
    v = np.full(shape, np.nan)
    seen = np.zeros(shape, dtype=bool)
    for lineno, (*key, vel) in _read_csv(path, header, types):
        key = tuple(key)
        if not all(0 <= k < n for k, n in zip(key, shape)):
            raise ValueError(f"{path}:{lineno}: {'/'.join(names)} out of range")
        if seen[key]:
            named = ", ".join(f"{name} {k}" for name, k in zip(header, key))
            raise ValueError(f"{path}:{lineno}: repeated row for {named}")
        if vel < 0 or vel == math.inf:
            raise ValueError(f"{path}:{lineno}: velocity must be finite and >= 0, got {vel!r}")
        seen[key] = True
        v[key] = vel
    if not seen.any():
        raise ValueError(f"{path}: no {names[0]}s")
    missing = np.argwhere(np.isnan(v))
    if missing.size:
        where = ", ".join(f"{name} {k}" for name, k in zip(names, missing[0]))
        raise ValueError(f"{path}: missing velocity for {where}")
    return v
