"""
Spatial grid, time axis, and county assignment.

All core geometry is planar, in kilometres.  Latitude/longitude inputs are
converted at ingestion with a fixed 111.32 km/degree latitude scale and a
cos(latitude) scale for longitude, so that everything downstream works in a
flat map frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvio import _read_csv, _write_csv

KM_PER_DEGREE_LAT = 111.32


# =============================================================================
# Grid and time axis
# =============================================================================


@dataclass(frozen=True)
class Grid:
    """A regular grid of square cells.

    Cell ids are dense in ``[0, nx * ny)`` and laid out x-major: cell
    ``i = ix * ny + iy`` has its centre at
    ``origin + ((ix + 0.5) * cell_size, (iy + 0.5) * cell_size)``.

    Parameters
    ----------
    origin : tuple of float
        South-west corner of the grid (km, km).
    nx, ny : int
        Cell counts along x and y.
    cell_size : float
        Side length of each (square) cell in km.
    """

    origin: tuple[float, float] = (0.0, 0.0)
    nx: int = 1
    ny: int = 1
    cell_size: float = 1.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be >= 1")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be > 0")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        """Area of one cell in km^2."""
        return self.cell_size * self.cell_size

    def cell_center(self, cell: int) -> tuple[float, float]:
        """Centre-point of cell `cell` in km."""
        if not 0 <= cell < self.n_cells:
            raise ValueError(f"invalid cell id {cell} for {self.nx}x{self.ny} grid")
        ix, iy = divmod(cell, self.ny)
        return (
            self.origin[0] + (ix + 0.5) * self.cell_size,
            self.origin[1] + (iy + 0.5) * self.cell_size,
        )

    def centers(self) -> np.ndarray:
        """Centre-points of all cells as an (n_cells, 2) array, in id order."""
        ix, iy = np.divmod(np.arange(self.n_cells), self.ny)
        out = np.empty((self.n_cells, 2))
        out[:, 0] = self.origin[0] + (ix + 0.5) * self.cell_size
        out[:, 1] = self.origin[1] + (iy + 0.5) * self.cell_size
        return out


@dataclass(frozen=True)
class TimeAxis:
    """Discrete, equally spaced sample times.

    Parameters
    ----------
    t0 : float
        Epoch of the first sample in hours.
    n_steps : int
        Number of samples.
    dt : float
        Spacing in hours (default one hour).
    """

    t0: float = 0.0
    n_steps: int = 1
    dt: float = 1.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")

    @property
    def duration(self) -> float:
        """Total duration T = n_steps * dt in hours."""
        return self.n_steps * self.dt

    def offsets(self) -> np.ndarray:
        """Elapsed hours of each sample relative to t0."""
        return np.arange(self.n_steps) * self.dt


def radial_distance(grid: Grid, cell: int, center: tuple[float, float]) -> float:
    """Euclidean distance (km) from a cell's centre-point to `center`."""
    cx, cy = grid.cell_center(cell)
    return math.hypot(cx - center[0], cy - center[1])


def lonlat_to_km(lon, lat, lon0: float, lat0: float) -> tuple[np.ndarray, np.ndarray]:
    """Convert lon/lat degrees to planar km about a reference point.

    Uses 111.32 km per degree of latitude and a cos(lat0)-scaled longitude
    degree.  Suitable for the storm-scale domains used here; not a map
    projection.
    """
    lon = np.asarray(lon, dtype=float)
    lat = np.asarray(lat, dtype=float)
    x = (lon - lon0) * KM_PER_DEGREE_LAT * math.cos(math.radians(lat0))
    y = (lat - lat0) * KM_PER_DEGREE_LAT
    return x, y


# =============================================================================
# Counties
# =============================================================================


@dataclass(frozen=True)
class County:
    """A named set of grid cells with household and asset-line information.

    Parameters
    ----------
    name : str
    cells : frozenset of int
        Grid ids belonging to the county (non-empty).
    households : int
        Household count (>= 0).
    asset_density : float
        Kilometres of distribution line per km^2 of area (>= 0).
    """

    name: str
    cells: frozenset[int] = field(default_factory=frozenset)
    households: int = 0
    asset_density: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(self.cells))
        # Data files skip rows whose first field starts with '#'.
        if self.name.startswith("#"):
            raise ValueError(f"county name {self.name!r} must not start with '#'")
        if not self.cells:
            raise ValueError(f"county {self.name!r} has no cells")
        if self.households < 0:
            raise ValueError("households must be >= 0")
        if self.asset_density < 0:
            raise ValueError("asset_density must be >= 0")


class CountySet:
    """Immutable collection of counties with disjoint cell sets."""

    def __init__(self, counties: list[County]):
        seen: dict[int, str] = {}
        by_name: dict[str, County] = {}
        for c in counties:
            if c.name in by_name:
                raise ValueError(f"duplicate county name {c.name!r}")
            for cell in c.cells:
                if cell in seen:
                    raise ValueError(
                        f"cell {cell} assigned to both {seen[cell]!r} and {c.name!r}"
                    )
                seen[cell] = c.name
            by_name[c.name] = c
        self._by_name = by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __getitem__(self, name: str) -> County:
        return self._by_name[name]

    def names(self) -> list[str]:
        return sorted(self._by_name)


# -----------------------------------------------------------------------------
# Polygon clipping (cell/polygon overlap areas)
# -----------------------------------------------------------------------------


def polygon_area(poly: list[tuple[float, float]]) -> float:
    """Absolute (shoelace) area of a simple polygon."""
    a = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        a += x1 * y2 - x2 * y1
    return abs(a) / 2.0


def _clip_halfplane(poly, inside, intersect):
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        cin, nin = inside(cur), inside(nxt)
        if cin:
            out.append(cur)
            if not nin:
                out.append(intersect(cur, nxt))
        elif nin:
            out.append(intersect(cur, nxt))
    return out


def clip_polygon_to_rect(poly, xmin, xmax, ymin, ymax):
    """Sutherland-Hodgman clip of a polygon against an axis-aligned rectangle."""

    def x_cross(p, q, x):
        t = (x - p[0]) / (q[0] - p[0])
        return (x, p[1] + t * (q[1] - p[1]))

    def y_cross(p, q, y):
        t = (y - p[1]) / (q[1] - p[1])
        return (p[0] + t * (q[0] - p[0]), y)

    out = list(poly)
    for inside, intersect in (
        (lambda p: p[0] >= xmin, lambda p, q: x_cross(p, q, xmin)),
        (lambda p: p[0] <= xmax, lambda p, q: x_cross(p, q, xmax)),
        (lambda p: p[1] >= ymin, lambda p, q: y_cross(p, q, ymin)),
        (lambda p: p[1] <= ymax, lambda p, q: y_cross(p, q, ymax)),
    ):
        if not out:
            return []
        out = _clip_halfplane(out, inside, intersect)
    return out


def cell_polygon_overlap(grid: Grid, cell: int, poly) -> float:
    """Overlap area (km^2) between a grid cell and a simple polygon."""
    cx, cy = grid.cell_center(cell)
    h = grid.cell_size / 2.0
    clipped = clip_polygon_to_rect(poly, cx - h, cx + h, cy - h, cy + h)
    return polygon_area(clipped) if len(clipped) >= 3 else 0.0


def assign_cells_to_counties(
    grid: Grid,
    county_polygons: dict[str, list[tuple[float, float]]],
    households: dict[str, int] | None = None,
    asset_density: dict[str, float] | None = None,
) -> CountySet:
    """Assign each grid cell to the county polygon covering the majority of it.

    Cells with no covering polygon are left unassigned.  An exact 50/50 area
    tie goes to the lexicographically smaller county name, which keeps the
    assignment deterministic and independent of dict ordering.

    Parameters
    ----------
    grid : Grid
    county_polygons : dict
        Name -> simple polygon (list of (x, y) km vertices).
    households, asset_density : dict, optional
        Per-county metadata carried onto the County records.
    """
    for name, poly in county_polygons.items():
        if len(poly) < 3 or polygon_area(poly) == 0.0:
            raise ValueError(f"degenerate polygon for county {name!r}")
    cells: dict[str, set[int]] = {name: set() for name in county_polygons}
    for cell in range(grid.n_cells):
        best_name = None
        best_area = 0.0
        for name in sorted(county_polygons):
            a = cell_polygon_overlap(grid, cell, county_polygons[name])
            if a > best_area:  # ties keep the earlier (lexicographic) name
                best_area = a
                best_name = name
        if best_name is not None and best_area > grid.cell_area / 2.0 - 1e-12:
            cells[best_name].add(cell)
    households = households or {}
    asset_density = asset_density or {}
    return CountySet(
        [
            County(
                name=name,
                cells=frozenset(cs),
                households=households.get(name, 0),
                asset_density=asset_density.get(name, 0.0),
            )
            for name, cs in cells.items()
            if cs
        ]
    )


def county_average(field_values, county: County) -> float:
    """Arithmetic mean of a per-cell field over a county's cells."""
    if not county.cells:
        raise ValueError(f"county {county.name!r} has no cells")
    values = np.asarray(field_values, dtype=float)
    idx = np.fromiter(sorted(county.cells), dtype=int)
    return float(np.mean(values[idx]))


# =============================================================================
# County fixture file
# =============================================================================

COUNTY_HEADER = ["county", "cell_id", "households", "asset_density_km_per_km2"]


def save_county_fixture(counties: CountySet, path) -> None:
    """Write a county fixture CSV (one row per (county, cell))."""
    rows = (
        (c.name, cell, c.households, repr(c.asset_density))
        for c in sorted(counties, key=lambda c: c.name)
        for cell in sorted(c.cells)
    )
    _write_csv(path, COUNTY_HEADER, rows)


def load_county_fixture(path) -> CountySet:
    """Read a county fixture CSV.

    Households and asset density are repeated on every row of a county and
    must be mutually consistent, otherwise ingestion fails with the offending
    line number.
    """
    rows: dict[str, dict] = {}
    for lineno, (name, cell_s, hh_s, dens_s) in _read_csv(path, COUNTY_HEADER):
        try:
            cell = int(cell_s)
            hh = int(hh_s)
            dens = float(dens_s)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from None
        rec = rows.setdefault(name, {"cells": set(), "households": hh, "density": dens})
        if rec["households"] != hh or rec["density"] != dens:
            raise ValueError(
                f"{path}:{lineno}: inconsistent households/asset_density for county {name!r}"
            )
        rec["cells"].add(cell)
    if not rows:
        raise ValueError(f"{path}: no counties")
    return CountySet(
        [
            County(
                name=name,
                cells=frozenset(rec["cells"]),
                households=rec["households"],
                asset_density=rec["density"],
            )
            for name, rec in rows.items()
        ]
    )
