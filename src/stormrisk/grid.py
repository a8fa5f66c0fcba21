"""
Spatial grid, time axis, and counties.

All geometry is planar, in kilometres, on a regular grid of square cells.
A county is a named set of grid cell ids, read from a county fixture CSV;
county exposures are plain means of a per-cell field over those cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .csvio import _read_csv, _require, _write_csv


# =============================================================================
# Grid and time axis
# =============================================================================

# Most cells times steps a wind field may have: 8 GB of float64 speeds as one
# (cells, steps) array, far above the default config's 1.21 million.
_MAX_CELL_STEPS = 10**9


# A critical-zone sweep's swath grid starts past the config's positions (2e4
# km) by the track's run and a critical radius.  Under the swath-size cap, in
# cells of at most 25 km, these are at most 5.2e6 km (4320 n km in n steps of
# 24 h at 50 m/s, over 4 cells or more across) and 4e5 km (2 Rcrit / 25 cells).
_ORIGIN_CHECK = "in [-1e7, 1e7]"


@dataclass(frozen=True)
class Grid:
    """A regular grid of square cells.

    Cell ids are dense in ``[0, nx * ny)`` and laid out x-major: cell
    ``i = ix * ny + iy`` has its centre at
    ``origin + ((ix + 0.5) * cell_size, (iy + 0.5) * cell_size)``.

    Parameters
    ----------
    origin : tuple of float
        South-west corner of the grid (km, km), each in [-1e7, 1e7].
    nx, ny : int
        Cell counts along x and y.
    cell_size : float
        Side length of each (square) cell in km, in (0, 100].
    """

    origin: tuple[float, float] = (0.0, 0.0)
    nx: int = 1
    ny: int = 1
    cell_size: float = 1.0

    def __post_init__(self):
        _require(self, nx=">= 1", ny=">= 1", cell_size="in (0, 100]", origin=_ORIGIN_CHECK)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        """Area of one cell in km^2."""
        return self.cell_size * self.cell_size

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-centre x (length nx) and y (length ny) coordinates."""
        x0, y0 = self.origin
        return (
            x0 + (np.arange(self.nx) + 0.5) * self.cell_size,
            y0 + (np.arange(self.ny) + 0.5) * self.cell_size,
        )

    def centers(self) -> np.ndarray:
        """Centre-points of all cells as an (n_cells, 2) array, in id order."""
        xs, ys = self.axes()
        return np.column_stack([np.repeat(xs, self.ny), np.tile(ys, self.nx)])


@dataclass(frozen=True)
class TimeAxis:
    """Discrete, equally spaced sample times.

    Parameters
    ----------
    n_steps : int
        Number of samples.
    dt : float
        Spacing in hours, in (0, 24] (default one hour).
    """

    n_steps: int = 1
    dt: float = 1.0

    def __post_init__(self):
        _require(self, n_steps=">= 1", dt="in (0, 24]")

    @property
    def duration(self) -> float:
        """Total duration T = n_steps * dt in hours."""
        return self.n_steps * self.dt

    def offsets(self) -> np.ndarray:
        """Elapsed hours of each sample since the first."""
        return np.arange(self.n_steps) * self.dt


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
        Household count, in [0, 1e9].
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
        _require(self, households="in [0, 1e9]", asset_density=">= 0")


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


def county_average(field_values, county: County) -> float:
    """Arithmetic mean of a per-cell field over a county's cells."""
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

    Each row must pass `County`'s own checks, and households and asset
    density are repeated on every row of a county and must be mutually
    consistent; a cell belongs to one county.  Otherwise ingestion fails with
    the offending line number.  Only a county's first row, and a row unlike
    it, is built as a `County`.
    """
    counties: dict[str, tuple[County, set[int]]] = {}  # each county's first row and its cells
    owner: dict[int, str] = {}
    for lineno, (name, cell, hh, dens) in _read_csv(path, COUNTY_HEADER, (str, int, int, float)):
        first, cells = counties.get(name, (None, None))
        if first is None or (first.households, first.asset_density) != (hh, dens):
            try:
                row = County(name=name, cells={cell}, households=hh, asset_density=dens)
            except ValueError as exc:  # the record's own checks
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if first is not None:
                raise ValueError(f"{path}:{lineno}: inconsistent households/asset_density for county {name!r}")
            first, cells = counties[name] = row, set()
        if owner.setdefault(cell, name) != name:
            raise ValueError(f"{path}:{lineno}: cell {cell} assigned to both {owner[cell]!r} and {name!r}")
        cells.add(cell)
    if not counties:
        raise ValueError(f"{path}: no counties")
    return CountySet([replace(first, cells=cells) for first, cells in counties.values()])
