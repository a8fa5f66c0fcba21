"""
Spatial grid, time axis, and counties.

All geometry is planar, in kilometres, on a regular grid of square cells.
A county is a named set of grid cell ids, read from a county fixture CSV;
county exposures are plain means of a per-cell field over those cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csvio import _read_csv, _write_csv


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
        if not 0 < self.cell_size < np.inf:
            raise ValueError("cell_size must be finite and > 0")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("origin must be finite")

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
        Spacing in hours (default one hour).
    """

    n_steps: int = 1
    dt: float = 1.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and > 0")

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
    for lineno, (name, cell, hh, dens) in _read_csv(path, COUNTY_HEADER, (str, int, int, float)):
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
