"""
Parametric hurricane wind fields.

A storm is a straight-line track with a constant radial wind profile
V(r) = Vm * (Rm/r)^(B/2) * exp((1 - (Rm/r)^B) / 2), which peaks at V(Vm) = Vm
at the radius of maximum winds r = Rm and decays monotonically outside it.
Fields come in two flavours: axisymmetric (speed depends only on radius) and
asymmetric, where the tangential cyclonic wind vector is added to the storm
translation vector so that, for a northward-moving storm in the Northern
Hemisphere, the strongest winds sit due east of the centre.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import VELOCITY_FMT, _check_no_repeats, _read_csv, _write_csv
from .grid import Grid, TimeAxis

MPS_TO_KMH = 3.6


@dataclass(frozen=True)
class HollandParams:
    """Radial wind-profile parameters.

    Parameters
    ----------
    Vm : float
        Maximum sustained wind speed (m/s), > 0.
    Rm : float
        Radius of maximum winds (km), > 0.
    B : float
        Profile shape parameter, > 0 (default 1; typically between 1 and 2.5).
    """

    Vm: float
    Rm: float
    B: float = 1.0

    def __post_init__(self):
        if self.Vm <= 0:
            raise ValueError("Vm must be > 0")
        if self.Rm <= 0:
            raise ValueError("Rm must be > 0")
        if self.B <= 0:
            raise ValueError("B must be > 0")


@dataclass(frozen=True)
class Track:
    """Straight-line storm track at constant translation velocity.

    Parameters
    ----------
    x0 : tuple of float
        Genesis position (km, km) at elapsed time zero.
    Vtr : tuple of float
        Translation velocity vector (m/s, m/s).
    duration : float
        Storm lifetime in hours, > 0.
    """

    x0: tuple[float, float]
    Vtr: tuple[float, float]
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be > 0")

    @property
    def speed(self) -> float:
        """Translation speed ||Vtr|| in m/s."""
        return float(np.hypot(*self.Vtr))

    def position(self, elapsed_h) -> np.ndarray:
        """Storm-centre position (km) after `elapsed_h` hours.

        Accepts a scalar or an array of elapsed times; returns shape (..., 2).
        """
        t = np.asarray(elapsed_h, dtype=float)
        out = np.empty(t.shape + (2,))
        out[..., 0] = self.x0[0] + self.Vtr[0] * MPS_TO_KMH * t
        out[..., 1] = self.x0[1] + self.Vtr[1] * MPS_TO_KMH * t
        return out


@dataclass(frozen=True)
class WindField:
    """Wind speeds on a grid over discrete times.

    `velocities` has shape (n_cells, n_steps), in m/s, all finite and >= 0.
    """

    grid: Grid
    times: TimeAxis
    velocities: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.velocities, dtype=float)
        if v.shape != (self.grid.n_cells, self.times.n_steps):
            raise ValueError(
                f"velocities shape {v.shape} does not match grid/times "
                f"({self.grid.n_cells}, {self.times.n_steps})"
            )
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("velocities must be finite and >= 0")
        object.__setattr__(self, "velocities", v)


# =============================================================================
# Radial profile
# =============================================================================


def holland_speed(p: HollandParams, r):
    """Wind speed (m/s) at radius `r` km from the storm centre.

    Vectorized over `r`.  The r -> 0 limit of the profile is 0 m/s and is
    returned as such (storm-centre cells occur routinely); negative radii are
    an error.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be >= 0")
    out = np.zeros(r.shape)
    pos = r > 0
    # Evaluated as Vm * exp((B/2) log(Rm/r) + (1 - (Rm/r)^B) / 2): near the
    # centre (Rm/r)^B overflows, but the exponent then underflows to -inf and
    # the speed correctly evaluates to 0 instead of inf * 0 = nan.  The log is
    # taken as a difference so the ratio itself cannot overflow for subnormal r.
    with np.errstate(over="ignore"):
        logx = np.log(p.Rm) - np.log(r[pos])
        out[pos] = p.Vm * np.exp(0.5 * p.B * logx + 0.5 * (1.0 - np.exp(p.B * logx)))
    if out.ndim == 0:
        return float(out)
    return out


def _radii(track: Track, grid: Grid, times: TimeAxis) -> np.ndarray:
    """Distance (km) from every cell centre to the storm centre at every time.

    Shape (n_cells, n_steps).
    """
    centers = grid.centers()  # (n_cells, 2)
    pos = track.position(times.offsets())  # (n_steps, 2)
    dx = centers[:, 0:1] - pos[None, :, 0]
    dy = centers[:, 1:2] - pos[None, :, 1]
    return np.hypot(dx, dy)


def axisymmetric_field(
    track: Track, p: HollandParams, grid: Grid, times: TimeAxis
) -> WindField:
    """Axisymmetric wind field: speed is the radial profile of the distance
    from each cell to the instantaneous storm centre."""
    r = _radii(track, grid, times)
    return WindField(grid=grid, times=times, velocities=holland_speed(p, r))


def asymmetric_field(
    track: Track,
    p: HollandParams,
    grid: Grid,
    times: TimeAxis,
    hemisphere: str = "N",
) -> WindField:
    """Wind field with translation asymmetry.

    The cyclonic wind vector (magnitude from the radial profile, direction
    tangential — counterclockwise around the centre in the Northern
    Hemisphere) is vector-added to the translation velocity; the field stores
    the magnitude of the sum.  For a northward-moving storm the maximum at
    fixed radius falls 90 degrees clockwise of the translation direction,
    i.e. due east of the centre.
    """
    if hemisphere not in ("N", "S"):
        raise ValueError("hemisphere must be 'N' or 'S'")
    if track.Vtr == (0.0, 0.0):
        # Degenerate stationary storm: the tangential magnitude is unchanged,
        # so return the axisymmetric field exactly (no rounding through the
        # unit-vector decomposition).
        return axisymmetric_field(track, p, grid, times)
    spin = 1.0 if hemisphere == "N" else -1.0
    centers = grid.centers()
    pos = track.position(times.offsets())
    dx = centers[:, 0:1] - pos[None, :, 0]
    dy = centers[:, 1:2] - pos[None, :, 1]
    r = np.hypot(dx, dy)
    v = holland_speed(p, r)
    # Tangential unit vector for counterclockwise rotation: (-dy, dx) / r.
    with np.errstate(invalid="ignore", divide="ignore"):
        tx = np.where(r > 0, -spin * dy / r, 0.0)
        ty = np.where(r > 0, spin * dx / r, 0.0)
    wx = v * tx + track.Vtr[0]
    wy = v * ty + track.Vtr[1]
    return WindField(grid=grid, times=times, velocities=np.hypot(wx, wy))


# =============================================================================
# Wind-field CSV
# =============================================================================

WINDFIELD_HEADER = ["cell_id", "time_index", "velocity_mps"]


def save_wind_field(field: WindField, path, header_comment: str | None = None) -> None:
    """Write a wind field as columnar CSV `cell_id,time_index,velocity_mps`.

    Velocities round-trip exactly and always carry at least nine significant
    digits.  `header_comment`, if given, is written as a leading `#` line
    (readers skip such lines).
    """
    rows = (
        (cell, t, format(x, VELOCITY_FMT))
        for cell, vc in enumerate(field.velocities)
        for t, x in enumerate(vc.tolist())
    )
    _write_csv(path, WINDFIELD_HEADER, rows, header_comment)


def load_wind_field(path, grid: Grid, times: TimeAxis) -> WindField:
    """Read a wind-field CSV written by `save_wind_field`."""
    v = np.full((grid.n_cells, times.n_steps), np.nan)
    n_rows = 0
    for lineno, row in _read_csv(path, WINDFIELD_HEADER):
        try:
            cell = int(row[0])
            t = int(row[1])
            vel = float(row[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from None
        if not (0 <= cell < grid.n_cells and 0 <= t < times.n_steps):
            raise ValueError(f"{path}:{lineno}: cell/time out of range")
        v[cell, t] = vel
        n_rows += 1
    _check_no_repeats(path, WINDFIELD_HEADER, v, n_rows)
    missing = np.argwhere(np.isnan(v))
    if missing.size:
        cell, t = missing[0]
        raise ValueError(f"{path}: missing velocity for cell {cell}, time {t}")
    return WindField(grid=grid, times=times, velocities=v)
