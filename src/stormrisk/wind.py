"""
Parametric hurricane wind fields.

A storm is a straight-line track with a constant radial wind profile
V(r) = Vm * (Rm/r)^(B/2) * exp((1 - (Rm/r)^B) / 2), which peaks at V(Vm) = Vm
at the radius of maximum winds r = Rm and decays monotonically outside it.
Fields come in two flavours: axisymmetric (speed depends only on radius) and
asymmetric, where the tangential cyclonic wind vector is added to the storm
translation vector so that, for a northward-moving storm in the Northern
Hemisphere, the strongest winds sit due east of the centre.

Storm geometry lives in one kernel, `_wind_steps`: for each storm position it
yields the index window of grid cells within a given reach of the centre,
their distances r to the centre and their speeds v.  Dense fields take the
whole grid at every step (`fail-dist` only the sub-grid of its cells); the
swath and zone reducers of `critzone` and the damage/loss sweep of
`aggregate` consume the same steps, the sweep for a chunk of storms at once.

Window invariant.  A reducer that evaluates only a window must give each
cell outside it the result an evaluation would give.  `critzone.storm_swath`
uses the reach W plus one cell, where W >= max(Rm, Rcrit(Vhot)) is the
closed-form bound `critzone._window_radius` and Vhot = Vcrit - ||Vtr|| (the
||Vtr|| term only for an asymmetric storm: vector addition raises a speed by
at most ||Vtr||).  Beyond W a cell is outside Rm and its wind is below Vcrit,
the zone threshold, so its zone bit is unchanged and its intensity is
exactly `lambda_norm`, which it receives without evaluation.
Every cell still adds its per-step intensities one at a time in time order,
so the swath is bit-identical to evaluating every cell at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import _write_velocities
from .grid import Grid, TimeAxis

MPS_TO_KMH = 3.6


@dataclass(frozen=True)
class HollandParams:
    """Radial wind-profile parameters.

    Parameters
    ----------
    Vm : float
        Maximum sustained wind speed (m/s), finite and > 0.
    Rm : float
        Radius of maximum winds (km), finite and > 0.
    B : float
        Profile shape parameter, finite and > 0 (default 1; typically 1-2.5).
    """

    Vm: float
    Rm: float
    B: float = 1.0

    def __post_init__(self):
        for name in ("Vm", "Rm", "B"):
            # Also false for NaN, so a NaN storm cannot pass as a calm one.
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")


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


def holland_speed(p, r):
    """Wind speed (m/s) at radius `r` km from the storm centre.

    Vectorized over `r`.  The r -> 0 limit of the profile is 0 m/s and is
    returned as such (storm-centre cells occur routinely); negative radii are
    an error.  `p` is one `HollandParams`, or a sequence of them: a batch of
    storms, which adds a leading storms axis and takes each radius's log once.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be >= 0")
    out = _speed(*_profile(p, r.ndim), r)
    return float(out) if out.ndim == 0 else out


def _profile(p, ndim):
    """(Vm, Rm, B) of a storm, or of a batch as columns for `ndim`-d radii."""
    if isinstance(p, HollandParams):
        return p.Vm, p.Rm, p.B
    rows = np.array([(q.Vm, q.Rm, q.B) for q in p], dtype=float).reshape(-1, 3)
    return rows.T.reshape((3, -1) + (1,) * ndim)


def _speed(Vm, Rm, B, r):
    """`holland_speed` of `_profile` parameters at radii `r` >= 0, unchecked."""
    # Evaluated as Vm * exp((B/2) log(Rm/r) + (1 - (Rm/r)^B) / 2): near the
    # centre (Rm/r)^B overflows, but the exponent then underflows to -inf and
    # the speed correctly evaluates to 0 instead of inf * 0 = nan.  The log is
    # taken as a difference so the ratio itself cannot overflow for subnormal r.
    # At r = 0 the exponent is inf - inf = nan; the limit there is 0.  The
    # steps run in place, in that expression's order up to operand order (IEEE
    # results do not depend on it); with B = 1 the exact products by B are
    # skipped.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logx = np.log(Rm) - np.log(r)
        v = np.empty(np.shape(logx))
        unit = (B == 1).all() if isinstance(B, np.ndarray) else B == 1
        np.exp(logx if unit else np.multiply(logx, B, out=v), out=v)
        np.subtract(1.0, v, out=v)
        v *= 0.5
        logx *= 0.5 if unit else 0.5 * B
        v += logx
        np.exp(v, out=v)
        v *= Vm
    np.copyto(v, 0.0, where=~(r > 0))
    return v


def _wind_steps(p, xs, ys, pos, reach=np.inf, Vtr=(0.0, 0.0), hemisphere="N"):
    """The storm-geometry kernel: the wind at each storm position in turn.

    `xs` and `ys` are the ascending cell-centre coordinates of a rectangular
    grid and `pos` the (n_steps, 2) storm-centre positions, in km.  Yields
    `(window, r, v)` per position: the index window `(rows, cols)` of slices
    covering every cell within `reach` km of the centre on both axes (the
    whole grid when `reach` is infinite), the cell-to-centre distances `r`
    and the wind speeds `v` on that window.  With a non-zero translation
    velocity `Vtr` (m/s) the speed is the magnitude of the cyclonic wind
    vector plus `Vtr`; see the module docstring.  For a batch of storms `p`
    (see `holland_speed`), `v` has a leading storms axis.
    """
    if hemisphere not in ("N", "S"):
        raise ValueError("hemisphere must be 'N' or 'S'")
    spin = 1.0 if hemisphere == "N" else -1.0
    # A stationary storm skips the vector sum, so its speeds are exactly the
    # axisymmetric ones (no rounding through the unit-vector decomposition).
    asymmetric = tuple(Vtr) != (0.0, 0.0)
    lo_x = np.searchsorted(xs, pos[:, 0] - reach)
    hi_x = np.searchsorted(xs, pos[:, 0] + reach, side="right")
    lo_y = np.searchsorted(ys, pos[:, 1] - reach)
    hi_y = np.searchsorted(ys, pos[:, 1] + reach, side="right")
    profile = _profile(p, 2)
    for t, (px, py) in enumerate(pos):
        window = (slice(lo_x[t], hi_x[t]), slice(lo_y[t], hi_y[t]))
        dx = xs[window[0], None] - px
        dy = ys[None, window[1]] - py
        r = np.hypot(dx, dy)  # never negative, so the profile skips the check
        v = _speed(*profile, r)
        if asymmetric:
            # Tangential unit vector for counterclockwise rotation: (-dy, dx) / r.
            with np.errstate(invalid="ignore", divide="ignore"):
                tx = np.where(r > 0, -spin * dy / r, 0.0)
                ty = np.where(r > 0, spin * dx / r, 0.0)
            v = np.hypot(v * tx + Vtr[0], v * ty + Vtr[1])
        yield window, r, v


def _sub_grid(grid: Grid, cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axes of the sub-grid of the distinct x and y columns of `cells`,
    ascending, and each cell's index in it.  The kernel computes each value on
    its own, so the sub-grid's field holds exactly the grid's at `cells`."""
    xs, ys = grid.axes()
    ux, ix = np.unique(np.asarray(cells) // grid.ny, return_inverse=True)
    uy, iy = np.unique(np.asarray(cells) % grid.ny, return_inverse=True)
    return xs[ux], ys[uy], ix * len(uy) + iy


def _velocities(track, p, xs, ys, times, Vtr=(0.0, 0.0), hemisphere="N") -> np.ndarray:
    """The (len(xs) * len(ys), n_steps) speeds on the grid with axes `xs`, `ys`."""
    velocities = np.empty((len(xs) * len(ys), times.n_steps))
    steps = _wind_steps(p, xs, ys, track.position(times.offsets()), Vtr=Vtr, hemisphere=hemisphere)
    for t, (_, _, v) in enumerate(steps):
        velocities[:, t] = v.ravel()
    return velocities


def axisymmetric_field(
    track: Track, p: HollandParams, grid: Grid, times: TimeAxis
) -> WindField:
    """Axisymmetric wind field: speed is the radial profile of the distance
    from each cell to the instantaneous storm centre."""
    return WindField(grid=grid, times=times, velocities=_velocities(track, p, *grid.axes(), times))


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
    i.e. due east of the centre.  A stationary storm gives the axisymmetric
    field exactly.
    """
    v = _velocities(track, p, *grid.axes(), times, track.Vtr, hemisphere)
    return WindField(grid=grid, times=times, velocities=v)


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
    _write_velocities(path, WINDFIELD_HEADER, [field.velocities], header_comment)
