"""
Parametric hurricane wind fields.

A storm is a straight-line track with a constant radial wind profile
V(r) = Vm * (Rm/r)^(B/2) * exp((1 - (Rm/r)^B) / 2), which peaks at V(Vm) = Vm
at the radius of maximum winds r = Rm and decays monotonically outside it.
Fields come in two flavours: axisymmetric (speed depends only on radius) and
asymmetric, where the tangential cyclonic wind vector is added to the storm
translation vector so that, for a northward-moving storm in the Northern
Hemisphere, the strongest winds sit due east of the centre.

One kernel, `_kernel`, holds the storm geometry: per storm position, the
window of grid cells within a reach of the centre, their distances r, the
profile's Vm = 1 shape at r and, for a moving asymmetric storm, the tangent
unit vectors.  The profile's last step is the product by Vm, so each
consumer (the dense fields of `_velocities`, the damage/loss sweep of
`aggregate`, the swaths of `critzone`) multiplies the shape by its own Vm,
exactly, and adds the translation through `_vector_sum`.

Window invariant.  A reducer that evaluates only a window must give each
cell outside it the result an evaluation would give.  `critzone.storm_swath`
uses the reach W = `_reach` at Vcrit.  A cell outside the window is at least
W from the centre as the kernel computes it: `np.searchsorted` on the
correctly rounded px - W and px + W leaves out only centres x < px - W or
x > px + W exactly (rounding is monotone), the rounded difference x - px is
then still at least W in magnitude, the same holds on the y axis, and
`np.hypot` is never below max(|dx|, |dy|).  So the cell's wind is below
Vcrit and it is not inside Rm: its zone bit is unchanged and its intensity
is exactly `lambda_norm`, which it receives without evaluation.  Every cell
still adds its per-step intensities one at a time in time order, so the
swath is bit-identical to evaluating every cell at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import _require, _test, _write_velocities
from .grid import _ORIGIN_CHECK, Grid, TimeAxis

MPS_TO_KMH = 3.6

# `HollandParams`' checks, which the sweeps' storm screen and the ensemble's draws read too.
_HOLLAND_CHECKS = {"Vm": "in [1, 150]", "Rm": "in [1, 500]", "B": "in [0.5, 3]"}


@dataclass(frozen=True)
class HollandParams:
    """Radial wind-profile parameters.

    Parameters
    ----------
    Vm : float
        Maximum sustained wind speed (m/s), in [1, 150].
    Rm : float
        Radius of maximum winds (km), in [1, 500].
    B : float
        Profile shape parameter, in [0.5, 3] (default 1; typically 1-2.5).
    """

    Vm: float
    Rm: float
    B: float = 1.0

    def __post_init__(self):
        _require(self, **_HOLLAND_CHECKS)


def _require_storms(Vm, Rm, B: float = 1.0) -> None:
    """Raises the `HollandParams` error of the first invalid storm of the
    arrays `Vm`, `Rm` (of exponent `B`), if any."""
    Vm_ok, Rm_ok, B_ok = map(_test, _HOLLAND_CHECKS.values())
    valid = Vm_ok(Vm) & Rm_ok(Rm) & B_ok(B)
    if not valid.all():
        i = np.argmin(valid)
        HollandParams(Vm=Vm[i].item(), Rm=Rm[i].item(), B=B)


def _sweep_storms(Vm_values, Rm_values, B: float):
    """Flat (Vm, Rm) of the cartesian sweep, Vm outer.  Raises the
    `HollandParams` error of its first invalid storm, if any."""
    Vm, Rm = np.repeat(Vm_values, len(Rm_values)), np.tile(Rm_values, len(Vm_values))
    _require_storms(Vm, Rm, B)
    return Vm, Rm


# `Track`'s checks, which every ensemble member passes: its genesis is a config position plus a N(0, <= 2e4 km)
# draw (numpy's ziggurat stays within 14 sigma), its velocity a rotation of one in [-50, 50]^2, of norm <= 50 sqrt(2).
_TRACK_CHECKS = {"x0": _ORIGIN_CHECK, "Vtr": "in [-75, 75]"}


@dataclass(frozen=True)
class Track:
    """Straight-line storm track at constant translation velocity.

    Parameters
    ----------
    x0 : tuple of float
        Genesis position (km, km) at elapsed time zero, each in [-1e7, 1e7].
    Vtr : tuple of float
        Translation velocity vector (m/s, m/s), each in [-75, 75].

    The storm's span is the run's `TimeAxis`.
    """

    x0: tuple[float, float]
    Vtr: tuple[float, float]

    def __post_init__(self):
        _require(self, **_TRACK_CHECKS)

    def position(self, elapsed_h) -> np.ndarray:
        """Storm-centre position (km) after `elapsed_h` hours.

        Accepts a scalar or an array of elapsed times; returns shape (..., 2).
        """
        t = np.asarray(elapsed_h, dtype=float)
        return np.asarray(self.x0, dtype=float) + (np.asarray(self.Vtr, dtype=float) * MPS_TO_KMH) * t[..., None]


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
    returned as such (storm-centre cells occur routinely); negative or NaN
    radii are an error.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):  # NaN fails it too
        raise ValueError("radius must be >= 0")
    out = _speed(p.Rm, p.B, r)
    out *= p.Vm
    return float(out) if out.ndim == 0 else out


def _speed(Rm, B, r):
    """The profile's Vm = 1 shape at radii `r` >= 0, unchecked; `Rm` may be an
    array, `B` is one number.  A storm's speeds are its `Vm` times these: the
    product by Vm is the profile's last step, and 0 times Vm is 0."""
    # Evaluated as exp((B/2) log(Rm/r) + (1 - (Rm/r)^B) / 2): near the centre
    # (Rm/r)^B overflows, but the exponent then underflows to -inf and the
    # speed correctly evaluates to 0 instead of inf * 0 = nan.  The log is
    # taken as a difference so the ratio itself cannot overflow for subnormal r.
    # At r = 0 the exponent is inf - inf = nan; the limit there is 0.  The
    # steps run in place, in that expression's order up to operand order (IEEE
    # results do not depend on it); with B = 1 the exact products by B are
    # skipped.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logx = np.log(Rm) - np.log(r)
        v = np.empty(np.shape(logx))
        unit = B == 1
        np.exp(logx if unit else np.multiply(logx, B, out=v), out=v)
        np.subtract(1.0, v, out=v)
        v *= 0.5
        logx *= 0.5 if unit else 0.5 * B
        v += logx
        np.exp(v, out=v)
    np.copyto(v, 0.0, where=~(r > 0))
    return v


def _windows(xs, ys, pos, reach) -> list[tuple[slice, slice]]:
    """Per storm-centre position of `pos` ((n_steps, 2), km), the index window
    `(rows, cols)` of the cells whose centres lie within `reach` km of it on
    both axes (the whole grid when `reach` is infinite); `xs` and `ys` are the
    ascending cell-centre coordinates of a rectangular grid."""
    bounds = (
        np.searchsorted(xs, pos[:, 0] - reach),
        np.searchsorted(xs, pos[:, 0] + reach, side="right"),
        np.searchsorted(ys, pos[:, 1] - reach),
        np.searchsorted(ys, pos[:, 1] + reach, side="right"),
    )
    return [(slice(a, b), slice(c, d)) for a, b, c, d in zip(*(x.tolist() for x in bounds))]


def _lambert_w0(z: float) -> float:
    """Principal branch W0 of the Lambert W function on -1/e < z < 0: the w in (-1, 0) with w e^w = z.
    From the branch-point series in p = sqrt(2 (e z + 1)), five Halley steps (cubic convergence)
    reach rounding level everywhere on the interval, down to subnormal z."""
    p = math.sqrt(2.0 * (math.e * z + 1.0))
    w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0))
    for _ in range(5):
        ew = math.exp(w)
        f = w * ew - z
        if f == 0.0:
            break
        wp1 = w + 1.0
        w -= f / (ew * wp1 - 0.5 * (w + 2.0) * f / wp1)
    return w


def _reach(p: HollandParams, Vtr, Vthres: float) -> float:
    """The radius (km) beyond which no cell lies inside Rm or has a wind >= `Vthres` for storm `p` of
    translation `Vtr` (`_translation`'s): vector addition raises a speed by at most ||Vtr|| (0 for None),
    so the profile there is below Vhot = Vthres - ||Vtr||.  Infinite when Vhot <= 0, Rm when Vm < Vhot.

    With y = (Rm/r)^B the profile reads (V/Vm)^2 = y e^(1-y), so it equals U at Rm y^(-1/B),
    y = -W0(-(U/Vm)^2 / e).  U = Vhot (1 - 1e-8), a margin far larger than the rounding of W or of
    the profile, so the profile is below Vhot there and keeps decreasing outward.
    """
    Vhot = Vthres - (0.0 if Vtr is None else float(np.hypot(*Vtr)))
    if Vhot <= 0:
        return np.inf
    if p.Vm < Vhot:
        return p.Rm
    y = -_lambert_w0(-(((1.0 - 1e-8) * Vhot / p.Vm) ** 2) / math.e)
    return p.Rm * y ** (-1.0 / p.B)


def _spin(hemisphere: str) -> float:
    """The cyclonic sense: 1 counterclockwise (Northern `hemisphere`), -1 clockwise."""
    if hemisphere not in ("N", "S"):
        raise ValueError("hemisphere must be 'N' or 'S'")
    return 1.0 if hemisphere == "N" else -1.0


def _kernel(Rm, B, xs, ys, pos, reach=np.inf, spin=None):
    """The storm kernel: per position of `pos` ((n_steps, 2), km) on the grid
    of ascending cell-centre axes `xs`, `ys`, `(window, r, shape, tangents)`:
    the `_windows` window for `reach`, the cell-to-centre distances there, the
    profile's Vm = 1 shape `_speed(Rm, B, r)`, and, given the cyclonic sense
    `spin` (`_spin`), the tangent unit vectors spin (-dy, dx) / r, (0, 0) at
    the centre (else None)."""
    for window, (px, py) in zip(_windows(xs, ys, pos, reach), pos):
        dx = xs[window[0], None] - px
        dy = ys[None, window[1]] - py
        r = np.hypot(dx, dy)  # never negative, so the profile skips the check
        tangents = None
        if spin is not None:
            with np.errstate(invalid="ignore", divide="ignore"):
                tangents = np.where(r > 0, -spin * dy / r, 0.0), np.where(r > 0, spin * dx / r, 0.0)
        yield window, r, _speed(Rm, B, r), tangents


def _vector_sum(v, tx, ty, Vtr) -> np.ndarray:
    """Magnitude of the cyclonic wind of speed `v` along the tangent (`tx`, `ty`) plus the translation `Vtr` (m/s)."""
    return np.hypot(v * tx + Vtr[0], v * ty + Vtr[1])


def _sub_grid(grid: Grid, cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Axes of the sub-grid of the distinct x and y columns of `cells`,
    ascending, and each cell's index in it.  The kernel computes each value on
    its own, so the sub-grid's field holds exactly the grid's at `cells`."""
    xs, ys = grid.axes()
    ux, ix = np.unique(np.asarray(cells) // grid.ny, return_inverse=True)
    uy, iy = np.unique(np.asarray(cells) % grid.ny, return_inverse=True)
    return xs[ux], ys[uy], ix * len(uy) + iy


def _translation(track: Track, asymmetric: bool):
    """The velocity (m/s) added to the cyclonic wind: the track's for an asymmetric storm, None
    for an axisymmetric or a stationary one (whose speeds are then exactly the profile's)."""
    return track.Vtr if asymmetric and tuple(track.Vtr) != (0.0, 0.0) else None


def _velocities(track, p, xs, ys, times, asymmetric, hemisphere) -> np.ndarray:
    """The (len(xs) * len(ys), n_steps) speeds on the grid with axes `xs`, `ys`."""
    velocities = np.empty((len(xs) * len(ys), times.n_steps))
    Vtr, spin = _translation(track, asymmetric), _spin(hemisphere)
    steps = _kernel(p.Rm, p.B, xs, ys, track.position(times.offsets()), spin=None if Vtr is None else spin)
    for t, (_, _, v, tangents) in enumerate(steps):
        v *= p.Vm
        velocities[:, t] = (v if Vtr is None else _vector_sum(v, *tangents, Vtr)).ravel()
    return velocities


def wind_field(
    track: Track,
    p: HollandParams,
    grid: Grid,
    times: TimeAxis,
    asymmetric: bool = False,
    hemisphere: str = "N",
) -> WindField:
    """Wind field of one storm: at each cell and time, the radial profile of
    the distance to the instantaneous storm centre.

    With `asymmetric`, the cyclonic wind vector (magnitude from the radial
    profile, direction tangential: counterclockwise around the centre in the
    Northern `hemisphere`, clockwise in the Southern) is vector-added to the
    translation velocity and the field stores the magnitude of the sum.  For
    a northward-moving storm the maximum at fixed radius falls 90 degrees
    clockwise of the translation direction, i.e. due east of the centre.  A
    stationary storm gives the axisymmetric field exactly.
    """
    v = _velocities(track, p, *grid.axes(), times, asymmetric, hemisphere)
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
