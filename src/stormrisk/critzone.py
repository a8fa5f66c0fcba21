"""
Critical-zone geometry: the region a storm damages beyond nominal rates.

A cell is in the critical zone if at some time it lies inside the radius of
maximum winds, or its wind speed reaches the threshold (default: the critical
velocity of the failure model).  For an axisymmetric straight-line storm the
zone is an obround — the swath of a disc of the critical radius dragged along
the track — which gives a closed-form area to check the numeric zone against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import TABLE_FMT, _write_csv
from .fitting import LinearFit, linear_least_squares
from .grid import Grid, TimeAxis
from .nhpp import NhppParams, _intensity
from .wind import (
    MPS_TO_KMH,
    HollandParams,
    Track,
    WindField,
    _speed,
    _wind_steps,
)


# =============================================================================
# Critical radius
# =============================================================================


def critical_radius(p: HollandParams, Vthres: float) -> float | None:
    """Outer radius (km) at which the radial wind profile equals `Vthres`.

    None when Vm < Vthres (no such radius exists); Rm when Vm == Vthres;
    otherwise the unique root beyond Rm, found by bisection on the monotone
    outer branch to |V(r) - Vthres| <= 1e-9 m/s.
    """
    if Vthres <= 0:
        raise ValueError("Vthres must be > 0")
    (Rc,) = _critical_radii(*np.array([[p.Vm], [p.Rm], [p.B]], dtype=float), Vthres)
    return None if np.isnan(Rc) else float(Rc)


def _critical_radii(Vm, Rm, B, Vthres: float) -> np.ndarray:
    """`critical_radius` of each storm of the float arrays `Vm`, `Rm`, `B`,
    nan where it is None, all bisected at once.

    Each storm starts from lo = Rm and hi = 2 Rm, doubles hi while V(hi) >=
    Vthres, then halves [lo, hi] until |V(mid) - Vthres| <= 1e-9 m/s; a done
    mask freezes each storm's result at its own last midpoint.
    """
    out = np.where(Vm == Vthres, Rm, np.nan)
    todo = Vm > Vthres
    lo, hi = Rm, 2.0 * Rm
    grow = todo.copy()
    while grow.any():
        grow &= _speed(Vm, Rm, B, hi) >= Vthres
        hi[grow] *= 2.0
    for _ in range(200):
        if not todo.any():
            return out
        mid = 0.5 * (lo + hi)
        v = _speed(Vm, Rm, B, mid)
        done = todo & (np.abs(v - Vthres) <= 1e-9)
        out[done] = mid[done]
        todo &= ~done
        above = v > Vthres
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    if todo.any():
        raise RuntimeError("critical_radius bisection did not converge")
    return out


# =============================================================================
# Numeric critical zone
# =============================================================================


@dataclass(frozen=True)
class CriticalZone:
    """Cells of a grid belonging to the critical zone.

    `cells` are sorted grid ids; `area` is their total area in km^2.
    """

    cells: np.ndarray
    area: float
    Vthres: float

    def __post_init__(self):
        if self.Vthres <= 0:
            raise ValueError("Vthres must be > 0")
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=int))

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def mask(self, n_cells_total: int) -> np.ndarray:
        m = np.zeros(n_cells_total, dtype=bool)
        m[self.cells] = True
        return m


def critical_zone_numeric(
    field: WindField,
    Vthres: float,
    p: HollandParams,
    track: Track,
) -> CriticalZone:
    """Union over times of the per-time critical zones of a wind field.

    A cell enters if at any sample time it lies within Rm of the
    instantaneous storm centre, or its stored wind speed is >= `Vthres`.
    Works for both axisymmetric and asymmetric fields (the inside-Rm clause
    is always evaluated against the centre of the given track).
    """
    grid = field.grid
    xs, ys = grid.axes()
    pos = track.position(field.times.offsets())
    inside = np.zeros((grid.nx, grid.ny), dtype=bool)
    for window, r, _ in _wind_steps(p, xs, ys, pos, reach=p.Rm + grid.cell_size):
        inside[window] |= r < p.Rm
    cells = np.flatnonzero(inside.ravel() | np.any(field.velocities >= Vthres, axis=1))
    return CriticalZone(cells=cells, area=len(cells) * grid.cell_area, Vthres=Vthres)


def obround_area(Rcrit: float, T: float, Vtr) -> float:
    """Closed-form critical-zone area (km^2) for a straight constant storm.

    A disc of radius `Rcrit` dragged for `T` hours at translation velocity
    `Vtr` (m/s vector or scalar speed) sweeps a rectangle capped by two
    semicircles: 2 * Rcrit * (T * ||Vtr|| * 3.6) + pi * Rcrit^2.
    """
    if Rcrit < 0:
        raise ValueError("Rcrit must be >= 0")
    speed = float(np.hypot(*Vtr)) if np.ndim(Vtr) else float(Vtr)
    return 2.0 * Rcrit * T * speed * MPS_TO_KMH + np.pi * Rcrit * Rcrit


def _zone_stats(rates, zone) -> dict[str, float]:
    """Maximum and mean of `rates` over a zone given as a boolean mask or as
    sorted cell ids; both are 0 for an empty zone."""
    sub = np.asarray(rates, dtype=float)[zone]
    if sub.size == 0:
        return {"max": 0.0, "mean": 0.0}
    return {"max": float(sub.max()), "mean": float(sub.mean())}


def zone_failure_stats(rates, zone: CriticalZone) -> dict[str, float]:
    """Maximum and mean failure rate over the zone's cells."""
    return _zone_stats(rates, zone.cells)


_AREA_ROWS = 32  # x-rows per block of `axisymmetric_zone_area`'s count


def axisymmetric_zone_area(
    track: Track,
    p: HollandParams,
    times: TimeAxis,
    Rcrit: float | None,
    cell_size: float = 2.0,
) -> float:
    """Numeric critical-zone area (km^2) of an axisymmetric storm whose
    critical radius is `Rcrit` (`critical_radius`; None below threshold).

    For an axisymmetric field the union-over-times zone is exactly the set of
    cells whose minimum distance to the sampled storm centres is at most the
    critical radius (with the inside-Rm clause covering subcritical storms),
    so the area can be counted without materializing a wind field.  The
    sampled centres are collinear and equally spaced, so the nearest one is
    found by rounding the projection onto the track.
    """
    radius = p.Rm if Rcrit is None else Rcrit
    # A cell counts when d < Rm or d <= Rcrit: one test, as d < Rm is d <=
    # the float below Rm.
    below_rm = np.nextafter(p.Rm, 0.0)
    limit = below_rm if Rcrit is None else max(Rcrit, below_rm)
    pos = track.position(times.offsets())
    a, b = pos[0], pos[-1]
    step = np.hypot(*(pos[1] - pos[0])) if times.n_steps > 1 else 0.0
    pad = radius + 2 * cell_size
    xmin, ymin = np.minimum(a, b) - pad
    xmax, ymax = np.maximum(a, b) + pad
    xs = np.arange(xmin + cell_size / 2, xmax, cell_size)
    ys = np.arange(ymin + cell_size / 2, ymax, cell_size)
    if step > 0:
        ex, ey = (b - a) / np.hypot(*(b - a))
    else:
        ex, ey = 1.0, 0.0
    # Blocks of _AREA_ROWS x-rows, every step in place in two buffers: each
    # value is the one whole-array expressions would give, so is the count.
    pye = (ys - a[1]) * ey
    k = np.empty((_AREA_ROWS, len(ys)))
    d = np.empty_like(k)
    inside = np.empty(k.shape, dtype=bool)
    count = 0
    for x0 in range(0, len(xs), _AREA_ROWS):
        X = xs[x0 : x0 + _AREA_ROWS, None]
        n = len(X)
        kb, db, ib = k[:n], d[:n], inside[:n]
        if step > 0:
            # k * step, k the nearest step, clipped to the track's ends before
            # the division so that a subnormal step cannot overflow it.
            np.add((X - a[0]) * ex, pye, out=kb)
            np.clip(kb, 0, (times.n_steps - 1) * step, out=kb)
            kb /= step
            np.rint(kb, out=kb)
            kb *= step
        else:
            kb.fill(0.0)
        np.multiply(kb, ex, out=db)
        db += a[0]
        np.subtract(X, db, out=db)  # X - cx
        kb *= ey
        kb += a[1]
        np.subtract(ys, kb, out=kb)  # Y - cy
        np.hypot(db, kb, out=db)
        count += int(np.count_nonzero(np.less_equal(db, limit, out=ib)))
    return count * cell_size * cell_size


# =============================================================================
# Parametric critical-radius / critical-area fits
# =============================================================================


@dataclass(frozen=True)
class CritRadiusFit:
    """Power-law fit Rcrit ~ a1 * Rm * (Vm / Vthres)^a2 on a (Vm, Rm) sweep.

    Estimated in log space by least squares; `se_log_a1` and `se_a2` are the
    coefficient standard errors of the log-space regression and `residual`
    its RMS log error.
    """

    a1: float
    a2: float
    se_log_a1: float
    se_a2: float
    residual: float
    Vthres: float

    def predict(self, Vm, Rm) -> np.ndarray:
        Vm = np.asarray(Vm, dtype=float)
        Rm = np.asarray(Rm, dtype=float)
        return self.a1 * Rm * (Vm / self.Vthres) ** self.a2


def sweep_critical_radius(Vm_values, Rm_values, Vthres: float, B: float = 1.0):
    """Critical radii over the cartesian (Vm, Rm) sweep.

    Returns flat arrays (Vm, Rm, Rcrit) covering pairs with Vm >= Vthres, Vm
    the outer axis.
    """
    Vm_values, Rm_values = np.asarray(Vm_values), np.asarray(Rm_values)
    Vm = np.repeat(Vm_values, len(Rm_values))
    Rm = np.tile(Rm_values, len(Vm_values))
    valid = (0 < Vm) & (Vm < np.inf) & (0 < Rm) & (Rm < np.inf) & (0 < B < np.inf)
    if not valid.all():
        i = np.argmin(valid)
        HollandParams(Vm=Vm[i], Rm=Rm[i], B=B)  # raises the first pair's error
    Rc = _critical_radii(Vm.astype(float), Rm.astype(float), np.full(len(Vm), float(B)), Vthres)
    keep = ~np.isnan(Rc)
    return Vm[keep], Rm[keep], Rc[keep]


def fit_crit_radius(Vm, Rm, Rcrit, Vthres: float) -> CritRadiusFit:
    """Least-squares fit of log(Rcrit / Rm) = log(a1) + a2 * log(Vm / Vthres)."""
    Vm = np.asarray(Vm, dtype=float)
    Rm = np.asarray(Rm, dtype=float)
    Rcrit = np.asarray(Rcrit, dtype=float)
    y = np.log(Rcrit / Rm)
    X = np.column_stack([np.ones_like(y), np.log(Vm / Vthres)])
    fit = linear_least_squares(X, y)
    return CritRadiusFit(
        a1=float(np.exp(fit.beta[0])),
        a2=float(fit.beta[1]),
        se_log_a1=float(fit.se[0]),
        se_a2=float(fit.se[1]),
        residual=fit.rms,
        Vthres=Vthres,
    )


def fit_power_law_vm_only(Vm, Rcrit) -> LinearFit:
    """Best single-term power law Rcrit ~ c * Vm^q, fitted in log space.

    Nested-model reference for the critical-radius fit: ignores Rm entirely.
    """
    y = np.log(np.asarray(Rcrit, dtype=float))
    X = np.column_stack([np.ones_like(y), np.log(np.asarray(Vm, dtype=float))])
    return linear_least_squares(X, y)


@dataclass(frozen=True)
class CritAreaFit:
    """Critical-zone area model A ~ b1 * Rm * q^a2 + b2 * Rm^2 * q^(2 a2),
    with q = Vm / Vthres.

    `b1_derived`/`b2_derived` follow from the radius fit and the obround
    formula (b1 = 2 T ||Vtr|| a1 in km/h units, b2 = pi a1^2); the free
    coefficients are least squares against numerically computed areas.
    """

    a2: float
    b1_derived: float
    b2_derived: float
    b1_free: float
    b2_free: float
    residual_free: float
    Vthres: float

    def predict(self, Vm, Rm, derived: bool = False) -> np.ndarray:
        q = np.asarray(Vm, dtype=float) / self.Vthres
        Rm = np.asarray(Rm, dtype=float)
        b1 = self.b1_derived if derived else self.b1_free
        b2 = self.b2_derived if derived else self.b2_free
        return b1 * Rm * q**self.a2 + b2 * Rm**2 * q ** (2 * self.a2)


def fit_crit_area(
    Vm,
    Rm,
    area_numeric,
    radius_fit: CritRadiusFit,
    T: float,
    Vtr,
) -> CritAreaFit:
    """Obround-derived and free least-squares area coefficients.

    The free fit minimizes relative (not absolute) error, the same metric as
    the log-space radius fit; with absolute error the largest storms dominate
    and the two correlated terms trade off against each other.
    """
    speed = float(np.hypot(*Vtr)) if np.ndim(Vtr) else float(Vtr)
    a1, a2 = radius_fit.a1, radius_fit.a2
    q = np.asarray(Vm, dtype=float) / radius_fit.Vthres
    Rm = np.asarray(Rm, dtype=float)
    X = np.column_stack([Rm * q**a2, Rm**2 * q ** (2 * a2)])
    area = np.asarray(area_numeric, dtype=float)
    fit = linear_least_squares(X, area, weights=1.0 / area**2)
    return CritAreaFit(
        a2=a2,
        b1_derived=2.0 * T * speed * MPS_TO_KMH * a1,
        b2_derived=float(np.pi * a1 * a1),
        b1_free=float(fit.beta[0]),
        b2_free=float(fit.beta[1]),
        residual_free=fit.rms,
        Vthres=radius_fit.Vthres,
    )


# =============================================================================
# Benchmark-table reproduction
# =============================================================================


@dataclass(frozen=True)
class TableConfig:
    """Stylized-storm configuration for the benchmark area/rate tables.

    A storm crosses a bounded coastal domain northward at constant speed.
    Areas and failure-rate statistics are reported for nine (Vm, Rm)
    combinations, axisymmetric and asymmetric.  The domain bounds and cell
    size reproduce the published reference values; cells are coarser than
    the 1 km default because statistics within the zone are insensitive to
    resolution while the bounded domain clips the largest storms.
    """

    domain_width: float = 995.294065
    domain_depth: float = 1264.6287
    cell_size: float = 5.35568345
    vtr: float = 3.27856331
    genesis_y: float = 10.6111712
    track_x_offset: float = -0.345402611
    grid_y_offset: float = -1.29386108
    n_steps: int = 121
    dt: float = 1.0
    B: float = 1.0

    def grid(self) -> Grid:
        return Grid(
            origin=(0.0, self.grid_y_offset),
            nx=int(round(self.domain_width / self.cell_size)),
            ny=int(round(self.domain_depth / self.cell_size)),
            cell_size=self.cell_size,
        )

    def times(self) -> TimeAxis:
        return TimeAxis(n_steps=self.n_steps, dt=self.dt)

    def track(self) -> Track:
        return Track(
            x0=(self.domain_width / 2.0 + self.track_x_offset, self.genesis_y),
            Vtr=(0.0, self.vtr),
            duration=self.n_steps * self.dt,
        )


TABLE_STORMS = [(25, 20), (25, 30), (25, 40), (37, 20), (37, 30), (37, 40),
                (46, 20), (46, 30), (46, 40)]
TABLE_HEADER = ["Vm", "Rm", "area_axi_km2", "area_asym_km2", "max_fr_axi", "max_fr_asym",
                "mean_fr_axi", "mean_fr_asym"]


def _lambert_w0(z: float) -> float:
    """Principal branch W0 of the Lambert W function on -1/e < z < 0: the
    w in (-1, 0) with w e^w = z.

    Starts from the branch-point series in p = sqrt(2 (e z + 1)) and takes
    Halley steps, which converge cubically; five reach rounding level
    everywhere on the interval, down to subnormal z.
    """
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


def _window_radius(p: HollandParams, Vhot: float) -> float:
    """Radius (km) beyond which no cell lies inside Rm or has a radial wind
    speed >= `Vhot`; infinite when `Vhot` <= 0 (every speed qualifies).

    With y = (Rm/r)^B the profile reads (V/Vm)^2 = y e^(1-y), so the outer
    radius where V = U is Rm y^(-1/B) with y = -W0(-(U/Vm)^2 / e), W0 the
    principal branch of the Lambert W function (`_lambert_w0`).  It is taken
    at U = Vhot (1 - 1e-8): the rounding of W and of the profile is far
    smaller than that margin, so the profile there is below Vhot and keeps
    decreasing outward.
    """
    if Vhot <= 0:
        return np.inf
    if p.Vm < Vhot:
        return p.Rm
    y = -_lambert_w0(-(((1.0 - 1e-8) * Vhot / p.Vm) ** 2) / math.e)
    return p.Rm * y ** (-1.0 / p.B)


def storm_swath(
    track: Track,
    p: HollandParams,
    grid: Grid,
    times: TimeAxis,
    nhpp: NhppParams,
    asymmetric: bool = False,
    hemisphere: str = "N",
):
    """Accumulated failure rate and critical-zone mask of one storm, the
    zone threshold being the critical velocity `nhpp.Vcrit`.

    Streams over time steps (never materializing the full wind field), so
    large domains stay cheap.  Returns (rates, zone_mask) with one entry per
    grid cell.  Each step evaluates only the window where the wind can reach
    Vcrit, and the result is bit-identical to evaluating every cell at every
    step (the window invariant of `stormrisk.wind`).

    An asymmetric stationary storm (Vtr == (0, 0)) is the axisymmetric
    storm, as in `asymmetric_field`.
    """
    Vtr = track.Vtr if asymmetric else (0.0, 0.0)
    Vhot = nhpp.Vcrit - float(np.hypot(*Vtr))
    reach = _window_radius(p, Vhot) + grid.cell_size
    xs, ys = grid.axes()
    pos = track.position(times.offsets())
    rates = np.zeros((grid.nx, grid.ny))
    zone = np.zeros((grid.nx, grid.ny), dtype=bool)
    for window, r, v in _wind_steps(p, xs, ys, pos, reach, Vtr, hemisphere):
        # Each cell adds this step's intensity to its rate, the window's
        # evaluated and every other cell's lambda_norm.
        hot = _intensity(nhpp, v)
        hot += rates[window]
        rates += nhpp.lambda_norm
        rates[window] = hot
        zone[window] |= (r < p.Rm) | (v >= nhpp.Vcrit)
    rates *= times.dt
    return rates.ravel(), zone.ravel()


def tables123(
    config: TableConfig | None = None, nhpp: NhppParams | None = None
) -> list[dict]:
    """Critical-zone area and failure-rate statistics for the nine benchmark
    storms, axisymmetric and asymmetric: one record per (Vm, Rm), keyed by
    `TABLE_HEADER`.
    """
    config = config or TableConfig()
    nhpp = nhpp or NhppParams()
    grid = config.grid()
    times = config.times()
    track = config.track()
    out = []
    for Vm, Rm in TABLE_STORMS:
        p = HollandParams(Vm=float(Vm), Rm=float(Rm), B=config.B)
        rec = {"Vm": Vm, "Rm": Rm}
        for asym, label in ((False, "axi"), (True, "asym")):
            rates, zone = storm_swath(
                track, p, grid, times, nhpp, asymmetric=asym
            )
            stats = _zone_stats(rates, zone)
            rec[f"area_{label}_km2"] = float(np.count_nonzero(zone)) * grid.cell_area
            rec[f"max_fr_{label}"] = stats["max"]
            rec[f"mean_fr_{label}"] = stats["mean"]
        out.append(rec)
    return out


# =============================================================================
# (Vm, Rm) zone sweep
# =============================================================================

SWEEP_HEADER = ["Vm_mps", "Rm_km", "Rcrit_km", "Acrit_numeric_km2",
                "Acrit_obround_km2", "maxFR", "meanFR"]


def zone_sweep(Vm_values, Rm_values, nhpp: NhppParams, track: Track, times: TimeAxis, B: float = 1.0):
    """The `SWEEP_HEADER` columns, as arrays, of the storms of the cartesian
    (Vm, Rm) sweep with Vm >= `nhpp.Vcrit` (Vm the outer axis) on `track`.
    The zone's failure rates come from `storm_swath` on a grid spanning the
    swath.  The area and rate grids coarsen as the critical radius grows, so
    the cost per storm stays bounded across the sweep."""
    Vm, Rm, Rcrit = sweep_critical_radius(Vm_values, Rm_values, Vthres=nhpp.Vcrit, B=B)
    pos = track.position(times.offsets())
    area, obround, max_fr, mean_fr = (np.empty(len(Rcrit)) for _ in range(4))
    for i, (v, r, rc) in enumerate(zip(Vm, Rm, Rcrit)):
        p = HollandParams(Vm=float(v), Rm=float(r), B=B)
        area[i] = axisymmetric_zone_area(track, p, times, rc, cell_size=float(np.clip(rc / 100.0, 2.0, 25.0)))
        obround[i] = obround_area(rc, times.duration, track.Vtr)
        cell = float(np.clip(rc / 30.0, 1.0, 25.0))
        pad = rc + 2.0 * cell
        lo = pos.min(axis=0) - pad
        hi = pos.max(axis=0) + pad
        grid = Grid(
            origin=(float(lo[0]), float(lo[1])),
            nx=max(1, int(np.ceil((hi[0] - lo[0]) / cell))),
            ny=max(1, int(np.ceil((hi[1] - lo[1]) / cell))),
            cell_size=cell,
        )
        stats = _zone_stats(*storm_swath(track, p, grid, times, nhpp))
        max_fr[i], mean_fr[i] = stats["max"], stats["mean"]
    return Vm, Rm, Rcrit, area, obround, max_fr, mean_fr


def save_zone_sweep(columns, path, header_comment: str | None = None) -> None:
    """Write the `SWEEP_HEADER` columns of a zone sweep (as `zone_sweep`
    returns them) as CSV: Vm and Rm as Python floats print, the rest at
    `TABLE_FMT`."""
    rows = (
        [float(v), float(r)] + [format(x, TABLE_FMT) for x in rest]
        for v, r, *rest in zip(*columns)
    )
    _write_csv(path, SWEEP_HEADER, rows, header_comment)
