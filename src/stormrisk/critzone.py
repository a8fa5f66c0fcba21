"""
Critical-zone geometry: the region a storm damages beyond nominal rates.

A cell is in the critical zone if at some time it lies inside the radius of
maximum winds, or its wind speed reaches the threshold (default: the critical
velocity of the failure model).  For an axisymmetric straight-line storm the
zone is an obround — the swath of a disc of the critical radius dragged along
the track — which gives a closed-form area to check the numeric zone against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import _require_value, _write_table
from .fitting import LinearFit, linear_least_squares
from .grid import _MAX_CELL_STEPS, Grid, TimeAxis
from .nhpp import _NHPP_CHECKS, NhppParams, _intensity
from .wind import (MPS_TO_KMH, HollandParams, Track, WindField, _kernel, _reach, _speed, _spin, _sweep_storms,
                   _translation, _vector_sum, _windows)


# =============================================================================
# Critical radius
# =============================================================================


def critical_radius(p: HollandParams, Vthres: float) -> float | None:
    """Outer radius (km) at which the radial wind profile equals `Vthres`.

    None when Vm < Vthres (no such radius exists); Rm when Vm == Vthres;
    otherwise the unique root beyond Rm, found by bisection on the monotone
    outer branch to |V(r) - Vthres| <= 1e-9 m/s.  `Vthres` has the range
    of `NhppParams.Vcrit`, inside which the radius is finite.
    """
    _require_value("Vthres", Vthres, _NHPP_CHECKS["Vcrit"])
    (Rc,) = _critical_radii(np.array([p.Vm], dtype=float), np.array([p.Rm], dtype=float), p.B, Vthres)
    return None if np.isnan(Rc) else float(Rc)


def _critical_radii(Vm, Rm, B: float, Vthres: float) -> np.ndarray:
    """`critical_radius` of each storm of the float arrays `Vm`, `Rm`, all
    of profile exponent `B`, nan where it is None, all bisected at once.

    Each storm starts from lo = Rm and hi = 2 Rm, doubles hi while V(hi) >=
    Vthres, then halves [lo, hi] until |V(mid) - Vthres| <= 1e-9 m/s; a done
    mask freezes each storm's result at its own last midpoint.
    """
    out = np.where(Vm == Vthres, Rm, np.nan)
    todo = Vm > Vthres
    lo, hi = Rm, 2.0 * Rm
    grow = todo.copy()
    while grow.any():
        grow &= Vm * _speed(Rm, B, hi) >= Vthres
        hi[grow] *= 2.0
    for _ in range(200):
        if not todo.any():
            return out
        mid = 0.5 * (lo + hi)
        v = Vm * _speed(Rm, B, mid)
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


def critical_zone_numeric(
    field: WindField,
    Vthres: float,
    p: HollandParams,
    track: Track,
) -> np.ndarray:
    """Boolean mask, one entry per grid cell, of the union over times of the
    per-time critical zones of a wind field.

    A cell enters if at any sample time it lies within Rm of the
    instantaneous storm centre, or its stored wind speed is >= `Vthres`.
    Works for both axisymmetric and asymmetric fields (the inside-Rm clause
    is always evaluated against the centre of the given track).
    """
    _require_value("Vthres", Vthres, _NHPP_CHECKS["Vcrit"])
    grid = field.grid
    xs, ys = grid.axes()
    pos = track.position(field.times.offsets())
    inside = np.zeros((grid.nx, grid.ny), dtype=bool)
    for window, r, _, _ in _kernel(p.Rm, p.B, xs, ys, pos, p.Rm):
        inside[window] |= r < p.Rm
    return inside.ravel() | np.any(field.velocities >= Vthres, axis=1)


def obround_area(Rcrit: float, T: float, Vtr) -> float:
    """Closed-form critical-zone area (km^2) for a straight constant storm.

    A disc of radius `Rcrit` dragged for `T` hours at translation velocity
    `Vtr` (m/s vector or scalar speed) sweeps a rectangle capped by two
    semicircles: 2 * Rcrit * (T * ||Vtr|| * 3.6) + pi * Rcrit^2.
    """
    if not Rcrit >= 0:  # NaN fails it too
        raise ValueError("Rcrit must be >= 0")
    speed = float(np.hypot(*Vtr)) if np.ndim(Vtr) else float(Vtr)
    return 2.0 * Rcrit * T * speed * MPS_TO_KMH + np.pi * Rcrit * Rcrit


def zone_failure_stats(rates, zone: np.ndarray) -> dict[str, float]:
    """Maximum and mean of `rates` over the boolean cell mask `zone`; both
    are 0 for an empty zone.  Finite inside the config ranges."""
    sub = np.asarray(rates, dtype=float)[zone]
    if sub.size == 0:
        return {"max": 0.0, "mean": 0.0}
    return {"max": float(sub.max()), "mean": float(sub.mean())}


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
    # the float below Rm.  The test compares squares, d^2 with the limit's,
    # which can move only a cell whose distance is within a few ulp of it.
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
        db *= db
        kb *= kb
        db += kb
        count += int(np.count_nonzero(np.less_equal(db, limit * limit, out=ib)))
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
    the outer axis.  `Vthres` is checked as in `critical_radius`.
    """
    _require_value("Vthres", Vthres, _NHPP_CHECKS["Vcrit"])
    Vm, Rm = _sweep_storms(Vm_values, Rm_values, B)
    Rc = _critical_radii(Vm.astype(float), Rm.astype(float), B, Vthres)
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


# The stylized scenario of the benchmark tables: a storm crosses a bounded
# coastal domain (995 x 1265 km, 186 x 236 cells of 5.36 km, coarser than the
# 1 km default because the zone statistics are insensitive to resolution while
# the bounded domain clips the largest storms) northward at constant speed for
# 121 hourly steps, with B = 1.  These values reproduce acceptance criteria 1-2
# (the published areas and maximum rates); how they were derived is not
# recorded.
_TABLE_WIDTH, _TABLE_DEPTH, _TABLE_CELL = 995.294065, 1264.6287, 5.35568345
_TABLE_GRID = Grid(
    origin=(0.0, -1.29386108),
    nx=int(round(_TABLE_WIDTH / _TABLE_CELL)),
    ny=int(round(_TABLE_DEPTH / _TABLE_CELL)),
    cell_size=_TABLE_CELL,
)
TABLE_TIMES = TimeAxis(n_steps=121, dt=1.0)
_TABLE_TRACK = Track(x0=(_TABLE_WIDTH / 2.0 - 0.345402611, 10.6111712), Vtr=(0.0, 3.27856331))

TABLE_STORMS = [(25, 20), (25, 30), (25, 40), (37, 20), (37, 30), (37, 40),
                (46, 20), (46, 30), (46, 40)]
TABLE_HEADER = ["Vm", "Rm", "area_axi_km2", "area_asym_km2", "max_fr_axi", "max_fr_asym",
                "mean_fr_axi", "mean_fr_asym"]


def _swaths(track: Track, storms, grid: Grid, times: TimeAxis, nhpp: NhppParams, hemisphere: str = "N"):
    """`storm_swath`'s (rates, zone) of each (HollandParams, asymmetric) of
    `storms`, which share one Rm and B, from one kernel pass.

    Each step evaluates the kernel (`wind._kernel`) once, on the widest
    storm's window; each storm scales the Vm = 1 shape by its Vm on its own
    window, a sub-window of that one.  The widest storm comes last and scales
    it in place.
    """
    Rm, B = storms[0][0].Rm, storms[0][0].B
    xs, ys = grid.axes()
    pos = track.position(times.offsets())
    spin = _spin(hemisphere)
    Vtrs = [_translation(track, asym) for _, asym in storms]
    reaches = [_reach(p, Vtr, nhpp.Vcrit) for (p, _), Vtr in zip(storms, Vtrs)]
    windows = [_windows(xs, ys, pos, reach) for reach in reaches]
    rates = [np.zeros((grid.nx, grid.ny)) for _ in storms]
    zones = [np.zeros((grid.nx, grid.ny), dtype=bool) for _ in storms]
    order = sorted(range(len(storms)), key=reaches.__getitem__)
    last = order[-1]
    steps = _kernel(Rm, B, xs, ys, pos, reaches[last], spin if any(Vtr is not None for Vtr in Vtrs) else None)
    for t, (window, r, unit, tangents) in enumerate(steps):
        inside = r < Rm
        x0, y0 = window[0].start, window[1].start
        for k in order:
            own = windows[k][t]
            sub = (slice(own[0].start - x0, own[0].stop - x0), slice(own[1].start - y0, own[1].stop - y0))
            v = np.multiply(unit[sub], storms[k][0].Vm, out=unit if k == last else None)
            if Vtrs[k] is not None:
                v = _vector_sum(v, tangents[0][sub], tangents[1][sub], Vtrs[k])
            zones[k][own] |= inside[sub] | (v >= nhpp.Vcrit)
            # Each cell adds this step's intensity to its rate, the window's
            # evaluated and every other cell's lambda_norm.
            hot = _intensity(nhpp, v, out=v)
            hot += rates[k][own]
            rates[k] += nhpp.lambda_norm
            rates[k][own] = hot
    for swath in rates:
        swath *= times.dt
    return [(swath.ravel(), zone.ravel()) for swath, zone in zip(rates, zones)]


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
    storm, as in `wind_field`.  The rates are finite inside the config ranges.
    """
    (swath,) = _swaths(track, [(p, asymmetric)], grid, times, nhpp, hemisphere)
    return swath


def tables123(nhpp: NhppParams | None = None) -> list[dict]:
    """Critical-zone area and failure-rate statistics for the nine benchmark
    storms on the tables' fixed scenario, axisymmetric and asymmetric: one
    record per (Vm, Rm), keyed by `TABLE_HEADER`.  The six swaths of each
    radius come from one kernel pass (`_swaths`).
    """
    nhpp = nhpp or NhppParams()
    records = {storm: {"Vm": storm[0], "Rm": storm[1]} for storm in TABLE_STORMS}
    for radius in dict.fromkeys(Rm for _, Rm in TABLE_STORMS):
        runs = [(rec, asym) for (_, Rm), rec in records.items() if Rm == radius for asym in (False, True)]
        storms = [(HollandParams(Vm=float(rec["Vm"]), Rm=float(radius)), asym) for rec, asym in runs]
        for (rec, asym), (rates, zone) in zip(runs, _swaths(_TABLE_TRACK, storms, _TABLE_GRID, TABLE_TIMES, nhpp)):
            label = "asym" if asym else "axi"
            stats = zone_failure_stats(rates, zone)
            rec[f"area_{label}_km2"] = float(np.count_nonzero(zone)) * _TABLE_GRID.cell_area
            rec[f"max_fr_{label}"] = stats["max"]
            rec[f"mean_fr_{label}"] = stats["mean"]
    return list(records.values())


# =============================================================================
# (Vm, Rm) zone sweep
# =============================================================================

SWEEP_HEADER = ["Vm_mps", "Rm_km", "Rcrit_km", "Acrit_numeric_km2",
                "Acrit_obround_km2", "maxFR", "meanFR"]


_SWATH_CELL_MAX = 25.0  # km, the coarsest cell of `zone_sweep`'s rate grids


class _SwathCapError(ValueError):
    """`zone_sweep`'s refusal of a storm whose rate grid passes the cell-step
    cap.  `at_ceiling`: its cells are the coarsest, so its critical radius
    makes the grid large; below the ceiling a grid has at most
    64 + 30 run / max(Rcrit, 30 km) cells a side, so the track's run does."""

    def __init__(self, message: str, at_ceiling: bool):
        super().__init__(message)
        self.at_ceiling = at_ceiling


def zone_sweep(Vm_values, Rm_values, nhpp: NhppParams, track: Track, times: TimeAxis, B: float = 1.0):
    """The `SWEEP_HEADER` columns, as arrays, of the storms of the cartesian
    (Vm, Rm) sweep with Vm >= `nhpp.Vcrit` (Vm the outer axis) on `track`.
    The zone's failure rates come from `storm_swath` on a grid spanning the
    swath.  The area and rate grids coarsen as the critical radius grows, so
    the cost per storm stays bounded across the sweep.  Raises ValueError
    (`_SwathCapError`), before any storm is run, if a storm's rate grid
    would have more than `_MAX_CELL_STEPS` cell-steps."""
    Vm, Rm, Rcrit = sweep_critical_radius(Vm_values, Rm_values, Vthres=nhpp.Vcrit, B=B)
    pos = track.position(times.offsets())
    cell = np.clip(Rcrit / 30.0, 1.0, _SWATH_CELL_MAX)
    pad = (Rcrit + 2.0 * cell)[:, None]
    lo = pos.min(axis=0) - pad
    shape = np.maximum(1.0, np.ceil((pos.max(axis=0) + pad - lo) / cell[:, None]))
    too_big = shape[:, 0] * shape[:, 1] * times.n_steps > _MAX_CELL_STEPS
    if too_big.any():
        i = np.argmax(too_big)
        raise _SwathCapError(
            f"storm (Vm={Vm[i]:g}, Rm={Rm[i]:g}) has critical radius {Rcrit[i]:.3g} km; "
            f"its swath grid passes {_MAX_CELL_STEPS:,} cell-steps",
            at_ceiling=bool(cell[i] == _SWATH_CELL_MAX),
        )
    area, obround, max_fr, mean_fr = (np.empty(len(Rcrit)) for _ in range(4))
    for i, (v, r, rc) in enumerate(zip(Vm, Rm, Rcrit)):
        p = HollandParams(Vm=float(v), Rm=float(r), B=B)
        area[i] = axisymmetric_zone_area(track, p, times, rc, cell_size=float(np.clip(rc / 100.0, 2.0, 25.0)))
        obround[i] = obround_area(rc, times.duration, track.Vtr)
        nx, ny = shape[i].astype(int).tolist()
        grid = Grid(origin=tuple(lo[i].tolist()), nx=nx, ny=ny, cell_size=float(cell[i]))
        stats = zone_failure_stats(*storm_swath(track, p, grid, times, nhpp))
        max_fr[i], mean_fr[i] = stats["max"], stats["mean"]
    return Vm, Rm, Rcrit, area, obround, max_fr, mean_fr


def save_zone_sweep(columns, path, header_comment: str | None = None) -> None:
    """Write the `SWEEP_HEADER` columns of a zone sweep (as `zone_sweep`
    returns them) as CSV: Vm and Rm as Python floats print, the rest as
    every derived table's values."""
    Vm, Rm, *rest = columns
    _write_table(path, SWEEP_HEADER, [map(float, Vm), map(float, Rm)], rest, header_comment)
