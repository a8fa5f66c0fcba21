"""
Wind-field ensembles: synthetic generation, ingestion, and statistics.

The synthetic generator stands in for an external forecast system: each
member perturbs the base track and profile parameters with independent
Gaussians drawn from a splittable seeded stream (member i always uses
substream i, so results do not depend on evaluation order or thread count).
The file format stores velocities rather than generating parameters, so
externally produced ensembles ingest identically.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .csvio import VELOCITY_FMT, _check_no_repeats, _read_csv, _write_csv
from .grid import Grid, TimeAxis
from .wind import HollandParams, Track, WindField, asymmetric_field, axisymmetric_field


@dataclass(frozen=True)
class Ensemble:
    """A list of wind fields sharing one grid and time axis.

    Each member carries empirical probability 1/H.
    """

    members: tuple[WindField, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble must have at least one member")
        g0, t0 = self.members[0].grid, self.members[0].times
        for i, m in enumerate(self.members):
            if m.grid != g0 or m.times != t0:
                raise ValueError(f"member {i} grid/times differ from member 0")
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def H(self) -> int:
        return len(self.members)

    @property
    def grid(self) -> Grid:
        return self.members[0].grid

    @property
    def times(self) -> TimeAxis:
        return self.members[0].times

    def velocities(self) -> np.ndarray:
        """All member velocities stacked, shape (H, n_cells, n_steps)."""
        return np.stack([m.velocities for m in self.members])


@dataclass(frozen=True)
class EnsemblePerturbationSpec:
    """Gaussian perturbation recipe for synthetic ensembles.

    Per member: genesis position jittered by N(0, sigma_track) on each axis
    (km), translation direction rotated by N(0, sigma_heading) degrees, Vm and
    Rm jittered by N(0, sigma_Vm) / N(0, sigma_Rm) and truncated below at
    1 m/s and 1 km.  Perturbations are drawn once per member and held constant
    over the storm lifetime.
    """

    base_track: Track
    base_params: HollandParams
    sigma_track: float = 0.0
    sigma_heading: float = 0.0
    sigma_Vm: float = 0.0
    sigma_Rm: float = 0.0
    seed: int = 0
    H: int = 1
    asymmetric: bool = False

    def __post_init__(self):
        for name in ("sigma_track", "sigma_heading", "sigma_Vm", "sigma_Rm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.H < 1:
            raise ValueError("H must be >= 1")


def member_parameters(
    spec: EnsemblePerturbationSpec, child_seed
) -> tuple[Track, HollandParams]:
    """Perturbed (track, profile) for one member, drawn from its substream.

    Draw order is fixed (genesis x, genesis y, heading, Vm, Rm) and a draw is
    skipped entirely when its sigma is zero, so adding a perturbation never
    reshuffles the others.
    """
    rng = np.random.Generator(np.random.PCG64(child_seed))
    dx = rng.normal(0.0, spec.sigma_track) if spec.sigma_track else 0.0
    dy = rng.normal(0.0, spec.sigma_track) if spec.sigma_track else 0.0
    dth = rng.normal(0.0, spec.sigma_heading) if spec.sigma_heading else 0.0
    dvm = rng.normal(0.0, spec.sigma_Vm) if spec.sigma_Vm else 0.0
    drm = rng.normal(0.0, spec.sigma_Rm) if spec.sigma_Rm else 0.0
    th = math.radians(dth)
    vx, vy = spec.base_track.Vtr
    vtr = (vx * math.cos(th) - vy * math.sin(th), vx * math.sin(th) + vy * math.cos(th))
    track = Track(
        x0=(spec.base_track.x0[0] + dx, spec.base_track.x0[1] + dy),
        Vtr=vtr,
        duration=spec.base_track.duration,
    )
    params = HollandParams(
        Vm=max(1.0, spec.base_params.Vm + dvm),
        Rm=max(1.0, spec.base_params.Rm + drm),
        B=spec.base_params.B,
    )
    return track, params


def _member_field(
    spec: EnsemblePerturbationSpec, grid: Grid, times: TimeAxis, child_seed
) -> WindField:
    track, params = member_parameters(spec, child_seed)
    make = asymmetric_field if spec.asymmetric else axisymmetric_field
    return make(track, params, grid, times)


def generate_synthetic_ensemble(
    spec: EnsemblePerturbationSpec,
    grid: Grid,
    times: TimeAxis,
    threads: int | None = None,
) -> Ensemble:
    """Generate an H-member ensemble of perturbed storms.

    Member i draws from substream i of `spec.seed`, so identical spec and
    seed reproduce bit-identical ensembles regardless of `threads`.
    """
    children = np.random.SeedSequence(spec.seed).spawn(spec.H)
    if threads is None:
        threads = default_thread_count()
    if threads > 1 and spec.H > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            members = list(
                pool.map(lambda cs: _member_field(spec, grid, times, cs), children)
            )
    else:
        members = [_member_field(spec, grid, times, cs) for cs in children]
    return Ensemble(members=tuple(members))


def default_thread_count() -> int:
    """Worker count from the STORMRISK_THREADS environment variable (default 1)."""
    raw = os.environ.get("STORMRISK_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def mean_velocity(e: Ensemble) -> np.ndarray:
    """Ensemble-mean wind speed per (cell, time), shape (n_cells, n_steps).

    Uses a fixed member order, so the reduction is reproducible bit-for-bit.
    """
    return e.velocities().mean(axis=0)


# =============================================================================
# Ensemble files
# =============================================================================

ENSEMBLE_HEADER = ["member", "cell_id", "time_index", "velocity_mps"]


def save_ensemble(e: Ensemble, path, header_comment: str | None = None) -> None:
    """Write ensemble CSV plus a JSON sidecar describing the dimensions.

    `path` names the CSV; the sidecar is written next to it at `path + ".json"`.
    `header_comment`, if given, is written as a leading `#` line in the CSV
    and under the "comment" key of the sidecar.
    """
    sidecar = {
        "H": e.H,
        "nx": e.grid.nx,
        "ny": e.grid.ny,
        "cell_size_km": e.grid.cell_size,
        "origin_km": list(e.grid.origin),
        "n_steps": e.times.n_steps,
        "dt_h": e.times.dt,
    }
    if header_comment:
        sidecar["comment"] = header_comment
    with open(str(path) + ".json", "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")
    rows = (
        (i, cell, t, format(x, VELOCITY_FMT))
        for i, m in enumerate(e.members)
        for cell, vc in enumerate(m.velocities)
        for t, x in enumerate(vc.tolist())
    )
    _write_csv(path, ENSEMBLE_HEADER, rows, header_comment)


def load_ensemble(path) -> Ensemble:
    """Read an ensemble CSV and its JSON sidecar.

    Every member must provide a velocity for every (cell, time) exactly once;
    gaps, repeats and malformed rows raise errors naming the offending
    location.
    """
    with open(str(path) + ".json") as f:
        meta = json.load(f)
    origin = tuple(float(v) for v in meta.get("origin_km", (0.0, 0.0)))
    grid = Grid(
        origin=origin, nx=int(meta["nx"]), ny=int(meta["ny"]), cell_size=float(meta["cell_size_km"])
    )
    times = TimeAxis(n_steps=int(meta["n_steps"]), dt=float(meta["dt_h"]))
    H = int(meta["H"])
    if H < 1:
        raise ValueError(f"{path}: no members")
    v = np.full((H, grid.n_cells, times.n_steps), np.nan)
    n_rows = 0
    for lineno, row in _read_csv(path, ENSEMBLE_HEADER):
        try:
            i, cell, t = int(row[0]), int(row[1]), int(row[2])
            vel = float(row[3])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from None
        if not (0 <= i < H and 0 <= cell < grid.n_cells and 0 <= t < times.n_steps):
            raise ValueError(f"{path}:{lineno}: member/cell/time out of range")
        v[i, cell, t] = vel
        n_rows += 1
    if n_rows == 0:
        raise ValueError(f"{path}: no members")
    _check_no_repeats(path, ENSEMBLE_HEADER, v, n_rows)
    missing = np.argwhere(np.isnan(v))
    if missing.size:
        i, cell, t = missing[0]
        raise ValueError(f"{path}: missing velocity for member {i}, cell {cell}, time {t}")
    members = [WindField(grid=grid, times=times, velocities=v[i]) for i in range(H)]
    return Ensemble(members=tuple(members))
