"""
Wind-field ensembles: synthetic generation, ingestion, and statistics.

The synthetic generator stands in for an external forecast system: each
member perturbs the base track and profile parameters with independent
Gaussians drawn from a splittable seeded stream (member i always uses
substream i, so results do not depend on evaluation order or thread count).
The file format stores velocities rather than generating parameters, so
externally produced ensembles ingest identically.

`Ensemble` is the in-memory form.  The CLI streams: it takes members one at a
time from `_member_velocities` and folds each into the reducer (`_mean`) its
statistic needs, so its memory does not grow with H.  The statistics of an
`Ensemble` use the same reducers and give the same bits.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .csvio import (
    _INTEGER,
    _NUMBER,
    _XY,
    ConfigError,
    _check,
    _read_json,
    _read_velocities,
    _write_json,
    _write_velocities,
)
from .grid import Grid, TimeAxis
from .wind import HollandParams, Track, WindField, _velocities


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
        """All member velocities stacked, shape (H, n_cells, n_steps); no statistic uses it."""
        return np.stack([m.velocities for m in self.members])


@dataclass(frozen=True)
class EnsemblePerturbationSpec:
    """Gaussian perturbation recipe for synthetic ensembles.

    Per member: genesis position jittered by N(0, sigma_track) on each axis
    (km), translation direction rotated by N(0, sigma_heading) degrees, Vm and
    Rm jittered by N(0, sigma_Vm) / N(0, sigma_Rm) and truncated below at
    1 m/s and 1 km.  Perturbations are drawn once per member and held constant
    over the storm lifetime.  With `asymmetric`, members are
    `asymmetric_field`s of their `hemisphere`.
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
    hemisphere: str = "N"

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


def _member_velocities(spec: EnsemblePerturbationSpec, xs, ys, times: TimeAxis, threads: int = 1):
    """Yield each member's `wind._velocities` on cell-centre axes `xs`, `ys`
    in member order, made `threads` at a time: at most that many in flight."""
    children = np.random.SeedSequence(spec.seed).spawn(spec.H)

    def make(child_seed):
        track, params = member_parameters(spec, child_seed)
        Vtr = track.Vtr if spec.asymmetric else (0.0, 0.0)
        return _velocities(track, params, xs, ys, times, Vtr, spec.hemisphere)

    if threads <= 1 or spec.H == 1:
        yield from map(make, children)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for lo in range(0, spec.H, threads):
            yield from pool.map(make, children[lo : lo + threads])


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
    if threads is None:
        threads = default_thread_count()
    velocities = _member_velocities(spec, *grid.axes(), times, threads)
    return Ensemble(members=tuple(WindField(grid=grid, times=times, velocities=v) for v in velocities))


def default_thread_count() -> int:
    """Worker count from the STORMRISK_THREADS environment variable (default 1)."""
    raw = os.environ.get("STORMRISK_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _mean(arrays) -> np.ndarray:
    """Mean of equal-shape arrays taken one at a time, `acc = a0; acc += ai;
    acc /= n`: bit for bit `np.stack(arrays).mean(axis=0)`, except that numpy
    sums eight or more one-value arrays pairwise."""
    it = iter(arrays)
    acc, n = np.array(next(it), dtype=float), 1
    for a in it:
        acc += a
        n += 1
        del a  # so that no spent array is alive while the next one is made
    acc /= n
    return acc


# =============================================================================
# Ensemble files
# =============================================================================

ENSEMBLE_HEADER = ["member", "cell_id", "time_index", "velocity_mps"]
# One row per sidecar key: (key, kind, check, the config field whose kind and
# check it has).  Only origin_km may be left out.  The README's sidecar table
# is tested against these rows.
SIDECAR_SCHEMA = (
    ("H", _INTEGER, ">= 1", "ensemble.H"),
    ("nx", _INTEGER, ">= 1", "grid.nx"),
    ("ny", _INTEGER, ">= 1", "grid.ny"),
    ("cell_size_km", _NUMBER, "> 0", "grid.cell_size_km"),
    ("origin_km", _XY, None, "grid.origin_km"),
    ("n_steps", _INTEGER, ">= 1", "times.n_steps"),
    ("dt_h", _NUMBER, "> 0", "times.dt_h"),
)


def save_ensemble(e: Ensemble, path, header_comment: str | None = None) -> None:
    """Write ensemble CSV plus a JSON sidecar describing the dimensions.

    `path` names the CSV; the sidecar is written next to it at `path + ".json"`.
    `header_comment`, if given, is written as a leading `#` line in the CSV
    and under the "comment" key of the sidecar.
    """
    save_ensemble_members(e.grid, e.times, (m.velocities for m in e.members), path, header_comment)


def save_ensemble_members(
    grid: Grid, times: TimeAxis, velocities, path, header_comment: str | None = None
) -> None:
    """`save_ensemble` of the member velocity arrays of an iterable, each
    written as it arrives.  No members raise `ValueError` before any file is
    made; a member whose shape is not (cells, steps) raises one before it is
    written, and no sidecar is written."""
    shape = (grid.n_cells, times.n_steps)

    def checked():
        for i, v in enumerate(velocities):
            if np.shape(v) != shape:
                raise ValueError(f"{path}: member {i} has shape {np.shape(v)}, expected {shape}")
            yield v

    H = _write_velocities(path, ENSEMBLE_HEADER, checked(), header_comment)
    sidecar = {
        "H": H,
        "nx": grid.nx,
        "ny": grid.ny,
        "cell_size_km": grid.cell_size,
        "origin_km": list(grid.origin),
        "n_steps": times.n_steps,
        "dt_h": times.dt,
    }
    if header_comment:
        sidecar["comment"] = header_comment
    _write_json(str(path) + ".json", sidecar)


def load_ensemble(path) -> Ensemble:
    """Read an ensemble CSV and its JSON sidecar.

    Every member must provide a velocity for every (cell, time) exactly once;
    gaps, repeats and malformed rows raise errors naming the offending
    location, and a sidecar that is not a JSON object, or misses a key or
    gives one a value its `SIDECAR_SCHEMA` row rejects, raises one naming the
    sidecar and the key.
    """
    sidecar = f"{path}.json"
    doc = {"origin_km": [0.0, 0.0], **_read_json(sidecar)}
    meta = {}
    for key, kind, check, _ in SIDECAR_SCHEMA:
        if key not in doc:
            raise ConfigError(sidecar, f"missing key {key!r}")
        meta[key] = _check(f"{sidecar}: {key}", doc[key], kind, check)
    grid = Grid(origin=meta["origin_km"], nx=meta["nx"], ny=meta["ny"], cell_size=meta["cell_size_km"])
    times = TimeAxis(n_steps=meta["n_steps"], dt=meta["dt_h"])
    H = meta["H"]
    v = _read_velocities(path, ENSEMBLE_HEADER, (H, grid.n_cells, times.n_steps))
    members = [WindField(grid=grid, times=times, velocities=v[i]) for i in range(H)]
    return Ensemble(members=tuple(members))
