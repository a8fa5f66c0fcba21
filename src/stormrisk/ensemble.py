"""
Wind-field ensembles: synthetic generation, ingestion, and statistics.

The synthetic generator stands in for an external forecast system: each
member perturbs the base track and profile parameters with independent
Gaussians drawn from a splittable seeded stream (member i always uses
substream i, so results do not depend on evaluation order or thread count).
The file format stores velocities rather than generating parameters, so
externally produced ensembles ingest identically.

Members come from one of two sources with one read method, `fields(cells=None)`:
`Ensemble`, the in-memory form, and `SyntheticEnsemble`, which generates each
member as it is read.  The statistics (`nhpp.fr1`, `fr2`, `member_rates`, the
outage exposure) and `save_ensemble` take either one, fold its members one at
a time into the reducer (`_mean`) they need, and give the same bits for both;
a generated source's memory does not grow with H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .csvio import (
    _INTEGER,
    _NUMBER,
    _XY,
    ConfigError,
    _check,
    _interval,
    _read_json,
    _read_velocities,
    _require,
    _write_json,
    _write_velocities,
)
from .grid import _GRID_CHECKS, _POSITION_CHECK, _TIME_CHECKS, Grid, TimeAxis, _require_cell_steps
from .wind import _HOLLAND_CHECKS, HollandParams, Track, WindField, _spin, _sub_grid, _velocities


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

    def fields(self, cells=None):
        """Each member's (n_cells, n_steps) velocities in member order, or only its rows `cells`."""
        for m in self.members:
            yield m.velocities if cells is None else m.velocities[cells]


# `EnsemblePerturbationSpec`'s checks, which the config and the sidecar read too.
_ENSEMBLE_CHECKS = {"sigma_track": "in [0, 2e4]", "sigma_heading": "in [0, 360]", "sigma_Vm": "in [0, 150]",
                    "sigma_Rm": "in [0, 500]", "seed": ">= 0", "H": ">= 1"}


@dataclass(frozen=True)
class EnsemblePerturbationSpec:
    """Gaussian perturbation recipe for synthetic ensembles.

    Per member: genesis position jittered by N(0, sigma_track) on each axis
    (km), translation direction rotated by N(0, sigma_heading) degrees, Vm and
    Rm jittered by N(0, sigma_Vm) / N(0, sigma_Rm) and clipped into
    `HollandParams`' ranges, [1, 150] m/s and [1, 500] km; each sigma is at
    most 2e4 km, 360 degrees, 150 m/s and 500 km.  Perturbations are drawn
    once per member and held constant over the storm lifetime.  Members are
    `wind_field`s of `asymmetric` and `hemisphere`.
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
        _require(self, **_ENSEMBLE_CHECKS)
        _spin(self.hemisphere)


def member_parameters(spec: EnsemblePerturbationSpec, child_seed) -> tuple[Track, HollandParams]:
    """Perturbed (track, profile) for one member, drawn from its substream.

    Draw order is fixed (genesis x, genesis y, heading, Vm, Rm) and a draw is
    skipped entirely when its sigma is zero, so adding a perturbation never
    reshuffles the others.  Vm and Rm are clipped into their ranges.
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
    track = Track(x0=(spec.base_track.x0[0] + dx, spec.base_track.x0[1] + dy), Vtr=vtr)
    (Vm_lo, Vm_hi), (Rm_lo, Rm_hi) = (_interval(_HOLLAND_CHECKS[k]) for k in ("Vm", "Rm"))
    Vm = min(Vm_hi, max(Vm_lo, spec.base_params.Vm + dvm))
    Rm = min(Rm_hi, max(Rm_lo, spec.base_params.Rm + drm))
    return track, HollandParams(Vm=Vm, Rm=Rm, B=spec.base_params.B)


@dataclass(frozen=True)
class SyntheticEnsemble:
    """The members `spec` perturbs, on `grid` over `times`, each made as it is
    read: member i from substream i of `spec.seed`, the same bits whatever `threads`.
    `parameters`, each member's (track, params), are drawn once, before any member is made."""

    spec: EnsemblePerturbationSpec
    grid: Grid
    times: TimeAxis
    threads: int = 1
    parameters: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seeds = np.random.SeedSequence(self.spec.seed).spawn(self.spec.H)
        object.__setattr__(self, "parameters", tuple(member_parameters(self.spec, s) for s in seeds))

    def fields(self, cells=None):
        """`Ensemble.fields`, members made `threads` at a time by one pool, on the sub-grid of `cells` if given."""
        from concurrent.futures import ThreadPoolExecutor  # here: it loads `logging`, `queue` and `traceback`
        spec, members = self.spec, self.parameters
        xs, ys, rows = (*self.grid.axes(), None) if cells is None else _sub_grid(self.grid, np.atleast_1d(cells))

        def make(member):
            v = _velocities(*member, xs, ys, self.times, spec.asymmetric, spec.hemisphere)
            return v if rows is None else v[rows.reshape(np.shape(cells))]

        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            for lo in range(0, spec.H, self.threads):
                yield from pool.map(make, members[lo : lo + self.threads])


def generate_synthetic_ensemble(spec: EnsemblePerturbationSpec, grid: Grid, times: TimeAxis, threads=1) -> Ensemble:
    """The members of `SyntheticEnsemble`, held in memory."""
    fields = SyntheticEnsemble(spec, grid, times, threads).fields()
    return Ensemble(members=tuple(WindField(grid=grid, times=times, velocities=v) for v in fields))


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
    ("H", _INTEGER, _ENSEMBLE_CHECKS["H"], "ensemble.H"),
    ("nx", _INTEGER, _GRID_CHECKS["nx"], "grid.nx"),
    ("ny", _INTEGER, _GRID_CHECKS["ny"], "grid.ny"),
    ("cell_size_km", _NUMBER, _GRID_CHECKS["cell_size"], "grid.cell_size_km"),
    ("origin_km", _XY, _POSITION_CHECK, "grid.origin_km"),
    ("n_steps", _INTEGER, _TIME_CHECKS["n_steps"], "times.n_steps"),
    ("dt_h", _NUMBER, _TIME_CHECKS["dt"], "times.dt_h"),
)


def save_ensemble(e, path, header_comment: str | None = None) -> None:
    """Write the members of `e` (`Ensemble` or `SyntheticEnsemble`), each as
    it is read, as ensemble CSV plus a JSON sidecar describing the dimensions.

    `path` names the CSV; the sidecar is written next to it at `path + ".json"`.
    `header_comment`, if given, is written as a leading `#` line in the CSV
    and under the "comment" key of the sidecar.
    """
    grid, times = e.grid, e.times
    H = _write_velocities(path, ENSEMBLE_HEADER, e.fields(), header_comment)
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
    sidecar and the key, as does one whose H * nx * ny * n_steps passes
    `grid._MAX_CELL_STEPS`, before the CSV is opened.
    """
    sidecar = f"{path}.json"
    doc = {"origin_km": [0.0, 0.0], **_read_json(sidecar)}
    meta = {}
    for key, kind, check, _ in SIDECAR_SCHEMA:
        if key not in doc:
            raise ConfigError(sidecar, f"missing key {key!r}")
        meta[key] = _check(f"{sidecar}: {key}", doc[key], kind, check)
    _require_cell_steps({key: meta[key] for key in ("H", "nx", "ny", "n_steps")}, f"{sidecar}: ")
    grid = Grid(origin=meta["origin_km"], nx=meta["nx"], ny=meta["ny"], cell_size=meta["cell_size_km"])
    times = TimeAxis(n_steps=meta["n_steps"], dt=meta["dt_h"])
    H = meta["H"]
    v = _read_velocities(path, ENSEMBLE_HEADER, (H, grid.n_cells, times.n_steps))
    members = [WindField(grid=grid, times=times, velocities=v[i]) for i in range(H)]
    return Ensemble(members=tuple(members))
