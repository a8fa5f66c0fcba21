"""
Command-line entry point: reproducible experiment runs from a JSON config.

Every subcommand reads one JSON config document (optionally overridden field
by field via ``--set dotted.path=value``), validates it with field-path
diagnostics, and writes plain CSV/JSON outputs into the configured output
directory.  Each output embeds the SHA-256 hash of the resolved config, so a
result file can always be traced to the exact inputs that produced it.

Exit codes: 0 success, 1 runtime failure (e.g. missing input file), 2 invalid
input (bad config value or flag, or an input file that does not parse).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import aggregate, critzone, glm, nhpp
from .csvio import TABLE_FMT, _write_csv
from .ensemble import (
    EnsemblePerturbationSpec,
    _mean,
    _member_velocities,
    default_thread_count,
    save_ensemble_members,
)
from .grid import Grid, TimeAxis, county_average, load_county_fixture
from .nhpp import NhppParams
from .wind import (
    HollandParams,
    Track,
    _grid_axes,
    _sub_grid,
    asymmetric_field,
    axisymmetric_field,
    save_wind_field,
)


class ConfigError(ValueError):
    """Invalid config value; `path` is the dotted field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# =============================================================================
# Config document
# =============================================================================

DEFAULT_CONFIG: dict = {
    "scenario": "default",
    "grid": {"nx": 100, "ny": 100, "cell_size_km": 1.0, "origin_km": [0.0, 0.0]},
    "times": {"n_steps": 121, "dt_h": 1.0, "t0_h": 0.0},
    "track": {"x0_km": [50.0, -150.0], "vtr_mps": [0.0, 3.0]},
    "holland": {"Vm_mps": 46.0, "Rm_km": 30.0, "B": 1.0},
    "nhpp": {"Vcrit_mps": 20.6, "alpha": 4175.6, "lambda_norm": 3.5e-5},
    "field": {"asymmetric": False, "hemisphere": "N"},
    "ensemble": {
        "H": 10,
        "sigma_track_km": 10.0,
        "sigma_heading_deg": 5.0,
        "sigma_Vm_mps": 3.0,
        "sigma_Rm_km": 3.0,
        "asymmetric": False,
    },
    "repair": {"Lf": 1.0, "Y": 1.0},
    "sweep": {
        "Vm_min": 21.0,
        "Vm_max": 80.0,
        "Vm_step": 1.0,
        "Rm_min": 20.0,
        "Rm_max": 50.0,
        "Rm_step": 1.0,
    },
    "counties_csv": None,
    "output_dir": "out",
    "seed": 0,
}


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(here, "unknown config field")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(base[key], value, here)
        else:
            out[key] = value
    return out


def apply_override(config: dict, assignment: str) -> dict:
    """Apply one ``dotted.path=value`` override; values parse as JSON with a
    plain-string fallback."""
    if "=" not in assignment:
        raise ConfigError(assignment, "override must look like path=value")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node: dict = {}
    leaf = node
    parts = dotted.split(".")
    for part in parts[:-1]:
        leaf[part] = {}
        leaf = leaf[part]
    leaf[parts[-1]] = value
    return _deep_merge(config, node)


def _require(config: dict, path: str, types, check=None, describe: str = ""):
    node = config
    for part in path.split("."):
        node = node[part]
    if isinstance(node, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise ConfigError(path, f"expected {describe or 'a number'}, got a boolean")
    if not isinstance(node, types):
        raise ConfigError(path, f"expected {describe or types}, got {type(node).__name__}")
    if isinstance(node, float) and not np.isfinite(node):
        raise ConfigError(path, f"expected a finite number, got {node!r}")
    if check is not None and not check(node):
        raise ConfigError(path, f"value {node!r} out of range ({describe})")
    return node


# Most storms `_sweep_grids` may make, far above the default sweep's 1,860.
_MAX_SWEEP_STORMS = 10**6


def validate_config(config: dict) -> None:
    """Check every field used by the commands, raising ConfigError with the
    dotted path of the first offending field."""
    num = (int, float)
    _require(config, "scenario", str, describe="a string")
    _require(config, "grid.nx", int, lambda v: v >= 1, ">= 1")
    _require(config, "grid.ny", int, lambda v: v >= 1, ">= 1")
    _require(config, "grid.cell_size_km", num, lambda v: v > 0, "> 0")
    origin = _require(config, "grid.origin_km", list, lambda v: len(v) == 2, "[x, y]")
    for v in origin:
        if not isinstance(v, num) or isinstance(v, bool) or not np.isfinite(v):
            raise ConfigError("grid.origin_km", "entries must be finite numbers")
    _require(config, "times.n_steps", int, lambda v: v >= 1, ">= 1")
    _require(config, "times.dt_h", num, lambda v: v > 0, "> 0")
    _require(config, "times.t0_h", num, describe="a number")
    x0 = _require(config, "track.x0_km", list, lambda v: len(v) == 2, "[x, y]")
    vtr = _require(config, "track.vtr_mps", list, lambda v: len(v) == 2, "[vx, vy]")
    for path, pair in (("track.x0_km", x0), ("track.vtr_mps", vtr)):
        for v in pair:
            if not isinstance(v, num) or isinstance(v, bool) or not np.isfinite(v):
                raise ConfigError(path, "entries must be finite numbers")
    _require(config, "holland.Vm_mps", num, lambda v: v > 0, "> 0")
    _require(config, "holland.Rm_km", num, lambda v: v > 0, "> 0")
    _require(config, "holland.B", num, lambda v: v > 0, "> 0")
    _require(config, "nhpp.Vcrit_mps", num, lambda v: v > 0, "> 0")
    _require(config, "nhpp.alpha", num, lambda v: v >= 1, ">= 1")
    _require(config, "nhpp.lambda_norm", num, lambda v: v > 0, "> 0")
    _require(config, "field.asymmetric", bool, describe="a boolean")
    _require(config, "field.hemisphere", str, lambda v: v in ("N", "S"), '"N" or "S"')
    _require(config, "ensemble.H", int, lambda v: v >= 1, ">= 1")
    for key in ("sigma_track_km", "sigma_heading_deg", "sigma_Vm_mps", "sigma_Rm_km"):
        _require(config, f"ensemble.{key}", num, lambda v: v >= 0, ">= 0")
    _require(config, "ensemble.asymmetric", bool, describe="a boolean")
    _require(config, "repair.Lf", num, lambda v: v >= 0, ">= 0")
    _require(config, "repair.Y", num, lambda v: v > 0, "> 0")
    for key in ("Vm_min", "Vm_max", "Vm_step", "Rm_min", "Rm_max", "Rm_step"):
        _require(config, f"sweep.{key}", num, lambda v: v > 0, "> 0")
    if config["sweep"]["Vm_max"] < config["sweep"]["Vm_min"]:
        raise ConfigError("sweep.Vm_max", "must be >= sweep.Vm_min")
    if config["sweep"]["Rm_max"] < config["sweep"]["Rm_min"]:
        raise ConfigError("sweep.Rm_max", "must be >= sweep.Rm_min")
    s = config["sweep"]
    n_Vm, n_Rm = (  # the lengths of `_sweep_grids`' two np.arange axes
        np.ceil((s[f"{a}_max"] + 1e-9 - s[f"{a}_min"]) / s[f"{a}_step"]) for a in ("Vm", "Rm")
    )
    if n_Vm > _MAX_SWEEP_STORMS:
        raise ConfigError(
            "sweep.Vm_max", f"{n_Vm:.3g} Vm values at sweep.Vm_step; at most {_MAX_SWEEP_STORMS:,} storms"
        )
    if n_Vm * n_Rm > _MAX_SWEEP_STORMS:
        raise ConfigError(
            "sweep.Rm_max",
            f"{n_Vm:.0f} Vm by {n_Rm:.3g} Rm values at sweep.Rm_step; at most {_MAX_SWEEP_STORMS:,} storms",
        )
    if config["counties_csv"] is not None and not isinstance(config["counties_csv"], str):
        raise ConfigError("counties_csv", "expected a path string or null")
    _require(config, "output_dir", str, describe="a path string")
    _require(config, "seed", int, lambda v: v >= 0, ">= 0")


def load_config(path: str | None, overrides: list[str]) -> dict:
    config = DEFAULT_CONFIG
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError(str(path), "config document must be a JSON object")
        config = _deep_merge(config, user)
    for assignment in overrides:
        config = apply_override(config, assignment)
    validate_config(config)
    return config


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON form of the config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# =============================================================================
# Builders
# =============================================================================


def _build_grid(config) -> Grid:
    g = config["grid"]
    return Grid(
        origin=tuple(float(v) for v in g["origin_km"]),
        nx=g["nx"],
        ny=g["ny"],
        cell_size=float(g["cell_size_km"]),
    )


def _build_times(config) -> TimeAxis:
    t = config["times"]
    return TimeAxis(t0=float(t["t0_h"]), n_steps=t["n_steps"], dt=float(t["dt_h"]))


def _build_track(config) -> Track:
    t = config["track"]
    duration = config["times"]["n_steps"] * config["times"]["dt_h"]
    return Track(
        x0=tuple(float(v) for v in t["x0_km"]),
        Vtr=tuple(float(v) for v in t["vtr_mps"]),
        duration=float(duration),
    )


def _build_holland(config) -> HollandParams:
    h = config["holland"]
    return HollandParams(Vm=float(h["Vm_mps"]), Rm=float(h["Rm_km"]), B=float(h["B"]))


def _build_nhpp(config) -> NhppParams:
    n = config["nhpp"]
    return NhppParams(
        Vcrit=float(n["Vcrit_mps"]),
        alpha=float(n["alpha"]),
        lambda_norm=float(n["lambda_norm"]),
    )


def _build_ensemble_spec(config) -> EnsemblePerturbationSpec:
    e = config["ensemble"]
    return EnsemblePerturbationSpec(
        base_track=_build_track(config),
        base_params=_build_holland(config),
        sigma_track=float(e["sigma_track_km"]),
        sigma_heading=float(e["sigma_heading_deg"]),
        sigma_Vm=float(e["sigma_Vm_mps"]),
        sigma_Rm=float(e["sigma_Rm_km"]),
        seed=config["seed"],
        H=e["H"],
        asymmetric=e["asymmetric"],
    )


def _build_field(config):
    track = _build_track(config)
    params = _build_holland(config)
    grid = _build_grid(config)
    times = _build_times(config)
    if config["field"]["asymmetric"]:
        return asymmetric_field(track, params, grid, times, hemisphere=config["field"]["hemisphere"])
    return axisymmetric_field(track, params, grid, times)


def _members(config, threads: int, axes=None):
    """Each member's velocities in turn, on the grid or on cell-centre `axes`."""
    axes = _grid_axes(_build_grid(config)) if axes is None else axes
    return _member_velocities(_build_ensemble_spec(config), *axes, _build_times(config), threads)


def _load(loader, name: str, path):
    """`loader(path)`; a file that does not parse is bad input under `name`."""
    try:
        return loader(path)
    except ValueError as exc:  # it names the file and line
        raise ConfigError(name, str(exc)) from None


def _out_dir(config) -> Path:
    path = Path(config["output_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_report(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _sweep_grids(config) -> tuple[np.ndarray, np.ndarray]:
    s = config["sweep"]
    Vm = np.arange(s["Vm_min"], s["Vm_max"] + 1e-9, s["Vm_step"])
    Rm = np.arange(s["Rm_min"], s["Rm_max"] + 1e-9, s["Rm_step"])
    return Vm, Rm


# =============================================================================
# Subcommands
# =============================================================================


def cmd_windfield(config: dict, args) -> int:
    tag = f"config_sha256={config_hash(config)}"
    field = _build_field(config)
    save_wind_field(field, _out_dir(config) / "windfield.csv", header_comment=tag)
    return 0


def cmd_ensemble(config: dict, args) -> int:
    tag = f"config_sha256={config_hash(config)}"
    members = _members(config, args.threads)
    out = _out_dir(config) / "ensemble.csv"
    save_ensemble_members(_build_grid(config), _build_times(config), members, out, header_comment=tag)
    return 0


def cmd_failure_rates(config: dict, args) -> int:
    tag = f"config_sha256={config_hash(config)}"
    members = _members(config, args.threads)
    reduce = nhpp._fr1 if args.which == "fr1" else nhpp._fr2
    rates = reduce(_build_nhpp(config), members, _build_times(config).dt)
    out = _out_dir(config) / f"failure_rates_{args.which}.csv"
    nhpp.save_failure_rate_field(rates, out, header_comment=tag)
    return 0


def cmd_fail_dist(config: dict, args) -> int:
    tag = f"config_sha256={config_hash(config)}"
    try:
        cells = [int(c) for c in args.cells.split(",") if c.strip() != ""]
    except ValueError:
        raise ConfigError("--cells", "expected a comma-separated list of cell ids") from None
    if not cells:
        raise ConfigError("--cells", "need at least one cell id")
    grid = _build_grid(config)
    for cell in cells:
        if not 0 <= cell < grid.n_cells:
            raise ConfigError("--cells", f"cell {cell} outside [0, {grid.n_cells})")
    if args.n_max is not None and args.n_max < 0:
        raise ConfigError("--n-max", "must be >= 0")
    xs, ys, rows = _sub_grid(grid, cells)
    members = _members(config, args.threads, (xs, ys))
    rates = nhpp._member_rates(_build_nhpp(config), members, rows, _build_times(config).dt)
    out_dir = _out_dir(config)
    make = nhpp._fd_a if args.kind == "fda" else nhpp._fd_b
    for j, cell in enumerate(cells):
        dist = make(rates[:, j], args.n_max)
        nhpp.save_failure_distribution(
            dist, out_dir / f"fail_dist_{args.kind}_cell{cell}.csv", header_comment=tag
        )
    return 0


def cmd_critzone(config: dict, args) -> int:
    digest = config_hash(config)
    tag = f"config_sha256={digest}"
    params = _build_holland(config)
    nparams = _build_nhpp(config)
    track = _build_track(config)
    grid = _build_grid(config)
    times = _build_times(config)
    asymmetric, hemisphere = config["field"]["asymmetric"], config["field"]["hemisphere"]
    rates, zone = critzone.storm_swath(
        track, params, grid, times, nparams, asymmetric=asymmetric, hemisphere=hemisphere
    )
    stats = critzone._zone_stats(rates, zone)
    cells = np.flatnonzero(zone)
    Rcrit = critzone.critical_radius(params, nparams.Vcrit)
    out_dir = _out_dir(config)
    rows = ([cell] for cell in cells)
    _write_csv(out_dir / "critzone_cells.csv", ["cell_id"], rows, tag, line_end="\n")
    report = {
        "config_sha256": digest,
        "Vthres_mps": nparams.Vcrit,
        "Rcrit_km": None if Rcrit is None else float(format(Rcrit, TABLE_FMT)),
        "area_numeric_km2": float(format(len(cells) * grid.cell_area, TABLE_FMT)),
        "area_obround_km2": None
        if Rcrit is None
        else float(format(critzone.obround_area(Rcrit, times.duration, track.Vtr), TABLE_FMT)),
        "n_cells": len(cells),
        "max_failure_rate_per_km": float(format(stats["max"], TABLE_FMT)),
        "mean_failure_rate_per_km": float(format(stats["mean"], TABLE_FMT)),
    }
    _write_report(out_dir / "critzone_stats.json", report)
    return 0


def _sweep_fit_critzone(config: dict, digest: str) -> None:
    tag = f"config_sha256={digest}"
    nparams = _build_nhpp(config)
    track = _build_track(config)
    times = _build_times(config)
    Vm_grid, Rm_grid = _sweep_grids(config)
    Vm, Rm, Rcrit = critzone.sweep_critical_radius(
        Vm_grid, Rm_grid, Vthres=nparams.Vcrit, B=float(config["holland"]["B"])
    )
    radius_fit = critzone.fit_crit_radius(Vm, Rm, Rcrit, Vthres=nparams.Vcrit)
    vm_only = critzone.fit_power_law_vm_only(Vm, Rcrit)
    rows = []
    areas = []
    for v, r, rc in zip(Vm, Rm, Rcrit):
        p = HollandParams(Vm=float(v), Rm=float(r), B=float(config["holland"]["B"]))
        # Resolution tracks the zone size so large storms stay affordable.
        cell = float(np.clip(rc / 100.0, 2.0, 25.0))
        a_num = critzone.axisymmetric_zone_area(track, p, times, nparams.Vcrit, cell_size=cell)
        a_ob = critzone.obround_area(rc, times.duration, track.Vtr)
        stats = _zone_rate_stats(p, nparams, track, times, rc)
        areas.append(a_num)
        rows.append(
            {
                "Vm_mps": float(v),
                "Rm_km": float(r),
                "Rcrit_km": rc,
                "Acrit_numeric_km2": a_num,
                "Acrit_obround_km2": a_ob,
                "maxFR": stats["max"],
                "meanFR": stats["mean"],
            }
        )
    area_fit = critzone.fit_crit_area(
        Vm, Rm, np.array(areas), radius_fit, times.duration, track.Vtr
    )
    out_dir = _out_dir(config)
    critzone.save_zone_sweep(rows, out_dir / "critzone_sweep.csv", header_comment=tag)
    report = {
        "config_sha256": digest,
        "radius_fit": {
            "a1": radius_fit.a1,
            "a2": radius_fit.a2,
            "se_log_a1": radius_fit.se_log_a1,
            "se_a2": radius_fit.se_a2,
            "rms_log_residual": radius_fit.residual,
        },
        "vm_only_power_law": {
            "log_c": float(vm_only.beta[0]),
            "q": float(vm_only.beta[1]),
            "rms_log_residual": vm_only.rms,
        },
        "area_fit": {
            "b1_derived": area_fit.b1_derived,
            "b2_derived": area_fit.b2_derived,
            "b1_free": area_fit.b1_free,
            "b2_free": area_fit.b2_free,
            "rms_residual_free": area_fit.residual_free,
        },
    }
    _write_report(out_dir / "critzone_fit.json", report)


def _zone_rate_stats(p, nparams, track, times, rc: float) -> dict[str, float]:
    """Max and mean failure rate over the zone, on a coarse grid spanning the
    storm swath.  Resolution scales with the critical radius so per-storm cost
    is bounded across the sweep."""
    pos = track.position(times.offsets())
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
    rates, zone = critzone.storm_swath(track, p, grid, times, nparams)
    return critzone._zone_stats(rates, zone)


def _sweep_fit_aggregate(config: dict, digest: str, target: str) -> None:
    tag = f"config_sha256={digest}"
    nparams = _build_nhpp(config)
    repair = aggregate.RepairParams(
        Lf=float(config["repair"]["Lf"]), Y=float(config["repair"]["Y"])
    )
    if target == "damage" and config["sweep"]["Vm_min"] <= nparams.Vcrit:
        raise ConfigError("sweep.Vm_min", f"must be > nhpp.Vcrit_mps ({nparams.Vcrit:g}) for --target damage")
    Vm_grid, Rm_grid = _sweep_grids(config)
    sweep = aggregate.SweepConfig(B=float(config["holland"]["B"]))
    Vm, Rm, damage, loss = aggregate.damage_loss_sweep(
        Vm_grid, Rm_grid, nhpp=nparams, repair=repair, config=sweep
    )
    out_dir = _out_dir(config)
    aggregate.save_agg_sweep(
        Vm, Rm, damage, loss, out_dir / f"{target}_sweep.csv", header_comment=tag
    )
    if target == "damage":
        model = aggregate.fit_damage_model(Vm, Rm, damage, nparams.Vcrit)
        report = {"p1": model.p1, "p2": model.p2}
    else:
        model = aggregate.fit_loss_model(Vm, Rm, loss, nparams.Vcrit)
        report = {"p": model.p, "condition_number": model.fit.cond}
    report.update(
        config_sha256=digest,
        terms=list(model.terms),
        beta=[float(b) for b in model.fit.beta],
        se=[float(s) for s in model.fit.se],
        p_values=[float(p) for p in model.fit.p_values],
        rms_relative_residual=model.fit.rms,
    )
    _write_report(out_dir / f"{target}_fit.json", report)


def cmd_sweep_fit(config: dict, args) -> int:
    digest = config_hash(config)
    if args.target == "critzone":
        _sweep_fit_critzone(config, digest)
    else:
        _sweep_fit_aggregate(config, digest, args.target)
    return 0


def _cumulative_exposure(nparams: NhppParams, velocities, dt: float, predictor: str, steps) -> np.ndarray:
    """Member mean of each cell's running sum of intensity times `dt`
    ("failure_rate") or of speed, at the time steps `steps` only, from the
    members' arrays one at a time."""
    if predictor == "failure_rate":
        return _mean(
            np.cumsum(nhpp.poisson_intensity(nparams, v) * dt, axis=-1)[:, steps] for v in velocities
        )
    return _mean(np.cumsum(v, axis=-1)[:, steps] for v in velocities)


def cmd_outage_fit(config: dict, args) -> int:
    digest = config_hash(config)
    if config["counties_csv"] is None:
        raise ConfigError("counties_csv", "required for outage-fit")
    counties = _load(load_county_fixture, "counties_csv", config["counties_csv"])
    observations = _load(glm.load_observations, "--obs", args.obs)
    unknown = sorted({obs.county for obs in observations} - set(counties.names()))
    if unknown:
        raise ConfigError("--obs", f"counties not in counties_csv: {', '.join(map(repr, unknown))}")
    times = _build_times(config)
    dt = times.dt
    # Each observation's exposure is its county's mean at the step holding
    # time_h, clipped to the horizon; only those steps are kept.
    last = times.n_steps - 1
    steps, column = np.unique(
        [int(np.clip(np.floor(obs.time_h / dt), 0, last)) for obs in observations], return_inverse=True
    )
    members = _members(config, args.threads)
    per_step = _cumulative_exposure(_build_nhpp(config), members, dt, args.predictor, steps)
    x = np.array(
        [county_average(per_step[:, j], counties[obs.county]) for obs, j in zip(observations, column)]
    )
    fit = glm.fit_binomial(
        np.column_stack([np.ones_like(x), x]),
        np.array([obs.outages for obs in observations], dtype=float),
        np.array([obs.households for obs in observations], dtype=float),
    )
    report = {
        "config_sha256": digest,
        "predictor": args.predictor,
        "beta": [float(b) for b in fit.beta],
        "se": [float(s) for s in fit.se],
        "wald_p_values": [float(p) for p in fit.p_values],
        "deviance": fit.deviance,
        "null_deviance": fit.null_deviance,
        "lr_p_value": fit.lr_p_value,
        "n_iterations": fit.n_iter,
        "converged": fit.converged,
        "separated": fit.separated,
        "significant_at_0p05": bool(fit.p_values[1] < 0.05),
    }
    _write_report(_out_dir(config) / "outage_fit.json", report)
    return 0


def cmd_tables123(config: dict, args) -> int:
    tag = f"config_sha256={config_hash(config)}"
    records = critzone.tables123(nhpp=_build_nhpp(config))
    out = _out_dir(config) / "tables123.csv"
    cols = [
        "Vm", "Rm",
        "area_axi_km2", "area_asym_km2",
        "max_fr_axi", "max_fr_asym",
        "mean_fr_axi", "mean_fr_asym",
    ]
    rows = (
        [str(rec["Vm"]), str(rec["Rm"])] + [format(rec[c], TABLE_FMT) for c in cols[2:]]
        for rec in records
    )
    _write_csv(out, cols, rows, tag, line_end="\n")
    return 0


# =============================================================================
# Entry point
# =============================================================================


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stormrisk",
        description="Storm wind-field and infrastructure failure-risk toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="PATH=VALUE",
            help="override a config field via its dotted path",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker threads (default: STORMRISK_THREADS or 1)",
        )
        p.set_defaults(func=func)
        return p

    add("windfield", cmd_windfield, "write the deterministic wind field CSV")
    add("ensemble", cmd_ensemble, "generate and write a synthetic ensemble")
    p = add("failure-rates", cmd_failure_rates, "write per-cell ensemble failure rates")
    p.add_argument("--which", choices=["fr1", "fr2"], default="fr2")
    p = add("fail-dist", cmd_fail_dist, "write failure-count distributions for cells")
    p.add_argument("--cells", default="0", help="comma-separated cell ids")
    p.add_argument("--kind", choices=["fda", "fdb"], default="fda")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    add("critzone", cmd_critzone, "write critical-zone cells and statistics")
    p = add("sweep-fit", cmd_sweep_fit, "run a (Vm, Rm) sweep and fit its parametric model")
    p.add_argument("--target", choices=["critzone", "damage", "loss"], default="critzone")
    p = add("outage-fit", cmd_outage_fit, "fit the binomial outage model to observations")
    p.add_argument("--obs", required=True, help="observations CSV")
    p.add_argument(
        "--predictor",
        choices=["failure_rate", "cumulative_velocity"],
        default="failure_rate",
    )
    add("tables123", cmd_tables123, "write the benchmark-storm area/rate table")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is None:
        args.threads = default_thread_count()
    if args.threads < 1:
        print("error: --threads: must be >= 1", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config, args.overrides)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(config, args)
    except ConfigError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: report, do not traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
