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
import json
import sys
from pathlib import Path
from typing import NamedTuple
try:  # CPython's own SHA-256 (`_sha2` from 3.12): `hashlib` would load OpenSSL's `_hashlib` for it
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without them
        from hashlib import sha256

import numpy as np

from . import aggregate, critzone, glm, nhpp
from .csvio import (
    TABLE_FMT,
    _BOOLEAN,
    _INTEGER,
    _NUMBER,
    _OPTIONAL_PATH,
    _PATH,
    _STRING,
    _VXY,
    _XY,
    ConfigError,
    _check,
    _read_json,
    _type_name,
    _write_json,
    _write_table,
)
from .ensemble import EnsemblePerturbationSpec, SyntheticEnsemble, save_ensemble
from .grid import _MAX_CELL_STEPS, Grid, TimeAxis, load_county_fixture
from .nhpp import _NHPP_CHECKS, NhppParams
from .wind import _HOLLAND_CHECKS, HollandParams, Track, save_wind_field, wind_field


# =============================================================================
# Config document
# =============================================================================

# One row per config field: (dotted path, default, kind, check).  The default
# config, the validation and the builders' values all come from this table,
# and the README's config reference is tested against it.
CONFIG_SCHEMA = (
    ("grid.nx", 100, _INTEGER, ">= 1"),
    ("grid.ny", 100, _INTEGER, ">= 1"),
    ("grid.cell_size_km", 1.0, _NUMBER, "in (0, 100]"),
    ("grid.origin_km", [0.0, 0.0], _XY, "in [-2e4, 2e4]"),
    ("times.n_steps", 121, _INTEGER, ">= 1"),
    ("times.dt_h", 1.0, _NUMBER, "in (0, 24]"),
    ("times.t0_h", 0.0, _NUMBER, None),  # accepted and ignored: no command reads it
    ("track.x0_km", [50.0, -150.0], _XY, "in [-2e4, 2e4]"),
    ("track.vtr_mps", [0.0, 3.0], _VXY, "in [-50, 50]"),
    ("holland.Vm_mps", 46.0, _NUMBER, _HOLLAND_CHECKS["Vm"]),
    ("holland.Rm_km", 30.0, _NUMBER, _HOLLAND_CHECKS["Rm"]),
    ("holland.B", 1.0, _NUMBER, _HOLLAND_CHECKS["B"]),
    ("nhpp.Vcrit_mps", 20.6, _NUMBER, _NHPP_CHECKS["Vcrit"]),
    ("nhpp.alpha", 4175.6, _NUMBER, _NHPP_CHECKS["alpha"]),
    ("nhpp.lambda_norm", 3.5e-5, _NUMBER, _NHPP_CHECKS["lambda_norm"]),
    ("field.asymmetric", False, _BOOLEAN, None),
    ("field.hemisphere", "N", _STRING, '"N" or "S"'),
    ("ensemble.H", 10, _INTEGER, ">= 1"),
    ("ensemble.sigma_track_km", 10.0, _NUMBER, "in [0, 2e4]"),
    ("ensemble.sigma_heading_deg", 5.0, _NUMBER, "in [0, 360]"),
    ("ensemble.sigma_Vm_mps", 3.0, _NUMBER, "in [0, 150]"),
    ("ensemble.sigma_Rm_km", 3.0, _NUMBER, "in [0, 500]"),
    ("repair.Lf", 1.0, _NUMBER, "in [0, 1e6]"),
    ("repair.Y", 1.0, _NUMBER, "in [1e-6, 1e6]"),
    ("sweep.Vm_min", 21.0, _NUMBER, _HOLLAND_CHECKS["Vm"]),
    ("sweep.Vm_max", 80.0, _NUMBER, _HOLLAND_CHECKS["Vm"]),
    ("sweep.Vm_step", 1.0, _NUMBER, "in (0, 150]"),
    ("sweep.Rm_min", 20.0, _NUMBER, _HOLLAND_CHECKS["Rm"]),
    ("sweep.Rm_max", 50.0, _NUMBER, _HOLLAND_CHECKS["Rm"]),
    ("sweep.Rm_step", 1.0, _NUMBER, "in (0, 500]"),
    ("counties_csv", None, _OPTIONAL_PATH, None),
    ("output_dir", "out", _PATH, None),
    ("seed", 0, _INTEGER, ">= 0"),
)

# Most storms a sweep may hold, far above the default sweep's 1,860.
_MAX_SWEEP_STORMS = 10**6
# The fields whose product `_MAX_CELL_STEPS` caps.
_FIELD_SIZE = ("grid.nx", "grid.ny", "times.n_steps")


def _nest(items) -> dict:
    """The nested dict holding each `(dotted path, value)` of `items`."""
    out: dict = {}
    for path, value in items:
        *sections, key = path.split(".")
        node = out
        for part in sections:
            node = node.setdefault(part, {})
        node[key] = value
    return out


DEFAULT_CONFIG: dict = _nest((path, default) for path, default, _, _ in CONFIG_SCHEMA)


def _sweep_axes(sweep: dict) -> list[tuple]:
    """The `np.arange` (start, stop, step) of the sweep's Vm and Rm axes."""
    return [(sweep[f"{a}_min"], sweep[f"{a}_max"] + 1e-9, sweep[f"{a}_step"]) for a in ("Vm", "Rm")]


def validate_config(config: dict) -> dict:
    """Check every field against its schema row, then the wind field's size
    and the sweep's range, raising ConfigError with the dotted path of the
    first offending field.  Returns the fields' values nested as in `config`, with numbers as floats
    and pairs as tuples of floats."""
    values = []
    for path, _, kind, check in CONFIG_SCHEMA:
        value = config
        for part in path.split("."):
            value = value[part]
        values.append((path, _check(path, value, kind, check)))
    size = 1
    for path in _FIELD_SIZE:
        section, key = path.split(".")
        value = config[section][key]
        size *= value
        if size > _MAX_CELL_STEPS:
            cap = f"{' * '.join(_FIELD_SIZE)} at most {_MAX_CELL_STEPS:,}"
            raise ConfigError(path, f"value {value!r} out of range ({cap})")
    s = config["sweep"]
    for a in ("Vm", "Rm"):
        if s[f"{a}_max"] < s[f"{a}_min"]:
            raise ConfigError(f"sweep.{a}_max", f"must be >= sweep.{a}_min")
    n_Vm, n_Rm = (np.ceil((stop - start) / step) for start, stop, step in _sweep_axes(s))
    cap = f"at most {_MAX_SWEEP_STORMS:,} storms"
    if n_Vm > _MAX_SWEEP_STORMS:
        raise ConfigError("sweep.Vm_max", f"{n_Vm:.3g} Vm values at sweep.Vm_step; {cap}")
    if n_Vm * n_Rm > _MAX_SWEEP_STORMS:
        raise ConfigError("sweep.Rm_max", f"{n_Vm:.0f} Vm by {n_Rm:.3g} Rm values at sweep.Rm_step; {cap}")
    return _nest(values)


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(here, "unknown config field")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(here, f"expected an object, got {_type_name(value)}")
            out[key] = _deep_merge(base[key], value, here)
        else:
            out[key] = value
    return out


def apply_override(config: dict, assignment: str) -> dict:
    """Apply one ``dotted.path=value`` override; values parse as JSON with a
    plain-string fallback."""
    dotted, equals, raw = assignment.partition("=")
    if not equals:
        raise ConfigError(assignment, "override must look like path=value")
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):  # not JSON, an over-long integer, or nested too deep
        value = raw
    return _deep_merge(config, _nest([(dotted, value)]))


def load_config(path: str | None, overrides: list[str]) -> dict:
    config = DEFAULT_CONFIG
    if path is not None:
        config = _deep_merge(config, _read_json(path))
    for assignment in overrides:
        config = apply_override(config, assignment)
    validate_config(config)
    return config


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON form of the config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()


# =============================================================================
# Builders
# =============================================================================


class _Run(NamedTuple):
    """Everything a command reads: the objects a validated config describes,
    the sweep's Vm and Rm values, the county file, the outputs' place and hash."""

    grid: Grid
    times: TimeAxis
    track: Track
    holland: HollandParams
    nhpp: NhppParams
    spec: EnsemblePerturbationSpec
    repair: aggregate.RepairParams
    sweep: tuple[np.ndarray, np.ndarray]
    counties_csv: str | None
    output_dir: Path
    digest: str

    @property
    def tag(self) -> str:
        """The comment line of every CSV the run writes."""
        return f"config_sha256={self.digest}"

    def out(self, name: str) -> Path:
        """The path of output `name`; a command that stops first makes no directory."""
        self.output_dir.mkdir(parents=True, exist_ok=True)
        return self.output_dir / name

    def report(self, name: str, doc: dict) -> None:
        """Write `doc` and the config hash as the JSON output `name`."""
        _write_json(self.out(name), {"config_sha256": self.digest, **doc})


def _build(config) -> _Run:
    """The run `config` describes, from its validated values.  Ensemble
    members take their asymmetry and hemisphere from `field`."""
    v = validate_config(config)
    g, h, n, e, f = v["grid"], v["holland"], v["nhpp"], v["ensemble"], v["field"]
    times = TimeAxis(n_steps=v["times"]["n_steps"], dt=v["times"]["dt_h"])
    track = Track(x0=v["track"]["x0_km"], Vtr=v["track"]["vtr_mps"])
    holland = HollandParams(Vm=h["Vm_mps"], Rm=h["Rm_km"], B=h["B"])
    spec = EnsemblePerturbationSpec(
        base_track=track,
        base_params=holland,
        sigma_track=e["sigma_track_km"],
        sigma_heading=e["sigma_heading_deg"],
        sigma_Vm=e["sigma_Vm_mps"],
        sigma_Rm=e["sigma_Rm_km"],
        seed=v["seed"],
        H=e["H"],
        asymmetric=f["asymmetric"],
        hemisphere=f["hemisphere"],
    )
    return _Run(
        grid=Grid(origin=g["origin_km"], nx=g["nx"], ny=g["ny"], cell_size=g["cell_size_km"]),
        times=times,
        track=track,
        holland=holland,
        nhpp=NhppParams(Vcrit=n["Vcrit_mps"], alpha=n["alpha"], lambda_norm=n["lambda_norm"]),
        spec=spec,
        repair=aggregate.RepairParams(Lf=v["repair"]["Lf"], Y=v["repair"]["Y"]),
        sweep=tuple(np.arange(*axis) for axis in _sweep_axes(v["sweep"])),
        counties_csv=v["counties_csv"],
        output_dir=Path(v["output_dir"]),
        digest=config_hash(config),
    )


def _load(loader, name: str, path):
    """`loader(path)`; a file that does not parse is bad input under `name`."""
    try:
        return loader(path)
    except ValueError as exc:  # it names the file and line
        raise ConfigError(name, str(exc)) from None


# =============================================================================
# Subcommands
# =============================================================================


def cmd_windfield(run: _Run, args) -> None:
    field = wind_field(run.track, run.holland, run.grid, run.times, run.spec.asymmetric, run.spec.hemisphere)
    save_wind_field(field, run.out("windfield.csv"), header_comment=run.tag)


def cmd_ensemble(run: _Run, args) -> None:
    save_ensemble(SyntheticEnsemble(run.spec, run.grid, run.times, args.threads), run.out("ensemble.csv"), run.tag)


def cmd_failure_rates(run: _Run, args) -> None:
    members = SyntheticEnsemble(run.spec, run.grid, run.times, args.threads)
    rates = (nhpp.fr1 if args.which == "fr1" else nhpp.fr2)(run.nhpp, members)
    nhpp.save_failure_rate_field(rates, run.out(f"failure_rates_{args.which}.csv"), header_comment=run.tag)


def cmd_fail_dist(run: _Run, args) -> None:
    try:
        cells = [int(c) for c in args.cells.split(",") if c.strip() != ""]
    except ValueError:
        raise ConfigError("--cells", "expected a comma-separated list of cell ids") from None
    if not cells:
        raise ConfigError("--cells", "need at least one cell id")
    for cell in cells:
        if not 0 <= cell < run.grid.n_cells:
            raise ConfigError("--cells", f"cell {cell} outside [0, {run.grid.n_cells})")
    if args.n_max is not None and args.n_max < 0:
        raise ConfigError("--n-max", "must be >= 0")
    members = SyntheticEnsemble(run.spec, run.grid, run.times, args.threads)
    rates = nhpp.member_rates(run.nhpp, members, cells)
    make = nhpp._fd_a if args.kind == "fda" else nhpp._fd_b
    dists = []
    for j, cell in enumerate(cells):
        try:
            dists.append(make(rates[:, j], args.n_max))
        except ValueError as exc:  # a rate past the default truncation's cap, or masses that miss 1
            where = "required" if args.n_max is None else f"at cell {cell}"
            raise ConfigError("--n-max", f"{where}: {exc}") from None
    for cell, dist in zip(cells, dists):
        nhpp.save_failure_distribution(dist, run.out(f"fail_dist_{args.kind}_cell{cell}.csv"), run.tag)


def cmd_critzone(run: _Run, args) -> None:
    s = run.spec
    Rcrit = critzone.critical_radius(run.holland, run.nhpp.Vcrit)
    obround = None if Rcrit is None else critzone.obround_area(Rcrit, run.times.duration, run.track.Vtr)
    rates, zone = critzone.storm_swath(
        run.track, run.holland, run.grid, run.times, run.nhpp, asymmetric=s.asymmetric, hemisphere=s.hemisphere
    )
    stats = critzone.zone_failure_stats(rates, zone)
    cells = np.flatnonzero(zone)
    area = len(cells) * run.grid.cell_area
    _write_table(run.out("critzone_cells.csv"), ["cell_id"], [cells], [], run.tag, line_end="\n")
    numbers = {"Rcrit_km": Rcrit, "area_numeric_km2": area, "area_obround_km2": obround,
               "max_failure_rate_per_km": stats["max"], "mean_failure_rate_per_km": stats["mean"]}
    report = {key: None if x is None else float(format(x, TABLE_FMT)) for key, x in numbers.items()}
    run.report("critzone_stats.json", {"Vthres_mps": run.nhpp.Vcrit, "n_cells": len(cells), **report})


def _sweep_fit_critzone(run: _Run) -> None:
    try:
        sweep = critzone.zone_sweep(*run.sweep, run.nhpp, run.track, run.times, run.holland.B)
    except critzone._SwathCapError as exc:  # Vm makes a grid of the coarsest cells large, else the track's run
        raise ConfigError("sweep.Vm_max" if exc.at_ceiling else "times.n_steps", str(exc)) from None
    Vm, Rm, Rcrit, area = sweep[:4]
    radius_fit = critzone.fit_crit_radius(Vm, Rm, Rcrit, Vthres=run.nhpp.Vcrit)
    vm_only = critzone.fit_power_law_vm_only(Vm, Rcrit)
    area_fit = critzone.fit_crit_area(Vm, Rm, area, radius_fit, run.times.duration, run.track.Vtr)
    critzone.save_zone_sweep(sweep, run.out("critzone_sweep.csv"), header_comment=run.tag)
    report = {
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
    run.report("critzone_fit.json", report)


# The fewest storms each target's fits take: one more than their regressors.
_FIT_STORMS = {"critzone": 3, "damage": len(aggregate._DAMAGE_TERMS) + 1, "loss": len(aggregate._LOSS_TERMS) + 1}


def cmd_sweep_fit(run: _Run, args) -> None:
    Vcrit, (Vm_values, Rm_values) = run.nhpp.Vcrit, run.sweep
    if args.target == "damage" and np.any(Vm_values <= Vcrit):
        raise ConfigError("sweep.Vm_min", f"must be > nhpp.Vcrit_mps ({Vcrit:g}) for --target damage")
    storms, reaching = len(Vm_values) * len(Rm_values), ""
    if args.target == "critzone":  # a storm below Vcrit has no zone
        storms, reaching = np.count_nonzero(Vm_values >= Vcrit) * len(Rm_values), " with Vm >= nhpp.Vcrit_mps"
    need = _FIT_STORMS[args.target]
    if storms < need:
        raise ConfigError("sweep.Vm_max", f"{storms} storms{reaching}; the {args.target} fit needs at least {need}")
    if args.target == "critzone":
        _sweep_fit_critzone(run)
        return
    if args.target == "loss" and len(Rm_values) < 5:  # 1, Rm, ..., Rm^4 need 5 radii
        print(f"warning: sweep.Rm_step: {len(Rm_values)} radii make the loss design singular;"
              " its p-values and term pruning rest on a singular fit", file=sys.stderr)
    Vm, Rm, damage, loss = aggregate.damage_loss_sweep(*run.sweep, nhpp=run.nhpp, repair=run.repair, B=run.holland.B)
    try:
        if args.target == "damage":
            model = aggregate.fit_damage_model(Vm, Rm, damage, Vcrit)
            report = {"p1": model.p1, "p2": model.p2}
        else:
            model = aggregate.fit_loss_model(Vm, Rm, loss, Vcrit)
            report = {"p": model.p, "condition_number": model.fit.cond}
    except ValueError as exc:  # losses at or near 0, as at Lf = 0; a damage is at least lambda_norm 24 h >= 2.4e-11
        raise ConfigError("repair.Lf", str(exc)) from None
    aggregate.save_agg_sweep(Vm, Rm, damage, loss, run.out(f"{args.target}_sweep.csv"), header_comment=run.tag)
    report.update(
        terms=list(model.terms),
        beta=[float(x) for x in model.fit.beta],
        se=[float(s) for s in model.fit.se],
        p_values=[float(p) for p in model.fit.p_values],
        rms_relative_residual=model.fit.rms,
    )
    run.report(f"{args.target}_fit.json", report)


def cmd_outage_fit(run: _Run, args) -> None:
    if run.counties_csv is None:
        raise ConfigError("counties_csv", "required for outage-fit")
    counties = _load(load_county_fixture, "counties_csv", run.counties_csv)
    index = {c.name: np.array(sorted(c.cells)) for c in counties}  # each county's cells as `county_average` reads them
    for name, cells in index.items():
        outside = cells[(cells < 0) | (cells >= run.grid.n_cells)]
        if outside.size:
            raise ConfigError("counties_csv", f"county {name!r}: cell {outside[0]} outside [0, {run.grid.n_cells})")
    observations = _load(glm.load_observations, "--obs", args.obs)
    unknown = sorted({obs.county for obs in observations} - set(counties.names()))
    if unknown:
        raise ConfigError("--obs", f"counties not in counties_csv: {', '.join(map(repr, unknown))}")
    dt = run.times.dt
    # Each observation's exposure is its county's mean at the step holding
    # time_h, clipped to the horizon; only those steps are kept.
    last = run.times.n_steps - 1
    steps, column = np.unique(
        [int(np.clip(np.floor(obs.time_h / dt), 0, last)) for obs in observations], return_inverse=True
    )
    members = SyntheticEnsemble(run.spec, run.grid, run.times, args.threads)
    per_step = nhpp._cumulative_exposure(run.nhpp, members, args.predictor, steps)
    x = np.array([np.mean(per_step[index[obs.county], j]) for obs, j in zip(observations, column)])
    fit = glm.fit_binomial(
        np.column_stack([np.ones_like(x), x]),
        np.array([obs.outages for obs in observations], dtype=float),
        np.array([obs.households for obs in observations], dtype=float),
    )
    report = {
        "predictor": args.predictor,
        "beta": [float(x) for x in fit.beta],
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
    run.report("outage_fit.json", report)


def cmd_tables123(run: _Run, args) -> None:
    records = critzone.tables123(nhpp=run.nhpp)
    Vm, Rm, *values = ([rec[c] for rec in records] for c in critzone.TABLE_HEADER)
    _write_table(run.out("tables123.csv"), critzone.TABLE_HEADER, [Vm, Rm], values, run.tag, line_end="\n")


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
            default=1,
            help="worker threads (default: 1)",
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
    if args.threads < 1:
        print("error: --threads: must be >= 1", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config, args.overrides)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        args.func(_build(config), args)
    except ConfigError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: report, do not traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
