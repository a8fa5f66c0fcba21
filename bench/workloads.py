"""
Seeded inputs for the three benchmark workloads.

`build(workload, seed, size)` writes every input a workload needs (JSON
configs, the county fixture and the outage observations) under
``.bench_work/<workload>/in`` and returns the CLI invocations that use them.
The program under test receives only these files and argument lists; nothing
here imports `stormrisk`.  All paths are relative to the checkout root, so
the config hashes the CLI embeds in its outputs do not depend on where the
checkout lives.

Why each workload exists:

* ``swath``: tables123, an asymmetric critzone and a coarsened critzone
  sweep.  The wind field is streamed and reduced, never stored, so the wind,
  nhpp and critzone layers do the work; ensemble, io and fitting do almost
  none.  Only a minority of tables123 cell-steps reach Vcrit, so any change
  that evaluates fewer cell-steps shows here.
* ``forecast``: one 48-hour, 10-member ensemble on the default 100x100 grid
  written as CSV, then fr1, fr2, fd-b and the outage GLM.  Every cell of
  every member is stored and most cell-steps near the track reach Vcrit; the
  work is ensemble stacking and CSV io over five CLI start-ups.  A change
  that helps the swath but slows full fields shows here.
* ``scaling``: the damage and loss sweeps over the default 1,860-storm
  (Vm, Rm) grid.  aggregate makes tens of thousands of small kernel calls and
  fitting thousands of exponent-scan least-squares fits; there is no zone,
  ensemble or bulk io work.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

WORKLOADS = ("swath", "forecast", "scaling")
WORK_ROOT = Path(".bench_work")

# Generating coefficients of the outage logit model are drawn around these.
_BETA0_RANGE = (-5.0, -3.5)
# beta1 is scaled so that the largest exposure moves the logit by this much.
_BETA1_SPAN = (2.5, 3.5)
_OBS_EVERY_H = 4.0

# CLI defaults the oracle relies on (B = 1, default NHPP and perturbation
# sigmas: track x, track y, heading, Vm, Rm).  A change to these defaults
# shows up as a failed outage-fit recovery check.
_DEFAULTS = {
    "Vcrit": 20.6,
    "alpha": 4175.6,
    "lambda_norm": 3.5e-5,
    "vtr": (0.0, 3.0),
    "sigmas": (10.0, 10.0, 5.0, 3.0, 3.0),
}


def work_dir(workload: str) -> Path:
    return WORK_ROOT / workload


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _sets(overrides: dict) -> list[str]:
    """``--set path=value`` arguments, values in JSON."""
    out = []
    for path, value in overrides.items():
        out += ["--set", f"{path}={json.dumps(value)}"]
    return out


def _op(name: str, command: list[str], config: Path, overrides: dict) -> dict:
    return {
        "name": name,
        "argv": command + ["--config", str(config)] + _sets(overrides) + ["--threads", "1"],
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _offset(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


def build(workload: str, seed: int, size: str = "full") -> dict:
    """Write the inputs of one workload and return its plan.

    `size` is "full" for the benchmark or "tiny" for the harness self-test.
    The plan holds ``ops`` (name and argv of each CLI invocation, in order),
    ``out_dir`` and ``context``, the generating values the output checks
    need.  The same (workload, seed, size) always gives the same files.
    """
    base = work_dir(workload)
    if base.exists():
        shutil.rmtree(base)
    in_dir = base / "in"
    out_dir = base / "out"
    in_dir.mkdir(parents=True)
    rng = _rng(workload, seed)
    plan = {"workload": workload, "seed": seed, "size": size, "out_dir": str(out_dir)}
    if workload == "swath":
        plan.update(_swath(rng, seed, size, in_dir, out_dir))
    elif workload == "forecast":
        plan.update(_forecast(rng, seed, size, in_dir, out_dir))
    else:
        plan.update(_scaling(rng, seed, size, in_dir, out_dir))
    _write_json(in_dir / "plan.json", plan)
    return plan


def _sweep_overrides(rng, vm_step, rm_step, vm_span, rm_span) -> dict:
    # Offsets below half a step move every storm without changing their count.
    a = _offset(rng, 0.0, 0.5)
    b = _offset(rng, 0.0, 0.5)
    return {
        "sweep.Vm_min": 21.0 + a,
        "sweep.Vm_max": 21.0 + vm_span + a,
        "sweep.Vm_step": vm_step,
        "sweep.Rm_min": 20.0 + b,
        "sweep.Rm_max": 20.0 + rm_span + b,
        "sweep.Rm_step": rm_step,
    }


def _swath(rng, seed, size, in_dir, out_dir) -> dict:
    config = in_dir / "swath.json"
    _write_json(config, {"output_dir": str(out_dir), "seed": seed})
    storm = {
        "field.asymmetric": True,
        "holland.Vm_mps": 46.0 + _offset(rng, -2.0, 2.0),
        "holland.Rm_km": 30.0 + _offset(rng, -2.0, 2.0),
        "track.x0_km": [50.0 + _offset(rng, -5.0, 5.0), -150.0],
    }
    if size == "full":
        # ~1/20 of the default 1,860-storm sweep: 15 x 7 = 105 storms.
        sweep = _sweep_overrides(rng, 4.0, 5.0, 59.0, 32.0)
    else:
        storm.update({"grid.nx": 30, "grid.ny": 30, "times.n_steps": 25})
        sweep = _sweep_overrides(rng, 20.0, 15.0, 59.0, 30.0)
    ops = [
        _op("tables123", ["tables123"], config, {}),
        _op("critzone", ["critzone"], config, storm),
        _op("sweep_fit_critzone", ["sweep-fit", "--target", "critzone"], config, sweep),
    ]
    return {"ops": ops, "context": {"sweep": sweep}}


def _scaling(rng, seed, size, in_dir, out_dir) -> dict:
    config = in_dir / "scaling.json"
    _write_json(config, {"output_dir": str(out_dir), "seed": seed})
    if size == "full":
        sweep = _sweep_overrides(rng, 1.0, 1.0, 59.0, 30.0)  # 60 x 31 = 1,860 storms
    else:
        sweep = _sweep_overrides(rng, 3.0, 3.0, 59.0, 30.0)
    ops = [
        _op("sweep_fit_damage", ["sweep-fit", "--target", "damage"], config, sweep),
        _op("sweep_fit_loss", ["sweep-fit", "--target", "loss"], config, sweep),
    ]
    return {"ops": ops, "context": {"sweep": sweep}}


# =============================================================================
# Forecast: ensemble config, county fixture and outage observations
# =============================================================================


def _forecast(rng, seed, size, in_dir, out_dir) -> dict:
    if size == "full":
        nx = ny = 100
        n_steps, H = 49, 10
    else:
        nx = ny = 30
        n_steps, H = 13, 4
    counties_csv = in_dir / "counties.csv"
    obs_csv = in_dir / "observations.csv"
    config = {
        "grid": {"nx": nx, "ny": ny, "cell_size_km": 1.0, "origin_km": [0.0, 0.0]},
        "times": {"n_steps": n_steps, "dt_h": 1.0, "t0_h": 0.0},
        "ensemble": {"H": H},
        "counties_csv": str(counties_csv),
        "output_dir": str(out_dir),
        "seed": seed,
    }
    storm = {
        "holland.Vm_mps": 46.0 + _offset(rng, -2.0, 2.0),
        "holland.Rm_km": 30.0 + _offset(rng, -2.0, 2.0),
        "track.x0_km": [nx / 2.0 + _offset(rng, -5.0, 5.0), -150.0],
    }
    config_path = in_dir / "forecast.json"
    _write_json(config_path, config)

    counties = _write_counties(rng, nx, ny, counties_csv)
    times_h = np.arange(0.0, n_steps * 1.0, _OBS_EVERY_H)
    exposure = _county_exposures(config, storm, counties, times_h)
    beta0 = _offset(rng, *_BETA0_RANGE)
    beta1 = _offset(rng, *_BETA1_SPAN) / float(exposure.max())
    _write_observations(counties, times_h, exposure, beta0, beta1, obs_csv)

    ix = rng.integers(nx // 3, nx - nx // 3, 3)
    iy = rng.integers(0, ny, 3)
    cells = ",".join(str(int(i * ny + j)) for i, j in zip(ix, iy))
    ops = [
        _op("ensemble", ["ensemble"], config_path, storm),
        _op("failure_rates_fr1", ["failure-rates", "--which", "fr1"], config_path, storm),
        _op("failure_rates_fr2", ["failure-rates", "--which", "fr2"], config_path, storm),
        _op("fail_dist", ["fail-dist", "--kind", "fdb", "--cells", cells], config_path, storm),
        _op("outage_fit", ["outage-fit", "--obs", str(obs_csv)], config_path, storm),
    ]
    context = {
        "H": H,
        "nx": nx,
        "ny": ny,
        "n_steps": n_steps,
        "cells": cells,
        "beta": [beta0, beta1],
    }
    return {"ops": ops, "context": context}


def _write_counties(rng, nx: int, ny: int, path: Path) -> list[dict]:
    """Six rectangular counties tiling the grid, with seeded borders."""
    xcuts = [
        0, int(rng.integers(nx // 4, nx // 2)), int(rng.integers(nx // 2 + 1, 3 * nx // 4)), nx
    ]
    ycuts = [0, int(rng.integers(ny // 3, 2 * ny // 3)), ny]
    counties = []
    for i in range(3):
        for j in range(2):
            ix = np.arange(xcuts[i], xcuts[i + 1])
            iy = np.arange(ycuts[j], ycuts[j + 1])
            counties.append(
                {
                    "name": f"county_{i}{j}",
                    "cells": (ix[:, None] * ny + iy[None, :]).ravel(),
                    "households": int(rng.integers(20_000, 200_000)),
                    "density": round(float(rng.uniform(0.5, 2.0)), 6),
                }
            )
    lines = ["county,cell_id,households,asset_density_km_per_km2"]
    for c in counties:
        lines += [f"{c['name']},{cell},{c['households']},{c['density']!r}" for cell in c["cells"]]
    path.write_text("\n".join(lines) + "\n")
    return counties


def _write_observations(counties, times_h, exposure, beta0, beta1, path: Path) -> None:
    """Outage counts at the logit model's expected value, rounded.

    Expected counts rather than binomial draws: a draw misses the 3-SE
    recovery check on about one seed in two hundred by chance alone, while
    expected counts make any miss a defect in how the CLI builds exposures
    or fits the model.
    """
    lines = ["county,time_h,outages,households"]
    for c, row in zip(counties, exposure):
        p = 1.0 / (1.0 + np.exp(-(beta0 + beta1 * row)))
        for t, k in zip(times_h, np.rint(c["households"] * p).astype(int)):
            lines.append(f"{c['name']},{format(t, '.9g')},{k},{c['households']}")
    path.write_text("\n".join(lines) + "\n")


def _county_exposures(config: dict, storm: dict, counties, times_h) -> np.ndarray:
    """County-mean accumulated failure rate at each observation time.

    An independent transcription of the documented model (straight track,
    Holland profile, per-member Gaussian perturbations from substream i of
    the ensemble seed, quadratic NHPP intensity), so the outage check tests
    the CLI's exposure pipeline against an oracle rather than against
    itself.  Shape (n_counties, n_times).
    """
    d = _DEFAULTS
    g, t = config["grid"], config["times"]
    n_steps, dt = t["n_steps"], t["dt_h"]
    ix, iy = np.divmod(np.arange(g["nx"] * g["ny"]), g["ny"])
    cx = g["origin_km"][0] + (ix + 0.5) * g["cell_size_km"]
    cy = g["origin_km"][1] + (iy + 0.5) * g["cell_size_km"]
    elapsed = np.arange(n_steps) * dt
    Vc, alpha, lam = d["Vcrit"], d["alpha"], d["lambda_norm"]
    H = config["ensemble"]["H"]
    acc = np.zeros((cx.size, n_steps))
    for child in np.random.SeedSequence(config["seed"]).spawn(H):
        r = np.random.Generator(np.random.PCG64(child))
        dx, dy, dth, dvm, drm = (r.normal(0.0, s) for s in d["sigmas"])
        th = math.radians(dth)
        vx, vy = d["vtr"]
        vtr = (vx * math.cos(th) - vy * math.sin(th), vx * math.sin(th) + vy * math.cos(th))
        x0, y0 = storm["track.x0_km"]
        px = x0 + dx + vtr[0] * 3.6 * elapsed
        py = y0 + dy + vtr[1] * 3.6 * elapsed
        Vm = max(1.0, storm["holland.Vm_mps"] + dvm)
        Rm = max(1.0, storm["holland.Rm_km"] + drm)
        rad = np.hypot(cx[:, None] - px[None, :], cy[:, None] - py[None, :])
        with np.errstate(over="ignore", divide="ignore"):
            logx = np.log(Rm) - np.log(rad)
            v = np.where(rad > 0, Vm * np.exp(0.5 * logx + 0.5 * (1.0 - np.exp(logx))), 0.0)
        intensity = np.where(v >= Vc, lam * (1.0 + alpha * ((v / Vc) ** 2 - 1.0)), lam)
        acc += np.cumsum(intensity * dt, axis=-1)
    acc /= H
    k = np.clip(np.floor(times_h / dt).astype(int), 0, n_steps - 1)
    return np.array([acc[c["cells"]][:, k].mean(axis=0) for c in counties])

