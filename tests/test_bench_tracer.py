"""bench/tracer.py still fits the package.

The tracer wraps public stormrisk functions by name and counts problem sizes
at some of them (`COUNTERS`).  A counter keyed on a name that is no longer a
public function never fires, and one whose arguments or result changed
shape is counted in `trace.counter_errors`.  Both would quietly blank a
benchmark metric, so a tiny traced run checks them.  The run happens in a
fresh interpreter, because the tracer patches the package in place.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from unittest import mock

import numpy as np

from stormrisk import (
    County,
    CountySet,
    NhppParams,
    OutageObservation,
    aggregate,
    damage_loss_sweep,
    fit_damage_model,
    save_county_fixture,
    save_observations,
)
from stormrisk.fitting import linear_least_squares

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib, inspect, json, pkgutil, sys

import stormrisk
import tracer

public = set()
for info in pkgutil.iter_modules(stormrisk.__path__):
    mod = importlib.import_module(f"stormrisk.{info.name}")
    public |= {
        name
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
    }
trace = tracer.Tracer()
tracer.install(trace)
cli = sys.modules["stormrisk.cli"]
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({
    "unknown_counters": sorted(set(tracer.COUNTERS) - public),
    "codes": codes,
    "counts": dict(trace.counts),
}))
"""


def _traced(tmp_path, argvs) -> dict:
    """The tracer's report on running each of `argvs` through `cli.main`."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["unknown_counters"] == []
    return report


def test_traced_outage_and_damage_fits(tmp_path):
    counties_csv, obs_csv, cfg = tmp_path / "counties.csv", tmp_path / "obs.csv", tmp_path / "cfg.json"
    save_county_fixture(
        CountySet(
            [
                County(name="near", cells=set(range(60, 84)), households=5000),
                County(name="far", cells={0, 1, 2}, households=5000),
            ]
        ),
        counties_csv,
    )
    save_observations(
        [
            OutageObservation(county=name, time_h=float(t), outages=k, households=5000)
            for t in range(6)
            for name, k in (("near", 40 * (t + 1)), ("far", 2))
        ],
        obs_csv,
    )
    cfg.write_text(
        json.dumps(
            {
                "grid": {"nx": 12, "ny": 12, "cell_size_km": 6.0, "origin_km": [-36.0, -36.0]},
                "times": {"n_steps": 6, "dt_h": 1.0},
                "track": {"x0_km": [0.0, -30.0], "vtr_mps": [0.0, 3.0]},
                "ensemble": {"H": 3},
                "sweep": {"Vm_min": 22, "Vm_max": 80, "Vm_step": 6, "Rm_min": 20, "Rm_max": 50, "Rm_step": 10},
                "counties_csv": str(counties_csv),
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    report = _traced(
        tmp_path,
        [
            ["outage-fit", "--config", str(cfg), "--obs", str(obs_csv), "--threads", "1"],
            ["sweep-fit", "--config", str(cfg), "--target", "damage", "--threads", "1"],
        ],
    )
    assert report["codes"] == [0, 0]
    counts = report["counts"]
    assert counts.get("trace.counter_errors", 0) == 0
    assert counts["glm.irls_iterations"] > 0
    # The screened exponent pairs' exact fits, plus the refit if the pruning
    # drops a term: the same calls as the damage fit makes untraced.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return linear_least_squares(*args, **kwargs)

    Vm_grid, Rm_grid = np.arange(22.0, 80.0 + 1e-9, 6.0), np.arange(20.0, 50.0 + 1e-9, 10.0)
    Vm, Rm, damage, _ = damage_loss_sweep(Vm_grid, Rm_grid)
    with mock.patch.object(aggregate, "linear_least_squares", counted):
        fit_damage_model(Vm, Rm, damage, NhppParams().Vcrit)
    assert counts["fitting.fits"] == len(calls) < 10
    assert counts["aggregate.storms"] == 40


def test_traced_critzone_and_sweep(tmp_path):
    # The sweep's storms reach `storm_swath` through `critzone.zone_sweep`;
    # the tracer must still count their cell-steps.
    config = ["--set", f"output_dir={tmp_path / 'out'}", "--set", "times.n_steps=6", "--set", "grid.nx=20"]
    sweep = [f"sweep.{k}={v}" for k, v in (("Vm_max", 40), ("Vm_step", 9), ("Rm_step", 15))]
    report = _traced(
        tmp_path,
        [
            ["critzone"] + config,
            ["sweep-fit", "--target", "critzone"] + config + [a for s in sweep for a in ("--set", s)],
        ],
    )
    assert report["codes"] == [0, 0]
    counts = report["counts"]
    assert counts.get("trace.counter_errors", 0) == 0
    # More than the critzone command's own 20 x 100 cells times 6 steps.
    assert counts["critzone.cell_steps"] > 20 * 100 * 6
