"""
Traced replay of one workload in a single process.

    python3 bench/tracer.py PLAN_JSON TRACE_DIR

Imports `stormrisk`, wraps every public function of every module (and
`Ensemble.velocities`) in a span recorder, then runs each invocation of the
plan through `stormrisk.cli.main(argv)`.  A wrapper is installed in every
module namespace that binds the function, so calls between modules are
timed.  Spans (name, layer, parent, start, end) stay in memory and are
written to TRACE_DIR/spans.csv at the end; per-layer metrics go to
TRACE_DIR/layers.json.

Layers are the modules under `src/stormrisk/`, except that every `save_*` and
`load_*` data-file function belongs to the `io` layer wherever it lives
(`load_config` stays in `cli`: its time is `cli.config_s`).  A layer's self
time is the time its spans cover minus the time their child spans cover.

Work the tracer does itself (counting rows, hot cell-steps) runs on a paused
clock, so it is left out of every span; `trace.overhead_s` is that paused
time plus the wrapper cost per call, calibrated on a no-op, times the calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "wind", "nhpp", "ensemble", "critzone", "aggregate", "fitting", "glm", "grid", "io")
CALIBRATION_CALLS = 20_000


def layer_of(module: str, name: str) -> str:
    if name.startswith(("save_", "load_")) and name != "load_config":
        return "io"
    return module.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.local = threading.local()
        self.paused = 0.0
        self.counts: Counter = Counter()

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def wrap(self, name: str, layer: str, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.local.__dict__.setdefault("stack", [])
            sid = len(self.spans)
            self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                stack.pop()
                self.spans[sid] = (name, layer, parent, start, end)
            if counter is not None:
                t0 = time.perf_counter()
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self.counts, bound.arguments, result, end - start)
                except (TypeError, KeyError, AttributeError, OSError):
                    # A renamed argument or result field loses the count,
                    # never the run; the report shows how often.
                    self.counts["trace.counter_errors"] += 1
                self.paused += time.perf_counter() - t0
            return result

        return traced


# =============================================================================
# Counters at layer boundaries
# =============================================================================


def _count_holland(c, a, result, dur):
    c["wind.holland_evals"] += int(np.size(a["r"]))
    c["wind.holland_s"] += dur


def _count_intensity(c, a, result, dur):
    v = np.asarray(a["v"])
    c["nhpp.cell_steps"] += v.size
    c["nhpp.hot_cell_steps"] += int(np.count_nonzero(v >= a["p"].Vcrit))


def _count_swath(c, a, result, dur):
    c["critzone.cell_steps"] += a["grid"].n_cells * a["times"].n_steps
    c["critzone.swath_s"] += dur


def _count_zone(c, a, result, dur):
    field = a["field"]
    c["critzone.cell_steps"] += field.grid.n_cells * field.times.n_steps
    c["critzone.swath_s"] += dur


def _count_members(c, a, result, dur):
    c["ensemble.members"] += result.H


def _count_stack(c, a, result, dur):
    c["ensemble.stack_calls"] += 1
    c["ensemble.stack_bytes"] += int(result.nbytes)


def _count_fit(c, a, result, dur):
    c["fitting.fits"] += 1
    c["fitting.fit_s"] += dur


def _count_storms(c, a, result, dur):
    c["aggregate.storms"] += len(result[0])
    c["aggregate.sweep_s"] += dur


def _count_irls(c, a, result, dur):
    c["glm.irls_iterations"] += int(result.n_iter)


def _count_config(c, a, result, dur):
    c["cli.config_s"] += dur


def _count_io(c, a, result, dur):
    c["io.s"] += dur
    path = Path(a["path"])
    with open(path, "rb") as f:
        first = f.readline()
        lines = first.endswith(b"\n")
        while chunk := f.read(1 << 20):
            lines += chunk.count(b"\n")
    # Data rows: minus the column header and a leading comment line.
    c["io.rows"] += max(lines - 1 - first.startswith(b"#"), 0)
    c["io.bytes"] += path.stat().st_size


COUNTERS = {
    "holland_speed": _count_holland,
    "poisson_intensity": _count_intensity,
    "storm_swath": _count_swath,
    "critical_zone_numeric": _count_zone,
    "generate_synthetic_ensemble": _count_members,
    "load_ensemble": _count_members,
    "linear_least_squares": _count_fit,
    "damage_loss_sweep": _count_storms,
    "fit_binomial": _count_irls,
    "load_config": _count_config,
}


def install(tracer: Tracer) -> int:
    """Wrap every public stormrisk function in every namespace binding it."""
    import stormrisk

    modules = [stormrisk] + [
        importlib.import_module(f"stormrisk.{m.name}") for m in pkgutil.iter_modules(stormrisk.__path__)
    ]
    wrappers = {}
    for mod in modules[1:]:
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                layer = layer_of(mod.__name__, name)
                counter = COUNTERS.get(name, _count_io if layer == "io" else None)
                wrappers[obj] = tracer.wrap(f"{mod.__name__}.{name}", layer, obj, counter)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
    from stormrisk.ensemble import Ensemble

    Ensemble.velocities = tracer.wrap(
        "stormrisk.ensemble.Ensemble.velocities", "ensemble", Ensemble.velocities, _count_stack
    )
    return len(wrappers) + 1


def wrapper_cost() -> float:
    """Seconds a wrapper adds to one call, measured on a no-op."""

    def noop():
        return None

    scratch = Tracer()
    traced = scratch.wrap("noop", "cli", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            traced()
        best = min(best, (time.perf_counter() - t0 - bare) / CALIBRATION_CALLS)
    return max(best, 0.0)


def layer_metrics(tracer: Tracer, per_call: float, import_s: float) -> dict:
    spans = tracer.spans
    child = defaultdict(float)
    for name, layer, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    by_name = Counter()
    for sid, (name, layer, parent, start, end) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += (end - start) - child[sid]
        by_name[name] += 1
    c = tracer.counts

    def rate(count_key, time_key):
        return c[count_key] / c[time_key] if c[time_key] > 0 else 0.0

    m = {
        "critzone.cell_steps": c["critzone.cell_steps"],
        "critzone.cell_steps_per_s": rate("critzone.cell_steps", "critzone.swath_s"),
        "critzone.critical_radius_calls": by_name["stormrisk.critzone.critical_radius"],
        "nhpp.hot_ratio": (
            c["nhpp.hot_cell_steps"] / c["nhpp.cell_steps"] if c["nhpp.cell_steps"] else 0.0
        ),
        "wind.holland_evals": c["wind.holland_evals"],
        "wind.evals_per_s": rate("wind.holland_evals", "wind.holland_s"),
        "ensemble.members": c["ensemble.members"],
        "ensemble.stack_calls": c["ensemble.stack_calls"],
        "ensemble.stack_bytes": c["ensemble.stack_bytes"],
        "io.rows": c["io.rows"],
        "io.bytes": c["io.bytes"],
        "io.rows_per_s": rate("io.rows", "io.s"),
        "fitting.fits": c["fitting.fits"],
        "fitting.fits_per_s": rate("fitting.fits", "fitting.fit_s"),
        "aggregate.storms": c["aggregate.storms"],
        "aggregate.storms_per_s": rate("aggregate.storms", "aggregate.sweep_s"),
        "glm.irls_iterations": c["glm.irls_iterations"],
        "cli.config_s": c["cli.config_s"],
        "cli.import_s": import_s,
    }
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.overhead_s"] = tracer.paused + per_call * len(spans)
    return m


def main(argv: list[str]) -> int:
    plan_path, trace_dir = Path(argv[0]), Path(argv[1])
    plan = json.loads(plan_path.read_text())
    t0 = time.perf_counter()
    import stormrisk.cli  # noqa: F401  (timed: the in-process import cost)

    import_s = time.perf_counter() - t0
    per_call = wrapper_cost()
    tracer = Tracer()
    n_wrapped = install(tracer)
    cli = sys.modules["stormrisk.cli"]
    codes = {}
    op_s = {}
    for op in plan["ops"]:
        start = time.perf_counter()
        codes[op["name"]] = cli.main(op["argv"])
        op_s[op["name"]] = time.perf_counter() - start
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / "spans.csv", "w") as f:
        f.write("id,parent,layer,name,start_s,end_s\n")
        for sid, (name, layer, parent, start, end) in enumerate(tracer.spans):
            f.write(f"{sid},{parent},{layer},{name},{start!r},{end!r}\n")
    report = {
        "metrics": layer_metrics(tracer, per_call, import_s),
        "exit_codes": codes,
        "op_s": op_s,
        "wrapped_functions": n_wrapped,
        "spans": len(tracer.spans),
        "wrapper_cost_s": per_call,
        "counter_errors": tracer.counts["trace.counter_errors"],
    }
    (trace_dir / "layers.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
