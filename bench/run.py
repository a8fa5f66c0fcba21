"""
End-to-end benchmark of the `stormrisk` CLI.

    python3 bench/run.py --workload {swath,forecast,scaling,all} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ./src and
nothing outside the checkout is read or written (scratch files go to
./.bench_work).

Load model: one closed-loop client.  Each CLI invocation is a fresh
``python -m stormrisk.cli ...`` process, import time included, run at
``--threads 1`` with STORMRISK_THREADS and the BLAS thread variables pinned
to 1, one at a time, so the load stays within two cores.  Whole iterations
of the workload repeat while the next one is expected to end within
``--seconds`` (at least one runs).

``--trace 0`` reports the end-to-end metrics: per iteration `wall_s` (the
sum of the invocations' wall times) and `peak_rss_mb` (the largest peak RSS
of any one child, read with os.wait4), and `setup_s` (a fresh process
running ``import stormrisk.cli``, five times).  Each is the median over
the run; the report also prints the maximum and the sample count, every
invocation's own time and the share of invocations that failed.

``--trace 1`` runs the workload once untraced, then replays it in one
process under bench/tracer.py, which wraps every public stormrisk function,
and reports the per-layer metrics.  The traced outputs must be
byte-identical to the untraced ones.

Every invocation's outputs are checked (bench/checks.py); a failed check or
a non-zero exit counts as a failed operation.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
INVOCATION_TIMEOUT_S = 150.0
# Leave room after the last iteration for checks and the report.
RUN_LIMIT_S = 150.0
THREAD_ENV = {
    "STORMRISK_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "critzone.cell_steps": "count",
    "critzone.cell_steps_per_s": "1/s",
    "critzone.critical_radius_calls": "count",
    "nhpp.hot_ratio": "ratio",
    "wind.holland_evals": "count",
    "wind.evals_per_s": "1/s",
    "ensemble.members": "count",
    "ensemble.stack_calls": "count",
    "ensemble.stack_bytes": "B",
    "io.rows": "count",
    "io.bytes": "B",
    "io.rows_per_s": "1/s",
    "fitting.fits": "count",
    "fitting.fits_per_s": "1/s",
    "aggregate.storms": "count",
    "aggregate.storms_per_s": "1/s",
    "glm.irls_iterations": "count",
    "cli.config_s": "s",
    "cli.import_s": "s",
    **{f"{layer}.calls": "count" for layer in tracer.LAYERS},
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "trace.overhead_s": "s",
}
# Times of layers that some workload never enters read exactly 0 on every run
# of it; they are printed and saved, but kept out of the result line, where
# every time must be a measurement that varies.
PRINTED_ONLY = {
    "critzone.cell_steps_per_s", "fitting.fits_per_s", "aggregate.storms_per_s",
    *(f"{layer}.self_s" for layer in ("ensemble", "critzone", "aggregate", "fitting", "glm", "grid")),
}

# Which end-to-end metric each layer metric should move, on which workload,
# and where the prediction is no change.  Written before any optimisation.
PREDICTIONS = [
    ("critzone.cell_steps, critzone.cell_steps_per_s, critzone.critical_radius_calls, nhpp.hot_ratio",
     "tables123_s, sweep_fit_critzone_s", "swath", "forecast, scaling"),
    ("wind.holland_evals, wind.evals_per_s", "tables123_s", "swath", "-"),
    ("wind.holland_evals, wind.evals_per_s", "ensemble_s, failure_rates_fr*_s", "forecast", "-"),
    ("wind.holland_evals, wind.evals_per_s", "sweep_fit_damage_s", "scaling", "-"),
    ("ensemble.members, ensemble.stack_calls, ensemble.stack_bytes",
     "peak_rss_mb, failure_rates_fr2_s, outage_fit_s", "forecast", "swath, scaling"),
    ("io.rows, io.bytes, io.rows_per_s", "ensemble_s", "forecast", "swath, scaling (writes < 100 KB)"),
    ("fitting.fits, fitting.fits_per_s", "sweep_fit_damage_s", "scaling", "forecast"),
    ("aggregate.storms, aggregate.storms_per_s", "sweep_fit_damage_s, sweep_fit_loss_s",
     "scaling", "swath, forecast"),
    ("glm.irls_iterations", "outage_fit_s", "forecast", "-"),
    ("cli.config_s, cli.import_s", "setup_s everywhere; wall_s most on forecast (most invocations)",
     "all", "-"),
]


class HarnessError(RuntimeError):
    """The benchmark cannot run here (not a failed operation)."""


# =============================================================================
# Running children
# =============================================================================


def child_env(root: Path) -> dict:
    """The caller's environment with the checkout's src first on the path,
    threads pinned and bytecode caching on, as an installed package has."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], env: dict, log: Path) -> dict:
    """Run one child process to completion; wall time, peak RSS, exit code."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def measure_setup(root: Path, env: dict, log_dir: Path, samples: int) -> list[float]:
    """Wall times of fresh processes running ``import stormrisk.cli``.

    The first, unmeasured, run also proves that the import resolves inside
    this checkout and leaves the bytecode cache warm, as a user sees it.
    """
    probe = "import stormrisk.cli, sys; sys.stdout.write(stormrisk.cli.__file__)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    if out.returncode != 0 or not Path(out.stdout).resolve().is_relative_to(root / "src"):
        raise HarnessError(f"stormrisk does not import from {root / 'src'}: {out.stderr.strip()}")
    walls = []
    for i in range(samples):
        r = run_child([sys.executable, "-c", "import stormrisk.cli"], env, log_dir / f"setup{i}.log")
        if r["exit"] != 0:
            raise HarnessError("import stormrisk.cli failed")
        walls.append(r["wall_s"])
    return walls


def clear_outputs(plan: dict) -> None:
    out = Path(plan["out_dir"])
    if out.exists():
        shutil.rmtree(out)


def evaluate(op: dict, plan: dict, exit_code: int, log: Path | None = None) -> list[str]:
    """Problems of one invocation: a non-zero exit or failed output checks."""
    if exit_code != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:] if log else []
        return [f"exit code {exit_code}: " + " | ".join(tail)]
    return checks.check(op["name"], plan)


def run_iteration(plan: dict, env: dict, log_dir: Path) -> list[dict]:
    """One pass over the workload's invocations, each checked."""
    clear_outputs(plan)
    results = []
    for op in plan["ops"]:
        log = log_dir / f"{op['name']}.log"
        r = run_child([sys.executable, "-m", "stormrisk.cli"] + op["argv"], env, log)
        r["name"] = op["name"]
        r["problems"] = evaluate(op, plan, r["exit"], log)
        results.append(r)
    return results


def output_digests(plan: dict) -> dict[str, str]:
    out = Path(plan["out_dir"])
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as f:
            while chunk := f.read(1 << 20):
                h.update(chunk)
        digests[str(path.relative_to(out))] = h.hexdigest()
    return digests


# =============================================================================
# Statistics and provenance
# =============================================================================


def summary(values: list[float], unit: str) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values), "unit": unit}


def provenance(root: Path, seed: int, samples: dict) -> dict:
    import numpy
    import scipy

    git = {"sha": None, "dirty": None}
    if (root / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, capture_output=True, text=True,
        )
        if sha.returncode == 0:
            git = {"sha": sha.stdout.strip(), "dirty": bool(dirty.stdout.strip())}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": git,
        "thread_env": THREAD_ENV,
        "seed": seed,
        "samples": samples,
    }


# =============================================================================
# Modes
# =============================================================================


def run_untraced(plan: dict, env: dict, seconds: float, log_dir: Path, t_start: float):
    """Whole iterations while the next is expected to end within `seconds`."""
    iterations = []
    loop_start = time.perf_counter()
    while True:
        it_start = time.perf_counter()
        iterations.append(run_iteration(plan, env, log_dir))
        now = time.perf_counter()
        next_end = now + (now - it_start)
        if next_end - loop_start > seconds or next_end - t_start > RUN_LIMIT_S:
            break
    per_op: dict[str, list[float]] = {}
    for it in iterations:
        for r in it:
            per_op.setdefault(r["name"], []).append(r["wall_s"])
    stats = {
        "wall_s": summary([sum(r["wall_s"] for r in it) for it in iterations], "s"),
        "peak_rss_mb": summary([max(r["rss_mb"] for r in it) for it in iterations], "MB"),
    }
    for name, walls in per_op.items():
        stats[f"{name}_s"] = summary(walls, "s")
    ops = [r for it in iterations for r in it]
    return stats, ops, len(iterations)


def run_traced(plan: dict, env: dict, log_dir: Path):
    """One untraced pass, then the traced replay; both passes are checked and
    the replay must write byte-identical files."""
    untraced = run_iteration(plan, env, log_dir)
    expected = output_digests(plan)
    clear_outputs(plan)
    trace_dir = workloads.work_dir(plan["workload"]) / "trace"
    plan_path = workloads.work_dir(plan["workload"]) / "in" / "plan.json"
    r = run_child(
        [sys.executable, str(BENCH_DIR / "tracer.py"), str(plan_path), str(trace_dir)],
        env, log_dir / "trace.log",
    )
    if r["exit"] != 0:
        tail = (log_dir / "trace.log").read_text(errors="replace").strip().splitlines()[-3:]
        raise HarnessError("traced replay crashed: " + " | ".join(tail))
    report = json.loads((trace_dir / "layers.json").read_text())
    got = output_digests(plan)
    traced = []
    for op in plan["ops"]:
        problems = evaluate(op, plan, report["exit_codes"][op["name"]])
        for name in checks.outputs(op["name"], plan):
            if got.get(name) != expected.get(name):
                problems.append(f"traced output {name} differs from the untraced run")
        traced.append({"name": f"traced:{op['name']}", "problems": problems})
    extra = sorted(set(got) ^ set(expected))
    if extra:
        traced[-1]["problems"].append(f"files present in only one run: {extra}")
    report["untraced_wall_s"] = sum(u["wall_s"] for u in untraced)
    report["traced_wall_s"] = sum(report["op_s"].values())
    return report, untraced + traced


def print_predictions() -> None:
    print("predictions (layer metrics -> end-to-end metric they should move, on workload;"
          " predicted no change on):")
    for layer, moves, workload, unchanged in PREDICTIONS:
        print(f"  {layer} -> {moves} on {workload}; no change on {unchanged}")


def parse_args(argv):
    p = argparse.ArgumentParser(description="stormrisk CLI benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True,
                   help="one workload, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="run one iteration and store its outputs as the seed's reference")
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
        if args.record_reference:
            common.append("--record-reference")
        return max(main(["--workload", w] + common) for w in workloads.WORKLOADS)
    root = Path.cwd().resolve()
    if not (root / "src" / "stormrisk" / "cli.py").is_file():
        print(f"error: no src/stormrisk/cli.py under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    plan = workloads.build(args.workload, args.seed)
    log_dir = workloads.work_dir(args.workload) / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    try:
        # Only the untraced run reports setup_s; the others just probe.
        timed = not (args.trace or args.record_reference)
        setup = measure_setup(root, env, log_dir, SETUP_SAMPLES if timed else 0)
        if args.record_reference:
            return record_reference(plan, env, log_dir)
        if args.trace:
            report, ops = run_traced(plan, env, log_dir)
            samples = {"traced_passes": 1, "untraced_passes": 1}
        else:
            stats, ops, n_iter = run_untraced(plan, env, args.seconds, log_dir, t_start)
            stats["setup_s"] = summary(setup, "s")
            samples = {"iterations": n_iter, "setup": len(setup)}
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        clear_outputs(plan)

    failed = [r for r in ops if r["problems"]]
    prov = provenance(root, args.seed, samples)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for r in failed:
        print(f"FAILED {r['name']}: " + "; ".join(r["problems"]))
    print(f"failed_ops = {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f} (share)")
    if args.trace:
        layer = report["metrics"]
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name} = {layer[name]:.6g} {unit}")
        print(f"  spans = {report['spans']}, wrapped functions = {report['wrapped_functions']}, "
              f"counter errors = {report['counter_errors']}, "
              f"traced replay {report['traced_wall_s']:.3f} s in one process vs "
              f"{report['untraced_wall_s']:.3f} s untraced in fresh processes")
        print_predictions()
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items() if name not in PRINTED_ONLY}
        result_doc = {"provenance": prov, "per_layer": report, "predictions": PREDICTIONS}
    else:
        for name, s in stats.items():
            print(f"  {name}: median {s['median']:.4f} {s['unit']}, max {s['max']:.4f} {s['unit']}, n {s['n']}")
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        result_doc = {"provenance": prov, "end_to_end": stats,
                      "failed_ops": len(failed) / len(ops)}
    result_doc["failures"] = {r["name"]: r["problems"] for r in failed}
    results = workloads.WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result_doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def record_reference(plan: dict, env: dict, log_dir: Path) -> int:
    bad = [r for r in run_iteration(plan, env, log_dir) if r["problems"]]
    if bad:
        print(f"error: not recorded, {bad[0]['name']} failed: {bad[0]['problems']}", file=sys.stderr)
        return 1
    checks.store_reference({op["name"]: checks.record(op["name"], plan) for op in plan["ops"]}, plan)
    print(f"recorded reference for {plan['workload']} seed {plan['seed']} size {plan['size']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
