"""
Fast self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Run from the checkout root.  For each workload it builds tiny inputs, runs
every invocation once and requires all output checks to pass; then it
corrupts one output file the way a real defect would and requires that
invocation to count as a failed operation.  Finally it replays the tiny
forecast under the tracer and requires byte-identical outputs.  Exits 0
when every step behaves as expected.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _lower_last_fr2(out: Path) -> None:
    """fr2 just below fr1 at one cell: breaks criterion 4 and nothing else."""
    fr1 = (out / "failure_rates_fr1.csv").read_text().splitlines()[-1].split(",")
    path = out / "failure_rates_fr2.csv"
    lines = path.read_text().splitlines()
    lines[-1] = f"{fr1[0]},{float(fr1[1]) * (1 - 1e-6)!r}"
    path.write_text("\n".join(lines) + "\n")


def _drop_zone_cell(out: Path) -> None:
    """One zone cell lost: the list no longer matches the reported count."""
    path = out / "critzone_cells.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def _truncate_sweep(out: Path) -> None:
    """A storm missing from the sweep: the (Vm, Rm) grid is incomplete."""
    path = out / "damage_sweep.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


CORRUPTIONS = {
    "swath": ("critzone", _drop_zone_cell),
    "forecast": ("failure_rates_fr2", _lower_last_fr2),
    "scaling": ("sweep_fit_damage", _truncate_sweep),
}


def main() -> int:
    root = Path.cwd().resolve()
    env = run.child_env(root)
    ok = True
    for workload in workloads.WORKLOADS:
        plan = workloads.build(workload, seed=0, size="tiny")
        log_dir = workloads.work_dir(workload) / "logs"
        log_dir.mkdir(parents=True, exist_ok=True)
        results = run.run_iteration(plan, env, log_dir)
        failed = [r for r in results if r["problems"]]
        print(f"{workload}: {len(results)} invocations, {len(failed)} failed")
        for r in failed:
            print(f"  unexpected failure {r['name']}: {r['problems']}")
        ok &= not failed

        op_name, corrupt = CORRUPTIONS[workload]
        corrupt(Path(plan["out_dir"]))
        op = next(op for op in plan["ops"] if op["name"] == op_name)
        problems = run.evaluate(op, plan, exit_code=0)
        print(f"  corrupted {op_name}: caught = {bool(problems)} {problems[:1]}")
        ok &= bool(problems)
        run.clear_outputs(plan)

    plan = workloads.build("forecast", seed=0, size="tiny")
    log_dir = workloads.work_dir("forecast") / "logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    report, ops = run.run_traced(plan, env, log_dir)
    run.clear_outputs(plan)
    failed = [r for r in ops if r["problems"]]
    print(f"traced forecast: {report['spans']} spans, {len(failed)} failed operations")
    for r in failed:
        print(f"  unexpected failure {r['name']}: {r['problems']}")
    ok &= not failed and report["spans"] > 0
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
