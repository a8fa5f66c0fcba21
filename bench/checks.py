"""
Output checks for every benchmark invocation.

`check(op, plan)` returns the problems found in the files one invocation
wrote (an empty list means it passed).  Two kinds of check run:

* invariants that hold for any seed: the paper's criteria 4, 5, 8, 9, 10 and
  11 where an output exposes them, plus shape and consistency checks;
* for a seed with a recorded reference (`reference.json`, recorded from the
  program by ``run.py --record-reference``), an exact comparison.  CSVs are
  compared by line count and SHA-256 digest after the leading comment line,
  which carries the config hash; JSON numbers within 1e-12 relative, other
  JSON values exactly.

tables123 does not depend on the seed, so its reference applies to every
seed.  Its values are not compared with the paper's mean-rate table: that is
criterion 3, a known standing failure of the program.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-12
# Half a unit in the ninth significant digit: the rounding of a ".9g" value.
NINE_DIGIT_ROUNDING = 5e-9
SEED_FREE_OPS = ("tables123",)

OUTPUTS = {
    "tables123": ["tables123.csv"],
    "critzone": ["critzone_cells.csv", "critzone_stats.json"],
    "sweep_fit_critzone": ["critzone_sweep.csv", "critzone_fit.json"],
    "ensemble": ["ensemble.csv", "ensemble.csv.json"],
    "failure_rates_fr1": ["failure_rates_fr1.csv"],
    "failure_rates_fr2": ["failure_rates_fr2.csv"],
    "outage_fit": ["outage_fit.json"],
    "sweep_fit_damage": ["damage_sweep.csv", "damage_fit.json"],
    "sweep_fit_loss": ["loss_sweep.csv", "loss_fit.json"],
}
TABLE_STORMS = [(25, 20), (25, 30), (25, 40), (37, 20), (37, 30), (37, 40),
                (46, 20), (46, 30), (46, 40)]


class CheckFailed(Exception):
    pass


def outputs(op: str, plan: dict) -> list[str]:
    if op == "fail_dist":
        cells = plan["context"]["cells"].split(",")
        return [f"fail_dist_fdb_cell{c}.csv" for c in cells]
    return OUTPUTS[op]


def check(op: str, plan: dict) -> list[str]:
    """Problems found in the outputs of invocation `op` (empty when it passed)."""
    out = Path(plan["out_dir"])
    missing = [name for name in outputs(op, plan) if not (out / name).is_file()]
    if missing:
        return [f"missing output {name}" for name in missing]
    problems = []
    try:
        _INVARIANTS[op](out, plan)
    except CheckFailed as exc:
        problems.append(str(exc))
    except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    ref = _reference_for(op, plan)
    if ref is not None:
        problems += _compare(ref, record(op, plan))
    return problems


# =============================================================================
# Reference records
# =============================================================================


def record(op: str, plan: dict) -> dict:
    """Compact, exact record of the outputs of `op`."""
    out = Path(plan["out_dir"])
    rec = {}
    for name in outputs(op, plan):
        path = out / name
        if name.endswith(".csv"):
            rec[name] = _csv_digest(path)
        else:
            doc = json.loads(path.read_text())
            doc.pop("config_sha256", None)
            doc.pop("comment", None)
            rec[name] = doc
    return rec


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def _reference_key(op: str, plan: dict) -> str:
    seed = "any" if op in SEED_FREE_OPS else str(plan["seed"])
    return f"{plan['workload']}/{plan['size']}/{seed}"


def _reference_for(op: str, plan: dict):
    return load_reference().get(_reference_key(op, plan), {}).get(op)


def store_reference(records: dict[str, dict], plan: dict) -> None:
    """Add the records of one run of `plan` to `reference.json`."""
    ref = load_reference()
    for op, rec in records.items():
        ref.setdefault(_reference_key(op, plan), {})[op] = rec
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def _csv_digest(path: Path) -> dict:
    """Line count and SHA-256 of a CSV after its leading `#` comment lines."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        line = f.readline()
        while line.startswith(b"#"):
            line = f.readline()
        h.update(line)
        lines = line.count(b"\n")
        while chunk := f.read(1 << 20):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return {"lines": lines, "sha256": h.hexdigest()}


def _compare(ref, got, where: str = "") -> list[str]:
    if isinstance(ref, dict) and isinstance(got, dict):
        problems = []
        for key in sorted(set(ref) | set(got)):
            here = f"{where}.{key}" if where else key
            if key not in got or key not in ref:
                problems.append(f"{here}: present in only one of reference and output")
            else:
                problems += _compare(ref[key], got[key], here)
        return problems
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != reference {len(ref)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += _compare(a, b, f"{where}[{i}]")
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if got == ref or abs(got - ref) <= REL_TOL * abs(ref):
            return []
        return [f"{where}: {got!r} differs from reference {ref!r} by more than 1e-12 relative"]
    if ref != got or type(ref) is not type(got):
        return [f"{where}: {got!r} != reference {ref!r}"]
    return []


# =============================================================================
# Invariants
# =============================================================================


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    _require(len(rows) >= 1, f"{path.name}: no header")
    return rows[0], rows[1:]


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _finite(values, what: str) -> None:
    for v in values:
        _require(isinstance(v, (int, float)) and math.isfinite(v), f"{what}: non-finite {v!r}")


def _full_sweep(rows, sweep: dict, what: str) -> None:
    """Rows cover a complete (Vm, Rm) grid inside the configured bounds."""
    _require(len(rows) > 0, f"{what}: no storms")
    vm = {float(r[0]) for r in rows}
    rm = {float(r[1]) for r in rows}
    _require(len(rows) == len(vm) * len(rm), f"{what}: {len(rows)} rows do not form a full grid")
    _require(
        min(vm) >= sweep["sweep.Vm_min"] - 1e-9 and max(vm) <= sweep["sweep.Vm_max"] + 1e-9,
        f"{what}: Vm outside the configured range",
    )
    _require(
        min(rm) >= sweep["sweep.Rm_min"] - 1e-9 and max(rm) <= sweep["sweep.Rm_max"] + 1e-9,
        f"{what}: Rm outside the configured range",
    )


def _tables123(out: Path, plan: dict) -> None:
    header, rows = _rows(out / "tables123.csv")
    _require(len(header) == 8, "tables123.csv: expected 8 columns")
    _require([(int(r[0]), int(r[1])) for r in rows] == TABLE_STORMS, "tables123.csv: storm list")
    for r in rows:
        area_axi, area_asym, max_axi, max_asym, mean_axi, mean_asym = map(float, r[2:])
        _require(area_axi > 0 and area_asym > 0, f"tables123.csv: empty zone for {r[:2]}")
        _require(max_axi >= mean_axi > 0 and max_asym >= mean_asym > 0,
                 f"tables123.csv: max < mean rate for {r[:2]}")


def _critzone(out: Path, plan: dict) -> None:
    header, rows = _rows(out / "critzone_cells.csv")
    stats = _json(out / "critzone_stats.json")
    _require(header == ["cell_id"], "critzone_cells.csv: header")
    cells = [int(r[0]) for r in rows]
    _require(len(cells) > 0, "critzone_cells.csv: empty zone")
    _require(all(a < b for a, b in zip(cells, cells[1:])), "critzone_cells.csv: ids not strictly increasing")
    _require(cells[0] >= 0, "critzone_cells.csv: negative cell id")
    _require(stats["n_cells"] == len(cells), "critzone: n_cells differs from the cell list")
    # The zone is counted in cells of the config's grid (1 km cells here).
    _require(abs(stats["area_numeric_km2"] - len(cells)) <= 1e-9 * len(cells),
             "critzone: area is not n_cells x cell area")
    _require(stats["max_failure_rate_per_km"] >= stats["mean_failure_rate_per_km"] > 0,
             "critzone: max rate below mean rate")
    _finite([v for v in stats.values() if not isinstance(v, str)], "critzone_stats.json")


def _sweep_fit_critzone(out: Path, plan: dict) -> None:
    _, rows = _rows(out / "critzone_sweep.csv")
    _full_sweep(rows, plan["context"]["sweep"], "critzone_sweep.csv")
    for r in rows:
        vm, rm, rc, a_num, a_ob, max_fr, mean_fr = map(float, r)
        _require(rc > rm, f"critzone_sweep.csv: Rcrit <= Rm at {r[:2]}")
        # Criterion 5 at the resolution the CLI uses for each sweep storm.
        cell = min(max(rc / 100.0, 2.0), 25.0)
        _require(abs(a_num - a_ob) / a_ob <= 3.0 * cell / rc,
                 f"critzone_sweep.csv: numeric area off obround by more than 3*cell/Rcrit at {r[:2]}")
        _require(max_fr >= mean_fr > 0, f"critzone_sweep.csv: max < mean rate at {r[:2]}")
    fit = _json(out / "critzone_fit.json")
    _finite(list(fit["radius_fit"].values()) + list(fit["area_fit"].values()), "critzone_fit.json")


def _ensemble(out: Path, plan: dict) -> None:
    ctx = plan["context"]
    meta = _json(out / "ensemble.csv.json")
    for key in ("H", "nx", "ny", "n_steps"):
        _require(meta[key] == ctx[key], f"ensemble.csv.json: {key} = {meta[key]}, expected {ctx[key]}")
    expected = ctx["H"] * ctx["nx"] * ctx["ny"] * ctx["n_steps"]
    rows = _csv_digest(out / "ensemble.csv")["lines"] - 1
    _require(rows == expected, f"ensemble.csv: {rows} rows, expected H*cells*steps = {expected}")
    with open(out / "ensemble.csv", "rb") as f:
        f.seek(max(0, (out / "ensemble.csv").stat().st_size - 200))
        last = f.read().splitlines()[-1].decode().split(",")
    _require(
        [int(v) for v in last[:3]] == [ctx["H"] - 1, ctx["nx"] * ctx["ny"] - 1, ctx["n_steps"] - 1],
        "ensemble.csv: last row is not the last (member, cell, time)",
    )


def _rates(path: Path, n_cells: int) -> list[float]:
    header, rows = _rows(path)
    _require(header == ["cell_id", "failure_rate_per_km"], f"{path.name}: header")
    _require([int(r[0]) for r in rows] == list(range(n_cells)), f"{path.name}: cell ids")
    rates = [float(r[1]) for r in rows]
    _finite(rates, path.name)
    return rates


def _failure_rates(which: str):
    def run(out: Path, plan: dict) -> None:
        ctx = plan["context"]
        n_cells = ctx["nx"] * ctx["ny"]
        rates = _rates(out / f"failure_rates_{which}.csv", n_cells)
        nominal = 3.5e-5 * ctx["n_steps"]
        _require(min(rates) >= nominal * (1 - NINE_DIGIT_ROUNDING),
                 f"failure_rates_{which}.csv: rate below the nominal rate")
        if which == "fr2":
            fr1 = _rates(out / "failure_rates_fr1.csv", n_cells)
            bad = [c for c, (a, b) in enumerate(zip(fr1, rates)) if b < a - 1e-12]
            _require(not bad, f"criterion 4: fr2 < fr1 at {len(bad)} cells, first {bad[:1]}")

    return run


def _fail_dist(out: Path, plan: dict) -> None:
    for name in outputs("fail_dist", plan):
        header, rows = _rows(out / name)
        _require(header == ["n", "probability"], f"{name}: header")
        _require(rows[-1][0] == "tail", f"{name}: last row is not the tail")
        _require([int(r[0]) for r in rows[:-1]] == list(range(len(rows) - 1)), f"{name}: counts")
        masses = [float(r[1]) for r in rows]
        _require(min(masses) >= 0, f"{name}: negative mass")
        # Criterion 8.  Each mass is written to 9 significant digits, so the
        # written total can also differ from 1 by the rounding of each mass.
        tol = 1e-12 + NINE_DIGIT_ROUNDING * sum(masses)
        _require(abs(sum(masses) - 1.0) <= tol, f"criterion 8: {name} masses total {sum(masses)!r}")


def _outage_fit(out: Path, plan: dict) -> None:
    fit = _json(out / "outage_fit.json")
    _require(fit["converged"] is True, "outage_fit: did not converge")
    _require(fit["separated"] is False, "outage_fit: separated")
    for i, (b, se, truth) in enumerate(zip(fit["beta"], fit["se"], plan["context"]["beta"])):
        _require(abs(b - truth) <= 3.0 * se,
                 f"criterion 11: beta[{i}] = {b!r} not within 3 SE ({se!r}) of {truth!r}")


def _agg_sweep(out: Path, plan: dict, target: str) -> dict:
    _, rows = _rows(out / f"{target}_sweep.csv")
    _full_sweep(rows, plan["context"]["sweep"], f"{target}_sweep.csv")
    for r in rows:
        _require(float(r[2]) > 0 and float(r[3]) > 0, f"{target}_sweep.csv: non-positive value at {r[:2]}")
    fit = _json(out / f"{target}_fit.json")
    _finite(fit["beta"] + fit["se"], f"{target}_fit.json")
    return fit


def _sweep_fit_damage(out: Path, plan: dict) -> None:
    fit = _agg_sweep(out, plan, "damage")
    if plan["size"] == "full":
        _require(2.1 <= 2 * fit["p1"] <= 2.4, f"criterion 9: 2*p1 = {2 * fit['p1']!r}")


def _sweep_fit_loss(out: Path, plan: dict) -> None:
    fit = _agg_sweep(out, plan, "loss")
    if plan["size"] == "full":
        _require(5.3 <= 3 * fit["p"] <= 6.0, f"criterion 10: 3*p = {3 * fit['p']!r}")


_INVARIANTS = {
    "tables123": _tables123,
    "critzone": _critzone,
    "sweep_fit_critzone": _sweep_fit_critzone,
    "ensemble": _ensemble,
    "failure_rates_fr1": _failure_rates("fr1"),
    "failure_rates_fr2": _failure_rates("fr2"),
    "fail_dist": _fail_dist,
    "outage_fit": _outage_fit,
    "sweep_fit_damage": _sweep_fit_damage,
    "sweep_fit_loss": _sweep_fit_loss,
}
