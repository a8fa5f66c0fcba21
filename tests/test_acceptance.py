"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria and tolerances:
 1. benchmark areas (axisymmetric) within +/-5%, < 1 min
 2. benchmark max failure rates: axi +/-10%, asym +/-20%, asym >= axi exact
 3. benchmark mean failure rates (axisymmetric) within +/-15%
 4. fr2 >= fr1 - 1e-12 over 1,000 random ensembles; equality cases to 1e-12
 5. numeric zone area vs obround within 3*cell/Rcrit for 20 random storms
 6. exact set equality {rate > nominal} == numeric zone for 10 random storms
 7. saturated mean vs brute force to 1e-12; asymptote to Ng within 1e-6
 8. count distributions sum to 1 +/- 1e-12 across 100 cases; degenerate
    mixture equals the single Poisson exactly
 9. damage power-law exponent: 2*p1 in [2.1, 2.4]; log-log slope in
    [2.0, 2.6]; < 5 min
10. loss power-law exponent: 3*p in [5.3, 6.0]
11. GLM recovers truth within 3 SE in >= 95 of 100 trials; deviance
    nonincreasing in every iteration
12. simulated outages: wind-driven coefficient significant (p < 0.05) and
    wind-independent coefficient insignificant, each in >= 90 of 100 reps
13. critical-radius fit reports standard errors and beats the best
    Vm-only power law in residual
14. CLI outputs byte-identical across reruns and thread counts
"""

import json
import time

import numpy as np
import pytest

from stormrisk import (
    Ensemble,
    Grid,
    HollandParams,
    NhppParams,
    OutageObservation,
    TimeAxis,
    Track,
    WindField,
    axisymmetric_zone_area,
    critical_radius,
    critical_zone_numeric,
    damage_loss_sweep,
    expected_failures_saturated,
    failure_rate,
    fd_a,
    fd_b,
    fit_binomial,
    fit_crit_radius,
    fit_damage_model,
    fit_loss_model,
    fit_power_law_vm_only,
    fr1,
    fr2,
    inv_logit,
    nominal_rate,
    obround_area,
    saturated_distribution,
    sweep_critical_radius,
    tables123,
    wind_field,
)
from stormrisk.cli import main as cli_main
from stormrisk.fitting import linear_least_squares

P = NhppParams()

# Published benchmark values (areas km^2, failure rates per km).
TABLE1_AXI = {
    (25, 20): 1.36e5, (25, 30): 2.10e5, (25, 40): 2.86e5,
    (37, 20): 4.02e5, (37, 30): 6.09e5, (37, 40): 8.15e5,
    (46, 20): 6.61e5, (46, 30): 9.75e5, (46, 40): 12.82e5,
}
TABLE2_AXI = {
    (25, 20): 0.4, (25, 30): 0.6, (25, 40): 0.9,
    (37, 20): 3.8, (37, 30): 5.7, (37, 40): 7.6,
    (46, 20): 8.6, (46, 30): 12.9, (46, 40): 17.2,
}
TABLE2_ASYM = {
    (25, 20): 0.8, (25, 30): 1.2, (25, 40): 1.5,
    (37, 20): 4.5, (37, 30): 6.7, (37, 40): 9.0,
    (46, 20): 9.6, (46, 30): 14.4, (46, 40): 19.1,
}
TABLE3_AXI = {
    (25, 20): 0.2, (25, 30): 0.3, (25, 40): 0.5,
    (37, 20): 1.5, (37, 30): 2.2, (37, 40): 2.9,
    (46, 20): 2.9, (46, 30): 4.3, (46, 40): 7.3,
}


# One line per criterion, echoed in the terminal summary (outside pytest's
# capture) by the conftest hook.
CRITERION_LINES: list[str] = []


def _crit(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} — {desc}"
    if detail:
        line += f" ({detail})"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def benchmark_tables():
    start = time.monotonic()
    records = {(r["Vm"], r["Rm"]): r for r in tables123()}
    return records, time.monotonic() - start


@pytest.fixture(scope="module")
def damage_loss_fits():
    Vm, Rm, damage, loss = damage_loss_sweep(np.arange(21, 81), np.arange(20, 51))
    dmodel = fit_damage_model(Vm, Rm, damage, P.Vcrit)
    lmodel = fit_loss_model(Vm, Rm, loss, P.Vcrit)
    return Vm, Rm, damage, loss, dmodel, lmodel


def _random_ensemble(rng, H, grid, times, vmax=60.0):
    members = tuple(
        WindField(
            grid=grid,
            times=times,
            velocities=rng.uniform(0.0, vmax, (grid.n_cells, times.n_steps)),
        )
        for _ in range(H)
    )
    return Ensemble(members=members)


def test_criterion_01_areas(benchmark_tables):
    records, elapsed = benchmark_tables
    errs = {
        k: records[k]["area_axi_km2"] / TABLE1_AXI[k] - 1.0 for k in TABLE1_AXI
    }
    worst = max(errs.items(), key=lambda kv: abs(kv[1]))
    ok = all(abs(e) <= 0.05 for e in errs.values()) and elapsed < 60.0
    _crit(
        1,
        "benchmark areas (axi) within ±5%, < 1 min",
        ok,
        f"worst {worst[0]}: {worst[1]:+.1%}, runtime {elapsed:.1f}s",
    )


def test_criterion_02_max_rates(benchmark_tables):
    records, _ = benchmark_tables
    axi_errs = {k: records[k]["max_fr_axi"] / TABLE2_AXI[k] - 1.0 for k in TABLE2_AXI}
    asym_errs = {k: records[k]["max_fr_asym"] / TABLE2_ASYM[k] - 1.0 for k in TABLE2_ASYM}
    ordering = all(records[k]["max_fr_asym"] >= records[k]["max_fr_axi"] for k in TABLE2_AXI)
    worst_axi = max(abs(e) for e in axi_errs.values())
    worst_asym = max(abs(e) for e in asym_errs.values())
    ok = worst_axi <= 0.10 and worst_asym <= 0.20 and ordering
    _crit(
        2,
        "benchmark max failure rates: axi ±10%, asym ±20%, asym ≥ axi",
        ok,
        f"worst axi {worst_axi:.1%}, worst asym {worst_asym:.1%}, ordering {ordering}",
    )


def test_criterion_03_mean_rates(benchmark_tables):
    records, _ = benchmark_tables
    errs = {k: records[k]["mean_fr_axi"] / TABLE3_AXI[k] - 1.0 for k in TABLE3_AXI}
    bad = {k: e for k, e in errs.items() if abs(e) > 0.15}
    detail = ", ".join(f"{k}: {e:+.1%}" for k, e in sorted(errs.items()))
    _crit(3, "benchmark mean failure rates (axi) within ±15%", not bad, detail)


def test_criterion_04_jensen():
    rng = np.random.default_rng(2024)
    grid = Grid(nx=10, ny=10, cell_size=5.0)
    times = TimeAxis(n_steps=24, dt=1.0)
    ok = True
    for _ in range(1000):
        H = int(rng.integers(2, 21))
        e = _random_ensemble(rng, H, grid, times)
        if not np.all(np.asarray(fr2(P, e)) >= np.asarray(fr1(P, e)) - 1e-12):
            ok = False
            break
    # Equality cases.
    m = WindField(grid=grid, times=times, velocities=rng.uniform(0, 60, (100, 24)))
    ident = Ensemble(members=(m, m, m))
    eq_ident = np.max(np.abs(np.asarray(fr2(P, ident)) - np.asarray(fr1(P, ident))))
    sub = _random_ensemble(rng, 5, grid, times, vmax=20.0)
    eq_sub = np.max(np.abs(np.asarray(fr2(P, sub)) - np.asarray(fr1(P, sub))))
    ok = ok and eq_ident <= 1e-12 and eq_sub <= 1e-12
    _crit(
        4,
        "fr2 ≥ fr1 − 1e-12 over 1,000 random ensembles; equality to 1e-12",
        ok,
        f"identical-member gap {eq_ident:.1e}, subcritical gap {eq_sub:.1e}",
    )


def test_criterion_05_obround():
    rng = np.random.default_rng(7)
    cell = 2.0
    T, vtr = 10.0, 3.0
    worst = 0.0
    ok = True
    for _ in range(20):
        Vm = float(rng.uniform(25.0, 46.0))
        Rm = float(rng.uniform(20.0, 50.0))
        p = HollandParams(Vm=Vm, Rm=Rm)
        track = Track(x0=(0.0, 0.0), Vtr=(0.0, vtr))
        times = TimeAxis(n_steps=11, dt=1.0)
        rc = critical_radius(p, P.Vcrit)
        numeric = axisymmetric_zone_area(track, p, times, rc, cell_size=cell)
        closed = obround_area(rc, T, vtr)
        rel = abs(numeric - closed) / closed
        worst = max(worst, rel / (3 * cell / rc))
        if rel > 3 * cell / rc:
            ok = False
    _crit(
        5,
        "numeric vs obround area within 3·cell/Rcrit for 20 random storms",
        ok,
        f"worst error at {worst:.2f}× the bound",
    )


def test_criterion_06_set_equivalence():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(10):
        Vm = float(rng.uniform(25.0, 46.0))
        Rm = float(rng.uniform(20.0, 40.0))
        p = HollandParams(Vm=Vm, Rm=Rm)
        track = Track(
            x0=(float(rng.uniform(-20, 20)), -60.0), Vtr=(0.0, 3.0)
        )
        grid = Grid(origin=(-250.0, -250.0), nx=100, ny=100, cell_size=5.0)
        times = TimeAxis(n_steps=13, dt=1.0)
        field = wind_field(track, p, grid, times)
        rates = failure_rate(P, field.velocities, times.dt)
        analytic = rates > nominal_rate(P, times.n_steps, times.dt)
        zone = critical_zone_numeric(field, P.Vcrit, p, track)
        if not np.array_equal(analytic, zone):
            ok = False
            break
    _crit(6, "{Λ > λnorm·T} equals numeric zone exactly, 10 random storms", ok)


def test_criterion_07_saturation():
    from scipy.stats import poisson as sp

    worst = 0.0
    for ng in range(1, 6):
        for rate in np.linspace(0.05, 3.0, 25):
            n = np.arange(0, 400)
            brute = float(np.sum(np.minimum(n, ng) * sp.pmf(n, rate)))
            worst = max(worst, abs(expected_failures_saturated(float(rate), ng) - brute))
    asym_err = max(
        abs(expected_failures_saturated(100.0 * ng, ng) - ng) for ng in range(1, 6)
    )
    ok = worst <= 1e-12 and asym_err <= 1e-6
    _crit(
        7,
        "saturated mean vs brute force ≤ 1e-12; asymptote within 1e-6",
        ok,
        f"max brute-force gap {worst:.1e}, asymptote gap {asym_err:.1e}",
    )


def test_criterion_08_distribution_validity():
    rng = np.random.default_rng(3)
    grid = Grid(nx=2, ny=2, cell_size=5.0)
    times = TimeAxis(n_steps=6, dt=1.0)
    worst = 0.0
    for i in range(100):
        if i % 2 == 0:
            e = _random_ensemble(rng, int(rng.integers(2, 8)), grid, times)
            cell = int(rng.integers(0, 4))
            d = fd_a(P, e, cell) if i % 4 == 0 else fd_b(P, e, cell)
        else:
            d = saturated_distribution(float(rng.uniform(0, 20)), int(rng.integers(0, 12)))
        worst = max(worst, abs(d.total_mass() - 1.0))
    # Degenerate ensemble: mixture equals the single Poisson exactly.
    m = WindField(grid=grid, times=times, velocities=rng.uniform(0, 50, (4, 6)))
    e = Ensemble(members=(m, m))
    a, b = fd_a(P, e, 0, n_max=20), fd_b(P, e, 0, n_max=20)
    degenerate = np.array_equal(a.pmf, b.pmf) and a.tail == b.tail
    ok = worst <= 1e-12 and degenerate
    _crit(
        8,
        "distributions sum to 1 ± 1e-12 (100 cases); degenerate FD-B = FD-A",
        ok,
        f"worst mass defect {worst:.1e}, degenerate equality {degenerate}",
    )


def test_criterion_09_damage_power_law(damage_loss_fits):
    start = time.monotonic()
    Vm, Rm, damage, _, dmodel, _ = damage_loss_fits
    two_p1 = 2.0 * dmodel.p1
    # Independent log-log slope at fixed Rm = 30 over Vm in [30, 80].
    sel = (Rm == 30.0) & (Vm >= 30.0)
    nominal = damage.min()
    y = np.log(damage[sel] - nominal)
    X = np.column_stack([np.ones_like(y), np.log(Vm[sel] - P.Vcrit)])
    slope = float(linear_least_squares(X, y).beta[1])
    elapsed = time.monotonic() - start
    ok = 2.1 <= two_p1 <= 2.4 and 2.0 <= slope <= 2.6
    _crit(
        9,
        "damage exponent 2·p1 ∈ [2.1, 2.4]; log-log slope ∈ [2.0, 2.6]",
        ok,
        f"2·p1 = {two_p1:.2f}, slope = {slope:.2f}",
    )
    assert elapsed < 300.0


def test_criterion_10_loss_power_law(damage_loss_fits):
    _, _, _, _, _, lmodel = damage_loss_fits
    three_p = 3.0 * lmodel.p
    ok = 5.3 <= three_p <= 6.0
    _crit(10, "loss exponent 3·p ∈ [5.3, 6.0]", ok, f"3·p = {three_p:.2f}")


def test_criterion_11_glm_recovery():
    c0, c1 = -4.0, 0.9
    households = 100_000
    hits = 0
    traces_ok = True
    rng = np.random.default_rng(99)
    for _ in range(100):
        x = rng.uniform(0.0, 5.0, 30)
        X = np.column_stack([np.ones(30), x])
        p = inv_logit(c0 + c1 * x)
        y = rng.binomial(households, p).astype(float)
        fit = fit_binomial(X, y, np.full(30, float(households)))
        if np.any(np.diff(fit.deviance_trace) > 1e-12):
            traces_ok = False
        if abs(fit.beta[0] - c0) <= 3 * fit.se[0] and abs(fit.beta[1] - c1) <= 3 * fit.se[1]:
            hits += 1
    ok = hits >= 95 and traces_ok
    _crit(
        11,
        "GLM recovery within 3 SE in ≥ 95/100 trials; deviance nonincreasing",
        ok,
        f"hits {hits}/100, all traces nonincreasing {traces_ok}",
    )


def test_criterion_12_closed_loop():
    # Four-county region crossed by one storm; exposures are county-mean
    # cumulative failure rates.  Outage fractions are forward-simulated from
    # the saturated failure model (expected failed-asset fraction), or drawn
    # wind-independent as the null case.
    p = HollandParams(Vm=40, Rm=30)
    track = Track(x0=(0.0, -80.0), Vtr=(0.0, 3.0))
    grid = Grid(origin=(-100.0, -100.0), nx=20, ny=20, cell_size=10.0)
    times = TimeAxis(n_steps=24, dt=1.0)
    field = wind_field(track, p, grid, times)
    from stormrisk import poisson_intensity

    lam_cum = np.cumsum(poisson_intensity(P, field.velocities) * times.dt, axis=1)
    quadrant = (grid.centers()[:, 0] >= 0).astype(int) * 2 + (
        grid.centers()[:, 1] >= 0
    ).astype(int)
    county_cells = {f"c{q}": np.flatnonzero(quadrant == q) for q in range(4)}
    line_per_cell, ng_per_cell = 0.65 * 100.0, 650
    households = 20_000
    rng = np.random.default_rng(5)
    sig_hits, null_hits = 0, 0
    times_idx = range(0, 24, 2)
    for _ in range(100):
        rows_x, rows_y = [], []
        null_y = []
        for name, cells in county_cells.items():
            for t in times_idx:
                exposure = float(lam_cum[cells, t].mean())
                frac = expected_failures_saturated(line_per_cell * exposure, ng_per_cell) / ng_per_cell
                rows_x.append(exposure)
                rows_y.append(rng.binomial(households, min(max(frac, 1e-9), 1.0)))
                null_y.append(rng.binomial(households, 0.02))
        X = np.column_stack([np.ones(len(rows_x)), rows_x])
        n = np.full(len(rows_x), float(households))
        fit_sig = fit_binomial(X, np.array(rows_y, dtype=float), n)
        fit_null = fit_binomial(X, np.array(null_y, dtype=float), n)
        if fit_sig.p_values[1] < 0.05:
            sig_hits += 1
        if fit_null.p_values[1] >= 0.05:
            null_hits += 1
    ok = sig_hits >= 90 and null_hits >= 90
    _crit(
        12,
        "simulated outages: wind coefficient significant, null insignificant (≥ 90/100)",
        ok,
        f"significant {sig_hits}/100, null insignificant {null_hits}/100",
    )


def test_criterion_13_radius_fit():
    Vm, Rm, Rc = sweep_critical_radius(np.arange(21, 81), np.arange(20, 51), P.Vcrit)
    fit = fit_crit_radius(Vm, Rm, Rc, P.Vcrit)
    vm_only = fit_power_law_vm_only(Vm, Rc)
    ok = fit.se_log_a1 > 0 and fit.se_a2 > 0 and fit.residual < vm_only.rms
    _crit(
        13,
        "critical-radius fit has SEs and beats Vm-only power law",
        ok,
        f"a1 = {fit.a1:.3f} ± {fit.se_log_a1:.3f} (log), a2 = {fit.a2:.3f} ± {fit.se_a2:.3f}, "
        f"residual {fit.residual:.3f} vs {vm_only.rms:.3f}",
    )


def test_criterion_14_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "grid": {"nx": 15, "ny": 15, "cell_size_km": 5.0, "origin_km": [-37.5, -37.5]},
                "times": {"n_steps": 8, "dt_h": 1.0},
                "track": {"x0_km": [0.0, -40.0], "vtr_mps": [0.0, 3.0]},
                "ensemble": {"H": 6},
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    cfg = str(cfg_path)
    ok = True
    for cmd in (["windfield"], ["ensemble"], ["failure-rates", "--which", "fr2"]):
        outputs = {}
        for threads in ("1", "4"):
            assert cli_main(cmd + ["--config", cfg, "--threads", threads]) == 0
            for f in sorted((tmp_path / "out").glob("*")):
                outputs.setdefault(threads, {})[f.name] = f.read_bytes()
        if outputs["1"] != outputs["4"]:
            ok = False
        # Rerun with the same thread count: byte-identical.
        assert cli_main(cmd + ["--config", cfg, "--threads", "1"]) == 0
        for f in sorted((tmp_path / "out").glob("*")):
            if f.read_bytes() != outputs["1"][f.name]:
                ok = False
    _crit(14, "CLI outputs byte-identical across reruns and --threads", ok)
