import tracemalloc
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stormrisk import aggregate

from stormrisk import (
    Grid,
    HollandParams,
    NhppParams,
    RepairParams,
    SweepConfig,
    TimeAxis,
    Track,
    axisymmetric_field,
    damage_loss_sweep,
    expected_failures_saturated,
    failure_rate,
    fit_damage_model,
    fit_loss_model,
    g_of_vm,
    holland_speed,
    poisson_intensity,
    save_agg_sweep,
)
from stormrisk.aggregate import (
    _DAMAGE_POWERS,
    _DAMAGE_TERMS,
    _LOSS_POWERS,
    _LOSS_TERMS,
    _damage_design,
    _loss_design,
    _power_design,
    _relative_weights,
    _scan_fit,
    _screen,
)
from stormrisk.fitting import linear_least_squares

P = NhppParams()
VCRIT = P.Vcrit
SMALL = SweepConfig(nx=6, ny=8, cell_size=40.0, T=6.0)
CONFIGS = [SMALL, SweepConfig(nx=5, ny=7, cell_size=25.0, vtr=5.0, T=10.0, dt=0.5, B=1.5)]


def excess_integral(Vm, Rm, nhpp: NhppParams, config: SweepConfig) -> np.ndarray:
    """Per-cell E = sum_t (f^2 - 1)_+ dt on the sweep grid, f = v / Vcrit.

    The quantity the paper's nominal/excess decompositions are built from;
    recomputed here independently of `damage_loss_sweep`.
    """
    xs, ys = config.grid_centers()
    cy = config.centre_y()
    p = HollandParams(Vm=Vm, Rm=Rm, B=config.B)
    E = np.zeros((config.nx, config.ny))
    for k in range(config.n_steps):
        f = holland_speed(p, np.hypot(xs[:, None], ys[None, :] - cy[k])) / nhpp.Vcrit
        E += np.maximum(f * f - 1.0, 0.0)
    return E * config.dt


def _one_storm(Vm, Rm, nhpp=P, repair=None, config=SMALL) -> tuple[float, float]:
    _, _, d, lo = damage_loss_sweep([Vm], [Rm], nhpp=nhpp, repair=repair, config=config)
    return float(d[0]), float(lo[0])


storms = st.tuples(
    st.floats(5.0, 90.0),  # Vm, below and above Vcrit
    st.floats(5.0, 80.0),  # Rm
    st.floats(1.0, 1e4),  # alpha
    st.floats(1e-6, 1e-3),  # lambda_norm
    st.sampled_from(CONFIGS),
)


class TestTotalDamage:
    def test_all_subcritical_is_nominal(self):
        nominal = SMALL.T * P.lambda_norm
        for Vm in (10.0, 15.0, 20.0):
            assert _one_storm(Vm, 30.0)[0] == pytest.approx(nominal, rel=1e-12)

    @given(storms)
    def test_decomposition_matches_direct_sum(self, storm):
        # mean damage = lambda T + lambda alpha mean_g sum_t (f^2 - 1)_+ dt
        Vm, Rm, alpha, lam, cfg = storm
        nhpp = NhppParams(alpha=alpha, lambda_norm=lam)
        E = excess_integral(Vm, Rm, nhpp, cfg)
        expected = lam * cfg.n_steps * cfg.dt + lam * alpha * E.mean()
        assert _one_storm(Vm, Rm, nhpp, config=cfg)[0] == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_subcritical_decomposition_has_no_excess(self):
        excess = P.lambda_norm * P.alpha * excess_integral(20.0, 30.0, P, SMALL).mean()
        assert excess == 0.0
        assert _one_storm(20.0, 30.0)[0] == pytest.approx(SMALL.T * P.lambda_norm, rel=1e-12)

    def test_excess_integral_zero_below_vcrit(self):
        assert np.all(excess_integral(20.0, 30.0, P, SMALL) == 0.0)
        assert np.any(excess_integral(37.0, 30.0, P, SMALL) > 0.0)


class TestRepairLoss:
    def test_ten_failures_unit_params(self):
        # loss per cell = (Lf / (2 Y)) n^2
        assert RepairParams(Lf=1, Y=1).half_ratio * 10.0**2 == 50.0

    def test_doubling_quadruples(self):
        # Doubling lambda_norm doubles every cell's failures.
        rp = RepairParams(Lf=2.0, Y=4.0)
        d1, l1 = _one_storm(37.0, 30.0, NhppParams(lambda_norm=1e-5), rp)
        d2, l2 = _one_storm(37.0, 30.0, NhppParams(lambda_norm=2e-5), rp)
        assert d2 == pytest.approx(2 * d1, rel=1e-14)
        assert l2 == pytest.approx(4 * l1, rel=1e-14)

    def test_invalid(self):
        with pytest.raises(ValueError):
            RepairParams(Lf=-1.0)
        with pytest.raises(ValueError):
            RepairParams(Y=0.0)


class TestTotalLoss:
    def test_all_subcritical_nominal(self):
        rp = RepairParams(Lf=3.0, Y=2.0)
        expected = rp.half_ratio * (SMALL.T * P.lambda_norm) ** 2
        for Vm in (10.0, 15.0, 20.0):
            assert _one_storm(Vm, 30.0, repair=rp)[1] == pytest.approx(expected, rel=1e-12)

    def test_single_cell_plug_in(self):
        # One cell at the origin, passed at the same distance on both steps,
        # accumulated rate exactly 2 -> loss 0.5 * 2^2 = 2.
        cfg = SweepConfig(nx=1, ny=1, T=2.0)
        r = abs(cfg.centre_y()[0])
        v = VCRIT * np.sqrt((1.0 / P.lambda_norm - 1.0) / P.alpha + 1.0)
        Vm = v / holland_speed(HollandParams(Vm=1.0, Rm=30.0), r)
        damage, loss = _one_storm(Vm, 30.0, config=cfg)
        assert damage == pytest.approx(2.0, rel=1e-9)
        assert loss == pytest.approx(2.0, rel=1e-9)

    def test_loss_at_least_nominal(self):
        nominal = 0.5 * (SMALL.T * P.lambda_norm) ** 2
        for Vm in (25.0, 46.0, 80.0):
            assert _one_storm(Vm, 30.0)[1] >= nominal

    @given(storms, st.floats(0.0, 10.0), st.floats(0.1, 10.0))
    def test_decomposition_matches_direct(self, storm, Lf, Y):
        # mean loss = h [(lambda T)^2 + 2 lambda (lambda alpha) T mean(E)
        #                + (lambda alpha)^2 mean(E^2)],  h = Lf / (2 Y)
        Vm, Rm, alpha, lam, cfg = storm
        nhpp = NhppParams(alpha=alpha, lambda_norm=lam)
        rp = RepairParams(Lf=Lf, Y=Y)
        E = excess_integral(Vm, Rm, nhpp, cfg)
        T = cfg.n_steps * cfg.dt
        la = lam * alpha
        expected = rp.half_ratio * (
            (lam * T) ** 2 + 2.0 * lam * la * T * E.mean() + la * la * np.mean(E * E)
        )
        assert _one_storm(Vm, Rm, nhpp, rp, cfg)[1] == pytest.approx(expected, rel=1e-9, abs=0.0)


def _storm_rates(Vm, cell=10.0) -> np.ndarray:
    """Per-cell accumulated failure rates of one storm crossing a 400 x 500 km grid."""
    track = Track(x0=(0.0, -100.0), Vtr=(0.0, 3.0), duration=20.0)
    grid = Grid(origin=(-200.0, -250.0), nx=int(400 / cell), ny=int(500 / cell), cell_size=cell)
    times = TimeAxis(n_steps=21, dt=1.0)
    field = axisymmetric_field(track, HollandParams(Vm=Vm, Rm=30), grid, times)
    return failure_rate(P, field.velocities, times.dt)


class TestSaturated:
    """Region-total saturated damage: sum over cells of E[min(N, Ng)]."""

    @given(
        st.lists(st.tuples(st.integers(0, 50), st.floats(0.0, 1e3)), min_size=1, max_size=50)
    )
    def test_matches_per_cell_sum(self, cells):
        ng, rates = (np.array(c) for c in zip(*cells))
        per_cell = sum(expected_failures_saturated(float(r), int(n)) for r, n in zip(rates, ng))
        # Only the order of the (nonnegative) summands differs.
        assert expected_failures_saturated(rates, ng).sum() == pytest.approx(
            per_cell, rel=1e-13, abs=0.0
        )

    def test_zero_inventory(self):
        assert expected_failures_saturated(np.full(4, 100.0), np.zeros(4, dtype=int)).sum() == 0.0

    def test_asymptote_is_total_asset_count(self):
        ng = np.array([2, 3])
        total = expected_failures_saturated(np.full(2, 1e4), ng).sum()
        assert total == pytest.approx(ng.sum(), abs=1e-6)

    def test_monotone_in_vm(self):
        ng = np.full(40 * 50, 2)
        totals = [expected_failures_saturated(_storm_rates(Vm), ng).sum() for Vm in (25, 37, 46, 60)]
        assert all(a <= b + 1e-12 for a, b in zip(totals, totals[1:]))
        assert totals[-1] < ng.sum()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            expected_failures_saturated(np.zeros(4), np.zeros(3, dtype=int))


class TestG:
    def test_clamped_and_linear(self):
        assert g_of_vm(VCRIT, VCRIT)[()] == 0.0
        assert g_of_vm(2 * VCRIT, VCRIT)[()] == pytest.approx(1.0, rel=1e-14)
        assert g_of_vm(10.0, VCRIT)[()] == 0.0


def sweep_reference(Vm_values, Rm_values, nhpp, repair, config):
    """Reference `damage_loss_sweep`: its loop before the shared geometry
    kernel, with the distances taken from the centred grid axes directly."""
    xs, ys = config.grid_centers()
    X = xs[:, None]
    cy = config.centre_y()
    out = []
    for Vm in Vm_values:
        for Rm in Rm_values:
            p = HollandParams(Vm=float(Vm), Rm=float(Rm), B=config.B)
            lam = np.zeros((config.nx, config.ny))
            for k in range(config.n_steps):
                r = np.hypot(X, ys[None, :] - cy[k])
                lam += poisson_intensity(nhpp, holland_speed(p, r))
            lam *= config.dt
            out.append((float(Vm), float(Rm), float(lam.mean()),
                        float(repair.half_ratio * np.mean(lam * lam))))
    return tuple(np.array(col) for col in zip(*out))


# Six storms in chunks of four on the default sweep's cell size and track.
MIRROR_CASE = dict(
    Vm=[30.0, 50.0, 70.0], Rm=[20.0, 40.0], ny=5, cell=22.264, vtr=3.0, T=24.0, dt=1.0, B=1.0, Lf=1.0, chunk=4
)


class TestSweep:
    @settings(max_examples=60, deadline=None)
    @given(
        Vm=st.lists(st.floats(5.0, 90.0), min_size=1, max_size=3),
        Rm=st.lists(st.floats(5.0, 80.0), min_size=1, max_size=3),
        nx=st.integers(1, 12),
        ny=st.integers(1, 12),
        cell=st.floats(1.0, 60.0),
        vtr=st.floats(0.5, 12.0),
        T=st.floats(1.0, 30.0),
        dt=st.sampled_from([0.5, 1.0, 3.0]),
        B=st.sampled_from([0.6, 1.0, 1.5, 2.5]),
        Lf=st.floats(0.0, 5.0),
        chunk=st.sampled_from([1, 2, 3, aggregate._SWEEP_CHUNK]),
    )
    # The mirror fold evaluates ceil(nx / 2) columns: one column with nothing
    # mirrored, one mirrored, and the default grid's odd and even neighbours,
    # each with a partial last chunk of storms.
    @example(nx=1, **MIRROR_CASE)
    @example(nx=2, **MIRROR_CASE)
    @example(nx=24, **MIRROR_CASE)
    @example(nx=25, **MIRROR_CASE)
    def test_bit_identical_to_reference_loop(self, Vm, Rm, nx, ny, cell, vtr, T, dt, B, Lf, chunk):
        # A config whose T / dt rounds to no step is rejected (TestSweepConfig).
        assume(round(T / dt) >= 1)
        config = SweepConfig(nx=nx, ny=ny, cell_size=cell, vtr=vtr, T=T, dt=dt, B=B)
        repair = RepairParams(Lf=Lf, Y=2.0)
        # Up to 9 storms in chunks of 1-3: full, partial and single-storm chunks.
        with mock.patch.object(aggregate, "_SWEEP_CHUNK", chunk):
            got = damage_loss_sweep(Vm, Rm, nhpp=P, repair=repair, config=config)
        ref = sweep_reference(Vm, Rm, P, repair, config)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_bit_identical_across_default_chunks(self):
        # 35 storms: two full chunks and a partial one at the default size.
        Vm, Rm = np.linspace(15.0, 80.0, 5), [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]
        assert len(Vm) * len(Rm) % aggregate._SWEEP_CHUNK != 0
        assert len(Vm) * len(Rm) > 2 * aggregate._SWEEP_CHUNK
        got = damage_loss_sweep(Vm, Rm, config=SMALL)
        ref = sweep_reference(Vm, Rm, P, RepairParams(), SMALL)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_asymmetric_grid_refused(self):
        xs, ys = SMALL.grid_centers()
        with mock.patch.object(SweepConfig, "grid_centers", lambda self: (xs + 1.0, ys)):
            with pytest.raises(ValueError, match="symmetric about the track"):
                damage_loss_sweep([40.0], [30.0], config=SMALL)

    @pytest.mark.parametrize("Vm, Rm", [([], [20.0]), ([25.0], []), ([], [])])
    def test_empty_sweep(self, Vm, Rm):
        out = damage_loss_sweep(Vm, Rm, config=SMALL)
        assert len(out) == 4
        for a in out:
            assert a.shape == (0,) and a.dtype == np.float64

    @pytest.mark.parametrize("Vm, Rm", [(np.nan, 20.0), (25.0, np.inf), (25.0, np.nan)])
    def test_non_finite_storm_rejected(self, Vm, Rm):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            damage_loss_sweep([40.0, Vm], [30.0, Rm], config=SMALL)

    def test_memory_bounded_by_chunk(self):
        # 1,000 storms on the default 25 x 40 grid: one unchunked (storms, cells)
        # temporary alone would be 8 MB.
        Vm, Rm = np.arange(21.0, 61.0), np.arange(20.0, 45.0)
        assert len(Vm) * len(Rm) == 1000
        tracemalloc.start()
        try:
            damage_loss_sweep(Vm, Rm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_small_sweep_shapes_and_nominal_floor(self):
        cfg = SweepConfig(nx=6, ny=8, cell_size=40.0, T=6.0)
        Vm, Rm, d, lo = damage_loss_sweep([25, 37], [20, 40], config=cfg)
        assert len(Vm) == 4
        nominal = cfg.T * NhppParams().lambda_norm
        assert np.all(d >= nominal - 1e-15)
        assert np.all(lo > 0)
        # Bigger storms do more damage.
        assert d[2] > d[0]

    def test_save_csv(self, tmp_path):
        path = tmp_path / "agg.csv"
        save_agg_sweep([25], [20], [0.1], [0.01], path, header_comment="config_sha256=q")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_sha256=q"
        assert lines[1] == "Vm,Rm,damage_norm,loss_norm"


class TestSweepConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"nx": 0},
            {"ny": 0},
            {"cell_size": 0.0},
            {"cell_size": np.inf},
            {"T": -5.0},
            {"T": np.nan},
            {"dt": 0.0},
            {"dt": np.inf},
            {"B": 0.0},
            {"B": np.nan},
            {"vtr": -1.0},
            {"vtr": np.inf},
            {"vtr": np.nan},
            {"T": 1.0, "dt": 3.0},  # T / dt rounds to no step
        ],
    )
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            SweepConfig(**bad)

    def test_stationary_storm_allowed(self):
        assert np.all(SweepConfig(vtr=0.0).centre_y() == 0.0)


class TestDamageFit:
    def test_exact_model_recovery(self):
        Vm, Rm = np.meshgrid(np.arange(22, 81, 3), np.arange(20, 51, 5))
        Vm, Rm = Vm.ravel().astype(float), Rm.ravel().astype(float)
        p1, p2 = 1.13, 0.10
        beta = np.array([0.5, 6.7e-3, 1.8e-3, -2.0e-3, 4.0e-4])
        y = _damage_design(Vm, Rm, p1, p2, VCRIT) @ beta
        model = fit_damage_model(Vm, Rm, y, VCRIT)
        assert model.p1 == pytest.approx(p1, abs=1e-9)
        assert model.p2 == pytest.approx(p2, abs=1e-9)
        assert np.allclose(model.predict(Vm, Rm), y, rtol=1e-6)

    @pytest.mark.parametrize("Vm_low", [VCRIT, 15.0])
    def test_vm_at_or_below_vcrit_refused_before_scanning(self, Vm_low):
        # g = 0 there, and the p2 < 0 terms would be infinite.
        Vm, Rm = np.array([Vm_low, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]), np.full(7, 30.0)
        with mock.patch.object(aggregate, "_scan_fit", side_effect=AssertionError("scanned")):
            with pytest.raises(ValueError, match="every Vm must exceed Vcrit = 20.6"):
                fit_damage_model(Vm, Rm, np.linspace(1.0, 2.0, 7), VCRIT)

    def test_insignificant_terms_dropped(self):
        rng = np.random.default_rng(3)
        Vm = rng.uniform(22, 80, 200)
        Rm = rng.uniform(20, 50, 200)
        p1, p2 = 1.20, -0.10
        # Only the two p1 terms carry signal; add noise so the spurious terms
        # are insignificant.
        X = _damage_design(Vm, Rm, p1, p2, VCRIT)
        y = 1.0 + X[:, 1] * 5e-3 + X[:, 2] * 2e-3
        y = y * (1 + rng.normal(0, 0.01, y.shape))
        model = fit_damage_model(Vm, Rm, y, VCRIT)
        assert len(model.terms) < 5


class TestLossFit:
    def test_exact_model_recovery(self):
        Vm, Rm = np.meshgrid(np.arange(22, 81, 3), np.arange(20, 51, 5))
        Vm, Rm = Vm.ravel().astype(float), Rm.ravel().astype(float)
        p = 1.88
        beta = np.zeros(13)
        beta[[1, 3, 6, 7, 8]] = [1.52e-2, 6.42e-6, 6.41e-5, 3.53e-4, -7.54e-7]
        y = _loss_design(Vm, Rm, p, VCRIT) @ beta
        assert np.all(y > 0)  # relative weighting requires positive responses
        model = fit_loss_model(Vm, Rm, y, VCRIT)
        assert model.p == pytest.approx(p, abs=1e-9)
        assert np.allclose(model.predict(Vm, Rm), y, rtol=1e-5)


def damage_fit_reference(Vm, Rm, damage, Vcrit, p1_grid=None, p2_grid=None, drop_p=0.05):
    """Reference `fit_damage_model`: its own scan, pick and prune loop from
    before `aggregate._scan_fit`.  Returns (p1, p2, terms, fit)."""
    if p1_grid is None:
        p1_grid = np.round(np.arange(1.00, 1.5001, 0.01), 2)
    if p2_grid is None:
        p2_grid = np.round(np.arange(-0.50, 0.5001, 0.01), 2)
    y = np.asarray(damage, dtype=float)
    w = _relative_weights(y)
    best = None
    for p1 in p1_grid:
        for p2 in p2_grid:
            if p2 >= p1:
                continue
            X = _damage_design(Vm, Rm, p1, p2, Vcrit)
            fit = linear_least_squares(X, y, weights=w)
            if best is None or fit.rms < best[0]:
                best = (fit.rms, float(p1), float(p2), fit)
    _, p1, p2, fit = best
    terms = _DAMAGE_TERMS
    keep = tuple(t for t, p in zip(terms, fit.p_values) if p < drop_p)
    if len(keep) and len(keep) < len(terms):
        fit = linear_least_squares(_damage_design(Vm, Rm, p1, p2, Vcrit, keep), y, weights=w)
        terms = keep
    return p1, p2, terms, fit


def loss_fit_reference(Vm, Rm, loss, Vcrit, p_grid=None, drop_p=0.05):
    """Reference `fit_loss_model`: its own scan, pick and prune loop from
    before `aggregate._scan_fit`.  Returns (p, terms, fit)."""
    if p_grid is None:
        p_grid = np.round(np.arange(1.20, 2.0001, 0.01), 2)
    y = np.asarray(loss, dtype=float)
    w = _relative_weights(y)
    best = None
    for p in p_grid:
        X = _loss_design(Vm, Rm, p, Vcrit)
        fit = linear_least_squares(X, y, weights=w)
        if best is None or fit.rms < best[0]:
            best = (fit.rms, float(p), fit)
    _, p, fit = best
    terms = _LOSS_TERMS
    keep = tuple(t for t, pv in zip(terms, fit.p_values) if pv < drop_p)
    if len(keep) and len(keep) < len(terms):
        fit = linear_least_squares(_loss_design(Vm, Rm, p, Vcrit, keep), y, weights=w)
        terms = keep
    return p, terms, fit


def assert_same_fit(a, b):
    for name in ("beta", "se", "p_values", "rms", "cond"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


# A 40-storm sweep grid with responses drawn from the models themselves.
SCAN_VM, SCAN_RM = (a.ravel() for a in np.meshgrid(np.arange(22.0, 81.0, 6.0), [20.0, 30.0, 40.0, 50.0]))
# The same grid with g in {0, 1} only: g^p is then the same for every p > 0,
# so distinct exponents tie exactly and the scan must keep the first.
FLAT_VM = np.where(SCAN_VM < 50.0, VCRIT, 2.0 * VCRIT)


def _damage_response(Vm, beta, noise, seed=0):
    y = _damage_design(Vm, SCAN_RM, 1.13, 0.1, VCRIT) @ np.asarray(beta)
    return y * (1.0 + noise * np.random.default_rng(seed).normal(size=y.shape))


def _loss_response(Vm, beta, noise, seed=0):
    y = _loss_design(Vm, SCAN_RM, 1.6, VCRIT) @ np.asarray(beta)
    return y * (1.0 + noise * np.random.default_rng(seed).normal(size=y.shape))


def _scan(Vm, y, candidates, design, terms, drop_p):
    """`_scan_fit` on the SCAN_RM grid, pruning at `drop_p`."""
    with mock.patch.object(aggregate, "_DROP_P", drop_p):
        return _scan_fit(y, candidates, lambda c, t: design(Vm, SCAN_RM, *c, VCRIT, t), terms)


# Few distinct exponents, so lists repeat entries and the scan meets exact ties.
P1S = st.lists(st.sampled_from([1.0, 1.13, 1.2, 1.5]), min_size=1, max_size=4)
P2S = st.lists(st.sampled_from([-0.5, 0.0, 0.1, 0.5]), min_size=1, max_size=4)
DAMAGE_BETA = st.lists(st.sampled_from([0.0, 2e-3, -1e-3]), min_size=4, max_size=4)
NOISE = st.sampled_from([0.0, 1e-3, 0.05])
# _DROP_P of 0 keeps no term (no refit), of 1.1 every term (no refit); 0.05
# and 0.5 usually keep some and refit.
DROP_P = st.sampled_from([0.0, 0.05, 0.5, 1.1])


class TestScanFit:
    @settings(max_examples=80, deadline=None)
    @given(
        p1s=P1S,
        p2s=P2S,
        beta=DAMAGE_BETA,
        noise=NOISE,
        seed=st.integers(0, 3),
        drop_p=DROP_P,
        flat=st.booleans(),
    )
    @example(p1s=[1.13, 1.13], p2s=[0.1, 0.1], beta=[2e-3, 0.0, 0.0, 0.0], noise=0.0, seed=0, drop_p=0.05, flat=False)
    @example(p1s=[1.5, 1.0], p2s=[0.5, 0.1], beta=[2e-3, 0.0, 0.0, 0.0], noise=0.01, seed=0, drop_p=0.05, flat=True)
    def test_damage_scan_matches_reference(self, p1s, p2s, beta, noise, seed, drop_p, flat):
        # 0^p2 is infinite for p2 < 0.
        assume(not flat or min(p2s) > 0)
        Vm = FLAT_VM if flat else SCAN_VM
        y = _damage_response(Vm, [0.5] + beta, noise, seed)
        ref = damage_fit_reference(Vm, SCAN_RM, y, VCRIT, p1s, p2s, drop_p)
        pairs = [(a, b) for a in p1s for b in p2s]
        (p1, p2), terms, fit = _scan(Vm, y, pairs, _damage_design, _DAMAGE_TERMS, drop_p)
        assert (p1, p2, terms) == ref[:3]
        assert_same_fit(fit, ref[3])

    @settings(max_examples=40, deadline=None)
    @given(
        ps=st.lists(st.sampled_from([1.2, 1.6, 1.61, 2.0]), min_size=1, max_size=5),
        noise=NOISE,
        seed=st.integers(0, 3),
        drop_p=DROP_P,
        flat=st.booleans(),
    )
    @example(ps=[2.0, 1.2], noise=0.01, seed=0, drop_p=0.05, flat=True)
    def test_loss_scan_matches_reference(self, ps, noise, seed, drop_p, flat):
        Vm = FLAT_VM if flat else SCAN_VM
        beta = np.zeros(13)
        beta[[0, 1, 3, 6]] = [0.2, 1.5e-2, 6.4e-6, 6.4e-5]
        y = _loss_response(Vm, beta, noise, seed)
        ref = loss_fit_reference(Vm, SCAN_RM, y, VCRIT, ps, drop_p)
        (p,), terms, fit = _scan(Vm, y, [(p,) for p in ps], _loss_design, _LOSS_TERMS, drop_p)
        assert (p, terms) == ref[:2]
        assert_same_fit(fit, ref[2])

    @pytest.mark.parametrize("drop_p, kept", [(0.0, "none"), (0.05, "some"), (1.1, "all")])
    def test_prune_cases(self, drop_p, kept):
        # Two of the four excess terms carry no signal.
        y = _damage_response(SCAN_VM, [0.5, 6.7e-3, 1.8e-3, 0.0, 0.0], noise=0.01)
        ref = damage_fit_reference(SCAN_VM, SCAN_RM, y, VCRIT, [1.1, 1.13, 1.13], [0.0, 0.1], drop_p)
        significant = ref[3].p_values < drop_p
        assert {"none": not significant.any(), "some": 0 < len(ref[2]) < 5, "all": significant.all()}[kept]
        pairs = [(a, b) for a in [1.1, 1.13, 1.13] for b in [0.0, 0.1]]
        (p1, p2), terms, fit = _scan(SCAN_VM, y, pairs, _damage_design, _DAMAGE_TERMS, drop_p)
        assert (p1, p2, terms) == ref[:3]
        assert_same_fit(fit, ref[3])

    def test_real_grids_match_reference(self):
        Vm, Rm, damage, loss = damage_loss_sweep(np.arange(21.0, 81.0, 4.0), [20.0, 30.0, 40.0, 50.0], config=SMALL)
        model = fit_damage_model(Vm, Rm, damage, VCRIT)
        ref = damage_fit_reference(Vm, Rm, damage, VCRIT)
        assert (model.p1, model.p2, model.terms) == ref[:3]
        assert_same_fit(model.fit, ref[3])
        model = fit_loss_model(Vm, Rm, loss, VCRIT)
        ref = loss_fit_reference(Vm, Rm, loss, VCRIT)
        assert (model.p, model.terms) == ref[:2]
        assert_same_fit(model.fit, ref[2])


def exact_argmin(y, candidates, design):
    """Scan position of the first candidate with the least exact rms."""
    w = _relative_weights(y)
    rms = [linear_least_squares(design(c), y, weights=w).rms for c in candidates]
    return int(np.argmin(rms))


def _bank(Vm, Rm, powers):
    return Rm, g_of_vm(Vm, VCRIT), list(powers.values())


# A sweep-shaped grid of 140 storms, every Vm above Vcrit.
SCREEN_VM, SCREEN_RM = (
    a.ravel() for a in np.meshgrid(np.arange(22.0, 81.0, 3.0), np.arange(20.0, 51.0, 5.0))
)


class TestScreen:
    """`_screen` keeps a band of candidates that always holds the exact argmin."""

    @settings(max_examples=40, deadline=None)
    @given(
        p1=st.sampled_from([1.0, 1.07, 1.13, 1.3, 1.5]),
        p2=st.sampled_from([-0.5, -0.2, 0.0, 0.1, 0.37, 0.5]),
        mix=st.sampled_from([0.0, 0.5, 1e-6]),
        beta=st.lists(st.floats(-3e-3, 3e-3), min_size=4, max_size=4),
        noise=st.sampled_from([0.0, 1e-4, 0.05]),
        seed=st.integers(0, 3),
    )
    def test_band_holds_damage_argmin(self, p1, p2, mix, beta, noise, seed):
        # `mix` blends in the model at p1 + 0.01: at 0.5 the two neighbouring
        # exponents tie nearly, at 1e-6 they differ in the sixth digit.
        design = lambda c: _damage_design(SCREEN_VM, SCREEN_RM, *c, VCRIT)
        b = np.array([0.5] + beta)
        y = (1 - mix) * design((p1, p2)) @ b + mix * design((p1 + 0.01, p2)) @ b
        y = np.abs(y) * (1.0 + noise * np.random.default_rng(seed).normal(size=y.shape)) + 0.01
        p1s, p2s = (1.0, 1.07, 1.08, 1.13, 1.14, 1.3, 1.31, 1.5, 1.51), (-0.5, -0.2, 0.0, 0.1, 0.37, 0.5)
        candidates = [(a, c) for a in p1s for c in p2s]
        band = _screen(y, candidates, *_bank(SCREEN_VM, SCREEN_RM, _DAMAGE_POWERS))
        assert band is not None and len(band) >= 1
        assert exact_argmin(y, candidates, design) in band

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.sampled_from([1.2, 1.5, 1.61, 2.0]),
        mix=st.sampled_from([0.0, 0.5]),
        noise=st.sampled_from([0.0, 1e-3, 0.05]),
        seed=st.integers(0, 3),
        four_radii=st.booleans(),
    )
    def test_band_holds_loss_argmin(self, p, mix, noise, seed, four_radii):
        # On four distinct radii the polynomial terms 1, Rm, ..., Rm^4 are
        # linearly dependent: the screen must then fall back or still hold
        # the argmin of the exact (minimum-norm) fits.
        Vm, Rm = (SCAN_VM, SCAN_RM) if four_radii else (SCREEN_VM, SCREEN_RM)
        design = lambda c: _loss_design(Vm, Rm, *c, VCRIT)
        b = np.zeros(13)
        b[[0, 1, 3, 6]] = [0.2, 1.5e-2, 6.4e-6, 6.4e-5]
        y = (1 - mix) * design((p,)) @ b + mix * design((p + 0.01,)) @ b
        y = y * (1.0 + noise * np.random.default_rng(seed).normal(size=y.shape))
        candidates = [(q,) for q in np.round(np.arange(1.2, 2.0001, 0.01), 2).tolist()]
        with mock.patch.object(aggregate, "_SCREEN_COLUMNS", 100):  # several Gram matrices
            band = _screen(y, candidates, *_bank(Vm, Rm, _LOSS_POWERS))
        assert four_radii or band is not None
        assert band is None or exact_argmin(y, candidates, design) in band

    def test_exact_ties_between_distinct_exponents(self):
        # With g in {0, 1}, g^p is the same column for every p > 0: every
        # candidate ties exactly and the band must hold them all, the first
        # (the exact scan's pick) included.
        powers = {"const": (0, 0, 0), "Rm*g^p": (1, 1, 0)}
        Vm = np.where(SCREEN_VM < 50.0, VCRIT, 2.0 * VCRIT)
        y = 1.0 + 0.01 * SCREEN_RM * g_of_vm(Vm, VCRIT) + 0.01 * np.sin(SCREEN_VM)
        candidates = [(q,) for q in (0.3, 0.7, 1.0, 1.9)]
        band = _screen(y, candidates, *_bank(Vm, SCREEN_RM, powers))
        assert band.tolist() == [0, 1, 2, 3]
        design = partial(_power_design, Vm, SCREEN_RM, VCRIT, powers)
        screened = _scan_fit(y, candidates, design, tuple(powers), _bank(Vm, SCREEN_RM, powers))
        exact = _scan_fit(y, candidates, design, tuple(powers))
        assert screened[:2] == exact[:2] == ((0.3,), tuple(powers))
        assert_same_fit(screened[2], exact[2])

    def test_non_finite_bank_falls_back_to_the_full_scan(self):
        # g = 0 with a negative exponent makes a bank column infinite.
        Vm = np.where(SCREEN_VM < 30.0, VCRIT, SCREEN_VM)
        y = 1.0 + 0.01 * np.cos(SCREEN_VM)
        powers = {"const": (0, 0, 0), "Rm*g^p": (1, 1, 0)}
        candidates = [(0.5,), (-0.5,), (1.0,)]
        bank = _bank(Vm, SCREEN_RM, powers)
        # The bank's own 0^-0.5 is the only floating-point warning on the way.
        with warnings.catch_warnings(), np.errstate(divide="ignore"):
            warnings.simplefilter("error")
            assert _screen(y, candidates, *bank) is None
            assert _screen(y, candidates[::2], *bank) is not None

    def test_singular_candidate_falls_back(self):
        # Two terms on the same exponent slot: the candidate's design has two
        # equal columns at g in {0, 1}.
        powers = {"Rm*g^p": (1, 1, 0), "Rm*g^2p": (1, 2, 0)}
        Vm = np.where(SCREEN_VM < 50.0, VCRIT, 2.0 * VCRIT)
        y = 1.0 + 0.01 * np.sin(SCREEN_VM)
        assert _screen(y, [(0.5,), (1.0,)], *_bank(Vm, SCREEN_RM, powers)) is None


class TestFitCallCount:
    """The screened fits run the exact least squares on the band only."""

    @pytest.mark.parametrize("target", ["damage", "loss"])
    def test_exact_fits_at_most_band_plus_two(self, target):
        Vm_grid, Rm_grid = np.arange(21.0, 81.0, 6.0), np.arange(20.0, 51.0, 5.0)
        Vm, Rm, damage, loss = damage_loss_sweep(Vm_grid, Rm_grid, config=SMALL)
        calls, bands = [], []

        def counted(*args, **kwargs):
            calls.append(1)
            return linear_least_squares(*args, **kwargs)

        def screen(*args):
            bands.append(_screen(*args))
            return bands[-1]

        with mock.patch.object(aggregate, "linear_least_squares", counted), \
                mock.patch.object(aggregate, "_screen", screen):
            if target == "damage":
                fit_damage_model(Vm, Rm, damage, VCRIT)
            else:
                fit_loss_model(Vm, Rm, loss, VCRIT)
        assert len(bands) == 1 and bands[0] is not None
        assert 1 <= len(calls) <= len(bands[0]) + 2 < 10
