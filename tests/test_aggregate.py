import math
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
    TimeAxis,
    Track,
    damage_loss_sweep,
    expected_failures_saturated,
    failure_rate,
    fit_damage_model,
    fit_loss_model,
    g_of_vm,
    holland_speed,
    poisson_intensity,
    save_agg_sweep,
    wind_field,
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
T = aggregate._N_STEPS * aggregate._DT  # the reference region's exposure time, h


def region():
    """The reference region's cell-centre axes, the storm centre's y at each
    step (on x = 0), and the step: as the sweep documents them, rebuilt here."""
    nx, ny, cell = aggregate._NX, aggregate._NY, aggregate._CELL
    xs = (np.arange(nx) - (nx - 1) / 2.0) * cell
    ys = (np.arange(ny) - (ny - 1) / 2.0) * cell
    n_steps, step = aggregate._N_STEPS, aggregate._VTR * 3.6 * aggregate._DT
    cy = -step * n_steps / 2.0 + (np.arange(n_steps) + 0.5) * step
    return xs, ys, cy, aggregate._DT


def excess_integral(Vm, Rm, nhpp: NhppParams, B=1.0) -> np.ndarray:
    """Per-cell E = sum_t (f^2 - 1)_+ dt on the reference region, f = v / Vcrit.

    The quantity the paper's nominal/excess decompositions are built from;
    recomputed here independently of `damage_loss_sweep`.
    """
    xs, ys, cy, dt = region()
    p = HollandParams(Vm=Vm, Rm=Rm, B=B)
    E = np.zeros((len(xs), len(ys)))
    for y in cy:
        f = holland_speed(p, np.hypot(xs[:, None], ys[None, :] - y)) / nhpp.Vcrit
        E += np.maximum(f * f - 1.0, 0.0)
    return E * dt


def _one_storm(Vm, Rm, nhpp=P, repair=None, B=1.0) -> tuple[float, float]:
    _, _, d, lo = damage_loss_sweep([Vm], [Rm], nhpp=nhpp, repair=repair, B=B)
    return float(d[0]), float(lo[0])


storms = st.tuples(
    st.floats(5.0, 90.0),  # Vm, below and above Vcrit
    st.floats(5.0, 80.0),  # Rm
    st.floats(1.0, 1e4),  # alpha
    st.floats(1e-6, 1e-3),  # lambda_norm
    st.sampled_from([1.0, 1.5]),  # B
)


class TestTotalDamage:
    def test_all_subcritical_is_nominal(self):
        nominal = T * P.lambda_norm
        for Vm in (10.0, 15.0, 20.0):
            assert _one_storm(Vm, 30.0)[0] == pytest.approx(nominal, rel=1e-12)

    @given(storms)
    def test_decomposition_matches_direct_sum(self, storm):
        # mean damage = lambda T + lambda alpha mean_g sum_t (f^2 - 1)_+ dt
        Vm, Rm, alpha, lam, B = storm
        nhpp = NhppParams(alpha=alpha, lambda_norm=lam)
        E = excess_integral(Vm, Rm, nhpp, B)
        expected = lam * T + lam * alpha * E.mean()
        assert _one_storm(Vm, Rm, nhpp, B=B)[0] == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_subcritical_decomposition_has_no_excess(self):
        excess = P.lambda_norm * P.alpha * excess_integral(20.0, 30.0, P).mean()
        assert excess == 0.0
        assert _one_storm(20.0, 30.0)[0] == pytest.approx(T * P.lambda_norm, rel=1e-12)

    def test_excess_integral_zero_below_vcrit(self):
        assert np.all(excess_integral(20.0, 30.0, P) == 0.0)
        assert np.any(excess_integral(37.0, 30.0, P) > 0.0)


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
        expected = rp.half_ratio * (T * P.lambda_norm) ** 2
        for Vm in (10.0, 15.0, 20.0):
            assert _one_storm(Vm, 30.0, repair=rp)[1] == pytest.approx(expected, rel=1e-12)

    def test_single_cell_plug_in(self):
        # A subcritical storm at lambda_norm = 2 / T: every cell accumulates
        # a rate of exactly 2 -> loss 0.5 * 2^2 = 2 per cell.
        damage, loss = _one_storm(10.0, 30.0, nhpp=NhppParams(lambda_norm=2.0 / T))
        assert damage == pytest.approx(2.0, rel=1e-12)
        assert loss == pytest.approx(2.0, rel=1e-12)

    def test_loss_at_least_nominal(self):
        nominal = 0.5 * (T * P.lambda_norm) ** 2
        for Vm in (25.0, 46.0, 80.0):
            assert _one_storm(Vm, 30.0)[1] >= nominal

    @given(storms, st.floats(0.0, 10.0), st.floats(0.1, 10.0))
    def test_decomposition_matches_direct(self, storm, Lf, Y):
        # mean loss = h [(lambda T)^2 + 2 lambda (lambda alpha) T mean(E)
        #                + (lambda alpha)^2 mean(E^2)],  h = Lf / (2 Y)
        Vm, Rm, alpha, lam, B = storm
        nhpp = NhppParams(alpha=alpha, lambda_norm=lam)
        rp = RepairParams(Lf=Lf, Y=Y)
        E = excess_integral(Vm, Rm, nhpp, B)
        la = lam * alpha
        expected = rp.half_ratio * (
            (lam * T) ** 2 + 2.0 * lam * la * T * E.mean() + la * la * np.mean(E * E)
        )
        assert _one_storm(Vm, Rm, nhpp, rp, B)[1] == pytest.approx(expected, rel=1e-9, abs=0.0)


def _storm_rates(Vm, cell=10.0) -> np.ndarray:
    """Per-cell accumulated failure rates of one storm crossing a 400 x 500 km grid."""
    track = Track(x0=(0.0, -100.0), Vtr=(0.0, 3.0))
    grid = Grid(origin=(-200.0, -250.0), nx=int(400 / cell), ny=int(500 / cell), cell_size=cell)
    times = TimeAxis(n_steps=21, dt=1.0)
    field = wind_field(track, HollandParams(Vm=Vm, Rm=30), grid, times)
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


def sweep_reference(Vm_values, Rm_values, nhpp, repair, B=1.0):
    """Reference `damage_loss_sweep`: its loop before the shared geometry
    kernel and the mirror fold, with the distances taken from the centred
    grid axes directly."""
    xs, ys, cy, dt = region()
    X = xs[:, None]
    out = []
    for Vm in Vm_values:
        for Rm in Rm_values:
            p = HollandParams(Vm=float(Vm), Rm=float(Rm), B=B)
            lam = np.zeros((len(xs), len(ys)))
            for y in cy:
                r = np.hypot(X, ys[None, :] - y)
                lam += poisson_intensity(nhpp, holland_speed(p, r))
            lam *= dt
            out.append((float(Vm), float(Rm), float(lam.mean()),
                        float(repair.half_ratio * np.mean(lam * lam))))
    return tuple(np.array(col) for col in zip(*out))


# Values HollandParams refuses.
BAD_PARAMS = [0.0, -1.0, np.nan, np.inf]

class TestSweep:
    @settings(max_examples=60)
    @given(
        Vm=st.lists(st.floats(5.0, 90.0), min_size=1, max_size=3),
        Rm=st.lists(st.floats(5.0, 80.0), min_size=1, max_size=3),
        B=st.sampled_from([0.6, 1.0, 1.5, 2.5]),
        alpha=st.floats(1.0, 1e4),
        Lf=st.floats(0.0, 5.0),
        chunk=st.sampled_from([1, 2, 3, aggregate._SWEEP_CHUNK, 64]),
    )
    # Three Vm values in one chunk of four: a partial chunk.
    @example(Vm=[30.0, 50.0, 70.0], Rm=[20.0, 40.0], B=1.0, alpha=P.alpha, Lf=1.0, chunk=4)
    # The default chunk, one full and one partial; and one chunk longer than the Vm axis.
    @example(Vm=[22.0, 30.0, 41.0, 55.0, 70.0], Rm=[20.0, 40.0], B=1.0, alpha=P.alpha, Lf=1.0,
             chunk=aggregate._SWEEP_CHUNK)
    @example(Vm=[30.0, 50.0], Rm=[25.0], B=1.5, alpha=P.alpha, Lf=1.0, chunk=64)
    # Repeated Vm and Rm values, and Vm at and below Vcrit (all-nominal storms).
    @example(Vm=[30.0, 15.0, 30.0, VCRIT], Rm=[40.0, 20.0, 40.0], B=1.0, alpha=P.alpha, Lf=1.0, chunk=3)
    @example(Vm=[10.0, VCRIT, 10.0], Rm=[30.0, 30.0], B=2.5, alpha=P.alpha, Lf=1.0, chunk=2)
    def test_bit_identical_to_reference_loop(self, Vm, Rm, B, alpha, Lf, chunk):
        nhpp = NhppParams(alpha=alpha)
        repair = RepairParams(Lf=Lf, Y=2.0)
        # Up to 9 storms in chunks of 1-64 Vm values: full, partial, single and oversized chunks.
        with mock.patch.object(aggregate, "_SWEEP_CHUNK", chunk):
            got = damage_loss_sweep(Vm, Rm, nhpp=nhpp, repair=repair, B=B)
        ref = sweep_reference(Vm, Rm, nhpp, repair, B)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_bit_identical_across_default_chunks(self):
        # Two full chunks of Vm values and a partial one at the default size.
        Vm, Rm = np.linspace(15.0, 80.0, 2 * aggregate._SWEEP_CHUNK + 1), [20.0, 30.0, 40.0, 50.0]
        got = damage_loss_sweep(Vm, Rm)
        ref = sweep_reference(Vm, Rm, P, RepairParams())
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("Vm, Rm", [([], [20.0]), ([25.0], []), ([], [])])
    def test_empty_sweep(self, Vm, Rm):
        out = damage_loss_sweep(Vm, Rm)
        assert len(out) == 4
        for a in out:
            assert a.shape == (0,) and a.dtype == np.float64

    @pytest.mark.parametrize("Vm, Rm", [(np.nan, 20.0), (25.0, np.inf), (25.0, np.nan)])
    def test_non_finite_storm_rejected(self, Vm, Rm):
        with pytest.raises(ValueError, match=r"must be finite and in \[1, "):
            damage_loss_sweep([40.0, Vm], [30.0, Rm])

    def test_profile_evaluated_once_per_radius(self):
        Vm, Rm = [25.0, 37.0, 46.0, 37.0], [20.0, 30.0, 20.0]
        with mock.patch.object(aggregate, "_kernel", wraps=aggregate._kernel) as steps:
            damage_loss_sweep(Vm, Rm, B=1.5)
        assert [c.args[:2] for c in steps.call_args_list] == [(r, 1.5) for r in Rm]

    @settings(max_examples=60)
    @given(
        Vm=st.lists(st.one_of(st.floats(5.0, 90.0), st.sampled_from(BAD_PARAMS)), max_size=4),
        Rm=st.lists(st.one_of(st.floats(5.0, 80.0), st.sampled_from(BAD_PARAMS)), max_size=4),
        B=st.one_of(st.just(1.0), st.sampled_from(BAD_PARAMS)),
    )
    @example(Vm=[40.0, np.nan], Rm=[30.0, np.inf], B=1.0)  # Rm fails first, in row 0
    @example(Vm=[np.nan, 40.0], Rm=[30.0, np.inf], B=1.0)  # Vm fails first, at (0, 0)
    @example(Vm=[], Rm=[np.nan], B=np.nan)  # no storm, nothing to check
    @example(Vm=[40.0, math.nextafter(150.0, math.inf)], Rm=[30.0], B=1.0)  # Vm just past its bound
    def test_first_invalid_storm_in_sweep_order_raises(self, Vm, Rm, B):
        try:
            for v in Vm:
                for r in Rm:
                    HollandParams(Vm=v, Rm=r, B=B)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                damage_loss_sweep(Vm, Rm, B=B)
            assert str(raised.value) == str(exc)
        else:
            damage_loss_sweep(Vm, Rm, B=B)

    def test_peak_memory_grows_only_by_the_outputs(self):
        # Vm, Rm, damage and loss: 32 bytes per storm, plus 4 kB that the
        # peak moves by between sweeps of equal work.  Whole chunks on both
        # sides, so the chunk buffers are the same.
        Rm, peaks = np.arange(20.0, 45.0), []
        for n in (aggregate._SWEEP_CHUNK, 16 * aggregate._SWEEP_CHUNK):
            Vm = np.linspace(21.0, 80.0, n)
            tracemalloc.start()
            try:
                damage_loss_sweep(Vm, Rm)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 32 * 15 * aggregate._SWEEP_CHUNK * len(Rm) + 4096

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
        Vm, Rm, d, lo = damage_loss_sweep([25, 37], [20, 40])
        assert len(Vm) == 4
        nominal = T * NhppParams().lambda_norm
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fit", [fit_damage_model, fit_loss_model], ids=lambda f: f.__name__)
    def test_vcrit_outside_its_range_refused_before_scanning(self, fit):
        # g is about 1e41 at Vcrit 1e-40, so the Rm^4 g^4p terms would pass every float at p = 2.
        Vm, Rm = np.meshgrid(np.arange(22, 81, 3), np.arange(20, 51, 5))
        Vm, Rm = Vm.ravel().astype(float), Rm.ravel().astype(float)
        with mock.patch.object(aggregate, "_scan_fit", side_effect=AssertionError("scanned")):
            with pytest.raises(ValueError, match=r"^Vcrit must be finite and in \[1, 150\], got 1e-40$"):
                fit(Vm, Rm, np.ones_like(Vm), 1e-40)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fit", [fit_damage_model, fit_loss_model], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "scale, message",
        [((1e80, 1.0), r"^Vm must be finite and in \[1, 150\], got 2.2e\+81$"),
         ((1.0, 1e80), r"^Rm must be finite and in \[1, 500\], got 2e\+81$")],
        ids=["Vm", "Rm"],
    )
    def test_storm_outside_the_holland_ranges_refused_before_scanning(self, fit, scale, message):
        # Vm * 1e80 overflowed the power design under -W error before the storms had a range.
        Vm, Rm = np.meshgrid(np.arange(22, 81, 3), np.arange(20, 51, 5))
        Vm, Rm = Vm.ravel() * scale[0], Rm.ravel() * scale[1]
        with mock.patch.object(aggregate, "_scan_fit", side_effect=AssertionError("scanned")):
            with pytest.raises(ValueError, match=message):
                fit(Vm, Rm, np.ones_like(Vm), VCRIT)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "y, refused",
        [(0.0, True), (1e-200, True), (np.nextafter(1e-120, 0.0), True), (1e-120, False)],
        ids=["zero", "tiny", "below-the-least", "the-least"],
    )
    def test_responses_near_zero_refused_before_scanning(self, y, refused):
        # Weights 1 / y^2 of inf, or past the 1e240 that keeps the normal equations finite, are refused.
        Vm, Rm = np.meshgrid(np.arange(22, 81, 3), np.arange(20, 51, 5))
        Vm, Rm = Vm.ravel().astype(float), Rm.ravel().astype(float)
        loss = np.full_like(Vm, 1.0)
        loss[3] = y
        with mock.patch.object(aggregate, "_scan_fit", side_effect=AssertionError("scanned")):
            message = r"a response is too close to 0 for the fit's relative weights" if refused else "scanned"
            with pytest.raises(ValueError if refused else AssertionError, match=message):
                fit_loss_model(Vm, Rm, loss, VCRIT)


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
    @settings(max_examples=80)
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

    @settings(max_examples=40)
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
        Vm, Rm, damage, loss = damage_loss_sweep(np.arange(21.0, 81.0, 4.0), [20.0, 30.0, 40.0, 50.0])
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

    @settings(max_examples=40)
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

    @settings(max_examples=30)
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
        Vm, Rm, damage, loss = damage_loss_sweep(Vm_grid, Rm_grid)
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
