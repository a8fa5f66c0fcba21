import numpy as np
import pytest
from hypothesis import given, strategies as st

from stormrisk import (
    AssetInventory,
    Grid,
    HollandParams,
    NhppParams,
    RepairParams,
    SweepConfig,
    TimeAxis,
    Track,
    WindField,
    axisymmetric_field,
    damage_loss_sweep,
    excess_integral,
    expected_failures_saturated,
    fit_damage_model,
    fit_loss_model,
    g_of_vm,
    repair_loss_per_cell,
    save_agg_sweep,
    total_damage,
    total_damage_decomposed,
    total_damage_saturated,
    total_loss,
    total_loss_decomposed,
)
from stormrisk.aggregate import _damage_design, _loss_design

P = NhppParams()
VCRIT = P.Vcrit


def _subcritical_field(n_cells=1000, n_steps=121):
    grid = Grid(nx=n_cells, ny=1, cell_size=1.0)
    times = TimeAxis(n_steps=n_steps, dt=1.0)
    v = np.full((n_cells, n_steps), 10.0)
    return WindField(grid=grid, times=times, velocities=v)


def _storm_field(Vm=37, Rm=30, cell=10.0):
    p = HollandParams(Vm=Vm, Rm=Rm)
    track = Track(x0=(0.0, -100.0), Vtr=(0.0, 3.0), duration=20.0)
    grid = Grid(origin=(-200.0, -250.0), nx=int(400 / cell), ny=int(500 / cell), cell_size=cell)
    times = TimeAxis(n_steps=21, dt=1.0)
    return axisymmetric_field(track, p, grid, times), p


class TestTotalDamage:
    def test_all_subcritical_is_nominal(self):
        field = _subcritical_field()
        assert total_damage(field, P) == pytest.approx(1000 * 121 * P.lambda_norm, rel=1e-12)

    def test_additive_over_partition(self):
        field, _ = _storm_field()
        whole = total_damage(field, P)
        half = field.grid.n_cells // 2
        grid_a = Grid(nx=half, ny=1, cell_size=field.grid.cell_size)
        grid_b = Grid(nx=field.grid.n_cells - half, ny=1, cell_size=field.grid.cell_size)
        a = WindField(grid=grid_a, times=field.times, velocities=field.velocities[:half])
        b = WindField(grid=grid_b, times=field.times, velocities=field.velocities[half:])
        assert whole == pytest.approx(total_damage(a, P) + total_damage(b, P), rel=1e-12)

    def test_line_length_scaling(self):
        field = _subcritical_field(10, 5)
        assert total_damage(field, P, cell_line_km=3.0) == pytest.approx(
            3.0 * total_damage(field, P), rel=1e-14
        )

    def test_decomposition_matches_direct_sum(self):
        field, _ = _storm_field()
        parts = total_damage_decomposed(field, P)
        assert parts["total"] == pytest.approx(parts["nominal"] + parts["excess"], rel=1e-14)
        assert parts["total"] == pytest.approx(total_damage(field, P), rel=1e-9)
        assert parts["excess"] > 0

    def test_subcritical_decomposition_has_no_excess(self):
        parts = total_damage_decomposed(_subcritical_field(100, 10), P)
        assert parts["excess"] == 0.0
        assert parts["total"] == parts["nominal"]

    def test_excess_integral_zero_below_vcrit(self):
        assert np.all(excess_integral(_subcritical_field(5, 3), P) == 0.0)


class TestRepairLoss:
    def test_zero_failures(self):
        assert repair_loss_per_cell(0.0, RepairParams())[()] == 0.0

    def test_ten_failures_unit_params(self):
        assert repair_loss_per_cell(10.0, RepairParams(Lf=1, Y=1))[()] == 50.0

    def test_doubling_quadruples(self):
        rp = RepairParams(Lf=2.0, Y=4.0)
        assert repair_loss_per_cell(6.0, rp)[()] == pytest.approx(
            4 * repair_loss_per_cell(3.0, rp)[()], rel=1e-14
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            RepairParams(Lf=-1.0)
        with pytest.raises(ValueError):
            RepairParams(Y=0.0)


class TestTotalLoss:
    def test_all_subcritical_nominal(self):
        field = _subcritical_field()
        lam_t = 121 * P.lambda_norm
        expected = 0.5 * 1000 * lam_t * lam_t
        assert total_loss(field, P, RepairParams()) == pytest.approx(expected, rel=1e-12)

    def test_single_cell_plug_in(self):
        # One cell with accumulated rate exactly 2 -> loss 0.5 * 4 = 2.
        grid = Grid(nx=1, ny=1)
        times = TimeAxis(n_steps=1, dt=1.0)
        v = VCRIT * np.sqrt((2.0 / P.lambda_norm - 1.0) / P.alpha + 1.0)
        field = WindField(grid=grid, times=times, velocities=np.array([[v]]))
        assert total_loss(field, P, RepairParams()) == pytest.approx(2.0, rel=1e-9)

    def test_loss_at_least_nominal(self):
        field, _ = _storm_field()
        nominal = 0.5 * field.grid.n_cells * (field.times.duration * P.lambda_norm) ** 2
        assert total_loss(field, P, RepairParams()) >= nominal

    def test_decomposition_matches_direct(self):
        field, _ = _storm_field()
        rp = RepairParams(Lf=3.0, Y=2.0)
        parts = total_loss_decomposed(field, P, rp)
        assert parts["total"] == pytest.approx(
            parts["nominal"] + parts["cross"] + parts["excess"], rel=1e-14
        )
        assert parts["total"] == pytest.approx(total_loss(field, P, rp), rel=1e-9)

    def test_poisson_exact_adds_first_moment(self):
        field, _ = _storm_field()
        rp = RepairParams()
        plug = total_loss(field, P, rp)
        exact = total_loss(field, P, rp, poisson_exact=True)
        lam_sum = total_damage(field, P)
        assert exact == pytest.approx(plug + rp.half_ratio * lam_sum, rel=1e-9)


def total_damage_saturated_per_cell(rates, inventory) -> float:
    """Reference: each cell's saturated mean, summed one cell at a time."""
    return float(
        sum(
            expected_failures_saturated(float(l * r), int(n))
            for l, r, n in zip(inventory.line_km, rates, inventory.asset_counts())
        )
    )


class TestSaturated:
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 1e3)), min_size=1, max_size=50
        )
    )
    def test_matches_per_cell_sum(self, cells):
        line, rates = (np.array(c) for c in zip(*cells))
        inv = AssetInventory(line_km=line)
        # Only the order of the (nonnegative) summands differs.
        assert total_damage_saturated(rates, inv) == pytest.approx(
            total_damage_saturated_per_cell(rates, inv), rel=1e-13, abs=0.0
        )

    def test_zero_inventory(self):
        inv = AssetInventory(line_km=np.zeros(4))
        assert total_damage_saturated(np.full(4, 100.0), inv) == 0.0

    def test_asymptote_is_total_asset_count(self):
        inv = AssetInventory(line_km=np.array([0.65, 0.65]))
        total = total_damage_saturated(np.full(2, 1e4), inv)
        assert total == pytest.approx(inv.asset_counts().sum(), abs=1e-6)

    def test_monotone_in_vm(self):
        from stormrisk import failure_rate

        inv = AssetInventory(line_km=np.full(40 * 50, 0.65))
        totals = []
        for Vm in (25, 37, 46, 60):
            field, _ = _storm_field(Vm=Vm)
            rates = failure_rate(P, field.velocities, field.times.dt)
            totals.append(total_damage_saturated(rates, inv))
        assert all(a <= b + 1e-12 for a, b in zip(totals, totals[1:]))
        assert totals[-1] < inv.asset_counts().sum()

    def test_shape_mismatch(self):
        inv = AssetInventory(line_km=np.zeros(3))
        with pytest.raises(ValueError):
            total_damage_saturated(np.zeros(4), inv)


class TestG:
    def test_clamped_and_linear(self):
        assert g_of_vm(VCRIT, VCRIT)[()] == 0.0
        assert g_of_vm(2 * VCRIT, VCRIT)[()] == pytest.approx(1.0, rel=1e-14)
        assert g_of_vm(10.0, VCRIT)[()] == 0.0


class TestSweep:
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
