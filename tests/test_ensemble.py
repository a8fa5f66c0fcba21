import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stormrisk import (
    Ensemble,
    EnsemblePerturbationSpec,
    Grid,
    SyntheticEnsemble,
    HollandParams,
    TimeAxis,
    Track,
    WindField,
    generate_synthetic_ensemble,
    load_ensemble,
    member_parameters,
    save_ensemble,
    wind_field,
)
from stormrisk import NhppParams, ensemble, failure_rate, fd_a, fd_b, fr1, fr2, member_rates, poisson_intensity
from stormrisk.cli import CONFIG_SCHEMA
from stormrisk.csvio import ConfigError
from stormrisk.ensemble import SIDECAR_SCHEMA, _mean
from stormrisk.nhpp import _cumulative_exposure

GRID = Grid(origin=(-30.0, -30.0), nx=5, ny=4, cell_size=12.0)
TIMES = TimeAxis(n_steps=6, dt=1.0)
TRACK = Track(x0=(0.0, -20.0), Vtr=(0.0, 3.0))
PARAMS = HollandParams(Vm=37, Rm=30)


def _spec(**kw) -> EnsemblePerturbationSpec:
    base = dict(base_track=TRACK, base_params=PARAMS, seed=42, H=5)
    base.update(kw)
    return EnsemblePerturbationSpec(**base)


class TestSpecValidation:
    @pytest.mark.parametrize("bad", [{"sigma_track": -1.0}, {"sigma_Vm": -0.1}, {"H": 0}])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            _spec(**bad)

    @pytest.mark.parametrize("hemisphere", ["X", "n", ""])
    def test_unknown_hemisphere_refused_when_made(self, hemisphere):
        with pytest.raises(ValueError, match="hemisphere must be 'N' or 'S'"):
            _spec(hemisphere=hemisphere)

    @pytest.mark.parametrize("seed", [-1, np.nan, np.inf, 10**400], ids=["-1", "nan", "inf", "10**400"])
    def test_bad_seed_refused_when_made(self, seed):
        with pytest.raises(ValueError, match="seed must be finite and >= 0"):
            _spec(seed=seed)

    @pytest.mark.parametrize("vtr", [(50.0, 50.0), (-50.0, 50.0), (50.0, -50.0), (-50.0, -50.0)])
    def test_members_of_the_widest_config_are_valid_tracks(self, vtr):
        # Config positions at their ends, the largest sigmas: every member's
        # track passes `Track`'s checks (its genesis within 1e7 km, its
        # velocity entries within 75 m/s).
        base = Track(x0=(2e4, -2e4), Vtr=vtr)
        spec = _spec(base_track=base, sigma_track=2e4, sigma_heading=360.0, H=400)
        for cs in np.random.SeedSequence(spec.seed).spawn(spec.H):
            track, _ = member_parameters(spec, cs)
            assert np.hypot(*track.Vtr) <= 50.0 * np.sqrt(2.0) + 1e-12
            assert max(map(abs, track.x0)) < 3e5


class TestGeneration:
    def test_zero_sigmas_gives_identical_members(self):
        ens = generate_synthetic_ensemble(_spec(H=5), GRID, TIMES)
        base = wind_field(TRACK, PARAMS, GRID, TIMES)
        assert ens.H == 5
        for m in ens.members:
            assert np.array_equal(m.velocities, base.velocities)

    def test_same_seed_reproduces_bit_identical(self):
        spec = _spec(sigma_track=5.0, sigma_heading=10.0, sigma_Vm=3.0, sigma_Rm=2.0)
        a = generate_synthetic_ensemble(spec, GRID, TIMES)
        b = generate_synthetic_ensemble(spec, GRID, TIMES)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.velocities, mb.velocities)

    def test_different_seed_differs(self):
        a = generate_synthetic_ensemble(_spec(sigma_Vm=3.0, seed=1), GRID, TIMES)
        b = generate_synthetic_ensemble(_spec(sigma_Vm=3.0, seed=2), GRID, TIMES)
        assert not np.array_equal(a.velocities(), b.velocities())

    def test_thread_count_does_not_change_results(self):
        spec = _spec(sigma_track=5.0, sigma_Vm=3.0, H=8)
        serial = generate_synthetic_ensemble(spec, GRID, TIMES, threads=1)
        parallel = generate_synthetic_ensemble(spec, GRID, TIMES, threads=4)
        assert np.array_equal(serial.velocities(), parallel.velocities())

    def test_sigma_vm_recovered_from_large_sample(self):
        # Std of the sample std for n = 1000 draws of N(0, 5) is about 0.11;
        # the tolerance 0.35 is ~3 sigma.
        spec = _spec(sigma_Vm=5.0, base_params=HollandParams(Vm=50, Rm=30), H=1000)
        children = np.random.SeedSequence(spec.seed).spawn(spec.H)
        vms = [member_parameters(spec, cs)[1].Vm for cs in children]
        assert np.std(vms, ddof=1) == pytest.approx(5.0, abs=0.35)
        assert np.mean(vms) == pytest.approx(50.0, abs=0.5)

    def test_vm_rm_clipped_into_their_ranges(self):
        # At the largest sigmas many draws fall outside [1, 150] m/s and [1,
        # 500] km: each is taken to the nearer end, and every other draw is
        # kept bit for bit.
        spec = _spec(sigma_Vm=150.0, sigma_Rm=500.0, H=200)
        children = np.random.SeedSequence(spec.seed).spawn(spec.H)
        ends = set()
        for cs in children:
            rng = np.random.Generator(np.random.PCG64(cs))
            drawn = (PARAMS.Vm + rng.normal(0.0, 150.0), PARAMS.Rm + rng.normal(0.0, 500.0))
            _, p = member_parameters(spec, cs)
            for got, x, hi in zip((p.Vm, p.Rm), drawn, (150.0, 500.0)):
                assert got == min(hi, max(1.0, x))
                ends |= {got} & {1.0, hi}
        assert ends == {1.0, 150.0, 500.0}

    def test_heading_rotates_translation(self):
        spec = _spec(sigma_heading=30.0, H=50)
        children = np.random.SeedSequence(spec.seed).spawn(spec.H)
        speeds = []
        for cs in children:
            track, _ = member_parameters(spec, cs)
            speeds.append(np.hypot(*track.Vtr))
            assert track.Vtr != TRACK.Vtr  # direction changed
        # Rotation preserves translation speed.
        assert np.allclose(speeds, 3.0, atol=1e-12)

    @pytest.mark.parametrize("hemisphere", ["N", "S"])
    def test_asymmetric_members_follow_the_hemisphere(self, hemisphere):
        spec = _spec(
            sigma_track=5.0, sigma_heading=10.0, sigma_Vm=3.0, H=3, asymmetric=True, hemisphere=hemisphere
        )
        ens = generate_synthetic_ensemble(spec, GRID, TIMES)
        children = np.random.SeedSequence(spec.seed).spawn(spec.H)
        for member, child in zip(ens.members, children):
            track, params = member_parameters(spec, child)
            field = wind_field(track, params, GRID, TIMES, asymmetric=True, hemisphere=hemisphere)
            assert np.array_equal(member.velocities, field.velocities)


class TestCellIds:
    """A cell id off the grid is refused by both member sources, where numpy
    would wrap -1 to the last cell or raise a bare IndexError."""

    @pytest.mark.parametrize("source", ["stored", "generated"])
    @pytest.mark.parametrize(
        "statistic, cell, bad",
        [(f, c, c) for f in (member_rates, fd_a, fd_b) for c in (-1, GRID.n_cells)]
        + [(member_rates, [0, -1, 99], -1), (member_rates, [GRID.n_cells, 0], GRID.n_cells)],
        ids=lambda x: getattr(x, "__name__", str(x)),
    )
    def test_outside_the_grid_refused(self, source, statistic, cell, bad):
        spec = _spec(sigma_Vm=3.0)
        e = SyntheticEnsemble(spec, GRID, TIMES)
        e = generate_synthetic_ensemble(spec, GRID, TIMES) if source == "stored" else e
        with pytest.raises(ValueError, match=rf"^cell {bad} outside \[0, {GRID.n_cells}\)$"):
            statistic(NhppParams(), e, cell)

    def test_last_cell_still_read(self):
        e = generate_synthetic_ensemble(_spec(sigma_Vm=3.0), GRID, TIMES)
        last = GRID.n_cells - 1
        assert np.array_equal(member_rates(NhppParams(), e, last), member_rates(NhppParams(), e, [last])[:, 0])


class TestEnsembleType:
    def test_requires_members(self):
        with pytest.raises(ValueError, match="at least one"):
            Ensemble(members=())

    def test_requires_identical_dimensions(self):
        a = wind_field(TRACK, PARAMS, GRID, TIMES)
        other = wind_field(TRACK, PARAMS, GRID, TimeAxis(n_steps=3))
        with pytest.raises(ValueError, match="member 1"):
            Ensemble(members=(a, other))


class TestMeanVelocity:
    def test_identical_members(self):
        ens = generate_synthetic_ensemble(_spec(H=3), GRID, TIMES)
        mean = _mean(m.velocities for m in ens.members)
        assert np.allclose(mean, ens.members[0].velocities, rtol=1e-15, atol=0)

    def test_two_member_mean(self):
        v1 = np.full((GRID.n_cells, TIMES.n_steps), 10.0)
        v2 = np.full((GRID.n_cells, TIMES.n_steps), 30.0)
        ens = Ensemble(
            members=(
                WindField(grid=GRID, times=TIMES, velocities=v1),
                WindField(grid=GRID, times=TIMES, velocities=v2),
            )
        )
        assert np.all(_mean(m.velocities for m in ens.members) == 20.0)

    def test_mean_within_member_envelope(self):
        spec = _spec(sigma_track=8.0, sigma_Vm=5.0, H=7)
        ens = generate_synthetic_ensemble(spec, GRID, TIMES)
        v = ens.velocities()
        m = _mean(member.velocities for member in ens.members)
        assert np.all(m >= v.min(axis=0) - 1e-12)
        assert np.all(m <= v.max(axis=0) + 1e-12)


class TestEnsembleIO:
    def test_round_trip_bit_equal(self, tmp_path):
        spec = _spec(sigma_track=5.0, sigma_Vm=3.0, H=3)
        ens = generate_synthetic_ensemble(spec, GRID, TIMES)
        path = tmp_path / "ens.csv"
        save_ensemble(ens, path)
        loaded = load_ensemble(path)
        assert loaded.H == 3
        assert loaded.grid == GRID
        assert np.array_equal(loaded.velocities(), ens.velocities())

    def test_missing_row_named(self, tmp_path):
        ens = generate_synthetic_ensemble(_spec(H=2), GRID, TIMES)
        path = tmp_path / "ens.csv"
        save_ensemble(ens, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop last data row
        with pytest.raises(ValueError, match="missing velocity for member 1"):
            load_ensemble(path)

    def test_empty_file_reports_no_members(self, tmp_path):
        path = tmp_path / "ens.csv"
        path.write_text("member,cell_id,time_index,velocity_mps\n")
        (tmp_path / "ens.csv.json").write_text(
            '{"H": 1, "nx": 1, "ny": 1, "cell_size_km": 1.0, "n_steps": 1, "dt_h": 1.0}\n'
        )
        with pytest.raises(ValueError, match="no members"):
            load_ensemble(path)

    @pytest.mark.parametrize("key", ["H", "nx", "ny", "n_steps", "cell_size_km", "dt_h"])
    def test_sidecar_missing_key_named(self, tmp_path, key):
        path = self._with_sidecar(tmp_path, lambda meta: meta.pop(key))
        with pytest.raises(ValueError, match=rf"ens\.csv\.json: missing key '{key}'"):
            load_ensemble(path)

    @pytest.mark.parametrize(
        "key, value", [("nx", 2.7), ("ny", "4"), ("H", True), ("n_steps", 6.0), ("H", None)]
    )
    def test_sidecar_non_integer_dimension_named(self, tmp_path, key, value):
        path = self._with_sidecar(tmp_path, lambda meta: meta.update({key: value}))
        with pytest.raises(ValueError, match=rf"ens\.csv\.json: {key}: expected an integer, got "):
            load_ensemble(path)

    @pytest.mark.parametrize(
        "key, value",
        [("cell_size_km", "12"), ("dt_h", None), ("dt_h", [1.0]), ("cell_size_km", float("nan")),
         ("dt_h", float("inf"))],
    )
    def test_sidecar_non_numeric_spacing_named(self, tmp_path, key, value):
        path = self._with_sidecar(tmp_path, lambda meta: meta.update({key: value}))
        with pytest.raises(ValueError, match=rf"ens\.csv\.json: {key}: expected a (finite )?number, got "):
            load_ensemble(path)

    @pytest.mark.parametrize("origin", [[1.0], "ab", [0.0, None], [0.0, float("nan")], None])
    def test_sidecar_bad_origin_named(self, tmp_path, origin):
        path = self._with_sidecar(tmp_path, lambda meta: meta.update(origin_km=origin))
        origin_error = r"expected \[x, y\], got |value .* out of range \(\[x, y\]\)|entries must be finite numbers"
        with pytest.raises(ValueError, match=rf"ens\.csv\.json: origin_km: ({origin_error})"):
            load_ensemble(path)

    @pytest.mark.parametrize("text, error", [("{nope", "invalid JSON"), ("[1, 2]", "expected a JSON object")])
    def test_sidecar_not_a_json_object_named(self, tmp_path, text, error):
        path = self._with_sidecar(tmp_path, lambda meta: None)
        (tmp_path / "ens.csv.json").write_text(text)
        with pytest.raises(ValueError, match=rf"ens\.csv\.json: {error}"):
            load_ensemble(path)

    @pytest.mark.parametrize(
        "document", [b'{"H": "\xff"}', b'{"H": ' + b"[" * 10**5 + b"]" * 10**5 + b"}"],
        ids=["not-utf8", "nested-too-deep"],
    )
    def test_undecodable_sidecar_named(self, tmp_path, document):
        path = self._with_sidecar(tmp_path, lambda meta: None)
        (tmp_path / "ens.csv.json").write_bytes(document)
        with pytest.raises(ValueError, match=r"ens\.csv\.json: invalid JSON: "):
            load_ensemble(path)

    @pytest.mark.parametrize(
        "key, value, check",
        [("nx", 0, ">= 1"), ("dt_h", -1, "in (0, 24]"), ("dt_h", 25, "in (0, 24]"), ("H", 0, ">= 1"),
         ("n_steps", 0, ">= 1"), ("cell_size_km", 0.0, "in (0, 100]"), ("origin_km", [0, 3e4], "in [-2e4, 2e4]")],
    )
    def test_sidecar_value_out_of_range_named(self, tmp_path, key, value, check):
        path = self._with_sidecar(tmp_path, lambda meta: meta.update({key: value}))
        with pytest.raises(ValueError, match=re.escape(f"ens.csv.json: {key}: value {value!r} out of range ({check})")):
            load_ensemble(path)

    def test_sidecar_past_the_cell_step_cap_refused_before_the_csv(self, tmp_path):
        # 2 members of 10^7 x 10^7 cells: the product first passes the cap at ny.
        path = self._with_sidecar(tmp_path, lambda meta: meta.update(nx=10**7, ny=10**7))
        path.unlink()  # the refusal comes before the CSV is opened
        with pytest.raises(ConfigError) as raised:
            load_ensemble(path)
        assert str(raised.value) == (
            f"{path}.json: ny: value 10000000 out of range (H * nx * ny * n_steps at most 1,000,000,000)"
        )

    def test_readme_sidecar_table_matches_schema(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = readme[readme.index("| Key | Kind | Check | As config field |") :].split("\n\n")[0].splitlines()
        rows = [tuple(c.strip().strip("`") for c in line.strip().strip("|").split("|")) for line in lines[2:]]
        assert rows == [(key, name, check or "", field) for key, (_, name, _), check, field in SIDECAR_SCHEMA]
        # Each key has the kind and check of its config field.
        config = {path: (kind, check) for path, _, kind, check in CONFIG_SCHEMA}
        assert all(config[field] == (kind, check) for _, kind, check, field in SIDECAR_SCHEMA)

    def test_sidecar_without_origin_loads_at_zero(self, tmp_path):
        path = self._with_sidecar(tmp_path, lambda meta: meta.pop("origin_km"))
        assert load_ensemble(path).grid.origin == (0.0, 0.0)

    def test_sidecar_accepts_integer_spacing(self, tmp_path):
        path = self._with_sidecar(tmp_path, lambda meta: meta.update(cell_size_km=12))
        assert load_ensemble(path).grid == GRID

    @staticmethod
    def _with_sidecar(tmp_path, edit):
        """A saved 2-member ensemble whose sidecar dict went through `edit`."""
        path = tmp_path / "ens.csv"
        save_ensemble(generate_synthetic_ensemble(_spec(H=2), GRID, TIMES), path)
        sidecar = tmp_path / "ens.csv.json"
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
        return path


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


class TestStreamingReducers:
    """Each reducer, fed the members one at a time by a source's `fields`,
    against the stacked form it replaces: `np.stack(...)` of every member,
    then one reduction over the members axis.  Bits, not values, are compared."""

    @settings(max_examples=200)
    @given(
        H=st.integers(1, 6),
        n_cells=st.integers(1, 13),
        n_steps=st.integers(1, 17),
        dt=st.sampled_from([0.5, 1.0, 3.0]),
        hot=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(H=10, n_cells=7, n_steps=5, dt=1.0, hot=0.5, seed=3)  # the CLI's default H
    @example(H=2, n_cells=600, n_steps=49, dt=1.0, hot=0.5, seed=4)  # three blocks of cells, one partial
    def test_bit_identical_to_stacked_reduction(self, H, n_cells, n_steps, dt, hot, seed):
        p = NhppParams()
        rng = np.random.default_rng(seed)
        # Speeds straddling Vcrit, with some exactly at it.
        vs = [rng.uniform(0.0, p.Vcrit / max(1.0 - hot, 0.05), (n_cells, n_steps)) for _ in range(H)]
        vs[0][0, 0] = p.Vcrit
        grid, times = Grid(nx=n_cells, ny=1), TimeAxis(n_steps=n_steps, dt=dt)
        e = Ensemble(members=tuple(WindField(grid=grid, times=times, velocities=v) for v in vs))
        stack = np.stack(vs)

        mean_ref = stack.mean(axis=0)
        assert np.array_equal(_bits(_mean(iter(vs))), _bits(mean_ref))
        assert np.array_equal(_bits(_mean(e.fields())), _bits(mean_ref))

        fr1_ref = failure_rate(p, mean_ref, dt)
        assert np.array_equal(_bits(fr1(p, e)), _bits(fr1_ref))

        fr2_ref = failure_rate(p, stack, dt).mean(axis=0)
        assert np.array_equal(_bits(fr2(p, e)), _bits(fr2_ref))

        # Every step, and the distinct sorted steps of a few observations.
        exposure_ref = np.cumsum(poisson_intensity(p, stack) * dt, axis=-1).mean(axis=0)
        speed_ref = np.cumsum(stack, axis=-1).mean(axis=0)
        for steps in (np.arange(n_steps), np.unique(rng.integers(0, n_steps, 3))):
            exposure = _cumulative_exposure(p, e, "failure_rate", steps)
            assert np.array_equal(_bits(exposure), _bits(exposure_ref[:, steps]))
            speed = _cumulative_exposure(p, e, "cumulative_velocity", steps)
            assert np.array_equal(_bits(speed), _bits(speed_ref[:, steps]))

        cells = sorted({int(c) for c in rng.integers(0, n_cells, 3)})
        rates = member_rates(p, e, cells)
        assert rates.shape == (H, len(cells))
        for j, cell in enumerate(cells):
            ref = np.asarray([failure_rate(p, v[cell], dt) for v in vs])
            assert np.array_equal(_bits(rates[:, j]), _bits(ref))
            assert np.array_equal(_bits(member_rates(p, e, cell)), _bits(ref))
            assert _bits(rates[:, j].mean()) == _bits(ref.mean())

    def test_members_left_unchanged(self):
        vs = [np.full((3, 2), 10.0), np.full((3, 2), 30.0)]
        assert np.all(_mean(iter(vs)) == 20.0)
        assert np.all(vs[0] == 10.0) and np.all(vs[1] == 30.0)


class TestMemberStream:
    """`SyntheticEnsemble`, the generated member source, against the
    in-memory ensemble of the same spec."""

    def test_members_in_order_whatever_the_threads(self):
        spec = _spec(sigma_track=5.0, sigma_Vm=3.0, H=7, asymmetric=True)
        ens = generate_synthetic_ensemble(spec, GRID, TIMES, threads=1)
        for threads in (1, 2, 3, 7, 9):
            streamed = list(SyntheticEnsemble(spec, GRID, TIMES, threads).fields())
            assert len(streamed) == ens.H
            for v, m in zip(streamed, ens.members):
                assert np.array_equal(_bits(v), _bits(m.velocities))

    @pytest.mark.parametrize("cells", [7, [7], [19, 0, 7, 7, 12], list(range(GRID.n_cells))])
    def test_rows_of_cells_are_the_grid_rows(self, cells):
        # The generated source evaluates the wind on the cells' sub-grid only.
        spec = _spec(sigma_track=5.0, sigma_Vm=3.0, H=3, asymmetric=True)
        source = SyntheticEnsemble(spec, GRID, TIMES)
        ens = generate_synthetic_ensemble(spec, GRID, TIMES)
        for e in (source, ens):
            rows = list(e.fields(cells))
            assert len(rows) == spec.H
            for v, m in zip(rows, ens.members):
                assert np.array_equal(_bits(v), _bits(m.velocities[cells]))
        p = NhppParams(Vcrit=30.0)
        assert np.array_equal(_bits(member_rates(p, source, cells)), _bits(member_rates(p, ens, cells)))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_at_most_threads_members_in_flight(self, monkeypatch, threads):
        started = []

        def velocities(*args):
            started.append(None)
            return np.zeros((GRID.n_cells, TIMES.n_steps))

        monkeypatch.setattr(ensemble, "_velocities", velocities)
        spec = _spec(H=8)
        for i, _ in enumerate(SyntheticEnsemble(spec, GRID, TIMES, threads).fields()):
            # Member i comes from chunk i // threads; no later chunk has started.
            assert len(started) <= min(spec.H, (i // threads + 1) * threads)
        assert len(started) == spec.H

    @pytest.mark.parametrize("statistic", ["fr1", "fr2", "exposure"])
    def test_peak_memory_does_not_grow_with_members(self, statistic):
        # 400 cells of 49 steps: each member is 157 kB, so one more member
        # held at once would add far more than 10% to the peak.
        grid, times = Grid(origin=(-30.0, -30.0), nx=20, ny=20, cell_size=3.0), TimeAxis(n_steps=49)
        p = NhppParams()
        reduce = {
            "fr1": lambda e: fr1(p, e),
            "fr2": lambda e: fr2(p, e),
            "exposure": lambda e: _cumulative_exposure(p, e, "failure_rate", np.arange(49)),
        }[statistic]
        peaks = {}
        for H in (2, 20):
            source = SyntheticEnsemble(_spec(sigma_track=5.0, sigma_Vm=3.0, H=H), grid, times)
            tracemalloc.start()
            try:
                reduce(source)
                _, peaks[H] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[20] <= 1.1 * peaks[2]
