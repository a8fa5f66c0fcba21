"""Data-file format: exact bytes of every writer, and the shared reader rules.

The golden bytes pin the format as released: a LF `# comment` line, then
CRLF rows from the `save_*` writers, and LF throughout for the two tables
the CLI writes (`tables123.csv`, `critzone_cells.csv`).  The velocity tables
are also checked byte for byte against the row-by-row `csv.writer` path they
were first written with.
"""

import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stormrisk import (
    County,
    CountySet,
    Ensemble,
    EnsemblePerturbationSpec,
    HollandParams,
    NhppParams,
    OutageObservation,
    RepairParams,
    Track,
    critzone,
    load_county_fixture,
    load_ensemble,
    load_observations,
    save_agg_sweep,
    save_county_fixture,
    save_ensemble,
    save_failure_distribution,
    save_failure_rate_field,
    save_observations,
    save_wind_field,
    save_zone_sweep,
)
from stormrisk import csvio
from stormrisk.cli import CONFIG_SCHEMA, main
from stormrisk.csvio import VELOCITY_FMT, _read_csv, _read_velocities, _write_csv
from stormrisk.ensemble import ENSEMBLE_HEADER
from stormrisk.grid import Grid, TimeAxis
from stormrisk.nhpp import FailureDistribution
from stormrisk.wind import WINDFIELD_HEADER, WindField

GRID = Grid(nx=2, ny=1, cell_size=5.0)
TIMES = TimeAxis(n_steps=2)
F1 = WindField(grid=GRID, times=TIMES, velocities=np.array([[0.1, 1 / 3], [37.0, 2e-7]]))
F2 = WindField(grid=GRID, times=TIMES, velocities=np.array([[12.5, 2 / 3], [0.0, 41.000000000000007]]))
TAG = "config_sha256=abc"


class TestGoldenBytes:
    def test_wind_field(self, tmp_path):
        path = tmp_path / "wf.csv"
        save_wind_field(F1, path, header_comment=TAG)
        assert path.read_bytes() == (
            b"# config_sha256=abc\n"
            b"cell_id,time_index,velocity_mps\r\n"
            b"0,0,0.10000000000000001\r\n"
            b"0,1,0.33333333333333331\r\n"
            b"1,0,37\r\n"
            b"1,1,1.9999999999999999e-07\r\n"
        )

    def test_ensemble_and_sidecar(self, tmp_path):
        path = tmp_path / "ens.csv"
        save_ensemble(Ensemble(members=(F1, F2)), path, header_comment=TAG)
        assert path.read_bytes() == (
            b"# config_sha256=abc\n"
            b"member,cell_id,time_index,velocity_mps\r\n"
            b"0,0,0,0.10000000000000001\r\n"
            b"0,0,1,0.33333333333333331\r\n"
            b"0,1,0,37\r\n"
            b"0,1,1,1.9999999999999999e-07\r\n"
            b"1,0,0,12.5\r\n"
            b"1,0,1,0.66666666666666663\r\n"
            b"1,1,0,0\r\n"
            b"1,1,1,41.000000000000007\r\n"
        )
        assert (tmp_path / "ens.csv.json").read_bytes() == (
            b'{\n  "H": 2,\n  "cell_size_km": 5.0,\n  "comment": "config_sha256=abc",\n'
            b'  "dt_h": 1.0,\n  "n_steps": 2,\n  "nx": 2,\n  "ny": 1,\n'
            b'  "origin_km": [\n    0.0,\n    0.0\n  ]\n}\n'
        )

    def test_failure_rate_field(self, tmp_path):
        path = tmp_path / "fr.csv"
        save_failure_rate_field([0.1, 0.004235, 1 / 3], path, header_comment=TAG)
        assert path.read_bytes() == (
            b"# config_sha256=abc\n"
            b"cell_id,failure_rate_per_km\r\n"
            b"0,0.1\r\n"
            b"1,0.004235\r\n"
            b"2,0.333333333\r\n"
        )

    def test_failure_distribution(self, tmp_path):
        path = tmp_path / "fd.csv"
        dist = FailureDistribution(pmf=np.array([0.5, 0.25, 1 / 6]), tail=1 / 12)
        save_failure_distribution(dist, path)
        assert path.read_bytes() == (
            b"n,probability\r\n"
            b"0,0.5\r\n"
            b"1,0.25\r\n"
            b"2,0.166666667\r\n"
            b"tail,0.0833333333\r\n"
        )

    def test_zone_sweep(self, tmp_path):
        path = tmp_path / "zs.csv"
        columns = [np.array([x]) for x in (25.0, 20.0, 1 / 3, 1234.56789012, 2e-10, 0.1, 1 / 7)]
        save_zone_sweep(columns, path, header_comment=TAG)
        assert path.read_bytes() == (
            b"# config_sha256=abc\n"
            b"Vm_mps,Rm_km,Rcrit_km,Acrit_numeric_km2,Acrit_obround_km2,maxFR,meanFR\r\n"
            b"25.0,20.0,0.333333333,1234.56789,2e-10,0.1,0.142857143\r\n"
        )

    def test_agg_sweep(self, tmp_path):
        path = tmp_path / "agg.csv"
        save_agg_sweep(
            np.array([25.0, 30.0]),
            np.array([20.0, 35.0]),
            np.array([1 / 3, 0.5]),
            np.array([1e-5 / 3, 2.0]),
            path,
            header_comment=TAG,
        )
        assert path.read_bytes() == (
            b"# config_sha256=abc\n"
            b"Vm,Rm,damage_norm,loss_norm\r\n"
            b"25.0,20.0,0.333333333,3.33333333e-06\r\n"
            b"30.0,35.0,0.5,2\r\n"
        )

    def test_observations(self, tmp_path):
        path = tmp_path / "obs.csv"
        save_observations(
            [
                OutageObservation(county="x,y", time_h=0.5, outages=3, households=100),
                OutageObservation(county="b", time_h=1 / 3, outages=0, households=50),
            ],
            path,
        )
        assert path.read_bytes() == (
            b"county,time_h,outages,households\r\n"
            b'"x,y",0.5,3,100\r\n'
            b"b,0.333333333,0,50\r\n"
        )

    def test_county_fixture(self, tmp_path):
        path = tmp_path / "cty.csv"
        counties = CountySet(
            [
                County(name="a", cells={3, 0}, households=100, asset_density=0.65),
                County(name="b", cells={1}, households=200, asset_density=1 / 3),
            ]
        )
        save_county_fixture(counties, path)
        assert path.read_bytes() == (
            b"county,cell_id,households,asset_density_km_per_km2\r\n"
            b"a,0,100,0.65\r\n"
            b"a,3,100,0.65\r\n"
            b"b,1,200,0.3333333333333333\r\n"
        )

    def _cli(self, tmp_path, *argv) -> None:
        cfg = {
            "grid": {"nx": 3, "ny": 3, "cell_size_km": 10.0, "origin_km": [-15.0, -15.0]},
            "times": {"n_steps": 3, "dt_h": 1.0},
            "track": {"x0_km": [0.0, -10.0], "vtr_mps": [0.0, 3.0]},
            "holland": {"Vm_mps": 37.0, "Rm_km": 30.0},
            "output_dir": str(tmp_path / "out"),
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main([*argv, "--config", str(tmp_path / "cfg.json")]) == 0

    @staticmethod
    def _split_tag(data: bytes) -> bytes:
        first, rest = data.split(b"\n", 1)
        assert re.fullmatch(rb"# config_sha256=[0-9a-f]{64}", first)
        return rest

    def test_cli_critzone_cells(self, tmp_path):
        self._cli(tmp_path, "critzone")
        data = (tmp_path / "out" / "critzone_cells.csv").read_bytes()
        assert self._split_tag(data) == b"cell_id\n0\n1\n2\n3\n4\n5\n6\n7\n8\n"

    def test_cli_tables123(self, tmp_path, monkeypatch):
        records = [
            {"Vm": 25, "Rm": 20, "area_axi_km2": 1 / 3, "area_asym_km2": 2e5 / 3,
             "max_fr_axi": 0.1, "max_fr_asym": 1e-12, "mean_fr_axi": 7.0, "mean_fr_asym": 0.0},
            {"Vm": 46.0, "Rm": 40.0, "area_axi_km2": 1.0, "area_asym_km2": 2.0,
             "max_fr_axi": 3.0, "max_fr_asym": 4.0, "mean_fr_axi": 5.0, "mean_fr_asym": 6.0},
        ]
        monkeypatch.setattr(critzone, "tables123", lambda nhpp: records)
        self._cli(tmp_path, "tables123")
        data = (tmp_path / "out" / "tables123.csv").read_bytes()
        assert self._split_tag(data) == (
            b"Vm,Rm,area_axi_km2,area_asym_km2,max_fr_axi,max_fr_asym,mean_fr_axi,mean_fr_asym\n"
            b"25,20,0.333333333,66666.6667,0.1,1e-12,7,0\n"
            b"46.0,40.0,1,2,3,4,5,6\n"
        )

    def test_json_that_fails_leaves_no_file(self, tmp_path):
        # A non-finite number is refused before the file is opened, so no
        # report is left stopping where the number would stand.
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            csvio._write_json(path, {"beta": [0.0] * 13, "condition_number": math.inf})
        assert not path.exists()


def reference_save_ensemble(e: Ensemble, path, header_comment=None) -> None:
    """The ensemble CSV as `save_ensemble` wrote it through `csv.writer`, one
    4-tuple and one `format` per row: the byte reference for the bulk writer."""
    rows = (
        (i, cell, t, format(x, VELOCITY_FMT))
        for i, m in enumerate(e.members)
        for cell, vc in enumerate(m.velocities)
        for t, x in enumerate(vc.tolist())
    )
    _write_csv(path, ENSEMBLE_HEADER, rows, header_comment)


def reference_save_wind_field(field: WindField, path, header_comment=None) -> None:
    """`save_wind_field`'s former `csv.writer` path, the same way."""
    rows = (
        (cell, t, format(x, VELOCITY_FMT))
        for cell, vc in enumerate(field.velocities)
        for t, x in enumerate(vc.tolist())
    )
    _write_csv(path, WINDFIELD_HEADER, rows, header_comment)


# Zeros of both signs, the smallest subnormal, exponent and digit-count edges,
# a half-way tie at the 17th digit (1 + 2^-17 = 1.00000762939453125) and the
# float below 1e15 (999999999999999.875).
EDGE_VELOCITIES = [0.0, -0.0, 1.0, 5e-324, 1e-5, 123456789.0, 1e300, 1 + 2**-17, math.nextafter(1e15, 0)]


@st.composite
def ensembles(draw) -> Ensemble:
    """1-4 members on grids of 1-5 x 1-5 cells and 1-7 steps.

    Values are spread over the cells from a drawn pool of edge cases and
    random floats, which keeps the drawn data small.
    """
    H, nx, ny, n_steps = draw(
        st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5), st.integers(1, 7))
    )
    pool = draw(
        st.lists(
            st.sampled_from(EDGE_VELOCITIES) | st.floats(0.0, allow_infinity=False),
            min_size=1,
            max_size=10,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.array(pool)[rng.integers(len(pool), size=(H, nx * ny, n_steps))]
    grid, times = Grid(nx=nx, ny=ny), TimeAxis(n_steps=n_steps)
    return Ensemble(members=tuple(WindField(grid=grid, times=times, velocities=m) for m in v))


class TestVelocityWriter:
    @settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ensembles(), st.integers(1, 3), st.sampled_from([None, TAG]))
    def test_bytes_match_reference_writer(self, tmp_path, e, block, comment):
        # Blocks of 1-3 cells end mid-member and mid-grid.
        with mock.patch.object(csvio, "_BLOCK_CELLS", block):
            save_ensemble(e, tmp_path / "ens.csv", header_comment=comment)
            save_wind_field(e.members[-1], tmp_path / "wf.csv", header_comment=comment)
        reference_save_ensemble(e, tmp_path / "ref_ens.csv", header_comment=comment)
        reference_save_wind_field(e.members[-1], tmp_path / "ref_wf.csv", header_comment=comment)
        assert (tmp_path / "ens.csv").read_bytes() == (tmp_path / "ref_ens.csv").read_bytes()
        assert (tmp_path / "wf.csv").read_bytes() == (tmp_path / "ref_wf.csv").read_bytes()

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ensembles(), st.integers(1, 3))
    def test_round_trip_bit_equal(self, tmp_path, e, block):
        with mock.patch.object(csvio, "_BLOCK_CELLS", block):
            save_ensemble(e, tmp_path / "ens.csv", header_comment=TAG)
        loaded = load_ensemble(tmp_path / "ens.csv")
        # Compare bits, so that -0.0 must come back as -0.0.
        assert np.array_equal(loaded.velocities().view(np.uint64), e.velocities().view(np.uint64))

    def test_memory_does_not_grow_with_members(self, tmp_path):
        # 400 cells of 49 steps span four blocks, the last one partial.  (The
        # forecast's 100 x 100 grid takes over a minute under tracemalloc.)
        grid, times = Grid(nx=20, ny=20), TimeAxis(n_steps=49)
        assert 3 * csvio._BLOCK_CELLS < grid.n_cells < 4 * csvio._BLOCK_CELLS
        v = np.random.default_rng(0).uniform(0.0, 60.0, (grid.n_cells, times.n_steps))
        field = WindField(grid=grid, times=times, velocities=v)
        peaks = {}
        for H in (2, 20):
            tracemalloc.start()
            try:
                save_ensemble(Ensemble(members=(field,) * H), tmp_path / "ens.csv")
                _, peaks[H] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[20] <= 1.1 * peaks[2]


def percent_17g(x) -> list[bytes]:
    """The reference: `%` itself, one value at a time."""
    return [b"%.17g" % v for v in np.asarray(x, dtype=np.float64).tolist()]


def ties(e: int, count: int) -> np.ndarray:
    """`count` floats odd * 2^-(17 - e) in [10^e, 10^(e+1)).  Times 10^(16 - e)
    each is odd * 5^(16 - e) / 2, so its 17th digit is followed by exactly 5."""
    lo = -(-(10**e * 2 ** (17 - e)) // 2)
    hi = min(10 ** (e + 1) * 2 ** (17 - e), 2**53) // 2
    odd = 2 * np.random.default_rng(e).integers(lo, hi, count) + 1
    return odd.astype(np.float64) * 2.0 ** -(17 - e)


# The bits of 1.0 and 1e16: the interval of `_fixed_17g`, drawn densely.
FIXED_BITS = (int(np.float64(1.0).view(np.uint64)), int(np.float64(1e16).view(np.uint64)))


class TestVelocityBytes:
    """`csvio._velocity_bytes` against `%` itself, byte for byte."""

    @settings(max_examples=300)
    @given(st.lists(st.floats(), min_size=1, max_size=20))
    def test_any_floats(self, xs):
        assert csvio._velocity_bytes(np.array(xs)) == percent_17g(xs)

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 2**64 - 1) | st.integers(*FIXED_BITS), min_size=1, max_size=50))
    def test_any_bit_patterns(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert csvio._velocity_bytes(x) == percent_17g(x)

    @pytest.mark.parametrize("e", range(16))
    def test_half_way_ties(self, e):
        x = ties(e, 2_000)
        assert np.all((10.0**e <= x) & (x < 10.0 ** (e + 1)))
        assert csvio._velocity_bytes(x) == percent_17g(x)

    def test_powers_of_ten_and_their_neighbours(self):
        below = above = [10.0 ** np.arange(-5, 18)]
        for _ in range(3):  # 1-3 ulp either side
            below = below + [np.nextafter(below[-1], 0)]
            above = above + [np.nextafter(above[-1], np.inf)]
        x = np.concatenate(below + above[1:])
        assert csvio._velocity_bytes(x) == percent_17g(x)

    def test_ends_of_the_fixed_interval(self):
        x = np.array([math.nextafter(1.0, 0), 1.0, math.nextafter(1e16, 0), 1e16])
        got = csvio._velocity_bytes(x)
        assert got == percent_17g(x)
        assert got == [b"0.99999999999999989", b"1", b"9999999999999998", b"10000000000000000"]

    def test_trailing_zeros(self):
        # Integers and quarters: the 17 digits end in zeros, all but a few
        # through the point.
        x = np.concatenate([np.arange(1.0, 5_000.0), np.arange(4.0, 20_000.0) / 4, [2.0**53, 1e15 + 0.5]])
        got = csvio._velocity_bytes(x)
        assert got == percent_17g(x)
        assert got[:3] == [b"1", b"2", b"3"] and b"1.25" in got

    def test_mixed_block_keeps_order(self):
        x = np.array([0.5, 37.0, -1.0, np.nan, 2.5, np.inf, -0.0, 1e17, 41.000000000000007])
        assert csvio._velocity_bytes(x) == percent_17g(x)


class TestReader:
    def test_wind_field_error_names_physical_line_after_comment(self, tmp_path):
        path = tmp_path / "wf.csv"
        path.write_text(
            "# config_sha256=abc\n"
            "cell_id,time_index,velocity_mps\n"
            "0,0,1.0\n"
            "0,1,oops\n"
        )
        with pytest.raises(ValueError, match=r"wf\.csv:4: malformed row"):
            _read_velocities(path, WINDFIELD_HEADER, (1, 2))

    def test_ensemble_error_names_physical_line_after_comments_and_blanks(self, tmp_path):
        path = tmp_path / "ens.csv"
        save_ensemble(Ensemble(members=(F1,)), path, header_comment=TAG)
        lines = path.read_text().splitlines()
        lines[3:3] = ["", "# a note", "0,9,0,1.0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"ens\.csv:6: member/cell/time out of range"):
            load_ensemble(path)

    def test_field_count_checked_with_line(self, tmp_path):
        path = tmp_path / "wf.csv"
        path.write_text("cell_id,time_index,velocity_mps\n0,0\n")
        with pytest.raises(ValueError, match=r"wf\.csv:2: expected 3 fields, got 2"):
            _read_velocities(path, WINDFIELD_HEADER, (1, 1))

    def test_observations_accept_comment_line(self, tmp_path):
        obs = [OutageObservation(county="a", time_h=0.5, outages=3, households=100)]
        path = tmp_path / "obs.csv"
        save_observations(obs, path)
        path.write_bytes(b"# config_sha256=abc\n" + path.read_bytes())
        assert load_observations(path) == obs

    def test_county_fixture_accepts_comment_line(self, tmp_path):
        path = tmp_path / "cty.csv"
        save_county_fixture(CountySet([County(name="a", cells={0, 2}, households=7)]), path)
        path.write_bytes(b"# config_sha256=abc\n" + path.read_bytes())
        loaded = load_county_fixture(path)
        assert loaded.names() == ["a"]
        assert loaded["a"].cells == frozenset({0, 2})

    def test_observation_error_names_physical_line_after_comment(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("# config_sha256=abc\ncounty,time_h,outages,households\na,0.0,5,3\n")
        with pytest.raises(ValueError, match=r"obs\.csv:3:"):
            load_observations(path)

    def test_wind_field_repeated_row_names_second_line(self, tmp_path):
        path = tmp_path / "wf.csv"
        path.write_text("cell_id,time_index,velocity_mps\n0,0,1.0\n0,1,3.0\n0,0,2.0\n")
        with pytest.raises(
            ValueError, match=r"wf\.csv:4: repeated row for cell_id 0, time_index 0"
        ):
            _read_velocities(path, WINDFIELD_HEADER, (1, 2))

    def test_ensemble_repeated_row_names_second_line(self, tmp_path):
        path = tmp_path / "ens.csv"
        save_ensemble(Ensemble(members=(F1, F2)), path, header_comment=TAG)
        lines = path.read_text().splitlines()
        lines.insert(5, "1,1,0,9.0")  # line 6; member 1's own row is now line 10
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ValueError, match=r"ens\.csv:10: repeated row for member 1, cell_id 1, time_index 0"
        ):
            load_ensemble(path)

    def test_county_name_starting_with_hash_rejected(self):
        # The reader would skip its row as a comment.
        with pytest.raises(ValueError, match="county name '#north'"):
            County(name="#north", cells={0})

    def test_observation_county_starting_with_hash_rejected(self):
        with pytest.raises(ValueError, match="county '#north'"):
            OutageObservation(county="#north", time_h=0.0, outages=1, households=10)

    def test_wind_field_nan_velocity_is_missing_not_repeated(self, tmp_path):
        path = tmp_path / "wf.csv"
        path.write_text("cell_id,time_index,velocity_mps\n0,0,1.0\n0,1,nan\n")
        with pytest.raises(ValueError, match="missing velocity for cell 0, time 1"):
            _read_velocities(path, WINDFIELD_HEADER, (1, 2))

    @pytest.mark.parametrize("bad", ["-1.0", "-5e-324", "inf", "-inf", "1e999"])
    def test_velocity_negative_or_infinite_names_its_line(self, tmp_path, bad):
        path = tmp_path / "wf.csv"
        path.write_text(f"cell_id,time_index,velocity_mps\n0,0,1.0\n0,1,{bad}\n")
        with pytest.raises(ValueError, match=r"wf\.csv:3: velocity must be finite and >= 0, got "):
            _read_velocities(path, WINDFIELD_HEADER, (1, 2))

    def test_ensemble_velocity_negative_names_its_line(self, tmp_path):
        path = tmp_path / "ens.csv"
        save_ensemble(Ensemble(members=(F1, F2)), path, header_comment=TAG)
        path.write_text(path.read_text().replace("1,0,1,0.66666666666666663", "1,0,1,-0.5"))
        with pytest.raises(ValueError, match=r"ens\.csv:8: velocity must be finite and >= 0, got -0\.5"):
            load_ensemble(path)


def reference_read_velocities(path, header, shape) -> np.ndarray:
    """`_read_velocities` as it read in two passes: one that fills the array,
    then, only when more rows were read than slots filled, a second that
    looks for the first repeat.  Errors of the first pass come first."""
    names = [name.split("_")[0] for name in header[:-1]]
    v = np.full(shape, np.nan)
    n_rows = 0
    for lineno, row in _read_csv(path, header, [str] * len(header)):
        try:
            key = tuple(map(int, row[:-1]))
            vel = float(row[-1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed row: {exc}") from None
        if not all(0 <= k < n for k, n in zip(key, shape)):
            raise ValueError(f"{path}:{lineno}: {'/'.join(names)} out of range")
        v[key] = vel
        n_rows += 1
    if n_rows == 0:
        raise ValueError(f"{path}: no {names[0]}s")
    if n_rows > np.count_nonzero(~np.isnan(v)):
        seen = np.zeros(shape, dtype=bool)
        for lineno, row in _read_csv(path, header, [str] * len(header)):
            key = tuple(map(int, row[:-1]))
            if seen[key]:
                named = ", ".join(f"{name} {k}" for name, k in zip(header, key))
                raise ValueError(f"{path}:{lineno}: repeated row for {named}")
            seen[key] = True
    missing = np.argwhere(np.isnan(v))
    if missing.size:
        where = ", ".join(f"{name} {k}" for name, k in zip(names, missing[0]))
        raise ValueError(f"{path}: missing velocity for {where}")
    return v


FAULTS = ("gap", "repeat", "nan", "range", "malformed")


@st.composite
def velocity_tables(draw):
    """`(shape, header, lines, faults)`: every row of a wind-field or
    ensemble table of `shape` in a drawn order, with drawn blank and comment
    lines, then 0-3 faults from `FAULTS` applied in turn."""
    shape = draw(st.tuples(*[st.integers(1, 3)] * draw(st.sampled_from([2, 3]))))
    header = WINDFIELD_HEADER if len(shape) == 2 else ENSEMBLE_HEADER
    size = math.prod(shape)
    values = draw(st.lists(st.floats(0.0, 1e6), min_size=size, max_size=size))
    rows = draw(st.permutations([[*map(str, key), repr(x)] for key, x in zip(np.ndindex(shape), values)]))
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=3))
    for fault in faults:
        at = draw(st.integers(0, len(rows)))  # an insertion point, or a row when < len(rows)
        if fault == "gap" and at < len(rows):
            del rows[at]
        elif fault == "repeat" and rows:
            rows.insert(at, [*draw(st.sampled_from(rows))[:-1], repr(draw(st.floats(0.0, 1e6)))])
        elif fault == "nan" and at < len(rows):
            rows[at] = [*rows[at][:-1], "nan"]
        elif fault == "range":
            axis = draw(st.integers(0, len(shape) - 1))
            key = [0] * len(shape)
            key[axis] = draw(st.sampled_from([-1, shape[axis]]))
            rows.insert(at, [*map(str, key), "1.0"])
        elif fault == "malformed" and at < len(rows):
            column = draw(st.integers(0, len(shape)))
            rows[at] = [*rows[at][:column], draw(st.sampled_from(["x", "1.5", ""])), *rows[at][column + 1 :]]
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# a note"])))
    return shape, header, [",".join(header), *lines], faults


def earliest_bad_line(lines, shape) -> int | None:
    """The physical line of the first malformed, out-of-range or repeated
    row of the table `lines`, or None."""
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.startswith("#"):
            continue
        *fields, vel = line.split(",")
        try:
            key = tuple(map(int, fields))
            float(vel)
        except ValueError:
            return lineno
        if not all(0 <= k < n for k, n in zip(key, shape)) or key in seen:
            return lineno
        seen.add(key)
    return None


def outcome(read, path, header, shape):
    """The bits `read` returns, or the message it raises."""
    try:
        return read(path, header, shape).view(np.uint64).tolist()
    except ValueError as exc:
        return str(exc)


class TestOnePassReader:
    """`_read_velocities` against the two-pass reader it replaced."""

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(velocity_tables())
    def test_matches_the_two_pass_reader(self, tmp_path, table):
        shape, header, lines, faults = table
        path = tmp_path / "v.csv"
        path.write_text("\n".join(lines) + "\n")
        got = outcome(_read_velocities, path, header, shape)
        if len(faults) <= 1:
            # No fault, or one: the same array or the same message.
            assert got == outcome(reference_read_velocities, path, header, shape)
            return
        # Several: the row fault on the earliest line, with the message the
        # reference gives for it once the lines after it are cut away.
        line = earliest_bad_line(lines, shape)
        if line is not None:
            assert got.startswith(f"{path}:{line}: ")
            path.write_text("\n".join(lines[:line]) + "\n")
        assert got == outcome(reference_read_velocities, path, header, shape)

    def test_repeat_before_a_malformed_row_is_reported_first(self, tmp_path):
        path = tmp_path / "wf.csv"
        path.write_text("cell_id,time_index,velocity_mps\n0,0,1.0\n0,0,2.0\n0,oops,3.0\n")
        with pytest.raises(ValueError, match=r"wf\.csv:3: repeated row for cell_id 0, time_index 0"):
            _read_velocities(path, WINDFIELD_HEADER, (1, 2))
        with pytest.raises(ValueError, match=r"wf\.csv:4: malformed row"):
            reference_read_velocities(path, WINDFIELD_HEADER, (1, 2))


# Each parameter record: the keyword arguments of a valid one, and each
# numeric field with its `_CHECKS` text (None: finite only).
RECORDS = {
    HollandParams: ({"Vm": 40.0, "Rm": 30.0, "B": 1.0}, {"Vm": "in [1, 150]", "Rm": "in [1, 500]", "B": "in [0.5, 3]"}),
    Grid: (
        {"origin": (0.0, 0.0), "nx": 2, "ny": 2, "cell_size": 1.0},
        {"nx": ">= 1", "ny": ">= 1", "cell_size": "in (0, 100]", "origin": "in [-1e7, 1e7]"},
    ),
    TimeAxis: ({"n_steps": 2, "dt": 1.0}, {"n_steps": ">= 1", "dt": "in (0, 24]"}),
    NhppParams: ({}, {"Vcrit": "in [1, 150]", "alpha": "in [1, 1e6]", "lambda_norm": "in [1e-12, 1]"}),
    RepairParams: ({}, {"Lf": "in [0, 1e6]", "Y": "in [1e-6, 1e6]"}),
    EnsemblePerturbationSpec: (
        {"base_track": Track(x0=(0.0, 0.0), Vtr=(0.0, 3.0)), "base_params": HollandParams(Vm=40.0, Rm=30.0)},
        {
            "sigma_track": "in [0, 2e4]",
            "sigma_heading": "in [0, 360]",
            "sigma_Vm": "in [0, 150]",
            "sigma_Rm": "in [0, 500]",
            "H": ">= 1",
        },
    ),
    County: (
        {"name": "a", "cells": {0}, "households": 10, "asset_density": 1.0},
        {"households": "in [0, 1e9]", "asset_density": ">= 0"},
    ),
    OutageObservation: (
        {"county": "a", "time_h": 1.0, "outages": 1, "households": 10},
        {"time_h": None, "households": "in (0, 1e9]"},
    ),
}


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


# The values nearest each end of each numeric check that it refuses.
JUST_OUTSIDE = {
    ">= 0": [-5e-324],
    ">= 1": [_below(1.0)],
    "in (0, 24]": [0.0, _above(24.0)],
    "in (0, 100]": [0.0, _above(100.0)],
    "in (0, 150]": [0.0, _above(150.0)],
    "in (0, 500]": [0.0, _above(500.0)],
    "in [0, 150]": [-5e-324, _above(150.0)],
    "in [0, 360]": [-5e-324, _above(360.0)],
    "in [0, 500]": [-5e-324, _above(500.0)],
    "in [0, 2e4]": [-5e-324, _above(2e4)],
    "in [0, 1e6]": [-5e-324, _above(1e6)],
    "in [0, 1e9]": [-5e-324, _above(1e9)],
    "in (0, 1e9]": [0.0, _above(1e9)],
    "in [-50, 50]": [_below(-50.0), _above(50.0)],
    "in [-2e4, 2e4]": [_below(-2e4), _above(2e4)],
    "in [-1e7, 1e7]": [_below(-1e7), _above(1e7)],
    "in [0.5, 3]": [_below(0.5), _above(3.0)],
    "in [1, 150]": [_below(1.0), _above(150.0)],
    "in [1, 500]": [_below(1.0), _above(500.0)],
    "in [1, 1e6]": [_below(1.0), _above(1e6)],
    "in [1e-12, 1]": [_below(1e-12), _above(1.0)],
    "in [1e-6, 1e6]": [_below(1e-6), _above(1e6)],
}

# The config rows that build record fields (`times.t0_h` builds none), and
# the record field each one builds.
FEEDING = [
    row
    for row in CONFIG_SCHEMA
    if row[0].split(".")[0] in ("holland", "nhpp", "repair", "grid", "times", "ensemble") and row[0] != "times.t0_h"
]
SCHEMA_FIELDS = {
    "grid.nx": (Grid, "nx"),
    "grid.ny": (Grid, "ny"),
    "grid.cell_size_km": (Grid, "cell_size"),
    "grid.origin_km": (Grid, "origin"),
    "times.n_steps": (TimeAxis, "n_steps"),
    "times.dt_h": (TimeAxis, "dt"),
    "holland.Vm_mps": (HollandParams, "Vm"),
    "holland.Rm_km": (HollandParams, "Rm"),
    "holland.B": (HollandParams, "B"),
    "nhpp.Vcrit_mps": (NhppParams, "Vcrit"),
    "nhpp.alpha": (NhppParams, "alpha"),
    "nhpp.lambda_norm": (NhppParams, "lambda_norm"),
    "repair.Lf": (RepairParams, "Lf"),
    "repair.Y": (RepairParams, "Y"),
    "ensemble.H": (EnsemblePerturbationSpec, "H"),
    "ensemble.sigma_track_km": (EnsemblePerturbationSpec, "sigma_track"),
    "ensemble.sigma_heading_deg": (EnsemblePerturbationSpec, "sigma_heading"),
    "ensemble.sigma_Vm_mps": (EnsemblePerturbationSpec, "sigma_Vm"),
    "ensemble.sigma_Rm_km": (EnsemblePerturbationSpec, "sigma_Rm"),
}


def bad_values(check) -> list:
    return [math.nan, math.inf, -math.inf] + ([] if check is None else JUST_OUTSIDE[check])


def refusal(record, field, value) -> None:
    """Check the message of `record` built with `field` (an entry of a pair) set to `value`."""
    kwargs, checks = RECORDS[record]
    if field == "origin":
        value = (0.0, value)
    with pytest.raises(ValueError) as raised:
        record(**{**kwargs, field: value})
    rule = "finite" if checks[field] is None else f"finite and {checks[field]}"
    assert str(raised.value) == f"{field} must be {rule}, got {value!r}"


class TestRecordChecks:
    """Every numeric field of every parameter record is refused, by name, when
    it is not finite or fails its check, as the config refuses it."""

    @pytest.mark.parametrize("check", sorted(JUST_OUTSIDE))
    def test_each_end_refuses_just_outside(self, check):
        # Both ends of every numeric check, and the next floats inside them,
        # one at a time and as one array, as the sweeps' storm screen passes them.
        in_use = {row[3] for row in CONFIG_SCHEMA} | {c for _, checks in RECORDS.values() for c in checks.values()}
        assert set(JUST_OUTSIDE) == in_use - {None, '"N" or "S"'}
        outside = JUST_OUTSIDE[check]
        inside = [_above(outside[0])] + [_below(v) for v in outside[1:]]
        test = csvio._test(check)
        assert [bool(test(v)) for v in outside + inside] == [False] * len(outside) + [True] * len(inside)
        assert test(np.array(outside + inside)).tolist() == [False] * len(outside) + [True] * len(inside)

    @pytest.mark.parametrize(
        "record, field, value",
        [
            (record, field, value)
            for record, (_, checks) in RECORDS.items()
            for field, check in checks.items()
            for value in bad_values(check)
        ],
        ids=lambda x: getattr(x, "__name__", str(x)),
    )
    def test_bad_value_named(self, record, field, value):
        refusal(record, field, value)

    @pytest.mark.parametrize(
        "path, kind, check", [(path, kind, check) for path, _, kind, check in FEEDING], ids=[row[0] for row in FEEDING]
    )
    def test_config_and_record_refuse_alike(self, path, kind, check):
        # A grid record's origin alone has a wider range than the config's,
        # for the swath grids a critical-zone sweep derives.
        record, field = SCHEMA_FIELDS[path]
        assert RECORDS[record][1][field] == ("in [-1e7, 1e7]" if path == "grid.origin_km" else check)
        for value in bad_values(check):
            with pytest.raises(csvio.ConfigError, match=f"^{re.escape(path)}: "):
                csvio._check(path, [0.0, value] if field == "origin" else value, kind, check)
            if path == "grid.origin_km" and math.isfinite(value):
                Grid(origin=(0.0, value))
            else:
                refusal(record, field, value)
