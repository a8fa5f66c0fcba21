from unittest import mock

import numpy as np
import pytest

from stormrisk import grid
from stormrisk import (
    County,
    CountySet,
    Grid,
    TimeAxis,
    county_average,
    load_county_fixture,
    save_county_fixture,
)


class TestGrid:
    def test_cell_ids_dense_and_unique(self):
        g = Grid(nx=3, ny=4, cell_size=2.0)
        assert g.n_cells == 12
        centers = g.centers()
        assert centers.shape == (12, 2)
        assert len({tuple(c) for c in map(tuple, centers)}) == 12

    def test_cell_center_formula(self):
        g = Grid(origin=(10.0, -5.0), nx=3, ny=4, cell_size=2.0)
        centers = g.centers()
        # x-major: cell i = ix * ny + iy
        assert tuple(centers[0]) == (11.0, -4.0)
        assert tuple(centers[4]) == (13.0, -4.0)  # ix=1, iy=0
        assert tuple(centers[1]) == (11.0, -2.0)  # ix=0, iy=1

    def test_cell_area(self):
        assert Grid(nx=1, ny=1, cell_size=3.0).cell_area == 9.0

    @pytest.mark.parametrize("bad", [{"nx": 0}, {"ny": 0}, {"cell_size": 0.0}, {"cell_size": -1.0}])
    def test_invalid_grid(self, bad):
        with pytest.raises(ValueError):
            Grid(**{"nx": 2, "ny": 2, "cell_size": 1.0, **bad})

    @pytest.mark.parametrize(
        "bad",
        [
            {"cell_size": np.nan},
            {"cell_size": np.inf},
            {"origin": (np.nan, 0.0)},
            {"origin": (0.0, -np.inf)},
        ],
    )
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Grid(**{"nx": 2, "ny": 2, "cell_size": 1.0, **bad})


class TestTimeAxis:
    def test_duration_and_offsets(self):
        t = TimeAxis(n_steps=4, dt=0.5)
        assert t.duration == 2.0
        assert np.array_equal(t.offsets(), [0.0, 0.5, 1.0, 1.5])

    @pytest.mark.parametrize("bad", [{"n_steps": 0}, {"dt": 0.0}, {"dt": -1.0}])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            TimeAxis(**{"n_steps": 1, "dt": 1.0, **bad})

    @pytest.mark.parametrize("dt", [np.inf, np.nan])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="finite"):
            TimeAxis(n_steps=1, dt=dt)


class TestCountyAverage:
    def test_mean(self):
        c = County(name="a", cells={0, 1}, households=1)
        assert county_average([1.0, 3.0], c) == 2.0

    def test_single_cell_identity(self):
        c = County(name="a", cells={2}, households=1)
        assert county_average([0.0, 0.0, 7.5], c) == 7.5

    def test_zeros(self):
        c = County(name="a", cells={0, 1, 2}, households=1)
        assert county_average([0.0, 0.0, 0.0], c) == 0.0

    def test_order_invariant(self):
        values = np.arange(10.0)
        c = County(name="a", cells={1, 4, 7}, households=1)
        assert county_average(values, c) == county_average(list(values), c)


class TestCountyValidation:
    def test_empty_cells_rejected(self):
        with pytest.raises(ValueError):
            County(name="a", cells=frozenset())

    def test_disjointness_enforced(self):
        a = County(name="a", cells={0, 1})
        b = County(name="b", cells={1, 2})
        with pytest.raises(ValueError):
            CountySet([a, b])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            CountySet([County(name="a", cells={0}), County(name="a", cells={1})])


class TestCountyFixtureIO:
    def test_round_trip(self, tmp_path):
        cs = CountySet(
            [
                County(name="a", cells={0, 3}, households=100, asset_density=0.65),
                County(name="b", cells={1}, households=200, asset_density=7.08),
            ]
        )
        path = tmp_path / "counties.csv"
        save_county_fixture(cs, path)
        loaded = load_county_fixture(path)
        assert loaded.names() == ["a", "b"]
        assert loaded["a"].cells == frozenset({0, 3})
        assert loaded["a"].households == 100
        assert loaded["b"].asset_density == 7.08

    def test_inconsistent_households_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "county,cell_id,households,asset_density_km_per_km2\n"
            "a,0,100,0.65\n"
            "a,1,200,0.65\n"
        )
        with pytest.raises(ValueError, match="a"):
            load_county_fixture(path)

    def test_one_record_per_county_on_a_consistent_file(self, tmp_path):
        # A row equal to its county's first is not built as a record again.
        cs = CountySet(
            [
                County(name="a", cells=set(range(0, 40)), households=100, asset_density=0.65),
                County(name="b", cells=set(range(40, 70)), households=200, asset_density=7.08),
            ]
        )
        path = tmp_path / "counties.csv"
        save_county_fixture(cs, path)
        with mock.patch.object(grid, "County", wraps=grid.County) as built:
            loaded = load_county_fixture(path)
        assert [c.kwargs["name"] for c in built.call_args_list] == ["a", "b"]
        assert loaded["a"] == cs["a"] and loaded["b"] == cs["b"]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,7,-1,0.65", "households must be finite and in [0, 1e9], got -1"),
            ("a,7,1000000001,0.65", "households must be finite and in [0, 1e9], got 1000000001"),
            ("a,7,100,nan", "asset_density must be finite and >= 0, got nan"),
            ("a,7,100,0.5", "inconsistent households/asset_density for county 'a'"),
            ("a,7,200,0.65", "inconsistent households/asset_density for county 'a'"),
        ],
        ids=["households", "households-past-1e9", "density-nan", "density-differs", "households-differ"],
    )
    def test_later_row_refused_at_its_own_line(self, tmp_path, row, message):
        path = tmp_path / "counties.csv"
        path.write_text(
            "county,cell_id,households,asset_density_km_per_km2\n"
            "a,0,100,0.65\n"
            "b,1,200,7.08\n"
            "a,2,100,0.65\n"
            f"{row}\n"
        )
        with pytest.raises(ValueError) as raised:
            load_county_fixture(path)
        assert str(raised.value) == f"{path}:5: {message}"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("county,households\na,1\n")
        with pytest.raises(ValueError):
            load_county_fixture(path)
