import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stormrisk import (
    Grid,
    HollandParams,
    TimeAxis,
    Track,
    WindField,
    holland_speed,
    save_wind_field,
    wind_field,
)
from stormrisk.csvio import _read_velocities
from stormrisk.wind import WINDFIELD_HEADER, _kernel, _speed, _sub_grid, _velocities

# Frozen oracle: 25 * sqrt(0.5) * exp(0.25), hand evaluation of the radial
# profile at (Vm=25, Rm=20, B=1), r=40.
HOLLAND_25_20_AT_40 = 22.698576983894608


class TestHollandSpeed:
    def test_peak_at_rm(self):
        assert holland_speed(HollandParams(Vm=37, Rm=30, B=1), 30.0) == pytest.approx(37.0, abs=1e-12)

    def test_hand_evaluation(self):
        v = holland_speed(HollandParams(Vm=25, Rm=20, B=1), 40.0)
        assert v == pytest.approx(HOLLAND_25_20_AT_40, rel=1e-12)

    def test_decays_to_zero(self):
        # Decay is slow (~r^(-B/2)) but monotone to the 0 asymptote.
        p = HollandParams(Vm=25, Rm=20, B=1)
        assert holland_speed(p, 1e7) < 0.1
        assert holland_speed(p, 1e9) < holland_speed(p, 1e7) < holland_speed(p, 1e5)

    def test_monotone_decreasing_beyond_rm(self):
        p = HollandParams(Vm=25, Rm=20, B=1)
        r = np.linspace(20.0, 2000.0, 5000)
        v = holland_speed(p, r)
        assert np.all(np.diff(v) < 0)

    def test_global_max_at_rm_dense_sampling(self):
        p = HollandParams(Vm=25, Rm=20, B=1.7)
        r = np.linspace(1e-3, 400.0, 20001)
        v = holland_speed(p, r)
        assert np.max(v) <= p.Vm + 1e-9
        assert abs(r[np.argmax(v)] - p.Rm) < 0.05

    def test_r_zero_is_calm(self):
        assert holland_speed(HollandParams(Vm=25, Rm=20), 0.0) == 0.0

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            holland_speed(HollandParams(Vm=25, Rm=20), -1.0)

    @pytest.mark.parametrize("r", [np.nan, [10.0, np.nan]], ids=["scalar", "array"])
    def test_nan_r_rejected(self, r):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            holland_speed(HollandParams(Vm=25, Rm=20), r)

    @given(
        st.floats(1.0, 100.0),
        st.floats(1.0, 100.0),
        st.floats(0.5, 2.5),
        st.floats(0.0, 1e4),
    )
    def test_always_finite_nonnegative_bounded_by_vm(self, Vm, Rm, B, r):
        v = float(holland_speed(HollandParams(Vm=Vm, Rm=Rm, B=B), r))
        assert np.isfinite(v)
        assert 0.0 <= v <= Vm + 1e-9

    @pytest.mark.parametrize("bad", [{"Vm": 0.0}, {"Rm": -1.0}, {"B": 0.0}])
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            HollandParams(**{"Vm": 25.0, "Rm": 20.0, "B": 1.0, **bad})

    @pytest.mark.parametrize("name", ["Vm", "Rm", "B"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, name, value):
        # NaN compares false with everything, so a plain `<= 0` check lets it in.
        with pytest.raises(ValueError, match=rf"{name} must be finite and in \["):
            HollandParams(**{"Vm": 25.0, "Rm": 20.0, "B": 1.0, name: value})


def speed_reference(Vm, Rm, B, r):
    """Reference: a storm's speeds as one whole-array expression, before
    `wind._speed` worked in place and left the product by Vm to its callers."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logx = np.log(Rm) - np.log(r)
        v = Vm * np.exp(0.5 * B * logx + 0.5 * (1.0 - np.exp(B * logx)))
    return np.where(r > 0, v, 0.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# Radii down to zero and subnormals, where the profile's log overflows.
RADII = st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, 5e-324, 1e-310, 2.2e-308, 1e-300, 1e-12, 1e300]))
STORM = st.tuples(st.floats(1.0, 100.0), st.floats(1.0, 100.0), st.one_of(st.just(1.0), st.floats(0.5, 2.5)))


class TestVmScaling:
    """Every consumer of the kernel multiplies the profile's Vm = 1 shape by
    its own Vm; that gives exactly the storm's speeds because the profile's
    last step is the product by Vm, and 0 times Vm is 0."""

    @settings(max_examples=150)
    @given(storm=STORM, Vm=st.floats(1e-300, 1e300), radii=st.lists(RADII, min_size=1, max_size=40))
    @example(storm=(1.0, 30.0, 1.0), Vm=46.0, radii=[0.0, 5e-324, 1e300])
    @example(storm=(1.0, 30.0, 1.7), Vm=46.0, radii=[0.0, 5e-324, 1e300])
    def test_speed_is_vm_times_unit_speed(self, storm, Vm, radii):
        _, Rm, B = storm
        r = np.array(radii)
        assert same_bits(Vm * _speed(Rm, B, r), speed_reference(Vm, Rm, B, r))

    def test_kernel_speeds_scale_with_vm(self):
        # On a window the kernel's steps hold the whole grid's values there,
        # and Vm times the shape is `holland_speed` at the same distances.
        xs, ys = np.linspace(-90.0, 90.0, 7), np.linspace(-60.0, 60.0, 5)
        pos = np.array([[0.0, -30.0], [10.0, 0.0], [30.0, 45.0], [xs[2], ys[1]]])
        for p in (HollandParams(Vm=25, Rm=20), HollandParams(Vm=46, Rm=40, B=1.5)):
            for spin in (None, 1.0, -1.0):
                steps = zip(_kernel(p.Rm, p.B, xs, ys, pos, 50.0, spin), _kernel(p.Rm, p.B, xs, ys, pos, spin=spin))
                for (window, r, shape, tangents), (_, all_r, all_shape, all_tangents) in steps:
                    assert np.array_equal(r, all_r[window]) and same_bits(shape, all_shape[window])
                    assert same_bits(p.Vm * shape, holland_speed(p, r))
                    if spin is None:
                        assert tangents is None and all_tangents is None
                    else:
                        assert all(same_bits(a, b[window]) for a, b in zip(tangents, all_tangents))


class TestInPlaceSpeed:
    @settings(max_examples=150)
    @given(storms=st.lists(STORM, min_size=1, max_size=6), radii=st.lists(RADII, min_size=1, max_size=40))
    def test_equals_whole_array_expression(self, storms, radii):
        for r in (np.array(radii), np.array(radii[:1]).reshape(()), np.array(radii).reshape(-1, 1)):
            # Each storm's radius, and the radii of each exponent B at once:
            # an array Rm with a leading storms axis, as
            # `critzone._critical_radii` passes it.
            shape, profiles = (-1,) + (1,) * r.ndim, [s[1:] for s in storms]
            for B in {s[2] for s in storms}:
                profiles.append((np.array([s[1] for s in storms if s[2] == B]).reshape(shape), B))
            for Rm, B in profiles:
                assert same_bits(_speed(Rm, B, r), speed_reference(1.0, Rm, B, r))

    @settings(max_examples=50)
    @given(
        origin=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
        nx=st.integers(1, 40),
        ny=st.integers(1, 40),
        cell=st.floats(0.01, 50.0),
    )
    def test_grid_axes_are_the_cell_centres(self, origin, nx, ny, cell):
        # Cell ix * ny + iy has its centre at origin + (index + 0.5) * cell.
        grid = Grid(origin=origin, nx=nx, ny=ny, cell_size=cell)
        x = [origin[0] + (ix + 0.5) * cell for ix in range(nx)]
        y = [origin[1] + (iy + 0.5) * cell for iy in range(ny)]
        xs, ys = grid.axes()
        assert xs.tolist() == x and ys.tolist() == y
        assert grid.centers().tolist() == [[x[ix], y[iy]] for ix in range(nx) for iy in range(ny)]


class TestTrack:
    def test_position_advances_in_km(self):
        # 3 m/s northward = 10.8 km/h.
        t = Track(x0=(5.0, 0.0), Vtr=(0.0, 3.0))
        pos = t.position(np.array([0.0, 1.0, 2.0]))
        assert pos[0] == pytest.approx((5.0, 0.0))
        assert pos[1] == pytest.approx((5.0, 10.8))
        assert pos[2] == pytest.approx((5.0, 21.6))

    @pytest.mark.parametrize(
        "x0, Vtr, field",
        [
            ((np.nan, 0.0), (0.0, 3.0), "x0"),  # was an all-nominal swath with an empty zone
            ((0.0, -np.inf), (0.0, 3.0), "x0"),
            ((1.0000001e7, 0.0), (0.0, 3.0), "x0"),
            ((0.0, 0.0), (np.inf, 3.0), "Vtr"),  # was a RuntimeWarning in `position`
            ((0.0, 0.0), (0.0, np.nan), "Vtr"),
            ((0.0, 0.0), (-75.5, 0.0), "Vtr"),
        ],
    )
    def test_bad_entry_refused(self, x0, Vtr, field):
        with pytest.raises(ValueError, match=rf"^{field} must be finite and in \["):
            Track(x0=x0, Vtr=Vtr)

    def test_range_ends_accepted(self):
        track = Track(x0=(-1e7, 1e7), Vtr=(75.0, -75.0))
        assert np.all(np.isfinite(track.position([0.0, 1e9 * 24.0])))


def _single_cell_grid(cx: float, cy: float) -> Grid:
    return Grid(origin=(cx - 0.5, cy - 0.5), nx=1, ny=1, cell_size=1.0)


class TestAxisymmetricField:
    def test_eye_calm(self):
        track = Track(x0=(0.0, 0.0), Vtr=(0.0, 3.0))
        field = wind_field(
            track, HollandParams(Vm=25, Rm=20), _single_cell_grid(0.0, 0.0), TimeAxis(n_steps=1)
        )
        assert field.velocities[0, 0] == 0.0

    def test_eyewall(self):
        track = Track(x0=(0.0, 0.0), Vtr=(0.0, 3.0))
        field = wind_field(
            track, HollandParams(Vm=25, Rm=20), _single_cell_grid(20.0, 0.0), TimeAxis(n_steps=1)
        )
        assert field.velocities[0, 0] == pytest.approx(25.0, abs=1e-12)

    def test_rotation_invariance_at_equal_radius(self):
        track = Track(x0=(0.0, 0.0), Vtr=(0.0, 3.0))
        p = HollandParams(Vm=25, Rm=20)
        times = TimeAxis(n_steps=1)
        r = 35.0
        speeds = []
        for theta in np.linspace(0, 2 * math.pi, 17):
            g = _single_cell_grid(r * math.cos(theta), r * math.sin(theta))
            speeds.append(wind_field(track, p, g, times).velocities[0, 0])
        assert np.ptp(speeds) < 1e-9


class TestAsymmetricField:
    def _field_at(self, cx, cy, hemisphere="N"):
        track = Track(x0=(0.0, 0.0), Vtr=(0.0, 3.0))
        p = HollandParams(Vm=25, Rm=20)
        return wind_field(
            track, p, _single_cell_grid(cx, cy), TimeAxis(n_steps=1), asymmetric=True, hemisphere=hemisphere
        ).velocities[0, 0]

    def test_east_of_northward_track_is_vm_plus_vtr(self):
        assert self._field_at(20.0, 0.0) == pytest.approx(28.0, abs=1e-12)

    def test_west_of_northward_track_is_vm_minus_vtr(self):
        assert self._field_at(-20.0, 0.0) == pytest.approx(22.0, abs=1e-12)

    def test_southern_hemisphere_mirrors(self):
        assert self._field_at(-20.0, 0.0, hemisphere="S") == pytest.approx(28.0, abs=1e-12)

    def test_zero_translation_equals_axisymmetric(self):
        track = Track(x0=(0.0, 0.0), Vtr=(0.0, 0.0))
        p = HollandParams(Vm=25, Rm=20)
        g = Grid(origin=(-25.0, -25.0), nx=10, ny=10, cell_size=5.0)
        times = TimeAxis(n_steps=3)
        a = wind_field(track, p, g, times, asymmetric=True)
        b = wind_field(track, p, g, times)
        assert np.array_equal(a.velocities, b.velocities)

    def test_azimuthal_max_is_90_degrees_clockwise_of_translation(self):
        track = Track(x0=(0.0, 0.0), Vtr=(0.0, 3.0))
        p = HollandParams(Vm=25, Rm=20)
        times = TimeAxis(n_steps=1)
        thetas = np.linspace(0, 2 * math.pi, 721)
        speeds = [
            wind_field(
                track, p, _single_cell_grid(20 * math.cos(t), 20 * math.sin(t)), times, asymmetric=True
            ).velocities[0, 0]
            for t in thetas
        ]
        best = thetas[int(np.argmax(speeds))]
        # Northward translation: 90 degrees clockwise = due east = theta 0/2pi.
        dist = min(abs(best - 0.0), abs(best - 2 * math.pi))
        assert dist <= thetas[1] - thetas[0] + 1e-12


def dense_field_reference(track, p, grid, times, asymmetric=False, hemisphere="N"):
    """Reference field: every cell-to-centre distance at every time in one
    array, the radial profile on it and, for a moving asymmetric storm, the
    vector sum with the translation velocity (the code before the shared
    geometry kernel)."""
    centers = grid.centers()
    pos = track.position(times.offsets())
    dx = centers[:, 0:1] - pos[None, :, 0]
    dy = centers[:, 1:2] - pos[None, :, 1]
    r = np.hypot(dx, dy)
    v = holland_speed(p, r)
    if not asymmetric or track.Vtr == (0.0, 0.0):
        return v
    spin = 1.0 if hemisphere == "N" else -1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        tx = np.where(r > 0, -spin * dy / r, 0.0)
        ty = np.where(r > 0, spin * dx / r, 0.0)
    return np.hypot(v * tx + track.Vtr[0], v * ty + track.Vtr[1])


class TestFieldsMatchReference:
    @settings(max_examples=150)
    @given(
        Vm=st.floats(8.0, 70.0),
        Rm=st.floats(5.0, 60.0),
        B=st.sampled_from([0.6, 1.0, 1.5, 2.5]),
        asymmetric=st.booleans(),
        hemisphere=st.sampled_from(["N", "S"]),
        vtr=st.one_of(
            st.just((0.0, 0.0)),
            st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
        ),
        x0=st.tuples(st.floats(-600.0, 900.0), st.floats(-600.0, 900.0)),
        nx=st.integers(1, 30),
        ny=st.integers(1, 30),
        cell=st.floats(0.5, 25.0),
        n_steps=st.integers(1, 12),
        dt=st.sampled_from([0.5, 1.0, 3.0]),
    )
    def test_bit_identical_to_dense_reference(
        self, Vm, Rm, B, asymmetric, hemisphere, vtr, x0, nx, ny, cell, n_steps, dt
    ):
        p = HollandParams(Vm=Vm, Rm=Rm, B=B)
        track = Track(x0=x0, Vtr=vtr)
        grid = Grid(origin=(-50.0, 20.0), nx=nx, ny=ny, cell_size=cell)
        times = TimeAxis(n_steps=n_steps, dt=dt)
        field = wind_field(track, p, grid, times, asymmetric=asymmetric, hemisphere=hemisphere)
        ref = dense_field_reference(track, p, grid, times, asymmetric, hemisphere)
        assert np.array_equal(field.velocities, ref)

    @settings(max_examples=150)
    @given(
        Vm=st.floats(8.0, 70.0),
        Rm=st.floats(5.0, 60.0),
        asymmetric=st.booleans(),
        hemisphere=st.sampled_from(["N", "S"]),
        vtr=st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
        x0=st.tuples(st.floats(-200.0, 300.0), st.floats(-200.0, 300.0)),
        nx=st.integers(1, 25),
        ny=st.integers(1, 25),
        cell=st.floats(0.5, 25.0),
        n_steps=st.integers(1, 8),
        data=st.data(),
    )
    def test_sub_grid_holds_the_full_field_at_its_cells(
        self, Vm, Rm, asymmetric, hemisphere, vtr, x0, nx, ny, cell, n_steps, data
    ):
        # `fail-dist` evaluates only the columns and rows of its cells.
        p = HollandParams(Vm=Vm, Rm=Rm)
        track = Track(x0=x0, Vtr=vtr)
        grid = Grid(origin=(-50.0, 20.0), nx=nx, ny=ny, cell_size=cell)
        times = TimeAxis(n_steps=n_steps)
        cells = data.draw(st.lists(st.integers(0, grid.n_cells - 1), min_size=1, max_size=8))
        field = wind_field(track, p, grid, times, asymmetric=asymmetric, hemisphere=hemisphere)
        xs, ys, rows = _sub_grid(grid, cells)
        assert np.all(np.diff(xs) > 0) and np.all(np.diff(ys) > 0)
        assert len(xs) * len(ys) <= grid.n_cells
        sub = _velocities(track, p, xs, ys, times, asymmetric, hemisphere)
        assert sub.shape == (len(xs) * len(ys), n_steps)
        assert np.array_equal(sub[rows].view(np.uint64), field.velocities[cells].view(np.uint64))

    def test_sub_grid_of_every_cell_is_the_grid(self):
        grid = Grid(origin=(-50.0, 20.0), nx=4, ny=3, cell_size=2.5)
        xs, ys, rows = _sub_grid(grid, list(reversed(range(grid.n_cells))))
        gx, gy = grid.axes()
        assert np.array_equal(xs, gx) and np.array_equal(ys, gy)
        assert rows.tolist() == list(reversed(range(grid.n_cells)))

    def test_unknown_hemisphere_rejected(self):
        track = Track(x0=(0.0, 0.0), Vtr=(0.0, 0.0))
        with pytest.raises(ValueError, match="hemisphere"):
            wind_field(
                track, HollandParams(Vm=25, Rm=20), Grid(), TimeAxis(), asymmetric=True, hemisphere="X"
            )


class TestWindFieldValidation:
    def test_negative_velocity_rejected(self):
        with pytest.raises(ValueError):
            WindField(
                grid=Grid(nx=1, ny=1),
                times=TimeAxis(n_steps=1),
                velocities=np.array([[-1.0]]),
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WindField(
                grid=Grid(nx=2, ny=1),
                times=TimeAxis(n_steps=1),
                velocities=np.zeros((1, 1)),
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            WindField(
                grid=Grid(nx=1, ny=1),
                times=TimeAxis(n_steps=1),
                velocities=np.array([[np.nan]]),
            )


def read_wind_field(path, grid, times) -> np.ndarray:
    """The velocities of a `save_wind_field` file, read by the shared reader."""
    return _read_velocities(path, WINDFIELD_HEADER, (grid.n_cells, times.n_steps))


class TestWindFieldIO:
    def _field(self):
        track = Track(x0=(3.0, -10.0), Vtr=(1.0, 3.0))
        return wind_field(
            track,
            HollandParams(Vm=37, Rm=30),
            Grid(nx=4, ny=3, cell_size=7.0),
            TimeAxis(n_steps=4),
        )

    def test_round_trip_bit_equal(self, tmp_path):
        field = self._field()
        path = tmp_path / "wind.csv"
        save_wind_field(field, path)
        loaded = read_wind_field(path, field.grid, field.times)
        assert np.array_equal(loaded, field.velocities)

    def test_header_mandatory(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text("0,0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_wind_field(path, Grid(nx=1, ny=1), TimeAxis(n_steps=1))

    def test_missing_row_named(self, tmp_path):
        path = tmp_path / "wind.csv"
        path.write_text("cell_id,time_index,velocity_mps\n0,0,1.0\n")
        with pytest.raises(ValueError, match="cell 0, time 1"):
            read_wind_field(path, Grid(nx=1, ny=1), TimeAxis(n_steps=2))

    def test_comment_lines_skipped(self, tmp_path):
        field = self._field()
        path = tmp_path / "wind.csv"
        save_wind_field(field, path, header_comment="config_sha256=deadbeef")
        assert path.read_text().startswith("# config_sha256=deadbeef\n")
        loaded = read_wind_field(path, field.grid, field.times)
        assert np.array_equal(loaded, field.velocities)

    def test_nine_significant_digits(self, tmp_path):
        field = self._field()
        path = tmp_path / "wind.csv"
        save_wind_field(field, path)
        line = path.read_text().splitlines()[1]
        value = line.split(",")[2]
        digits = len(value.replace(".", "").replace("-", "").lstrip("0"))
        assert digits >= 9
