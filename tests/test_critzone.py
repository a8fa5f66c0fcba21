import itertools

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from stormrisk import (
    Grid,
    HollandParams,
    NhppParams,
    TimeAxis,
    Track,
    axisymmetric_zone_area,
    critical_radius,
    critical_zone_numeric,
    fit_crit_area,
    fit_crit_radius,
    fit_power_law_vm_only,
    holland_speed,
    obround_area,
    poisson_intensity,
    save_zone_sweep,
    storm_swath,
    sweep_critical_radius,
    tables123,
    wind_field,
    zone_failure_stats,
    zone_sweep,
)
from stormrisk import critzone
from stormrisk.critzone import SWEEP_HEADER, TABLE_HEADER, _critical_radii, _window_radius
from stormrisk.csvio import TABLE_FMT, _write_csv

VTHRES = 20.6

# Frozen oracles: outer root of V(r) = Vthres for the B = 1 profile, computed
# independently by bisection to 1e-9 m/s.
RCRIT = {
    (25, 20): 56.03547871506852,
    (25, 30): 84.05321807260279,
    (25, 40): 112.07095743013704,
    (37, 20): 154.02888891820237,
    (37, 30): 231.04333337730355,
    (37, 40): 308.05777783640474,
    (46, 20): 250.2642570786963,
    (46, 30): 375.3963856180445,
    (46, 40): 500.5285141573926,
    (80, 50): 1999.1625578377166,
    (21, 20): 26.74967907077349,
}

# 2 * 50 * (121 * 3 * 3.6) + pi * 50^2
OBROUND_50_121_3 = 138533.98163397447


class TestCriticalRadius:
    def test_below_threshold_is_none(self):
        assert critical_radius(HollandParams(Vm=15, Rm=30), VTHRES) is None

    def test_at_threshold_is_rm(self):
        assert critical_radius(HollandParams(Vm=VTHRES, Rm=30), VTHRES) == 30.0

    @pytest.mark.parametrize("key", sorted(RCRIT))
    def test_frozen_oracles(self, key):
        Vm, Rm = key
        rc = critical_radius(HollandParams(Vm=Vm, Rm=Rm), VTHRES)
        assert rc == pytest.approx(RCRIT[key], rel=1e-6)

    def test_profile_at_root_equals_threshold(self):
        p = HollandParams(Vm=37, Rm=30)
        rc = critical_radius(p, VTHRES)
        assert abs(holland_speed(p, rc) - VTHRES) <= 1e-9

    def test_scales_linearly_with_rm(self):
        # With B fixed the profile depends on r only through r/Rm.
        rc20 = critical_radius(HollandParams(Vm=25, Rm=20), VTHRES)
        rc40 = critical_radius(HollandParams(Vm=25, Rm=40), VTHRES)
        assert rc40 == pytest.approx(2 * rc20, rel=1e-6)

    def test_monotone_in_vm(self):
        rcs = [critical_radius(HollandParams(Vm=v, Rm=30), VTHRES) for v in (25, 37, 46, 60)]
        assert all(a < b for a, b in zip(rcs, rcs[1:]))

    def test_beyond_rm(self):
        rc = critical_radius(HollandParams(Vm=25, Rm=20), VTHRES)
        assert rc > 20.0

    @pytest.mark.parametrize("Vthres", [0.0, np.nextafter(1.0, 0.0), np.nextafter(150.0, np.inf), np.nan])
    def test_threshold_outside_the_vcrit_range(self, Vthres):
        # Vcrit's range, for the one storm and for a sweep's storms alike.
        message = r"Vthres must be finite and in \[1, 150\], got "
        with pytest.raises(ValueError, match=message):
            critical_radius(HollandParams(Vm=25, Rm=20), Vthres)
        with pytest.raises(ValueError, match=message):
            sweep_critical_radius([25.0], [20.0], Vthres)

    @pytest.mark.filterwarnings("error")
    def test_radius_at_the_corner_of_the_ranges_bisects(self):
        # The largest radius inside the ranges, about 1.9e12 km.
        p = HollandParams(Vm=150.0, Rm=500.0, B=0.5)
        Rc = critical_radius(p, 1.0)
        assert 1e12 < Rc < 1e13
        assert abs(holland_speed(p, Rc) - 1.0) <= 1e-9


def scalar_critical_radius(p, Vthres):
    """Reference: the scalar bisection `critical_radius` ran before it became
    the one-storm case of the vectorised `_critical_radii`."""
    if p.Vm < Vthres:
        return None
    if p.Vm == Vthres:
        return p.Rm
    lo = p.Rm
    hi = 2.0 * p.Rm
    while holland_speed(p, hi) >= Vthres:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = holland_speed(p, mid)
        if abs(v - Vthres) <= 1e-9:
            return mid
        if v > Vthres:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("critical_radius bisection did not converge")


# Vm as a multiple of Vthres: below, at and above it, up to storms whose
# bracket [Rm, 2 Rm] must double many times.
VM_OVER_VTHRES = st.one_of(
    st.floats(0.2, 6.0),
    st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-6, 0.5, 4.0]),
)


class TestVectorisedBisection:
    @settings(max_examples=100)
    @given(
        storms=st.lists(
            st.tuples(VM_OVER_VTHRES, st.floats(1.0, 100.0), st.floats(0.5, 2.5)), min_size=1, max_size=12
        ),
        Vthres=st.floats(5.0, 25.0),  # Vm up to 6 Vthres, 150 m/s
    )
    @example(storms=[(80 / 20.6, 50.0, 1.0), (1.0, 30.0, 1.0), (0.7, 30.0, 2.5)], Vthres=20.6)
    @example(storms=[(6.0, 10.0, 0.5)], Vthres=25.0)  # the bracket doubles 14 times
    def test_equals_scalar_loop_bit_for_bit(self, storms, Vthres):
        params = [HollandParams(Vm=q * Vthres, Rm=Rm, B=B) for q, Rm, B in storms]
        ref = [scalar_critical_radius(p, Vthres) for p in params]
        assert [critical_radius(p, Vthres) for p in params] == ref
        # The storms of each profile exponent at once, as a sweep passes them.
        for B in {p.B for p in params}:
            same = [i for i, p in enumerate(params) if p.B == B]
            Vm, Rm = (np.array([getattr(params[i], name) for i in same]) for name in ("Vm", "Rm"))
            got = _critical_radii(Vm, Rm, B, Vthres)
            assert [None if np.isnan(g) else g for g in got.tolist()] == [ref[i] for i in same]

    @pytest.mark.parametrize("B", [1.0, 1.5])
    def test_sweep_equals_scalar_loop(self, B):
        # Every other storm of the default sweep's range.
        Vm_grid, Rm_grid = np.arange(21.0, 80 + 1e-9, 2.0), np.arange(20.0, 50 + 1e-9, 2.0)
        Vm, Rm, Rc = sweep_critical_radius(Vm_grid, Rm_grid, VTHRES, B=B)
        ref = [(v, r, scalar_critical_radius(HollandParams(Vm=v, Rm=r, B=B), VTHRES))
               for v, r in itertools.product(Vm_grid, Rm_grid)]
        assert list(zip(Vm.tolist(), Rm.tolist(), Rc.tolist())) == [t for t in ref if t[2] is not None]

    def test_sweep_rejects_an_invalid_storm_as_holland_params_does(self):
        with pytest.raises(ValueError, match=r"Rm must be finite and in \[1, 500\], got -1.0"):
            sweep_critical_radius([25.0, 30.0], [20.0, -1.0], VTHRES)
        with pytest.raises(ValueError, match=r"B must be finite and in \[0.5, 3\], got 0.0"):
            sweep_critical_radius([25.0], [20.0], VTHRES, B=0.0)


class TestObround:
    def test_frozen_oracle(self):
        assert obround_area(50.0, 121.0, 3.0) == pytest.approx(OBROUND_50_121_3, rel=1e-13)

    def test_stationary_storm_is_disc(self):
        assert obround_area(10.0, 24.0, 0.0) == pytest.approx(np.pi * 100.0, rel=1e-13)

    def test_vector_translation_uses_speed(self):
        assert obround_area(10.0, 5.0, (3.0, 4.0)) == pytest.approx(
            obround_area(10.0, 5.0, 5.0), rel=1e-13
        )

    def test_zero_radius(self):
        assert obround_area(0.0, 24.0, 3.0) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            obround_area(-1.0, 1.0, 1.0)


class TestNumericZone:
    def _setup(self, Vm=25, Rm=20, cell=2.0):
        p = HollandParams(Vm=Vm, Rm=Rm)
        track = Track(x0=(0.0, -50.0), Vtr=(0.0, 3.0))
        # 10 h at 10.8 km/h: track spans y in [-50, 58].
        grid = Grid(origin=(-150.0, -200.0), nx=int(300 / cell), ny=int(400 / cell), cell_size=cell)
        times = TimeAxis(n_steps=11, dt=1.0)
        return p, track, grid, times

    def test_matches_obround(self):
        p, track, grid, times = self._setup()
        field = wind_field(track, p, grid, times)
        zone = critical_zone_numeric(field, VTHRES, p, track)
        assert zone.dtype == bool and zone.shape == (grid.n_cells,)
        rc = critical_radius(p, VTHRES)
        expected = obround_area(rc, 10.0, 3.0)
        area = np.count_nonzero(zone) * grid.cell_area
        assert area == pytest.approx(expected, rel=3 * grid.cell_size / rc)

    def test_subcritical_storm_zone_is_rm_swath(self):
        p, track, grid, times = self._setup(Vm=15)
        field = wind_field(track, p, grid, times)
        zone = critical_zone_numeric(field, VTHRES, p, track)
        expected = obround_area(p.Rm, 10.0, 3.0)
        area = np.count_nonzero(zone) * grid.cell_area
        assert area == pytest.approx(expected, rel=3 * grid.cell_size / p.Rm)

    @pytest.mark.parametrize("Vthres", [0.0, -1.0, np.nextafter(1.0, 0.0)])
    def test_threshold_below_the_vcrit_range_rejected(self, Vthres):
        p, track, grid, times = self._setup(cell=10.0)
        field = wind_field(track, p, grid, times)
        with pytest.raises(ValueError, match=r"Vthres must be finite and in \[1, 150\]"):
            critical_zone_numeric(field, Vthres, p, track)

    def test_zone_failure_stats(self):
        zone = np.array([True, False, True])
        stats = zone_failure_stats([1.0, 99.0, 3.0], zone)
        assert stats == {"max": 3.0, "mean": 2.0}

    def test_zone_failure_stats_empty_zone(self):
        assert zone_failure_stats([1.0, 99.0], np.zeros(2, dtype=bool)) == {"max": 0.0, "mean": 0.0}

    def test_fast_area_matches_cell_count(self):
        p, track, _, times = self._setup()
        rc = critical_radius(p, VTHRES)
        fast = axisymmetric_zone_area(track, p, times, rc, cell_size=2.0)
        expected = obround_area(rc, 10.0, 3.0)
        assert fast == pytest.approx(expected, rel=3 * 2.0 / rc)

    def test_fast_area_agrees_with_field_union(self):
        p, track, grid, times = self._setup(cell=4.0)
        field = wind_field(track, p, grid, times)
        zone = critical_zone_numeric(field, VTHRES, p, track)
        fast = axisymmetric_zone_area(track, p, times, critical_radius(p, VTHRES), cell_size=4.0)
        assert fast == pytest.approx(np.count_nonzero(zone) * grid.cell_area, rel=0.05)

    @pytest.mark.parametrize(
        "asymmetric, hemisphere", [(False, "N"), (True, "N"), (True, "S")], ids=["axisymmetric", "N", "S"]
    )
    def test_storm_swath_consistent_with_field_union(self, asymmetric, hemisphere):
        # The windowed swath's mask is the dense field's zone, cell for cell.
        p, track, grid, times = self._setup(cell=4.0)
        nhpp = NhppParams()
        rates, mask = storm_swath(track, p, grid, times, nhpp, asymmetric=asymmetric, hemisphere=hemisphere)
        field = wind_field(track, p, grid, times, asymmetric=asymmetric, hemisphere=hemisphere)
        zone = critical_zone_numeric(field, nhpp.Vcrit, p, track)
        assert np.array_equal(mask, zone)
        from stormrisk import failure_rate

        assert np.allclose(rates, failure_rate(nhpp, field.velocities, times.dt), rtol=1e-12)


def zone_area_by_1024_rows(track, p, times, Vthres, cell_size):
    """Reference: `axisymmetric_zone_area` as it counted before its blocked,
    in-place count, bisecting the radius itself and building each 1,024-row
    chunk's arrays whole, with the cell distances from `np.hypot`.  Returns
    the area and the number of cells whose distance is within 4 ulp of the
    count's limit, max(Rcrit, the float below Rm)."""
    Rc = scalar_critical_radius(p, Vthres)
    radius = p.Rm if Rc is None else Rc
    pos = track.position(times.offsets())
    a, b = pos[0], pos[-1]
    step = np.hypot(*(pos[1] - pos[0])) if times.n_steps > 1 else 0.0
    pad = radius + 2 * cell_size
    xmin, ymin = np.minimum(a, b) - pad
    xmax, ymax = np.maximum(a, b) + pad
    xs = np.arange(xmin + cell_size / 2, xmax, cell_size)
    ys = np.arange(ymin + cell_size / 2, ymax, cell_size)
    if step > 0:
        ex, ey = (b - a) / np.hypot(*(b - a))
    else:
        ex, ey = 1.0, 0.0
    below_rm = np.nextafter(p.Rm, 0.0)
    limit = below_rm if Rc is None else max(Rc, below_rm)
    count = near = 0
    for x0 in range(0, len(xs), 1024):
        X = xs[x0 : x0 + 1024][:, None]
        Y = ys[None, :]
        px = X - a[0]
        py = Y - a[1]
        if step > 0:
            k = np.clip(np.rint((px * ex + py * ey) / step), 0, times.n_steps - 1)
        else:
            k = np.zeros((X.shape[0], Y.shape[1]))
        cx = a[0] + k * step * ex
        cy = a[1] + k * step * ey
        d = np.hypot(X - cx, Y - cy)
        if Rc is None:
            count += int(np.count_nonzero(d < p.Rm))
        else:
            count += int(np.count_nonzero((d < p.Rm) | (d <= Rc)))
        near += int(np.count_nonzero(np.abs(d - limit) <= 4 * np.spacing(limit)))
    return count * cell_size * cell_size, near


class TestBlockedZoneArea:
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=150)
    @given(
        q=VM_OVER_VTHRES.filter(lambda q: q <= 2.0),
        Rm=st.floats(5.0, 40.0),
        B=st.floats(0.5, 2.5),
        x0=st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)),
        speed=st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
        # Diagonal tracks too, whose centres and cells are not aligned.
        heading=st.one_of(st.floats(0.0, 2 * np.pi), st.sampled_from([k * np.pi / 4 for k in range(8)])),
        n_steps=st.integers(1, 40),
        dt=st.floats(0.25, 2.0),
        cell=st.one_of(st.floats(0.7, 8.0), st.sampled_from([1.0, 2.0, 2.5, 4.0])),
    )
    @example(q=0.8, Rm=30.0, B=1.0, x0=(0.0, 0.0), speed=3.0, heading=0.0, n_steps=11, dt=1.0, cell=2.0)
    @example(q=1.8, Rm=40.0, B=1.0, x0=(0.0, 0.0), speed=0.0, heading=0.0, n_steps=11, dt=1.0, cell=0.7)
    @example(q=1.2, Rm=30.0, B=1.0, x0=(0.0, 0.0), speed=1e-310, heading=0.0, n_steps=5, dt=1.0, cell=2.0)
    # Subcritical, 2 km cells, centres 9 km apart: five cells lie exactly
    # Rm = 25 km from the nearest centre, one ulp past the limit.
    @example(q=0.8, Rm=25.0, B=1.0, x0=(0.0, 0.0), speed=2.5, heading=0.0, n_steps=2, dt=1.0, cell=2.0)
    def test_equals_the_hypot_count_but_at_the_limit(self, q, Rm, B, x0, speed, heading, n_steps, dt, cell):
        # The count compares squared distances with the squared limit; it may
        # differ from the `np.hypot` count only by the cells whose distance
        # is within 4 ulp of the limit.
        p = HollandParams(Vm=q * VTHRES, Rm=Rm, B=B)
        Vtr = (speed * np.cos(heading), speed * np.sin(heading))
        track = Track(x0=x0, Vtr=Vtr)
        times = TimeAxis(n_steps=n_steps, dt=dt)
        got = axisymmetric_zone_area(track, p, times, critical_radius(p, VTHRES), cell_size=cell)
        with np.errstate(over="ignore"):  # the reference divides by a subnormal step
            ref, near = zone_area_by_1024_rows(track, p, times, VTHRES, cell)
        event(f"cells within 4 ulp of the limit: {'some' if near else 'none'}")
        if near == 0:
            assert got == ref
        else:
            count, ref_count = (round(area / (cell * cell)) for area in (got, ref))
            assert count * cell * cell == got
            assert abs(count - ref_count) <= near

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("Vtr", [(1e-310, 0.0), (5e-324, 0.0), (-1e-320, 0.0), (0.0, 1e-310), (1e-310, -1e-310)])
    def test_subnormal_step_counts_as_stationary(self, Vtr):
        # From x0 = (0, 0) the track's positions differ, however little.
        p, times = HollandParams(Vm=37.0, Rm=30.0), TimeAxis(n_steps=5)
        Rcrit = critical_radius(p, VTHRES)
        stationary = axisymmetric_zone_area(Track(x0=(0.0, 0.0), Vtr=(0.0, 0.0)), p, times, Rcrit)
        assert axisymmetric_zone_area(Track(x0=(0.0, 0.0), Vtr=Vtr), p, times, Rcrit) == stationary


def dense_swath(track, p, grid, times, nhpp, asymmetric=False, hemisphere="N"):
    """Reference swath: every cell evaluated at every step."""
    spin = 1.0 if hemisphere == "N" else -1.0
    centers = grid.centers()
    pos = track.position(times.offsets())
    rates = np.zeros(grid.n_cells)
    zone = np.zeros(grid.n_cells, dtype=bool)
    for t in range(times.n_steps):
        dx = centers[:, 0] - pos[t, 0]
        dy = centers[:, 1] - pos[t, 1]
        r = np.hypot(dx, dy)
        v = holland_speed(p, r)
        if asymmetric:
            with np.errstate(invalid="ignore", divide="ignore"):
                tx = np.where(r > 0, -spin * dy / r, 0.0)
                ty = np.where(r > 0, spin * dx / r, 0.0)
            v = np.hypot(v * tx + track.Vtr[0], v * ty + track.Vtr[1])
        rates += poisson_intensity(nhpp, v)
        zone |= (r < p.Rm) | (v >= nhpp.Vcrit)
    rates *= times.dt
    return rates, zone


class TestWindowRadius:
    @settings(max_examples=300)
    @given(
        Vm=st.floats(5.0, 90.0),
        Rm=st.floats(1.0, 100.0),
        B=st.sampled_from([0.6, 1.0, 1.5, 2.5]),
        # Vhot / Vm, down to 0.05 so that Vhot * 1e-8 exceeds the 1e-9 m/s
        # bisection tolerance; up to and at Vm, where W0 has its branch point.
        frac=st.one_of(
            st.floats(0.05, 1.0),
            st.sampled_from([1.0, 1.0 - 1e-15, 1.0 - 1e-12, 1.0 - 1e-9, 1.0 - 1e-6]),
        ),
    )
    def test_closed_form_bounds_the_bisection_root(self, Vm, Rm, B, frac):
        p = HollandParams(Vm=Vm, Rm=Rm, B=B)
        Vhot = frac * Vm
        bound = _window_radius(p, Vhot)
        assert holland_speed(p, bound) < Vhot
        # `storm_swath` passes Vhot = Vcrit - |Vtr|, which may be below Vcrit's range.
        assert bound >= _critical_radii(np.array([Vm]), np.array([Rm]), B, Vhot)[0]

    def test_degenerate_targets(self):
        p = HollandParams(Vm=30.0, Rm=25.0)
        assert _window_radius(p, 0.0) == np.inf
        assert _window_radius(p, -3.0) == np.inf
        assert _window_radius(p, 30.5) == 25.0


class TestStormSwath:
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
        nx=st.integers(1, 40),
        ny=st.integers(1, 40),
        cell=st.floats(0.5, 25.0),
        n_steps=st.integers(1, 12),
        dt=st.sampled_from([0.5, 1.0, 3.0]),
    )
    def test_matches_dense_reference(
        self, Vm, Rm, B, asymmetric, hemisphere, vtr, x0, nx, ny, cell, n_steps, dt
    ):
        p = HollandParams(Vm=Vm, Rm=Rm, B=B)
        track = Track(x0=x0, Vtr=vtr)
        grid = Grid(origin=(-50.0, 20.0), nx=nx, ny=ny, cell_size=cell)
        times = TimeAxis(n_steps=n_steps, dt=dt)
        nhpp = NhppParams()
        rates, zone = storm_swath(track, p, grid, times, nhpp, asymmetric, hemisphere)
        # A stationary asymmetric storm is the axisymmetric one.
        ref_rates, ref_zone = dense_swath(
            track, p, grid, times, nhpp, asymmetric and vtr != (0.0, 0.0), hemisphere
        )
        assert np.array_equal(rates, ref_rates)
        assert np.array_equal(zone, ref_zone)

    def test_matches_dense_reference_on_table_storm(self):
        grid, times, track = critzone._TABLE_GRID, TimeAxis(n_steps=30), critzone._TABLE_TRACK
        nhpp = NhppParams()
        for (Vm, Rm), asym in itertools.product([(25, 20), (46, 40)], (False, True)):
            p = HollandParams(Vm=float(Vm), Rm=float(Rm))
            rates, zone = storm_swath(track, p, grid, times, nhpp, asymmetric=asym)
            ref_rates, ref_zone = dense_swath(track, p, grid, times, nhpp, asymmetric=asym)
            assert np.array_equal(rates, ref_rates)
            assert np.array_equal(zone, ref_zone)
            assert 0 < np.count_nonzero(zone) < grid.n_cells

    @pytest.mark.parametrize("B, asymmetric", [(0.5, False), (3.0, False), (1.0, True)])
    def test_smallest_threshold_window_is_the_whole_grid(self, B, asymmetric):
        # At the least Vcrit, 1 m/s, the closed-form window radius passes the
        # grid; with a translation faster than Vcrit it is unbounded.
        p = HollandParams(Vm=37.0, Rm=30.0, B=B)
        assert _window_radius(p, 1.0 - 3.0 * asymmetric) > 72.0
        track = Track(x0=(0.0, -30.0), Vtr=(0.0, 3.0))
        grid = Grid(origin=(-36.0, -36.0), nx=12, ny=12, cell_size=6.0)
        times = TimeAxis(n_steps=6)
        nhpp = NhppParams(Vcrit=1.0)
        rates, zone = storm_swath(track, p, grid, times, nhpp, asymmetric=asymmetric)
        ref_rates, ref_zone = dense_swath(track, p, grid, times, nhpp, asymmetric=asymmetric)
        assert np.array_equal(rates, ref_rates)
        assert np.array_equal(zone, ref_zone)
        assert zone.all()

    @pytest.mark.parametrize("asymmetric", [False, True], ids=["axisymmetric", "asymmetric"])
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["west", "east"])
    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1])
    def test_window_edge_at_rm(self, asymmetric, side, ulps):
        # Vm below Vhot, so the window reaches exactly Rm, with no slack: a
        # cell centre lies `ulps` floats from |dx| = Rm, with dy = 0 at the
        # first step.
        p, nhpp = HollandParams(Vm=15.0, Rm=30.0), NhppParams()
        Vtr = (0.0, 3.0)
        assert _window_radius(p, nhpp.Vcrit - np.hypot(*Vtr) * asymmetric) == p.Rm
        grid = Grid(origin=(-40.0, 0.0), nx=81, ny=24, cell_size=1.0)
        xs, ys = grid.axes()
        d = p.Rm
        for _ in range(abs(ulps)):
            d = np.nextafter(d, np.copysign(np.inf, ulps))
        # The cell at x = 15.5 east of a centre at -14.5, or at -15.5 west of 14.5.
        i = int(np.searchsorted(xs, side * 15.5))
        px = xs[i] - side * d
        assert xs[i] - px == side * d
        track, times = Track(x0=(px, ys[4]), Vtr=Vtr), TimeAxis(n_steps=4)
        rates, zone = storm_swath(track, p, grid, times, nhpp, asymmetric=asymmetric)
        ref_rates, ref_zone = dense_swath(track, p, grid, times, nhpp, asymmetric=asymmetric)
        assert np.array_equal(rates, ref_rates)
        assert np.array_equal(zone, ref_zone)
        assert zone.reshape(grid.nx, grid.ny)[i, 4] == (ulps < 0)

    def test_unknown_hemisphere_rejected(self):
        p, track, grid, times = TestNumericZone()._setup(cell=10.0)
        with pytest.raises(ValueError, match="hemisphere"):
            storm_swath(track, p, grid, times, NhppParams(), asymmetric=True, hemisphere="X")

    def test_stationary_asymmetric_equals_axisymmetric(self):
        p = HollandParams(Vm=46.0, Rm=30.0)
        track = Track(x0=(3.7, -1.9), Vtr=(0.0, 0.0))
        grid = Grid(origin=(-400.0, -400.0), nx=200, ny=200, cell_size=4.0)
        times = TimeAxis(n_steps=5)
        nhpp = NhppParams()
        axi = storm_swath(track, p, grid, times, nhpp)
        for hemisphere in ("N", "S"):
            asym = storm_swath(track, p, grid, times, nhpp, asymmetric=True, hemisphere=hemisphere)
            assert np.array_equal(asym[0], axi[0])
            assert np.array_equal(asym[1], axi[1])


class TestRadiusFit:
    def test_exact_power_law_recovered(self):
        rng = np.random.default_rng(7)
        Vm = rng.uniform(25, 80, 60)
        Rm = rng.uniform(20, 50, 60)
        true_a1, true_a2 = 1.8, 2.7
        Rcrit = true_a1 * Rm * (Vm / VTHRES) ** true_a2
        fit = fit_crit_radius(Vm, Rm, Rcrit, VTHRES)
        assert fit.a1 == pytest.approx(true_a1, rel=1e-9)
        assert fit.a2 == pytest.approx(true_a2, rel=1e-9)
        assert fit.residual < 1e-10
        assert np.allclose(fit.predict(Vm, Rm), Rcrit, rtol=1e-9)

    def test_sweep_skips_subthreshold(self):
        Vm, Rm, Rc = sweep_critical_radius([15, 25], [20, 30], VTHRES)
        assert set(Vm) == {25}
        assert len(Rc) == 2

    def test_vm_only_reference_fits_worse(self):
        Vm, Rm, Rc = sweep_critical_radius(np.arange(25, 50, 5), [20, 30, 40, 50], VTHRES)
        full = fit_crit_radius(Vm, Rm, Rc, VTHRES)
        vm_only = fit_power_law_vm_only(Vm, Rc)
        assert full.residual < vm_only.rms

    def test_standard_errors_positive(self):
        Vm, Rm, Rc = sweep_critical_radius([25, 30, 35], [20, 30], VTHRES)
        fit = fit_crit_radius(Vm, Rm, Rc, VTHRES)
        assert fit.se_log_a1 > 0
        assert fit.se_a2 > 0


class TestAreaFit:
    def _radius_fit(self, a1, a2):
        rng = np.random.default_rng(11)
        Vm = rng.uniform(25, 60, 40)
        Rm = rng.uniform(20, 50, 40)
        Rcrit = a1 * Rm * (Vm / VTHRES) ** a2
        return Vm, Rm, Rcrit, fit_crit_radius(Vm, Rm, Rcrit, VTHRES)

    def test_unit_a1_gives_pi_cap_coefficient(self):
        Vm, Rm, Rcrit, rf = self._radius_fit(1.0, 2.0)
        areas = [obround_area(rc, 24.0, 3.0) for rc in Rcrit]
        af = fit_crit_area(Vm, Rm, areas, rf, T=24.0, Vtr=(0.0, 3.0))
        assert af.b2_derived == pytest.approx(np.pi, rel=1e-9)

    def test_stationary_storm_has_no_rectangle_term(self):
        Vm, Rm, Rcrit, rf = self._radius_fit(1.5, 2.0)
        areas = [obround_area(rc, 24.0, 0.0) for rc in Rcrit]
        af = fit_crit_area(Vm, Rm, areas, rf, T=24.0, Vtr=(0.0, 0.0))
        assert af.b1_derived == 0.0

    def test_free_fit_recovers_derived_on_exact_obrounds(self):
        T, vtr = 24.0, 3.0
        Vm, Rm, Rcrit, rf = self._radius_fit(1.8, 2.7)
        areas = [obround_area(rc, T, vtr) for rc in Rcrit]
        af = fit_crit_area(Vm, Rm, areas, rf, T=T, Vtr=vtr)
        assert af.b1_free == pytest.approx(af.b1_derived, rel=1e-6)
        assert af.b2_free == pytest.approx(af.b2_derived, rel=1e-6)
        assert np.allclose(af.predict(Vm, Rm), areas, rtol=1e-6)
        assert np.allclose(af.predict(Vm, Rm, derived=True), areas, rtol=1e-6)

    def test_derived_within_five_percent_of_free_on_full_sweep(self):
        # Internal consistency on the Vm in [21, 80], Rm in [20, 50] sweep:
        # the obround-derived coefficients and the free (relative-error)
        # least-squares fit against obround areas of the true critical radii
        # agree within 5%.
        T, vtr = 121.0, 3.0
        Vm, Rm, Rc = sweep_critical_radius(np.arange(21, 81), np.arange(20, 51), VTHRES)
        rf = fit_crit_radius(Vm, Rm, Rc, VTHRES)
        areas = np.array([obround_area(rc, T, vtr) for rc in Rc])
        af = fit_crit_area(Vm, Rm, areas, rf, T=T, Vtr=vtr)
        assert af.b1_free == pytest.approx(af.b1_derived, rel=0.05)
        assert af.b2_free == pytest.approx(af.b2_derived, rel=0.05)
        rel = np.abs(af.predict(Vm, Rm, derived=True) - af.predict(Vm, Rm)) / areas
        assert rel.max() < 0.05


def tables123_per_storm():
    """Reference: `tables123` as it ran before its shared pass per radius,
    one `storm_swath` per storm and asymmetry."""
    nhpp = NhppParams()
    grid = critzone._TABLE_GRID
    out = []
    for Vm, Rm in critzone.TABLE_STORMS:
        p = HollandParams(Vm=float(Vm), Rm=float(Rm))
        rec = {"Vm": Vm, "Rm": Rm}
        for asym, label in ((False, "axi"), (True, "asym")):
            rates, zone = storm_swath(critzone._TABLE_TRACK, p, grid, critzone.TABLE_TIMES, nhpp, asymmetric=asym)
            stats = zone_failure_stats(rates, zone)
            rec[f"area_{label}_km2"] = float(np.count_nonzero(zone)) * grid.cell_area
            rec[f"max_fr_{label}"] = stats["max"]
            rec[f"mean_fr_{label}"] = stats["mean"]
        out.append(rec)
    return out


class TestBenchmarkTables:
    def test_structure_on_small_domain(self, monkeypatch):
        monkeypatch.setattr(critzone, "_TABLE_GRID", Grid(origin=(0.0, 0.0), nx=30, ny=40, cell_size=10.0))
        monkeypatch.setattr(critzone, "TABLE_TIMES", TimeAxis(n_steps=20))
        monkeypatch.setattr(critzone, "_TABLE_TRACK", Track(x0=(150.0, 10.0), Vtr=(0.0, 3.3)))
        records = tables123()
        assert len(records) == 9
        for rec in records:
            assert rec["area_asym_km2"] > 0
            assert rec["max_fr_asym"] >= rec["max_fr_axi"] > 0
            assert rec["mean_fr_axi"] > 0

    def test_equals_the_per_storm_loop(self):
        # Each radius's six swaths come from one kernel pass; every value is
        # the one storm-at-a-time swaths give.
        records = tables123()
        ref = tables123_per_storm()
        assert [list(rec) for rec in records] == [list(rec) for rec in ref]
        assert [(rec["Vm"], rec["Rm"]) for rec in records] == critzone.TABLE_STORMS
        values = [(rec[name], r[name]) for rec, r in zip(records, ref) for name in TABLE_HEADER[2:]]
        assert len(values) == 54 and all(type(a) is type(b) is float and a == b for a, b in values)

    def test_default_config_grid_dimensions(self):
        g = critzone._TABLE_GRID
        assert (g.nx, g.ny, g.cell_size) == (186, 236, 5.35568345)
        assert (critzone.TABLE_TIMES.n_steps, critzone.TABLE_TIMES.dt) == (121, 1.0)
        assert critzone._TABLE_TRACK.Vtr[0] == 0.0
        # The storm runs up the middle of the domain.
        assert critzone._TABLE_TRACK.x0[0] == pytest.approx(g.nx * g.cell_size / 2.0, abs=1.0)


def zone_rate_stats(p, nparams, track, times, rc):
    """Reference: the sweep's zone rate statistics as the command line took
    them, on a coarse grid spanning the swath."""
    pos = track.position(times.offsets())
    cell = float(np.clip(rc / 30.0, 1.0, 25.0))
    pad = rc + 2.0 * cell
    lo = pos.min(axis=0) - pad
    hi = pos.max(axis=0) + pad
    grid = Grid(
        origin=(float(lo[0]), float(lo[1])),
        nx=max(1, int(np.ceil((hi[0] - lo[0]) / cell))),
        ny=max(1, int(np.ceil((hi[1] - lo[1]) / cell))),
        cell_size=cell,
    )
    rates, zone = storm_swath(track, p, grid, times, nparams)
    return zone_failure_stats(rates, zone)


def zone_sweep_rows(Vm_grid, Rm_grid, nparams, track, times, B):
    """Reference: the sweep's row dicts as the command line built them, one
    storm at a time."""
    Vm, Rm, Rcrit = sweep_critical_radius(Vm_grid, Rm_grid, Vthres=nparams.Vcrit, B=B)
    rows = []
    for v, r, rc in zip(Vm, Rm, Rcrit):
        p = HollandParams(Vm=float(v), Rm=float(r), B=B)
        cell = float(np.clip(rc / 100.0, 2.0, 25.0))
        stats = zone_rate_stats(p, nparams, track, times, rc)
        rows.append(
            {
                "Vm_mps": float(v),
                "Rm_km": float(r),
                "Rcrit_km": rc,
                "Acrit_numeric_km2": axisymmetric_zone_area(track, p, times, rc, cell_size=cell),
                "Acrit_obround_km2": obround_area(rc, times.duration, track.Vtr),
                "maxFR": stats["max"],
                "meanFR": stats["mean"],
            }
        )
    return rows


def save_zone_rows(rows, path, header_comment):
    """Reference: the sweep CSV writer that took row dicts."""
    table = (
        [row["Vm_mps"], row["Rm_km"]] + [format(row[k], TABLE_FMT) for k in SWEEP_HEADER[2:]]
        for row in rows
    )
    _write_csv(path, SWEEP_HEADER, table, header_comment)


class TestZoneSweep:
    @pytest.mark.parametrize("B", [1.0, 1.5])
    def test_equals_the_per_storm_loop_bit_for_bit(self, tmp_path, B):
        nparams = NhppParams()
        times = TimeAxis(n_steps=12, dt=1.0)
        track = Track(x0=(50.0, -150.0), Vtr=(0.0, 3.0))
        # Vm = 18 is below Vcrit: its storms are left out.
        Vm_grid, Rm_grid = np.arange(18.0, 46.0 + 1e-9, 7.0), np.arange(20.0, 50.0 + 1e-9, 10.0)
        columns = zone_sweep(Vm_grid, Rm_grid, nparams, track, times, B)
        rows = zone_sweep_rows(Vm_grid, Rm_grid, nparams, track, times, B)
        assert len(rows) == 16
        assert len(columns) == len(SWEEP_HEADER)
        for name, column in zip(SWEEP_HEADER, columns):
            ref = np.array([row[name] for row in rows], dtype=float)
            assert np.asarray(column, dtype=float).tobytes() == ref.tobytes(), name
        save_zone_sweep(columns, tmp_path / "columns.csv", header_comment="config_sha256=xyz")
        save_zone_rows(rows, tmp_path / "rows.csv", header_comment="config_sha256=xyz")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestSweepCsv:
    def test_save(self, tmp_path):
        columns = ([25.0], [20.0], [56.0], [1.0], [1.1], [0.5], [0.2])
        path = tmp_path / "sweep.csv"
        save_zone_sweep(columns, path, header_comment="config_sha256=xyz")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_sha256=xyz"
        assert lines[1].startswith("Vm_mps,Rm_km,Rcrit_km")
        assert lines[2].startswith("25.0,20.0,56")
