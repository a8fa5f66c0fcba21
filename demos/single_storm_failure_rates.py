"""
A single storm: wind field, failure rates, and the critical zone
================================================================

A category-1 hurricane crosses a coastal grid heading due north.  We build
its wind field, integrate the quadratic failure intensity into per-cell
failure rates, and compare the numeric critical zone against the closed-form
obround area.
"""

import numpy as np

from stormrisk import (
    Grid,
    HollandParams,
    NhppParams,
    TimeAxis,
    Track,
    critical_radius,
    critical_zone_numeric,
    failure_rate,
    obround_area,
    wind_field,
    zone_failure_stats,
)

# The storm: 37 m/s peak winds at 30 km from the centre, translating north
# at 3 m/s (10.8 km/h) for a full day.
params = HollandParams(Vm=37.0, Rm=30.0, B=1.0)
track = Track(x0=(0.0, -150.0), Vtr=(0.0, 3.0))

# An 800 x 900 km domain at 5 km resolution (wide enough to hold the whole
# critical zone), hourly samples.
grid = Grid(origin=(-400.0, -450.0), nx=160, ny=180, cell_size=5.0)
times = TimeAxis(n_steps=25, dt=1.0)

field = wind_field(track, params, grid, times)
print(f"wind field: {grid.n_cells} cells x {times.n_steps} hours")
print(f"peak sampled wind speed: {field.velocities.max():.2f} m/s")

# Integrate the failure intensity over the storm's passage.  Cells that never
# see supercritical winds stay at the nominal rate lambda_norm * T.
nhpp = NhppParams()
rates = failure_rate(nhpp, field.velocities, times.dt)
print(f"nominal failure rate:   {nhpp.lambda_norm * times.duration:.6f} failures/km")
print(f"maximum failure rate:   {rates.max():.3f} failures/km")

# The critical zone: cells that at some time sit inside Rm or see winds at or
# above the critical velocity.
zone = critical_zone_numeric(field, nhpp.Vcrit, params, track)  # one bool per cell
stats = zone_failure_stats(rates, zone)
n_zone = np.count_nonzero(zone)
area = n_zone * grid.cell_area
print(f"zone cells: {n_zone} of {grid.n_cells}  ->  {area:.0f} km^2")
print(f"zone failure rates: max {stats['max']:.3f}, mean {stats['mean']:.3f} failures/km")

# For a straight constant storm the zone is an obround: a disc of the
# critical radius dragged along the track.
rcrit = critical_radius(params, nhpp.Vcrit)
closed = obround_area(rcrit, times.duration, track.Vtr)
rel = abs(area - closed) / closed
print(f"critical radius: {rcrit:.1f} km")
print(f"obround area:    {closed:.0f} km^2  (numeric zone within {rel:.1%})")
