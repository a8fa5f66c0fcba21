"""
Forecast ensembles: two failure-rate estimates and two count distributions
==========================================================================

With an ensemble of perturbed storms there are two natural per-cell failure
rates: the rate of the ensemble-mean winds (FR-1) and the ensemble mean of
the member rates (FR-2).  Because the intensity is convex in wind speed,
FR-2 >= FR-1 everywhere.  The same choice appears at the distribution level:
a single Poisson at the mean rate versus an equal-weight mixture of member
Poissons.
"""

import numpy as np

from stormrisk import (
    EnsemblePerturbationSpec,
    Grid,
    HollandParams,
    NhppParams,
    TimeAxis,
    Track,
    fd_a,
    fd_b,
    fr1,
    fr2,
    generate_synthetic_ensemble,
)

# Base storm and Gaussian perturbation recipe: track jitter, heading error,
# and intensity/size spread, one independent draw per member.
spec = EnsemblePerturbationSpec(
    base_track=Track(x0=(0.0, -120.0), Vtr=(0.0, 3.0)),
    base_params=HollandParams(Vm=37.0, Rm=30.0),
    sigma_track=15.0,
    sigma_heading=10.0,
    sigma_Vm=4.0,
    sigma_Rm=4.0,
    seed=2024,
    H=40,
)

grid = Grid(origin=(-200.0, -200.0), nx=40, ny=40, cell_size=10.0)
times = TimeAxis(n_steps=25, dt=1.0)
ensemble = generate_synthetic_ensemble(spec, grid, times)
print(f"ensemble: {ensemble.H} members on {grid.n_cells} cells")

# FR-2 dominates FR-1 cell by cell; the gap is the convexity premium the
# single mean-wind storm misses.
nhpp = NhppParams()
r1 = np.asarray(fr1(nhpp, ensemble))
r2 = np.asarray(fr2(nhpp, ensemble))
print(f"max FR-1: {r1.max():.3f} failures/km")
print(f"max FR-2: {r2.max():.3f} failures/km")
print(f"cells with FR-2 > FR-1: {(r2 > r1 + 1e-12).sum()} of {grid.n_cells}")

# Count distributions at the cell with the largest spread.
cell = int(np.argmax(r2 - r1))
da = fd_a(nhpp, ensemble, cell)
db = fd_b(nhpp, ensemble, cell)
print(f"cell {cell}: FR-1 = {r1[cell]:.3f}, FR-2 = {r2[cell]:.3f}")
print(f"Pr(no failures): single Poisson {da.pmf[0]:.3f}, mixture {db.pmf[0]:.3f}")
print("the mixture keeps the calm members' zero-failure mass; the single")
print("Poisson at the mean rate spreads it away")
