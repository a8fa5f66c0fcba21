"""
Region-aggregate damage and loss: a (Vm, Rm) sweep and parametric fits.

Over a bounded region G crossed by a storm, total expected damage is the sum
of cellwise inhomogeneous-Poisson failure rates, and total repair loss is the
sum of cellwise quadratic repair costs.  `damage_loss_sweep` accumulates both
directly, as a chunked reducer over the geometry kernel `wind._wind_steps`:
each kernel step evaluates a bounded chunk of storms at once, and each storm
adds its steps' intensities in time order.  Both admit a decomposition into a
nominal term (weather-independent, proportional to |G| and the exposure time)
plus excess terms driven by the velocity ratio f = v / Vcrit wherever it
exceeds one (checked against the sweep by the property tests in
tests/test_aggregate.py):

    damage:  Lambda_tot = |G| lambda T + lambda alpha sum_g sum_t (f^2 - 1) dt
    loss:    L_tot = (Lf / (2 Y)) * [ |G| (lambda T)^2
                       + 2 lambda^2 alpha T sum_g sum_t (f^2 - 1) dt
                       + (lambda alpha)^2 sum_g (sum_t (f^2 - 1) dt)^2 ]

The parametric fits compress a (Vm, Rm) sweep of these aggregates into short
power-law expansions in Rm and the normalized intensity excess
g = (max(Vm, Vcrit) - Vcrit) / Vcrit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import TABLE_FMT, _write_csv
from .fitting import LinearFit, linear_least_squares
from .nhpp import NhppParams, poisson_intensity
from .wind import MPS_TO_KMH, HollandParams, _wind_steps


# =============================================================================
# (Vm, Rm) sweep over the reference region
# =============================================================================


@dataclass(frozen=True)
class RepairParams:
    """Quadratic repair-cost model: loss per cell = (Lf / (2 Y)) * n^2.

    `Lf` is the lost service value per unit time per failure outstanding and
    `Y` the repair rate (failures repaired per unit time), so n simultaneous
    failures take n/Y to clear at average outstanding count n/2.
    """

    Lf: float = 1.0
    Y: float = 1.0

    def __post_init__(self):
        if self.Lf < 0 or self.Y <= 0:
            raise ValueError("Lf must be >= 0 and Y > 0")

    @property
    def half_ratio(self) -> float:
        return 0.5 * self.Lf / self.Y


@dataclass(frozen=True)
class SweepConfig:
    """Reference region and storm kinematics for the damage/loss sweep.

    A rectangular region of nx x ny cells centred on the track of a storm
    translating northward at `vtr` for `T` hours, sampled hourly, with the
    transit centred in time so the storm enters at one edge of its path and
    exits symmetrically.  Aggregates are reported per cell (means over the
    region), which makes the fitted coefficients independent of |G|.
    """

    nx: int = 25
    ny: int = 40
    cell_size: float = 22.264
    vtr: float = 3.0
    T: float = 24.0
    dt: float = 1.0
    B: float = 1.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be >= 1")
        for name in ("cell_size", "T", "dt", "B"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0 <= self.vtr < np.inf:
            raise ValueError("vtr must be finite and >= 0")
        if self.n_steps < 1:
            raise ValueError("T / dt must round to at least one step")

    def grid_centers(self) -> tuple[np.ndarray, np.ndarray]:
        xs = (np.arange(self.nx) - (self.nx - 1) / 2.0) * self.cell_size
        ys = (np.arange(self.ny) - (self.ny - 1) / 2.0) * self.cell_size
        return xs, ys

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def centre_y(self) -> np.ndarray:
        """Storm-centre y at each (midpoint) time sample, km."""
        step = self.vtr * MPS_TO_KMH * self.dt
        L = step * self.n_steps
        return -L / 2.0 + (np.arange(self.n_steps) + 0.5) * step


# Storms evaluated together: a (chunk, cells) temporary is 125 kB on the default
# 25 x 40 grid, under malloc's 128 KiB mmap threshold.  Larger chunks were no
# faster and page-faulted their temporaries in afresh at every step.
_SWEEP_CHUNK = 16


def damage_loss_sweep(
    Vm_values,
    Rm_values,
    nhpp: NhppParams | None = None,
    repair: RepairParams | None = None,
    config: SweepConfig | None = None,
):
    """Mean per-cell damage and loss over the cartesian (Vm, Rm) sweep.

    Returns flat arrays (Vm, Rm, damage, loss).  Damage is the mean cellwise
    failure rate over the region; loss the mean cellwise plug-in repair loss.
    """
    nhpp = nhpp or NhppParams()
    repair = repair or RepairParams()
    config = config or SweepConfig()
    Vm = np.repeat(np.asarray(Vm_values, dtype=float), len(Rm_values))
    Rm = np.tile(np.asarray(Rm_values, dtype=float), len(Vm_values))
    damage, loss = np.empty(Vm.size), np.empty(Vm.size)
    xs, ys = config.grid_centers()
    cy = config.centre_y()
    pos = np.column_stack([np.zeros_like(cy), cy])
    storms = [HollandParams(Vm=v, Rm=r, B=config.B) for v, r in zip(Vm.tolist(), Rm.tolist())]
    for lo in range(0, len(storms), _SWEEP_CHUNK):
        chunk = slice(lo, lo + _SWEEP_CHUNK)
        lam = np.zeros((len(storms[chunk]), config.nx, config.ny))
        for _, _, v in _wind_steps(storms[chunk], xs, ys, pos):
            lam += poisson_intensity(nhpp, v)
        lam = lam.reshape(len(lam), -1) * config.dt
        # Row means keep each storm's pairwise summation over its cells.
        damage[chunk] = lam.mean(axis=1)
        loss[chunk] = repair.half_ratio * np.mean(lam * lam, axis=1)
    return Vm, Rm, damage, loss


# =============================================================================
# Parametric fits
# =============================================================================


def g_of_vm(Vm, Vcrit: float) -> np.ndarray:
    """Normalized intensity excess g = (max(Vm, Vcrit) - Vcrit) / Vcrit."""
    Vm = np.asarray(Vm, dtype=float)
    return (np.maximum(Vm, Vcrit) - Vcrit) / Vcrit


def _relative_weights(y: np.ndarray) -> np.ndarray:
    """Weights 1/y^2, i.e. least squares on relative error.

    The sweep responses span four orders of magnitude; unweighted least
    squares is dominated by the largest storms and pushes the exponent scan
    to its boundary, while relative error treats every storm equally.
    """
    return 1.0 / np.square(y)


# The exponent grids and the significance level of the term pruning.  The
# grids keep p2 <= 0.5 < 1 <= p1, so every (p1, p2) pair is scanned.
_P1_GRID = np.round(np.arange(1.00, 1.5001, 0.01), 2).tolist()
_P2_GRID = np.round(np.arange(-0.50, 0.5001, 0.01), 2).tolist()
_LOSS_P_GRID = np.round(np.arange(1.20, 2.0001, 0.01), 2).tolist()
_DROP_P = 0.05


def _scan_fit(y, candidates, design, terms):
    """Relative-error least squares at each exponent tuple in `candidates`.

    `design(c, terms)` builds the regressors of the named `terms` at
    exponents `c`.  The first candidate with the smallest rms wins; terms
    insignificant at `_DROP_P` are then dropped and the model refit, unless
    that would keep none or all of them.  Returns (c, terms, fit).
    """
    w = _relative_weights(y)
    best = None
    for c in candidates:
        fit = linear_least_squares(design(c, terms), y, weights=w)
        if best is None or fit.rms < best[1].rms:
            best = (c, fit)
    c, fit = best
    keep = tuple(t for t, p in zip(terms, fit.p_values) if p < _DROP_P)
    if 0 < len(keep) < len(terms):
        fit = linear_least_squares(design(c, keep), y, weights=w)
        terms = keep
    return c, terms, fit


@dataclass(frozen=True)
class DamageFitModel:
    """Per-cell damage model
    D(Vm, Rm) = b1 + b2 Rm g^p1 + b3 Rm^2 g^(2 p1) + b4 Rm g^p2 + b5 Rm^2 g^(2 p2)

    with g the normalized intensity excess.  `terms` names the retained
    regressors in order of `fit.beta`.
    """

    p1: float
    p2: float
    terms: tuple[str, ...]
    fit: LinearFit
    Vcrit: float

    def predict(self, Vm, Rm) -> np.ndarray:
        return self.fit.predict(_damage_design(Vm, Rm, self.p1, self.p2, self.Vcrit, self.terms))


_DAMAGE_TERMS = ("const", "Rm*g^p1", "Rm^2*g^2p1", "Rm*g^p2", "Rm^2*g^2p2")


def _damage_design(Vm, Rm, p1, p2, Vcrit, terms=_DAMAGE_TERMS) -> np.ndarray:
    g = g_of_vm(Vm, Vcrit)
    Rm = np.asarray(Rm, dtype=float)
    cols = {
        "const": np.ones_like(g),
        "Rm*g^p1": Rm * g**p1,
        "Rm^2*g^2p1": Rm**2 * g ** (2 * p1),
        "Rm*g^p2": Rm * g**p2,
        "Rm^2*g^2p2": Rm**2 * g ** (2 * p2),
    }
    return np.column_stack([cols[t] for t in terms])


def fit_damage_model(Vm, Rm, damage, Vcrit: float) -> DamageFitModel:
    """Scan p1 in [1, 1.5] and p2 in [-0.5, 0.5] (step 0.01) for the
    relative-error least-squares minimum, then prune insignificant terms."""
    (p1, p2), terms, fit = _scan_fit(
        np.asarray(damage, dtype=float),
        [(p1, p2) for p1 in _P1_GRID for p2 in _P2_GRID],
        lambda c, terms: _damage_design(Vm, Rm, *c, Vcrit, terms),
        _DAMAGE_TERMS,
    )
    return DamageFitModel(p1=p1, p2=p2, terms=terms, fit=fit, Vcrit=Vcrit)


@dataclass(frozen=True)
class LossFitModel:
    """Per-cell loss model over the 13-term basis
    [1, Rm g^p, Rm^2 g^2p, Rm^3 g^3p, Rm^4 g^4p, Rm^2 g^p, Rm^3 g^p,
     Rm^3 g^2p, Rm^4 g^2p, Rm, Rm^2, Rm^3, Rm^4],

    with the single exponent p scanned and insignificant terms pruned as in
    the damage model.
    """

    p: float
    terms: tuple[str, ...]
    fit: LinearFit
    Vcrit: float

    def predict(self, Vm, Rm) -> np.ndarray:
        return self.fit.predict(_loss_design(Vm, Rm, self.p, self.Vcrit, self.terms))


_LOSS_TERMS = (
    "const", "Rm*g^p", "Rm^2*g^2p", "Rm^3*g^3p", "Rm^4*g^4p",
    "Rm^2*g^p", "Rm^3*g^p", "Rm^3*g^2p", "Rm^4*g^2p",
    "Rm", "Rm^2", "Rm^3", "Rm^4",
)


def _loss_design(Vm, Rm, p, Vcrit, terms=_LOSS_TERMS) -> np.ndarray:
    g = g_of_vm(Vm, Vcrit)
    Rm = np.asarray(Rm, dtype=float)
    cols = {
        "const": np.ones_like(g),
        "Rm*g^p": Rm * g**p,
        "Rm^2*g^2p": Rm**2 * g ** (2 * p),
        "Rm^3*g^3p": Rm**3 * g ** (3 * p),
        "Rm^4*g^4p": Rm**4 * g ** (4 * p),
        "Rm^2*g^p": Rm**2 * g**p,
        "Rm^3*g^p": Rm**3 * g**p,
        "Rm^3*g^2p": Rm**3 * g ** (2 * p),
        "Rm^4*g^2p": Rm**4 * g ** (2 * p),
        "Rm": Rm,
        "Rm^2": Rm**2,
        "Rm^3": Rm**3,
        "Rm^4": Rm**4,
    }
    return np.column_stack([cols[t] for t in terms])


def fit_loss_model(Vm, Rm, loss, Vcrit: float) -> LossFitModel:
    """Scan p in [1.2, 2] (step 0.01) for the relative-error least-squares
    minimum, then prune insignificant terms."""
    (p,), terms, fit = _scan_fit(
        np.asarray(loss, dtype=float),
        [(p,) for p in _LOSS_P_GRID],
        lambda c, terms: _loss_design(Vm, Rm, *c, Vcrit, terms),
        _LOSS_TERMS,
    )
    return LossFitModel(p=p, terms=terms, fit=fit, Vcrit=Vcrit)


# =============================================================================
# Sweep CSV
# =============================================================================

AGG_SWEEP_HEADER = ["Vm", "Rm", "damage_norm", "loss_norm"]


def save_agg_sweep(Vm, Rm, damage, loss, path, header_comment: str | None = None) -> None:
    """Write a damage/loss sweep as CSV."""
    rows = (
        (v, r, format(d, TABLE_FMT), format(lo, TABLE_FMT))
        for v, r, d, lo in zip(Vm, Rm, damage, loss)
    )
    _write_csv(path, AGG_SWEEP_HEADER, rows, header_comment)
