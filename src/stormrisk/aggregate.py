"""
Region-aggregate damage and loss: a (Vm, Rm) sweep and parametric fits.

Over a bounded region G crossed by a storm, total expected damage is the sum
of cellwise inhomogeneous-Poisson failure rates, and total repair loss is the
sum of cellwise quadratic repair costs.  `damage_loss_sweep` accumulates both
directly over the geometry kernel `wind._wind_steps`, run once per radius for
Vm = 1: a chunk of storms scales those speeds by each Vm (exact, as the
profile ends with that product) and adds the steps' intensities in time order.
Both admit a decomposition into a nominal term (weather-independent,
proportional to |G| and the exposure time) plus excess terms driven by the
velocity ratio f = v / Vcrit wherever it exceeds one (checked against the
sweep by the property tests in tests/test_aggregate.py):

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
from functools import partial

import numpy as np

from .csvio import _require, _require_value, _write_table
from .fitting import LinearFit, linear_least_squares
from .grid import TimeAxis
from .nhpp import _NHPP_CHECKS, NhppParams, _intensity
from .wind import MPS_TO_KMH, HollandParams, _require_storms, _sweep_storms, _wind_steps


# =============================================================================
# (Vm, Rm) sweep over the reference region
# =============================================================================


@dataclass(frozen=True)
class RepairParams:
    """Quadratic repair-cost model: loss per cell = (Lf / (2 Y)) * n^2.

    `Lf` is the lost service value per unit time per failure outstanding and
    `Y` the repair rate (failures repaired per unit time), so n simultaneous
    failures take n/Y to clear at average outstanding count n/2.  `Lf` is in
    [0, 1e6] and `Y` in [1e-6, 1e6].
    """

    Lf: float = 1.0
    Y: float = 1.0

    def __post_init__(self):
        _require(self, Lf="in [0, 1e6]", Y="in [1e-6, 1e6]")

    @property
    def half_ratio(self) -> float:
        return 0.5 * self.Lf / self.Y


# The reference region: _NX x _NY cells of _CELL km centred on the track of a
# storm moving north at _VTR m/s for _N_STEPS steps of _DT hours, sampled at
# the step midpoints, with the transit centred in time so that the storm
# enters at one edge of its path and exits symmetrically.  Aggregates are
# reported per cell (means over the region), which makes the fitted
# coefficients independent of |G|.
_NX, _NY, _CELL, _VTR, _N_STEPS, _DT = 25, 40, 22.264, 3.0, 24, 1.0
REFERENCE_TIMES = TimeAxis(n_steps=_N_STEPS, dt=_DT)  # the span that damage and loss accumulate over

# Vm values evaluated together.  A chunk's speeds at every step are one buffer of
# 24 x 13 x 40 floats per Vm on the default grid's evaluated half: 400 kB at 4, which
# ran the default sweep as fast as 8 or 16, and with a lower peak than 8.
_SWEEP_CHUNK = 4


def damage_loss_sweep(
    Vm_values,
    Rm_values,
    nhpp: NhppParams | None = None,
    repair: RepairParams | None = None,
    B: float = 1.0,
):
    """Mean per-cell damage and loss over the cartesian (Vm, Rm) sweep of
    storms with profile exponent `B` crossing the reference region.

    Returns flat arrays (Vm, Rm, damage, loss), Vm outer.  Damage is the mean
    cellwise failure rate over the region; loss the mean cellwise plug-in repair loss.
    Both are finite inside the config ranges.
    """
    nhpp = nhpp or NhppParams()
    repair = repair or RepairParams()
    Vm_axis, Rm_axis = np.asarray(Vm_values, dtype=float), np.asarray(Rm_values, dtype=float)
    Vm, Rm = _sweep_storms(Vm_axis, Rm_axis, B)
    damage, loss = np.empty((2, Vm_axis.size, Rm_axis.size))
    step = _VTR * MPS_TO_KMH * _DT
    pos = np.column_stack([np.zeros(_N_STEPS), -step * _N_STEPS / 2.0 + (np.arange(_N_STEPS) + 0.5) * step])
    # Mirror fold: the track runs along x = 0 with no translation vector, and
    # the x centres (i - (_NX - 1) / 2) * _CELL are symmetric about it, so
    # column _NX-1-i equals column i.  Evaluate ceil(_NX/2) columns.
    half = (np.arange((_NX + 1) // 2) - (_NX - 1) / 2.0) * _CELL
    ys = (np.arange(_NY) - (_NY - 1) / 2.0) * _CELL
    # One Vm = 1 profile per radius; no radius is checked or run without a Vm.
    for j, Rm_j in enumerate(Rm_axis.tolist() if Vm.size else []):
        speeds = np.stack([v for _, _, v in _wind_steps(HollandParams(1.0, Rm_j, B), half, ys, pos)])
        for lo in range(0, Vm_axis.size, _SWEEP_CHUNK):
            v = np.multiply.outer(Vm_axis[lo : lo + _SWEEP_CHUNK], speeds)
            lam = np.add.reduce(_intensity(nhpp, v, out=v), axis=1)  # an outer axis: steps added in time order
            lam = np.concatenate([lam, lam[:, : _NX // 2][:, ::-1]], axis=1)
            lam = lam.reshape(len(lam), -1) * _DT
            # Row means keep each storm's pairwise summation over its cells.
            damage[lo : lo + _SWEEP_CHUNK, j] = lam.mean(axis=1)
            loss[lo : lo + _SWEEP_CHUNK, j] = repair.half_ratio * np.mean(lam * lam, axis=1)
    return Vm, Rm, damage.ravel(), loss.ravel()


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


# The screen's band, relative to sum(w y^2); the rows and columns per block of
# its Gram matrices (0.8 MB at most); and the candidates per batched solve.
_SCREEN_BAND, _SCREEN_ROWS, _SCREEN_COLUMNS, _SCREEN_BATCH = 1e-8, 32, 320, 256


def _screen(y, candidates, Rm, g, powers):
    """Scan positions of the candidates that may hold the least rms, or None.

    Term j of candidate c is the column Rm^a g^(k c[s]), (a, k, s) = powers[j].
    Each distinct column of a term enters a bank once, and each candidate's
    normal equations are a sub-block of the bank's Gram matrix.  None (a
    non-finite bank or a singular sub-block) means: scan every candidate."""
    sw = 1.0 / np.abs(y)  # the square root of _relative_weights
    yw = y * sw
    c = np.asarray(candidates, dtype=float)
    n_columns = sum(len(set((k * c[:, s]).tolist())) for _, k, s in powers)  # np.unique loads numpy.ma
    rss, err = np.empty(len(c)), np.empty(len(c))
    for part in np.array_split(np.arange(len(c)), -(-n_columns // _SCREEN_COLUMNS)):
        a, q, index = [], [], []
        for ak, k, s in powers:
            exps, inv = np.unique(k * c[part, s], return_inverse=True)
            a, q, index = a + [ak] * len(exps), q + exps.tolist(), index + [len(q) + inv]
        index, a, q = np.stack(index, axis=1), np.array(a, dtype=float), np.array(q)
        G, b = np.zeros((len(q), len(q))), np.zeros(len(q))
        for lo in range(0, len(y), _SCREEN_ROWS):
            rows = slice(lo, lo + _SCREEN_ROWS)
            C = Rm[rows, None] ** a * g[rows, None] ** q * sw[rows, None]
            if not np.all(np.isfinite(C)):  # then G would not be finite either
                return None
            b += C.T @ yw[rows]
            for j in range(0, len(q), _SCREEN_ROWS):  # no (columns, columns) temporary
                G[:, j : j + _SCREEN_ROWS] += C.T @ C[:, j : j + _SCREEN_ROWS]
        scale = np.sqrt(np.diag(G)) + (np.diag(G) == 0)  # 1 for an all-zero column
        G /= scale
        G /= scale[:, None]
        b /= scale
        for lo in range(0, len(part), _SCREEN_BATCH):
            i = index[lo : lo + _SCREEN_BATCH]
            Gc, bc = G[i[:, :, None], i[:, None, :]], b[i]
            try:
                beta = np.linalg.solve(Gc, bc[..., None])[..., 0]
            except np.linalg.LinAlgError:
                return None
            # The residual sum of squares at beta, second order in its error,
            # and a bound on the rounding of this sum (|G_ij| <= 1 once scaled).
            quad = np.einsum("ci,cij,cj->c", beta, Gc, beta) - 2.0 * np.einsum("ci,ci->c", bc, beta)
            rss[part[lo : lo + _SCREEN_BATCH]] = yw @ yw + quad
            err[part[lo : lo + _SCREEN_BATCH]] = np.abs(beta).sum(1) ** 2 + 2.0 * np.abs(bc * beta).sum(1)
    err = 64 * np.finfo(float).eps * (err + yw @ yw)
    if not np.all(np.isfinite(rss + err)):
        return None
    return np.flatnonzero(rss - err <= np.min(rss + err) + _SCREEN_BAND * (yw @ yw))


def _scan_fit(y, candidates, design, terms, bank=None):
    """Relative-error least squares at each exponent tuple in `candidates`.

    `design(c, terms)` builds the regressors of the named `terms` at
    exponents `c`.  The first candidate with the smallest rms wins; terms
    insignificant at `_DROP_P` are then dropped and the model refit, unless
    that would keep none or all of them.  Returns (c, terms, fit).

    With `bank` = (Rm, g, powers) of `_screen`, the exact fit runs only on
    the screened candidates, in scan order, which picks the same candidate.
    """
    w = _relative_weights(y)
    band = None if bank is None else _screen(y, candidates, *bank)
    best = None
    for c in candidates if band is None else [candidates[i] for i in band]:
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


def _power_design(Vm, Rm, Vcrit, powers, exponents, terms) -> np.ndarray:
    """The regressors Rm^a g^(k exponents[s]) of `terms`, (a, k, s) = powers[t]."""
    g, Rm = g_of_vm(Vm, Vcrit), np.asarray(Rm, dtype=float)
    return np.column_stack([Rm**a * g ** (k * exponents[s]) for a, k, s in map(powers.get, terms)])


_DAMAGE_POWERS = {"const": (0, 0, 0), "Rm*g^p1": (1, 1, 0), "Rm^2*g^2p1": (2, 2, 0),
                  "Rm*g^p2": (1, 1, 1), "Rm^2*g^2p2": (2, 2, 1)}
_DAMAGE_TERMS = tuple(_DAMAGE_POWERS)


def _damage_design(Vm, Rm, p1, p2, Vcrit, terms=_DAMAGE_TERMS) -> np.ndarray:
    return _power_design(Vm, Rm, Vcrit, _DAMAGE_POWERS, (p1, p2), terms)


# The smallest response the fits take: its weight 1 / y^2 is at most 1e240,
# which keeps their normal equations finite (the worst case beside `csvio._CHECKS`).
_MIN_RESPONSE = 1e-120


def _fit_powers(y, Vm, Rm, Vcrit, candidates, powers):
    """The screened `_scan_fit` of a `_power_design` model over `candidates`.
    Raises `ValueError` first if a response is below `_MIN_RESPONSE`, as
    every loss is at `Lf = 0`."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.abs(y) >= _MIN_RESPONSE):
        raise ValueError("a response is too close to 0 for the fit's relative weights 1 / y^2")
    bank = (np.asarray(Rm, dtype=float), g_of_vm(Vm, Vcrit), list(powers.values()))
    design = partial(_power_design, Vm, Rm, Vcrit, powers)
    return _scan_fit(y, candidates, design, tuple(powers), bank)


def fit_damage_model(Vm, Rm, damage, Vcrit: float) -> DamageFitModel:
    """Scan p1 in [1, 1.5] and p2 in [-0.5, 0.5] (step 0.01) for the
    relative-error least-squares minimum, then prune insignificant terms.
    Each storm must be a valid `HollandParams`, and `Vcrit` in its range."""
    _require_value("Vcrit", Vcrit, _NHPP_CHECKS["Vcrit"])
    _require_storms(np.asarray(Vm, dtype=float), np.asarray(Rm, dtype=float))
    if not np.all(g_of_vm(Vm, Vcrit) > 0):  # g = 0 makes the p2 < 0 terms infinite
        raise ValueError(f"every Vm must exceed Vcrit = {Vcrit:g} for the damage fit")
    candidates = [(p1, p2) for p1 in _P1_GRID for p2 in _P2_GRID]
    (p1, p2), terms, fit = _fit_powers(damage, Vm, Rm, Vcrit, candidates, _DAMAGE_POWERS)
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


_LOSS_POWERS = {
    "const": (0, 0, 0), "Rm*g^p": (1, 1, 0), "Rm^2*g^2p": (2, 2, 0), "Rm^3*g^3p": (3, 3, 0),
    "Rm^4*g^4p": (4, 4, 0), "Rm^2*g^p": (2, 1, 0), "Rm^3*g^p": (3, 1, 0), "Rm^3*g^2p": (3, 2, 0),
    "Rm^4*g^2p": (4, 2, 0), "Rm": (1, 0, 0), "Rm^2": (2, 0, 0), "Rm^3": (3, 0, 0), "Rm^4": (4, 0, 0),
}
_LOSS_TERMS = tuple(_LOSS_POWERS)


def _loss_design(Vm, Rm, p, Vcrit, terms=_LOSS_TERMS) -> np.ndarray:
    return _power_design(Vm, Rm, Vcrit, _LOSS_POWERS, (p,), terms)


def fit_loss_model(Vm, Rm, loss, Vcrit: float) -> LossFitModel:
    """Scan p in [1.2, 2] (step 0.01) for the relative-error least-squares
    minimum, then prune insignificant terms.  Checks its inputs as
    `fit_damage_model` does."""
    _require_value("Vcrit", Vcrit, _NHPP_CHECKS["Vcrit"])
    _require_storms(np.asarray(Vm, dtype=float), np.asarray(Rm, dtype=float))
    (p,), terms, fit = _fit_powers(loss, Vm, Rm, Vcrit, [(p,) for p in _LOSS_P_GRID], _LOSS_POWERS)
    return LossFitModel(p=p, terms=terms, fit=fit, Vcrit=Vcrit)


# =============================================================================
# Sweep CSV
# =============================================================================

AGG_SWEEP_HEADER = ["Vm", "Rm", "damage_norm", "loss_norm"]


def save_agg_sweep(Vm, Rm, damage, loss, path, header_comment: str | None = None) -> None:
    """Write a damage/loss sweep as CSV."""
    _write_table(path, AGG_SWEEP_HEADER, [Vm, Rm], [damage, loss], header_comment)
