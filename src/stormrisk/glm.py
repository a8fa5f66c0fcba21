"""
Outage regression: binomial logit GLM linking storm exposure to outages.

Observations are (county, time) outage counts out of a household total; the
regressor is a county-averaged exposure summary of the wind field, either the
accumulated failure rate or the accumulated velocity through that time.  The
fit is standard iteratively reweighted least squares with Wald standard
errors and a likelihood-ratio test against the intercept-only model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import TABLE_FMT, _read_csv, _require, _write_csv
from .fitting import chi2_sf


@dataclass(frozen=True)
class OutageObservation:
    """One (county, time) outage record: `outages` of `households` out."""

    county: str
    time_h: float
    outages: int
    households: int

    def __post_init__(self):
        # Data files skip rows whose first field starts with '#'.
        if self.county.startswith("#"):
            raise ValueError(f"county {self.county!r} must not start with '#'")
        _require(self, time_h=None, households="in (0, 1e9]")
        if not 0 <= self.outages <= self.households:
            raise ValueError("outages must be in [0, households]")


def logit(p):
    p = np.asarray(p, dtype=float)
    return np.log(p / (1.0 - p))


def inv_logit(eta):
    eta = np.asarray(eta, dtype=float)
    # Split by sign so exp never overflows.
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass(frozen=True)
class GlmFit:
    """Fitted binomial logit model.

    `beta`/`se`/`p_values` are the coefficient estimates with Wald standard
    errors; `deviance` and `null_deviance` the fitted and intercept-only
    deviances; `lr_p_value` the chi-square test of the model against the
    intercept-only null; `separated` flags quasi-complete separation
    (fitted probabilities pinned at the clamping bounds).
    """

    beta: np.ndarray
    se: np.ndarray
    p_values: np.ndarray
    deviance: float
    null_deviance: float
    lr_p_value: float
    n_iter: int
    converged: bool
    separated: bool
    deviance_trace: tuple[float, ...] = ()

    def predict(self, X) -> np.ndarray:
        """Outage probability at each design row."""
        return inv_logit(np.asarray(X, dtype=float) @ self.beta)


_P_CLAMP = 1e-12


def _binomial_deviance(y, n, p) -> float:
    """Deviance of counts y out of n at probabilities p (clamped)."""
    p = np.clip(p, _P_CLAMP, 1.0 - _P_CLAMP)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(y > 0, y * np.log(y / (n * p)), 0.0)
        t2 = np.where(y < n, (n - y) * np.log((n - y) / (n * (1.0 - p))), 0.0)
    return float(2.0 * np.sum(t1 + t2))


# IRLS convergence tolerance (relative coefficient change) and step cap.
_TOL = 1e-10
_MAX_ITER = 100


def fit_binomial(X, outages, totals) -> GlmFit:
    """Binomial logit fit of `outages` out of `totals` on design `X` by IRLS.

    Converges when the relative coefficient change drops below `_TOL`.  Each
    IRLS step is halved until the deviance does not increase, so the iteration
    cannot diverge; probabilities are clamped away from 0/1 and an estimate
    pinned at the clamp is reported via `separated`.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(outages, dtype=float)
    n = np.asarray(totals, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0] or y.shape != n.shape:
        raise ValueError("X, outages, totals shapes are inconsistent")
    if not (np.all(n > 0) and np.all(y >= 0) and np.all(y <= n)):  # NaN fails it too
        raise ValueError("need 0 <= outages <= totals and totals > 0")
    nobs, k = X.shape
    if nobs <= k:
        raise ValueError("need more observations than coefficients")

    beta = np.zeros(k)
    # Start the intercept (if the first column is constant) at the pooled rate.
    pbar = np.clip(y.sum() / n.sum(), _P_CLAMP, 1 - _P_CLAMP)
    if np.allclose(X[:, 0], X[0, 0]) and X[0, 0] != 0:
        beta[0] = float(logit(pbar)) / X[0, 0]
    p = np.clip(inv_logit(X @ beta), _P_CLAMP, 1 - _P_CLAMP)
    dev = _binomial_deviance(y, n, p)
    trace = [dev]
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        w = n * p * (1.0 - p)
        z = X @ beta + (y - n * p) / w
        sw = np.sqrt(w)
        delta = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)[0] - beta
        # Step-halve until the deviance is nonincreasing.
        step = 1.0
        for _ in range(30):
            trial = beta + step * delta
            p_trial = np.clip(inv_logit(X @ trial), _P_CLAMP, 1 - _P_CLAMP)
            dev_trial = _binomial_deviance(y, n, p_trial)
            if dev_trial <= dev + 1e-12:
                break
            step *= 0.5
        change = np.linalg.norm(step * delta) / max(np.linalg.norm(trial), 1e-30)
        beta, p, dev = trial, p_trial, dev_trial
        trace.append(dev)
        if change < _TOL:
            converged = True
            break

    w = n * p * (1.0 - p)
    XtWX = (X * w[:, None]).T @ X
    cov = np.linalg.pinv(XtWX)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        zstat = np.where(se > 0, beta / se, np.inf)
    p_values = np.array([chi2_sf(z * z, 1) for z in zstat.tolist()], dtype=float)  # P(|Z| > |z|) = P(chi2_1 > z^2)

    null_dev = _binomial_deviance(y, n, np.full(nobs, pbar))
    df = k - 1
    lr = max(null_dev - dev, 0.0)
    lr_p = chi2_sf(lr, df) if df > 0 else 1.0
    separated = bool(np.any(p <= _P_CLAMP) or np.any(p >= 1 - _P_CLAMP))
    return GlmFit(
        beta=beta,
        se=se,
        p_values=p_values,
        deviance=dev,
        null_deviance=null_dev,
        lr_p_value=lr_p,
        n_iter=it,
        converged=converged,
        separated=separated,
        deviance_trace=tuple(trace),
    )


# =============================================================================
# Observation files
# =============================================================================

OBS_HEADER = ["county", "time_h", "outages", "households"]


def save_observations(observations, path) -> None:
    rows = ((o.county, format(o.time_h, TABLE_FMT), o.outages, o.households) for o in observations)
    _write_csv(path, OBS_HEADER, rows)


def load_observations(path) -> list[OutageObservation]:
    out = []
    for lineno, fields in _read_csv(path, OBS_HEADER, (str, float, int, int)):
        try:
            out.append(OutageObservation(*fields))
        except ValueError as exc:  # the record's own checks
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not out:
        raise ValueError(f"{path}: no observations")
    return out
