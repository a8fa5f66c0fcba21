"""
Small linear least-squares helper shared by the fitting modules.

Regressors are scaled to unit RMS before solving (the power-law bases used
here are severely collinear), and coefficients are unscaled afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """Result of a (possibly weighted) linear least-squares solve.

    Standard errors and t statistics are the usual OLS/WLS ones from the
    scaled normal equations, with `dof` residual degrees of freedom; `cond`
    is the condition number of the scaled design.
    """

    beta: np.ndarray
    se: np.ndarray
    t: np.ndarray
    dof: int
    rms: float
    cond: float

    @property
    def p_values(self) -> np.ndarray:
        """Two-sided Student-t p-values of the coefficients.  Computed when
        read, so that only a caller that needs them loads `scipy.special`."""
        from scipy.special import stdtr

        return 2.0 * stdtr(self.dof, -np.abs(self.t))

    def predict(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.beta


def linear_least_squares(X, y, weights=None) -> LinearFit:
    """Fit y ~ X b, optionally weighted (minimizing sum(w * (y - Xb)^2)).

    Returns coefficients in the original (unscaled) regressor units.  `rms`
    is the root-mean-square residual in the weighted metric (plain residual
    RMS when unweighted).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if n <= k:
        raise ValueError("need more observations than regressors")
    if weights is not None:
        sw = np.sqrt(np.asarray(weights, dtype=float))
        Xw = X * sw[:, None]
        yw = y * sw
    else:
        Xw, yw = X, y
    scale = np.sqrt(np.mean(Xw * Xw, axis=0))
    scale[scale == 0] = 1.0
    Xs = Xw / scale
    beta_s, _, _, sv = np.linalg.lstsq(Xs, yw, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    res = yw - Xs @ beta_s
    dof = n - k
    s2 = float(res @ res) / dof
    cov_s = s2 * np.linalg.pinv(Xs.T @ Xs)
    se_s = np.sqrt(np.maximum(np.diag(cov_s), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se_s > 0, beta_s / se_s, np.inf)
    return LinearFit(
        beta=beta_s / scale,
        se=se_s / scale,
        t=t,
        dof=dof,
        rms=float(np.sqrt(np.mean(res * res))),
        cond=cond,
    )
