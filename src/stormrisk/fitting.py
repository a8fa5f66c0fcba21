"""
Linear least squares shared by the fitting modules, and the tails of their
p-values (Student-t here; chi-square for `glm`), built from `math` alone.

Regressors are scaled to unit RMS before solving (the power-law bases used
here are severely collinear), and coefficients are unscaled afterwards.
"""

from __future__ import annotations

import math
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
        """Two-sided Student-t p-values of the coefficients, all from one 1/B(dof/2, 1/2)."""
        inv_beta = _inv_beta_half(self.dof)
        return np.array([t_sf2(t, self.dof, inv_beta) for t in self.t.tolist()], dtype=float)

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


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """F with I_x(a, b) = x^a y^b / (B(a, b) F), y = 1 - x, fast for x < (a+1)/(a+b+2): DiDonato & Morris
    (1992) BFRAC by modified Lentz, whose a y - b x + 1 keeps the digits NR 6.4's 1 - (a+b) x/(a+1) loses."""
    tiny, d = 1e-300, 0.0
    f = c = a * (a * y - b * x + 1.0) / (a + 1.0) or tiny
    for m in range(1, 10_000):
        am = (a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x / (a + 2 * m - 1) ** 2
        bm = m + m * (b - m) * x / (a + 2 * m - 1) + (a + m) * (a * y - b * x + 1 + m * (1 + y)) / (a + 2 * m + 1)
        d = 1.0 / (bm + am * d or tiny)
        c = bm + am / c or tiny
        f *= c * d
        if abs(c * d - 1.0) <= 2.3e-16:
            return f
    raise ArithmeticError(f"the incomplete beta's continued fraction did not converge at a={a}, b={b}, x={x}")


def _inv_beta_half(dof: int) -> float:
    """1/B(dof/2, 1/2) = Gamma(a + 1/2) / (sqrt(pi) Gamma(a)) by O(dof) exact steps, as lgamma(1e3) is ~1e-12 off."""
    return math.prod(((k + 1) / k for k in range(2 - dof % 2, dof - 1, 2)), start=1 / math.pi if dof % 2 else 0.5)


def t_sf2(t: float, dof: int, inv_beta: float | None = None) -> float:
    """Two-sided Student-t tail P(|T| > |t|) at integer `dof` >= 1: I_x(dof/2, 1/2) at x = dof / (dof + t^2)
    (A&S 26.5.27, 26.7.1), with x and 1 - x each formed without a subtraction; `inv_beta` is `_inv_beta_half(dof)`."""
    t2 = t * t
    if not t2 > 0.0:
        return math.nan if math.isnan(t2) else 1.0
    a, x, y = dof / 2.0, 1.0 / (1.0 + t2 / dof), 1.0 / (1.0 + dof / t2)
    log_x = -math.log1p(t2 / dof) if t2 < math.inf else math.log(dof) - 2.0 * math.log(abs(t))
    front = math.exp(a * log_x - 0.5 * math.log1p(dof / t2)) * (_inv_beta_half(dof) if inv_beta is None else inv_beta)
    if x < (a + 1.0) / (a + 2.5):
        return front / _beta_fraction(a, 0.5, x, y)
    return 1.0 - front / _beta_fraction(0.5, a, y, x)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square tail P(X > x) at integer `df` >= 1 (A&S 26.4.4-26.4.5): erfc(sqrt(h)) for
    odd df, plus exp(-h) h^s / Gamma(s + 1) over s = df/2 - 1, df/2 - 2, ... >= 0, h = x/2."""
    h = x / 2.0
    if h == 0.0 or h == math.inf:
        return float(h == 0.0)
    head = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    return head + sum(math.exp(s / 2 * math.log(h) - h - math.lgamma(s / 2 + 1)) for s in range(df % 2, df - 1, 2))
