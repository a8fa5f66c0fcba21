"""
Quadratic failure model for wind-driven infrastructure damage.

Failures along distribution lines are a Poisson process whose intensity is a
nominal background rate below a critical wind speed and grows quadratically
with wind speed above it.  Integrating the intensity over a storm gives the
per-cell failure rate; ensembles give two rate estimates (the rate of the
mean winds, and the mean of the member rates) and two count distributions
(a single Poisson at the mean rate, and an equal-weight mixture of member
Poissons).  Finite asset counts saturate the count distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# scipy.special is imported inside the Poisson functions that use it: loading
# it takes most of a CLI start-up, and only `fail-dist` computes a Poisson tail.

from .csvio import _require, _write_table
from .ensemble import _mean
from .grid import _MAX_CELL_STEPS, _require_cells


# `NhppParams`' checks; a critical-zone threshold takes Vcrit's.
_NHPP_CHECKS = {"Vcrit": "in [1, 150]", "alpha": "in [1, 1e6]", "lambda_norm": "in [1e-12, 1]"}


@dataclass(frozen=True)
class NhppParams:
    """Failure-intensity parameters.

    Parameters
    ----------
    Vcrit : float
        Critical wind speed (m/s) below which the intensity is nominal, in [1, 150].
    alpha : float
        Quadratic scaling of the supercritical intensity, in [1, 1e6].
    lambda_norm : float
        Nominal intensity in failures per hour per km of line, in [1e-12, 1].
    """

    Vcrit: float = 20.6
    alpha: float = 4175.6
    lambda_norm: float = 3.5e-5

    def __post_init__(self):
        _require(self, **_NHPP_CHECKS)


# =============================================================================
# Intensity and failure rate
# =============================================================================


def poisson_intensity(p: NhppParams, v):
    """Failure intensity (failures/hr/km) at wind speed `v` m/s.

    Nominal below Vcrit; lambda_norm * (1 + alpha * ((v/Vcrit)^2 - 1)) at and
    above it.  Continuous at Vcrit and vectorized over `v`.  It is evaluated
    as lambda_norm * (1 + alpha * (f^2 - 1)), f = max(v, Vcrit) / Vcrit, not
    as the algebraically equal lambda_norm * (1 - alpha) + lambda_norm * alpha
    * f^2: below Vcrit f is exactly 1, so the result is exactly lambda_norm
    with no cancellation error.  A negative or NaN speed is an error.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(v >= 0):  # NaN fails it too
        raise ValueError("velocity must be >= 0")
    out = _intensity(p, v)
    return float(out) if out.ndim == 0 else out


def _intensity(p: NhppParams, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`poisson_intensity` of speeds `v` >= 0, unchecked, into `out` (may be `v`) or a new array."""
    out = np.fmax(v, p.Vcrit, out=out)
    out /= p.Vcrit
    out *= out
    out -= 1.0
    out *= p.alpha
    out += 1.0
    out *= p.lambda_norm
    return out


def failure_rate(p: NhppParams, velocities, dt: float = 1.0):
    """Failure rate (failures/km) accumulated over a velocity time series.

    Sums poisson_intensity over the last axis times `dt`; an all-subcritical
    series of duration T returns lambda_norm * T.  Works on a single series
    (shape (n_steps,)) or a field (shape (..., n_steps)).  Finite inside
    the config ranges; so are the ensemble rates and exposures below.
    """
    v = np.asarray(velocities, dtype=float)
    if v.size == 0:
        raise ValueError("velocities must be non-empty")
    series = v.reshape(-1, v.shape[-1])
    out = _by_cells(lambda block: np.sum(poisson_intensity(p, block), axis=-1), series)
    out = out.reshape(v.shape[:-1]) * dt
    if out.ndim == 0:
        return float(out)
    return out


_BLOCK_CELLS = 256  # rows per block in `_by_cells`


def _by_cells(f, v: np.ndarray) -> np.ndarray:
    """`f(v)` for a row-wise `f` of a (cells, steps) array, taken on blocks
    of `_BLOCK_CELLS` rows and concatenated, so its whole-array temporaries
    are never made.  Each row's values are computed as in `f(v)`."""
    return np.concatenate([f(v[lo : lo + _BLOCK_CELLS]) for lo in range(0, len(v), _BLOCK_CELLS)])


def nominal_rate(p: NhppParams, n_steps: int, dt: float = 1.0) -> float:
    """lambda_norm accumulated over `n_steps` steps, using the same reduction
    as `failure_rate` so that comparisons against it are exact."""
    return float(np.sum(np.full(n_steps, p.lambda_norm)) * dt)


# =============================================================================
# Ensemble failure rates
# =============================================================================


# The ensemble statistics read the members of `e`, an `Ensemble` or a
# `SyntheticEnsemble`, one at a time and in order from `e.fields`.
def fr1(p: NhppParams, e) -> np.ndarray:
    """Failure rate of the ensemble-mean winds, per cell."""
    return failure_rate(p, _mean(e.fields()), e.times.dt)


def fr2(p: NhppParams, e) -> np.ndarray:
    """Ensemble mean of the per-member failure rates (>= fr1 by convexity),
    per cell.  Member order is fixed, so the reduction is reproducible."""
    return _mean(failure_rate(p, v, e.times.dt) for v in e.fields())


def member_rates(p: NhppParams, e, cell) -> np.ndarray:
    """Per-member failure rates at one cell, shape (H,), or at each of a list
    of cells, shape (H, len(cells))."""
    _require_cells(cell, e.grid.n_cells)
    return np.array([failure_rate(p, v, e.times.dt) for v in e.fields(cell)])


def _cumulative_exposure(p: NhppParams, e, predictor: str, steps) -> np.ndarray:
    """Member mean of each cell's running sum of intensity times `dt`
    ("failure_rate") or of speed, at the time steps `steps` only."""
    def running(v):
        return np.cumsum(poisson_intensity(p, v) * e.times.dt if predictor == "failure_rate" else v, axis=-1)[:, steps]

    return _mean(_by_cells(running, v) for v in e.fields())


# =============================================================================
# Failure-count distributions
# =============================================================================


@dataclass(frozen=True)
class FailureDistribution:
    """Probability mass over failure counts 0..n_max plus an explicit tail.

    `pmf[n]` is Pr(N = n) for n <= n_max; `tail` is Pr(N > n_max) (zero for
    `saturated_distribution`, which puts all residual mass at the asset
    count).  Masses are >= 0 and total 1 within 1e-12.
    """

    pmf: np.ndarray
    tail: float

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if not (np.all(pmf >= 0) and self.tail >= -1e-15):  # NaN fails both
            raise ValueError("probability masses must be >= 0")
        total = float(pmf.sum() + self.tail)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"masses total {total}, expected 1 within 1e-12")
        object.__setattr__(self, "pmf", pmf)

    @property
    def n_max(self) -> int:
        return len(self.pmf) - 1

    def total_mass(self) -> float:
        return float(self.pmf.sum() + self.tail)

    def mean(self) -> float:
        """Expected count, attributing the tail mass to n_max + 1 as a lower
        bound contribution; exact when tail == 0."""
        n = np.arange(len(self.pmf))
        return float(np.sum(n * self.pmf) + (self.n_max + 1) * self.tail)


# The largest rate `fd_a` and `fd_b` build at their default truncation point.
# Above it the log-space `poisson_pmf`, summed up to that point, can miss 1 by
# more than `FailureDistribution`'s 1e-12: over 800 geometric rates r in [500,
# 4000], an uncapped `_fd_b` failed first at r = 1,256 and at 190 rates in all;
# none of 25,000 rates below 1,000, nor of 2,000 mixtures in [500, 1,000], failed.
_MAX_DEFAULT_RATE = 1000.0


def poisson_pmf(n, rate: float) -> np.ndarray:
    """Poisson pmf computed in log space (stable for large n and rate)."""
    from scipy.special import gammaln

    n = np.asarray(n, dtype=float)
    if rate == 0.0:
        return np.where(n == 0, 1.0, 0.0)
    return np.exp(n * np.log(rate) - rate - gammaln(n + 1.0))


def default_n_max(max_rate: float) -> int:
    """Truncation point: the 1 - 1e-9 quantile of a Poisson at `max_rate`.

    The rounded-up continuous inverse of the cdf is off by at most one, so
    the count below it is tried first (the same rule as `scipy.stats`).  A
    point past `_MAX_CELL_STEPS`, as from a rate of about 1e9 (NaN from about
    1e10), raises `ValueError`: its pmf would not fit in memory.
    """
    if max_rate <= 0:
        return 1
    from scipy.special import pdtr, pdtrik

    q = 1.0 - 1e-9
    k = np.ceil(pdtrik(q, max_rate))
    below = max(k - 1.0, 0.0)
    k = below if pdtr(below, max_rate) >= q else k
    if not k <= _MAX_CELL_STEPS:
        rate = f"{max_rate:.3g}"
        raise ValueError(f"the default truncation point at a failure rate of {rate} passes {_MAX_CELL_STEPS:,} counts")
    return int(k)


def fd_a(p: NhppParams, e, cell: int, n_max: int | None = None) -> FailureDistribution:
    """Single Poisson at the ensemble-mean failure rate (per km of line)."""
    return _fd_a(member_rates(p, e, cell), n_max)


def fd_b(p: NhppParams, e, cell: int, n_max: int | None = None) -> FailureDistribution:
    """Equal-weight mixture of per-member Poisson distributions."""
    return _fd_b(member_rates(p, e, cell), n_max)


def _fd_a(rates: np.ndarray, n_max: int | None) -> FailureDistribution:
    """`fd_a` of the members' rates at one cell: the one-member mixture of
    their mean, whose masses are exactly the Poisson's."""
    return _fd_b(np.array([rates.mean()]), n_max)


def _fd_b(rates: np.ndarray, n_max: int | None) -> FailureDistribution:
    """`fd_b` of the members' rates at one cell.  Without `n_max`, a largest rate
    past `_MAX_DEFAULT_RATE` raises ValueError before any pmf is built."""
    if n_max is None:
        peak = float(rates.max())
        if not peak <= _MAX_DEFAULT_RATE:
            raise ValueError(
                f"a failure rate of {peak:.3g} passes {_MAX_DEFAULT_RATE:,.0f}, above which"
                " the default truncation's masses may not total 1 within 1e-12"
            )
        n_max = default_n_max(peak)
    from scipy.special import pdtrc

    n = np.arange(n_max + 1)
    pmf = _mean(poisson_pmf(n, float(rate)) for rate in rates)
    tail = sum(max(0.0, float(pdtrc(n_max, float(rate)))) for rate in rates) / len(rates)
    return FailureDistribution(pmf=pmf, tail=tail)


def saturated_distribution(total_rate: float, Ng: int) -> FailureDistribution:
    """Failure-count distribution truncated at the asset count.

    Poisson pmf at `total_rate` (failures, i.e. line length times the per-km
    rate) for n < Ng; all remaining mass is placed at n = Ng.
    """
    from scipy.special import pdtr

    if not Ng >= 0:  # NaN fails it too
        raise ValueError("Ng must be >= 0")
    if not total_rate >= 0:
        raise ValueError("total_rate must be >= 0")
    if Ng == 0:
        return FailureDistribution(pmf=np.array([1.0]), tail=0.0)
    n = np.arange(Ng + 1)
    pmf = poisson_pmf(n, total_rate)
    below = float(pdtr(Ng - 1, total_rate)) if total_rate > 0 else 1.0
    pmf[Ng] = max(0.0, 1.0 - below)
    return FailureDistribution(pmf=pmf, tail=0.0)


def expected_failures_saturated(total_rate, Ng):
    """Exact mean of the saturated count distribution, E[min(N, Ng)].

    With N ~ Poisson(total_rate) the sum over n < Ng of n Pr(N = n) is
    total_rate * Pr(N <= Ng - 2), so the mean is that plus Ng * Pr(N >= Ng).
    Monotone nondecreasing in the rate, bounded by Ng, and asymptotically
    approaching Ng as the rate grows.  Vectorized over `total_rate` and `Ng`
    (broadcast together); scalar arguments give a float.
    """
    from scipy.special import pdtr, pdtrc

    lam = np.asarray(total_rate, dtype=float)
    ng = np.asarray(Ng)
    if not np.all(ng >= 0):  # NaN fails it too
        raise ValueError("Ng must be >= 0")
    if not np.all(lam >= 0):
        raise ValueError("total_rate must be >= 0")
    # pdtr(-1, .) is NaN; for Ng == 1 the sum over n < Ng is empty.
    body = np.where(ng >= 2, lam * pdtr(ng - 2, lam), 0.0)
    out = np.where((ng == 0) | (lam == 0.0), 0.0, body + ng * pdtrc(ng - 1, lam))
    return float(out) if out.ndim == 0 else out


# =============================================================================
# Exports
# =============================================================================

FAILURE_RATE_HEADER = ["cell_id", "failure_rate_per_km"]


def save_failure_rate_field(rates, path, header_comment: str | None = None) -> None:
    """Write per-cell failure rates as CSV `cell_id,failure_rate_per_km`."""
    rates = np.asarray(rates, dtype=float).tolist()
    _write_table(path, FAILURE_RATE_HEADER, [range(len(rates))], [rates], header_comment)


def save_failure_distribution(dist: FailureDistribution, path, header_comment: str | None = None) -> None:
    """Write a count distribution as CSV `n,probability`, final row the tail."""
    keys, masses = [*range(len(dist.pmf)), "tail"], [*dist.pmf, dist.tail]
    _write_table(path, ["n", "probability"], [keys], [masses], header_comment)
