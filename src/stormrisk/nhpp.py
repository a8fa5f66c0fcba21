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

from dataclasses import dataclass, replace

import numpy as np

# scipy.special is imported inside the functions that use it: loading it
# takes most of a CLI start-up, and most commands compute no Poisson tail.

from .csvio import TABLE_FMT, _write_csv
from .ensemble import Ensemble, _mean


@dataclass(frozen=True)
class NhppParams:
    """Failure-intensity parameters.

    Parameters
    ----------
    Vcrit : float
        Critical wind speed (m/s) below which the intensity is nominal.
    alpha : float
        Quadratic scaling of the supercritical intensity (>= 1).
    lambda_norm : float
        Nominal intensity in failures per hour per km of line.
    """

    Vcrit: float = 20.6
    alpha: float = 4175.6
    lambda_norm: float = 3.5e-5

    def __post_init__(self):
        if self.Vcrit <= 0:
            raise ValueError("Vcrit must be > 0")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.lambda_norm <= 0:
            raise ValueError("lambda_norm must be > 0")


# =============================================================================
# Intensity and failure rate
# =============================================================================


def poisson_intensity(p: NhppParams, v):
    """Failure intensity (failures/hr/km) at wind speed `v` m/s.

    Nominal below Vcrit; lambda_norm * (1 + alpha * ((v/Vcrit)^2 - 1)) at and
    above it.  Continuous at Vcrit and vectorized over `v`.  The piecewise
    form is used directly (rather than the algebraically equal
    lambda_norm * (1 - alpha) + lambda_norm * alpha * f(v)^2 with
    f = max(Vcrit, v)/Vcrit) so that subcritical speeds return exactly
    lambda_norm with no cancellation error.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise ValueError("velocity must be >= 0")
    out = _intensity(p, v)
    return float(out) if out.ndim == 0 else out


def _intensity(p: NhppParams, v: np.ndarray) -> np.ndarray:
    """`poisson_intensity` of speeds `v` >= 0, unchecked, in one pass."""
    ratio = v / p.Vcrit
    return np.where(v >= p.Vcrit, p.lambda_norm * (1.0 + p.alpha * (ratio * ratio - 1.0)), p.lambda_norm)


def failure_rate(p: NhppParams, velocities, dt: float = 1.0):
    """Failure rate (failures/km) accumulated over a velocity time series.

    Sums poisson_intensity over the last axis times `dt`; an all-subcritical
    series of duration T returns lambda_norm * T.  Works on a single series
    (shape (n_steps,)) or a field (shape (..., n_steps)).
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


def fr1(p: NhppParams, e: Ensemble) -> np.ndarray:
    """Failure rate of the ensemble-mean winds, per cell."""
    return _fr1(p, (m.velocities for m in e.members), e.times.dt)


def fr2(p: NhppParams, e: Ensemble) -> np.ndarray:
    """Ensemble mean of the per-member failure rates (>= fr1 by convexity),
    per cell.  Member order is fixed, so the reduction is reproducible."""
    return _fr2(p, (m.velocities for m in e.members), e.times.dt)


def member_rates(p: NhppParams, e: Ensemble, cell: int) -> np.ndarray:
    """Per-member failure rates at one cell, shape (H,)."""
    return _member_rates(p, (m.velocities for m in e.members), [cell], e.times.dt)[:, 0]


# The reducers behind the three above, and the outage fit's exposure, take
# the members' velocity arrays one at a time, in order, from any iterable.
def _fr1(p: NhppParams, velocities, dt: float) -> np.ndarray:
    return failure_rate(p, _mean(velocities), dt)


def _fr2(p: NhppParams, velocities, dt: float) -> np.ndarray:
    return _mean(failure_rate(p, v, dt) for v in velocities)


def _member_rates(p: NhppParams, velocities, rows, dt: float) -> np.ndarray:
    """Each member's rates at rows `rows` of its array, shape (H, len(rows))."""
    return np.array([failure_rate(p, v[rows], dt) for v in velocities])


def _cumulative_exposure(p: NhppParams, velocities, dt: float, predictor: str, steps) -> np.ndarray:
    """Member mean of each cell's running sum of intensity times `dt`
    ("failure_rate") or of speed, at the time steps `steps` only."""
    if predictor == "failure_rate":
        def running(v):
            return np.cumsum(poisson_intensity(p, v) * dt, axis=-1)[:, steps]
    else:
        def running(v):
            return np.cumsum(v, axis=-1)[:, steps]
    return _mean(_by_cells(running, v) for v in velocities)


# =============================================================================
# Failure-count distributions
# =============================================================================


@dataclass(frozen=True)
class FailureDistribution:
    """Probability mass over failure counts 0..n_max plus an explicit tail.

    `pmf[n]` is Pr(N = n) for n <= n_max; `tail` is Pr(N > n_max) (for the
    saturated kind the tail is zero because all residual mass sits at the
    asset count).  Masses are >= 0 and total 1 within 1e-12.
    """

    kind: str  # "poisson" | "mixture" | "saturated"
    pmf: np.ndarray
    tail: float

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if np.any(pmf < 0) or self.tail < -1e-15:
            raise ValueError("probability masses must be >= 0")
        total = float(pmf.sum() + self.tail)
        if abs(total - 1.0) > 1e-12:
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


def poisson_pmf(n, rate: float) -> np.ndarray:
    """Poisson pmf computed in log space (stable for large n and rate)."""
    from scipy.special import gammaln

    n = np.asarray(n, dtype=float)
    if rate == 0.0:
        return np.where(n == 0, 1.0, 0.0)
    return np.exp(n * np.log(rate) - rate - gammaln(n + 1.0))


def _poisson_quantile(q: float, mu: float) -> int:
    """Smallest k with Pr(N <= k) >= q for N ~ Poisson(mu), 0 < q < 1, mu > 0.

    The rounded-up continuous inverse of the cdf is off by at most one, so
    the count below it is tried first (the same rule as `scipy.stats`).
    """
    from scipy.special import pdtr, pdtrik

    k = np.ceil(pdtrik(q, mu))
    below = max(k - 1.0, 0.0)
    return int(below if pdtr(below, mu) >= q else k)


def default_n_max(max_rate: float) -> int:
    """Truncation point: the 1 - 1e-9 quantile of a Poisson at `max_rate`."""
    if max_rate <= 0:
        return 1
    return _poisson_quantile(1.0 - 1e-9, max_rate)


def fd_a(p: NhppParams, e: Ensemble, cell: int, n_max: int | None = None) -> FailureDistribution:
    """Single Poisson at the ensemble-mean failure rate (per km of line)."""
    return _fd_a(member_rates(p, e, cell), n_max)


def fd_b(p: NhppParams, e: Ensemble, cell: int, n_max: int | None = None) -> FailureDistribution:
    """Equal-weight mixture of per-member Poisson distributions."""
    return _fd_b(member_rates(p, e, cell), n_max)


def _fd_a(rates: np.ndarray, n_max: int | None) -> FailureDistribution:
    """`fd_a` of the members' rates at one cell: the one-member mixture of
    their mean, whose masses are exactly the Poisson's."""
    return replace(_fd_b(np.array([rates.mean()]), n_max), kind="poisson")


def _fd_b(rates: np.ndarray, n_max: int | None) -> FailureDistribution:
    """`fd_b` of the members' rates at one cell."""
    from scipy.special import pdtrc

    if n_max is None:
        n_max = default_n_max(float(rates.max()))
    n = np.arange(n_max + 1)
    pmf = _mean(poisson_pmf(n, float(rate)) for rate in rates)
    tail = sum(max(0.0, float(pdtrc(n_max, float(rate)))) for rate in rates) / len(rates)
    return FailureDistribution(kind="mixture", pmf=pmf, tail=tail)


def saturated_distribution(total_rate: float, Ng: int) -> FailureDistribution:
    """Failure-count distribution truncated at the asset count.

    Poisson pmf at `total_rate` (failures, i.e. line length times the per-km
    rate) for n < Ng; all remaining mass is placed at n = Ng.
    """
    from scipy.special import pdtr

    if Ng < 0:
        raise ValueError("Ng must be >= 0")
    if total_rate < 0:
        raise ValueError("total_rate must be >= 0")
    if Ng == 0:
        return FailureDistribution(kind="saturated", pmf=np.array([1.0]), tail=0.0)
    n = np.arange(Ng + 1)
    pmf = poisson_pmf(n, total_rate)
    below = float(pdtr(Ng - 1, total_rate)) if total_rate > 0 else 1.0
    pmf[Ng] = max(0.0, 1.0 - below)
    return FailureDistribution(kind="saturated", pmf=pmf, tail=0.0)


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
    if np.any(ng < 0):
        raise ValueError("Ng must be >= 0")
    if np.any(lam < 0):
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
    rows = ((cell, format(rate, TABLE_FMT)) for cell, rate in enumerate(rates))
    _write_csv(path, FAILURE_RATE_HEADER, rows, header_comment)


def save_failure_distribution(
    dist: FailureDistribution, path, header_comment: str | None = None
) -> None:
    """Write a count distribution as CSV `n,probability`, final row the tail."""
    rows = [(n, format(mass, TABLE_FMT)) for n, mass in enumerate(dist.pmf)]
    rows.append(("tail", format(dist.tail, TABLE_FMT)))
    _write_csv(path, ["n", "probability"], rows, header_comment)
