from functools import partial

import numpy as np
import pytest
from scipy.special import stdtr

from stormrisk import NhppParams, damage_loss_sweep, fit_damage_model, fit_loss_model
from stormrisk.aggregate import (
    _DAMAGE_TERMS,
    _DROP_P,
    _LOSS_TERMS,
    _damage_design,
    _loss_design,
    _relative_weights,
)
from stormrisk.fitting import linear_least_squares


class TestLinearLeastSquares:
    def test_exact_line(self):
        x = np.linspace(0, 10, 20)
        X = np.column_stack([np.ones_like(x), x])
        y = 2.0 + 3.0 * x
        fit = linear_least_squares(X, y)
        assert fit.beta == pytest.approx([2.0, 3.0], rel=1e-12)
        assert fit.rms < 1e-12

    def test_known_noise_recovery(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 10, 500)
        X = np.column_stack([np.ones_like(x), x])
        y = 1.5 - 0.7 * x + rng.normal(0, 0.1, x.shape)
        fit = linear_least_squares(X, y)
        assert fit.beta[0] == pytest.approx(1.5, abs=3 * fit.se[0])
        assert fit.beta[1] == pytest.approx(-0.7, abs=3 * fit.se[1])
        assert fit.p_values[1] < 1e-10

    def test_weights_reweight_observations(self):
        # Two inconsistent points for one coefficient: heavy weight pulls the
        # estimate toward its observation.
        X = np.array([[1.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 1.0])
        fit_equal = linear_least_squares(X, y)
        fit_heavy = linear_least_squares(X, y, weights=np.array([100.0, 1.0, 1.0]))
        assert fit_equal.beta[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert fit_heavy.beta[0] < 0.1

    def test_scaling_invariance(self):
        # Rescaling a regressor column rescales its coefficient inversely.
        rng = np.random.default_rng(1)
        x = rng.uniform(1, 2, 50)
        y = 4.0 * x + rng.normal(0, 0.01, x.shape)
        f1 = linear_least_squares(np.column_stack([np.ones_like(x), x]), y)
        f2 = linear_least_squares(np.column_stack([np.ones_like(x), 1000 * x]), y)
        assert f2.beta[1] == pytest.approx(f1.beta[1] / 1000, rel=1e-9)
        assert f2.se[1] == pytest.approx(f1.se[1] / 1000, rel=1e-9)

    def test_condition_number_reported(self):
        x = np.linspace(1, 2, 30)
        X = np.column_stack([x, x * (1 + 1e-8)])
        fit = linear_least_squares(X, 2 * x)
        assert fit.cond > 1e6

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            linear_least_squares(np.ones((2, 2)), np.ones(2))


def eager_fit(X, y, weights=None):
    """`linear_least_squares` as it was while it computed its p-values when
    it fitted: returns (beta, se, p_values, rms, cond)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if weights is not None:
        sw = np.sqrt(np.asarray(weights, dtype=float))
        Xw, yw = X * sw[:, None], y * sw
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
    p = 2.0 * stdtr(dof, -np.abs(t))
    return beta_s / scale, se_s / scale, p, float(np.sqrt(np.mean(res * res))), cond


def same_as_eager(fit, ref) -> bool:
    """The fit byte-identical to the eager one, and its p-values, now the
    package's own Student-t tail, within 1e-12 relative of scipy's `stdtr`."""
    got = (fit.beta, fit.se, fit.rms, fit.cond)
    same = all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, ref[:2] + ref[3:]))
    return same and bool(np.all(np.abs(fit.p_values - ref[2]) <= 1e-12 * ref[2]))


class TestLazyPValues:
    """`p_values`, computed when read, against the eager computation with
    scipy's `stdtr`: the same fit, p-values within 1e-12 relative."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_byte_identical_to_eager(self, weighted, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(1.0, 3.0, 40)
        # A zero column has zero standard error, so t = inf and p = 0.
        X = np.column_stack([np.ones_like(x), x, x**2, np.zeros_like(x)])
        y = 1.0 + 0.5 * x + rng.normal(0.0, 0.2, x.shape)
        w = rng.uniform(0.5, 2.0, x.shape) if weighted else None
        fit = linear_least_squares(X, y, weights=w)
        assert np.isinf(fit.t[3]) and fit.p_values[3] == 0.0
        assert same_as_eager(fit, eager_fit(X, y, w))

    @pytest.mark.parametrize("target", ["damage", "loss"])
    def test_pruning_keeps_the_eager_terms(self, target):
        nhpp = NhppParams()
        Vm, Rm = np.arange(22.0, 81.0, 6.0), np.arange(20.0, 51.0, 10.0)
        Vm, Rm, damage, loss = damage_loss_sweep(Vm, Rm, nhpp=nhpp)
        if target == "damage":
            model, y, terms = fit_damage_model(Vm, Rm, damage, nhpp.Vcrit), damage, _DAMAGE_TERMS
            design = partial(_damage_design, Vm, Rm, model.p1, model.p2, nhpp.Vcrit)
        else:
            model, y, terms = fit_loss_model(Vm, Rm, loss, nhpp.Vcrit), loss, _LOSS_TERMS
            design = partial(_loss_design, Vm, Rm, model.p, nhpp.Vcrit)
        w = _relative_weights(y)
        p_eager = eager_fit(design(terms), y, w)[2]
        keep = tuple(t for t, p in zip(terms, p_eager) if p < _DROP_P)
        assert 0 < len(keep) < len(terms)  # the sweep does prune
        assert model.terms == keep
        assert same_as_eager(model.fit, eager_fit(design(keep), y, w))
