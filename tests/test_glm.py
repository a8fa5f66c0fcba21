import numpy as np
import pytest

from stormrisk import (
    GlmFit,
    OutageObservation,
    fit_binomial,
    inv_logit,
    load_observations,
    logit,
    save_observations,
)


def _design(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 4, n)
    return np.column_stack([np.ones(n), x])


def _draw(X, beta, totals, seed=0):
    rng = np.random.default_rng(seed)
    p = inv_logit(X @ np.asarray(beta))
    return rng.binomial(totals.astype(int), p).astype(float)


class TestLink:
    def test_inverse_pair(self):
        p = np.array([1e-6, 0.25, 0.5, 0.75, 1 - 1e-6])
        assert np.allclose(inv_logit(logit(p)), p, rtol=1e-12)

    def test_no_overflow_for_extreme_eta(self):
        out = inv_logit(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_midpoint(self):
        assert inv_logit(0.0)[()] == 0.5


class TestFitBinomial:
    def test_recovers_true_coefficients(self):
        X = _design(60, seed=1)
        beta_true = np.array([-3.0, 0.8])
        totals = np.full(60, 5000.0)
        y = _draw(X, beta_true, totals, seed=2)
        fit = fit_binomial(X, y, totals)
        assert fit.converged
        assert fit.beta[0] == pytest.approx(-3.0, abs=3 * fit.se[0])
        assert fit.beta[1] == pytest.approx(0.8, abs=3 * fit.se[1])
        assert fit.lr_p_value < 1e-10
        assert not fit.separated

    def test_deviance_trace_nonincreasing(self):
        X = _design(50, seed=3)
        totals = np.full(50, 200.0)
        y = _draw(X, [-2.0, 1.2], totals, seed=4)
        fit = fit_binomial(X, y, totals)
        trace = np.array(fit.deviance_trace)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace[-1] == pytest.approx(fit.deviance)

    def test_refit_on_fitted_probabilities_is_fixed_point(self):
        X = _design(40, seed=5)
        totals = np.full(40, 10000.0)
        y = _draw(X, [-2.5, 0.6], totals, seed=6)
        fit = fit_binomial(X, y, totals)
        # Feed the fitted expected counts back in: coefficients reproduce.
        y_fit = totals * fit.predict(X)
        refit = fit_binomial(X, y_fit, totals)
        assert np.allclose(refit.beta, fit.beta, rtol=1e-8, atol=1e-10)

    def test_affine_equivariance(self):
        # Scaling the regressor by a scales its coefficient by 1/a and leaves
        # fitted probabilities unchanged.
        X = _design(40, seed=7)
        totals = np.full(40, 1000.0)
        y = _draw(X, [-2.0, 0.9], totals, seed=8)
        fit1 = fit_binomial(X, y, totals)
        a = 37.5
        X2 = X.copy()
        X2[:, 1] *= a
        fit2 = fit_binomial(X2, y, totals)
        assert fit2.beta[1] == pytest.approx(fit1.beta[1] / a, rel=1e-8)
        assert np.allclose(fit2.predict(X2), fit1.predict(X), rtol=0, atol=1e-10)

    def test_null_model_when_regressor_is_noise(self):
        rng = np.random.default_rng(9)
        n = 80
        X = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
        totals = np.full(n, 500.0)
        y = rng.binomial(500, 0.1, n).astype(float)
        fit = fit_binomial(X, y, totals)
        assert fit.lr_p_value > 0.001  # regressor carries no signal
        assert fit.deviance <= fit.null_deviance + 1e-9

    def test_intercept_only_recovers_pooled_rate(self):
        n = 30
        X = np.ones((n, 1))
        totals = np.full(n, 100.0)
        y = np.full(n, 20.0)
        fit = fit_binomial(X, y, totals)
        assert inv_logit(fit.beta[0])[()] == pytest.approx(0.2, rel=1e-8)

    def test_separation_flagged(self):
        # Perfectly separated data: all failures at x < 2, all successes above.
        x = np.array([0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 3.5, 4.0])
        X = np.column_stack([np.ones_like(x), x])
        totals = np.full(8, 50.0)
        y = np.where(x < 2, 0.0, 50.0)
        fit = fit_binomial(X, y, totals)
        assert fit.separated

    def test_input_validation(self):
        X = np.ones((3, 1))
        with pytest.raises(ValueError):
            fit_binomial(X, np.array([1.0, 2.0]), np.array([5.0, 5.0, 5.0]))
        with pytest.raises(ValueError):
            fit_binomial(X, np.array([6.0, 1.0, 1.0]), np.array([5.0, 5.0, 5.0]))
        with pytest.raises(ValueError):
            fit_binomial(np.ones((2, 2)), np.array([1.0, 1.0]), np.array([5.0, 5.0]))

    def test_predict_monotone_s_curve(self):
        X = _design(50, seed=10)
        totals = np.full(50, 1000.0)
        y = _draw(X, [-2.0, 1.0], totals, seed=11)
        fit = fit_binomial(X, y, totals)
        xs = np.linspace(-10, 10, 101)
        probs = fit.predict(np.column_stack([np.ones_like(xs), xs]))
        assert np.all(np.diff(probs) >= 0)
        assert probs[0] < 0.01 and probs[-1] > 0.99


class TestPipeline:
    def test_synthesize_and_refit(self):
        # Counts drawn from the logit model itself over county exposures that
        # grow in time; the refit must recover (beta0, beta1) within sampling
        # error.
        rng = np.random.default_rng(42)
        times = np.arange(0.0, 12.0)
        x = np.concatenate([0.5 * k + 0.05 * times for k in range(6)])
        X = np.column_stack([np.ones_like(x), x])
        totals = np.full(x.size, 1000.0)
        y = rng.binomial(1000, inv_logit(-3.0 + 1.0 * x)).astype(float)
        fit = fit_binomial(X, y, totals)
        assert fit.beta[0] == pytest.approx(-3.0, abs=3 * fit.se[0])
        assert fit.beta[1] == pytest.approx(1.0, abs=3 * fit.se[1])


class TestObservationIO:
    def test_round_trip(self, tmp_path):
        obs = [
            OutageObservation(county="alpha", time_h=0.5, outages=3, households=100),
            OutageObservation(county="beta", time_h=1.0, outages=0, households=50),
        ]
        path = tmp_path / "obs.csv"
        save_observations(obs, path)
        loaded = load_observations(path)
        assert loaded == obs

    def test_invalid_row_line_numbered(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("county,time_h,outages,households\na,0.0,5,3\n")
        with pytest.raises(ValueError, match=":2:"):
            load_observations(path)

    @pytest.mark.parametrize("time_h", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_rejected(self, time_h):
        with pytest.raises(ValueError, match="time_h must be finite"):
            OutageObservation(county="a", time_h=time_h, outages=1, households=100)

    def test_nan_time_row_line_numbered(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("county,time_h,outages,households\na,nan,1,100\nb,1.0,2,100\n")
        with pytest.raises(ValueError, match=r"obs\.csv:2: time_h must be finite, got nan"):
            load_observations(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            OutageObservation(county="a", time_h=0.0, outages=-1, households=10)
        with pytest.raises(ValueError):
            OutageObservation(county="a", time_h=0.0, outages=1, households=0)
