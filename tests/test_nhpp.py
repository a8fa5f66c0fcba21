import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stormrisk import (
    Ensemble,
    FailureDistribution,
    Grid,
    NhppParams,
    TimeAxis,
    WindField,
    default_n_max,
    expected_failures_saturated,
    failure_rate,
    fd_a,
    fd_b,
    fr1,
    fr2,
    member_rates,
    nominal_rate,
    poisson_intensity,
    poisson_pmf,
    saturated_distribution,
    save_failure_distribution,
    save_failure_rate_field,
)
from stormrisk import nhpp
from stormrisk.nhpp import _intensity

P = NhppParams()  # Vcrit=20.6, alpha=4175.6, lambda_norm=3.5e-5


def saturated_mean_pmf_sum(rate: float, ng: int) -> float:
    """Reference E[min(N, Ng)], N ~ Poisson(rate): the pmf summed over n < Ng
    plus Ng times the upper tail (the package's former loop)."""
    from scipy.stats import poisson as sp

    if ng == 0 or rate == 0.0:
        return 0.0
    n = np.arange(ng)
    body = float(np.sum(n * poisson_pmf(n, rate)))
    return body + ng * max(0.0, float(sp.sf(ng - 1, rate)))


# Frozen oracles, hand-evaluated from the piecewise quadratic intensity
# lambda(v) = lambda_norm * (1 + alpha * ((v/Vcrit)^2 - 1)) for v >= Vcrit.
LAM_41_2 = 0.438473          # ratio exactly 2 -> 3.5e-5 * (1 + 3 * 4175.6)
LAM_25_75 = 0.082242125      # ratio 1.25
NOMINAL_121H = 0.004235      # 121 subcritical hours

# Two-member, one-cell, two-step example (dt = 1 h):
#   member 0 speeds [20.6, 10.0]  -> rate 7e-5
#   member 1 speeds [30.9,  0.0]  -> rate 0.18275249999999993
EX_FR1 = 0.08227712499999999   # rate of the mean speeds [25.75, 5.0]
EX_R0 = 7e-05
EX_R1 = 0.18275249999999993
EX_FR2 = 0.09141124999999996
EX_PRA0 = 0.9126423095628492   # exp(-fr2)
EX_PRB0 = 0.9164521469069051   # (exp(-r0) + exp(-r1)) / 2

# Saturated distribution at total rate 1 with Ng = 2.
SAT_P0 = 0.36787944117144233   # e^-1
SAT_P2 = 0.26424111765711533   # 1 - 2 e^-1
SAT_MEAN = 0.896361676485673


def _ensemble() -> Ensemble:
    grid = Grid(nx=1, ny=1, cell_size=1.0)
    times = TimeAxis(n_steps=2, dt=1.0)
    m0 = WindField(grid=grid, times=times, velocities=np.array([[20.6, 10.0]]))
    m1 = WindField(grid=grid, times=times, velocities=np.array([[30.9, 0.0]]))
    return Ensemble(members=(m0, m1))


class TestIntensity:
    def test_subcritical_is_exactly_nominal(self):
        for v in (0.0, 5.0, 20.0, 20.5999):
            assert poisson_intensity(P, v) == P.lambda_norm

    def test_continuous_at_vcrit(self):
        assert poisson_intensity(P, P.Vcrit) == pytest.approx(P.lambda_norm, rel=1e-14)

    def test_hand_evaluations(self):
        assert poisson_intensity(P, 41.2) == pytest.approx(LAM_41_2, rel=1e-13)
        assert poisson_intensity(P, 25.75) == pytest.approx(LAM_25_75, rel=1e-13)

    def test_monotone_nondecreasing(self):
        v = np.linspace(0, 80, 4001)
        lam = poisson_intensity(P, v)
        assert np.all(np.diff(lam) >= 0)

    def test_negative_velocity_rejected(self):
        with pytest.raises(ValueError):
            poisson_intensity(P, -0.1)

    def test_nan_velocity_rejected(self):
        # NaN is not calm air: it fails the range check, in a rate too.
        with pytest.raises(ValueError, match="velocity must be >= 0"):
            poisson_intensity(P, np.nan)
        with pytest.raises(ValueError, match="velocity must be >= 0"):
            failure_rate(P, [np.nan, 30.0])

    def test_equivalent_algebraic_form(self):
        # lambda_norm*(1-alpha) + lambda_norm*alpha*(max(v,Vcrit)/Vcrit)^2
        # equals the piecewise form for all speeds (the piecewise form is the
        # implementation because this form cancels catastrophically below
        # Vcrit).
        v = np.linspace(P.Vcrit, 100, 500)
        alt = P.lambda_norm * (1 - P.alpha) + P.lambda_norm * P.alpha * (v / P.Vcrit) ** 2
        assert np.allclose(poisson_intensity(P, v), alt, rtol=1e-9)

    @given(st.floats(0.0, 200.0))
    def test_at_least_nominal(self, v):
        assert poisson_intensity(P, v) >= P.lambda_norm * (1 - 1e-15)

    @given(
        v=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
            elements=st.one_of(st.sampled_from([0.0, P.Vcrit, 2 * P.Vcrit]), st.floats(0.0, 200.0)),
        ),
        alpha=st.floats(1.0, 1e4),
    )
    @example(v=np.array(P.Vcrit), alpha=P.alpha)  # 0-d, at Vcrit exactly
    @example(v=np.empty((0, 3)), alpha=P.alpha)
    def test_one_pass_matches_masked_form(self, v, alpha):
        # The masked fill-gather-scatter form poisson_intensity had before its
        # one np.where pass: each element goes through the same arithmetic.
        p = NhppParams(alpha=alpha)
        ref = np.full(v.shape, p.lambda_norm)
        hot = v >= p.Vcrit
        ratio = v[hot] / p.Vcrit
        ref[hot] = p.lambda_norm * (1.0 + p.alpha * (ratio * ratio - 1.0))
        got = poisson_intensity(p, v)
        if v.ndim == 0:
            assert isinstance(got, float) and got == float(ref)
        else:
            assert got.shape == v.shape and np.array_equal(got, ref)
            # In place, as the damage/loss sweep calls it.
            buf = v.copy()
            assert _intensity(p, buf, out=buf) is buf and np.array_equal(buf, ref)

    @pytest.mark.parametrize("bad", [{"Vcrit": 0.0}, {"alpha": 0.5}, {"lambda_norm": 0.0}])
    def test_invalid_params(self, bad):
        with pytest.raises(ValueError):
            NhppParams(**bad)


class TestFailureRate:
    def test_subcritical_series_gives_nominal_total(self):
        rate = failure_rate(P, np.zeros(121), dt=1.0)
        assert rate == nominal_rate(P, 121)
        assert rate == pytest.approx(NOMINAL_121H, rel=1e-13)

    def test_linear_in_dt(self):
        v = np.array([25.0, 30.0, 10.0])
        assert failure_rate(P, v, dt=2.0) == pytest.approx(2 * failure_rate(P, v, dt=1.0), rel=1e-14)

    def test_additive_over_time_splits(self):
        v = np.array([25.0, 30.0, 10.0, 41.2, 0.0])
        whole = failure_rate(P, v)
        parts = failure_rate(P, v[:2]) + failure_rate(P, v[2:])
        assert whole == pytest.approx(parts, rel=1e-14)

    def test_field_shape(self):
        v = np.full((7, 4), 10.0)
        rates = failure_rate(P, v)
        assert rates.shape == (7,)
        assert np.allclose(rates, 4 * P.lambda_norm)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            failure_rate(P, np.array([]))


class TestBlockedFailureRate:
    @settings(max_examples=60)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 700), st.integers(1, 130)),
            st.tuples(st.integers(1, 3), st.integers(1, 300), st.integers(1, 20)),
            st.tuples(st.integers(1, 200)),
        ),
        dt=st.sampled_from([0.5, 1.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(10_000, 49), dt=1.0, seed=0)  # one forecast member
    def test_equals_the_whole_array_sum(self, shape, dt, seed):
        # Speeds straddling Vcrit, one exactly at it.
        v = np.random.default_rng(seed).uniform(0.0, 2.5 * P.Vcrit, shape)
        v.flat[0] = P.Vcrit
        ref = np.sum(poisson_intensity(P, v), axis=-1) * dt
        got = failure_rate(P, v, dt)
        if v.ndim == 1:
            assert isinstance(got, float) and got == float(ref)
        else:
            assert got.shape == ref.shape and np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_negative_speed_in_a_later_block_rejected(self):
        v = np.full((600, 3), 10.0)
        v[599, 2] = -0.1
        with pytest.raises(ValueError, match="velocity must be >= 0"):
            failure_rate(P, v)


class TestEnsembleRates:
    def test_fr1_example(self):
        assert fr1(P, _ensemble())[0] == pytest.approx(EX_FR1, rel=1e-13)

    def test_fr2_example(self):
        assert fr2(P, _ensemble())[0] == pytest.approx(EX_FR2, rel=1e-13)

    def test_member_rates_example(self):
        r = member_rates(P, _ensemble(), cell=0)
        assert r[0] == pytest.approx(EX_R0, rel=1e-13)
        assert r[1] == pytest.approx(EX_R1, rel=1e-13)

    def test_jensen_fr2_ge_fr1(self):
        e = _ensemble()
        assert fr2(P, e)[0] >= fr1(P, e)[0]

    def test_identical_members_give_equality(self):
        grid = Grid(nx=1, ny=1)
        times = TimeAxis(n_steps=2, dt=1.0)
        m = WindField(grid=grid, times=times, velocities=np.array([[30.0, 25.0]]))
        e = Ensemble(members=(m, m, m))
        assert fr2(P, e)[0] == pytest.approx(fr1(P, e)[0], rel=1e-14)

    def test_all_subcritical_gives_equality(self):
        grid = Grid(nx=1, ny=1)
        times = TimeAxis(n_steps=3, dt=1.0)
        m0 = WindField(grid=grid, times=times, velocities=np.array([[1.0, 5.0, 10.0]]))
        m1 = WindField(grid=grid, times=times, velocities=np.array([[15.0, 2.0, 0.0]]))
        e = Ensemble(members=(m0, m1))
        assert fr2(P, e)[0] == fr1(P, e)[0] == pytest.approx(3 * P.lambda_norm, rel=1e-14)

    def test_fr_arrays_when_cell_omitted(self):
        e = _ensemble()
        assert np.asarray(fr1(P, e)).shape == (1,)
        assert np.asarray(fr2(P, e)).shape == (1,)


class TestFailureDistributions:
    def test_fd_a_zero_count_probability(self):
        d = fd_a(P, _ensemble(), 0)
        assert d.pmf[0] == pytest.approx(EX_PRA0, rel=1e-12)

    def test_fd_a_reads_one_cell_only(self, monkeypatch):
        def refuse(self):
            raise AssertionError("fd_a must not stack the whole ensemble")

        monkeypatch.setattr(Ensemble, "velocities", refuse)
        d = fd_a(P, _ensemble(), 0)
        assert d.pmf[0] == pytest.approx(EX_PRA0, rel=1e-12)

    def test_fd_b_zero_count_probability(self):
        d = fd_b(P, _ensemble(), 0)
        assert d.pmf[0] == pytest.approx(EX_PRB0, rel=1e-12)

    def test_fd_b_has_more_zero_mass(self):
        # The mixture keeps the calm members' high Pr(0); the single Poisson
        # at the mean rate does not.
        e = _ensemble()
        assert fd_b(P, e, 0).pmf[0] > fd_a(P, e, 0).pmf[0]

    def test_masses_sum_to_one(self):
        e = _ensemble()
        for d in (fd_a(P, e, 0), fd_b(P, e, 0), fd_a(P, e, 0, n_max=3)):
            assert d.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_identical_members_make_fd_b_degenerate_to_fd_a(self):
        grid = Grid(nx=1, ny=1)
        times = TimeAxis(n_steps=2, dt=1.0)
        m = WindField(grid=grid, times=times, velocities=np.array([[30.0, 25.0]]))
        e = Ensemble(members=(m, m))
        a, b = fd_a(P, e, 0, n_max=10), fd_b(P, e, 0, n_max=10)
        assert np.allclose(a.pmf, b.pmf, rtol=1e-13, atol=1e-300)
        assert a.tail == pytest.approx(b.tail, rel=1e-12, abs=1e-15)

    def test_poisson_pmf_matches_direct_formula(self):
        import math

        for n in range(10):
            direct = math.exp(-2.5) * 2.5**n / math.factorial(n)
            assert poisson_pmf(n, 2.5)[()] == pytest.approx(direct, rel=1e-12)

    def test_poisson_pmf_zero_rate(self):
        pmf = poisson_pmf(np.arange(3), 0.0)
        assert np.array_equal(pmf, [1.0, 0.0, 0.0])

    def test_default_n_max_covers_tail(self):
        for rate in (0.001, 1.0, 17.3, 400.0):
            n_max = default_n_max(rate)
            from scipy.stats import poisson as sp

            assert sp.sf(n_max, rate) <= 1e-9 * 1.01

    @pytest.mark.parametrize("make", [fd_a, fd_b])
    def test_default_truncation_refuses_a_rate_past_its_cap(self, monkeypatch, make):
        # Above 1,000 the default point's masses may not total 1; no pmf is built.
        def refuse(*args):
            raise AssertionError("a pmf was built")

        monkeypatch.setattr(nhpp, "poisson_pmf", refuse)
        # A wind of twice Vcrit for one hour: 1e-3 (1 + 3e6) failures per km.
        grid, times = Grid(nx=1, ny=1), TimeAxis(n_steps=1)
        e = Ensemble(members=(WindField(grid=grid, times=times, velocities=np.array([[41.2]])),))
        message = "a failure rate of 3e\\+03 passes 1,000, above which the default truncation's masses"
        with pytest.raises(ValueError, match=message):
            make(NhppParams(alpha=1e6, lambda_norm=1e-3), e, 0)

    @pytest.mark.parametrize("rate", [1e9, 1e12, np.inf])
    def test_default_n_max_past_the_cap_raises(self, rate):
        # The point at 1e9 is 1,000,189,672; past about 1e10 it is NaN.
        with pytest.raises(ValueError, match="passes 1,000,000,000 counts"):
            default_n_max(rate)

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureDistribution(pmf=np.array([0.5, 0.4]), tail=0.0)
        with pytest.raises(ValueError):
            FailureDistribution(pmf=np.array([-0.1, 1.1]), tail=0.0)

    @pytest.mark.parametrize("pmf, tail", [([np.nan], 0.0), ([1.0], np.nan)], ids=["pmf", "tail"])
    def test_nan_mass_refused(self, pmf, tail):
        # NaN compares false with everything, so `< 0` and `> 1e-12` tests let it in.
        with pytest.raises(ValueError, match="probability masses must be >= 0"):
            FailureDistribution(pmf=np.array(pmf), tail=tail)


class TestSaturated:
    def test_frozen_rate_one_ng_two(self):
        d = saturated_distribution(1.0, 2)
        assert d.pmf[0] == pytest.approx(SAT_P0, rel=1e-13)
        assert d.pmf[1] == pytest.approx(SAT_P0, rel=1e-13)
        assert d.pmf[2] == pytest.approx(SAT_P2, rel=1e-13)
        assert d.tail == 0.0
        assert d.mean() == pytest.approx(SAT_MEAN, rel=1e-13)
        assert expected_failures_saturated(1.0, 2) == pytest.approx(SAT_MEAN, rel=1e-13)

    def test_zero_assets(self):
        d = saturated_distribution(5.0, 0)
        assert np.array_equal(d.pmf, [1.0])
        assert expected_failures_saturated(5.0, 0) == 0.0

    def test_zero_rate(self):
        d = saturated_distribution(0.0, 3)
        assert d.pmf[0] == 1.0
        assert expected_failures_saturated(0.0, 3) == 0.0

    def test_mean_monotone_in_rate_bounded_by_ng(self):
        rates = np.linspace(0, 50, 200)
        means = [expected_failures_saturated(r, 5) for r in rates]
        assert np.all(np.diff(means) >= -1e-12)
        assert all(m <= 5.0 for m in means)

    def test_asymptote(self):
        assert expected_failures_saturated(500.0, 5) == pytest.approx(5.0, abs=1e-6)

    @pytest.mark.parametrize("f", [saturated_distribution, expected_failures_saturated])
    @pytest.mark.parametrize("rate, Ng, name", [(np.nan, 5, "total_rate"), (-1.0, 5, "total_rate"), (1.0, -1, "Ng")])
    def test_negative_or_nan_refused(self, f, rate, Ng, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            f(rate, Ng)

    @given(
        st.one_of(st.floats(-9.0, 3.0).map(lambda e: 10.0**e), st.floats(0.0, 1e3)),
        st.integers(0, 1000),
    )
    def test_closed_form_matches_pmf_sum(self, rate, ng):
        # The loop sums up to 1000 log-space pmf terms; 1e-12 covers its
        # rounding (largest gap seen in 40,000 random draws: 7.2e-13).
        assert expected_failures_saturated(rate, ng) == pytest.approx(
            saturated_mean_pmf_sum(rate, ng), rel=1e-12, abs=0.0
        )

    def test_vectorized(self):
        rates = np.array([0.0, 0.5, 3.0, 40.0, 2.0])
        ngs = np.array([4, 0, 1, 7, 2])
        out = expected_failures_saturated(rates, ngs)
        assert out.shape == (5,)
        assert np.array_equal(out, [expected_failures_saturated(r, n) for r, n in zip(rates, ngs)])
        with pytest.raises(ValueError, match="Ng"):
            expected_failures_saturated(rates, ngs - 1)
        with pytest.raises(ValueError, match="total_rate"):
            expected_failures_saturated(-rates, ngs)

    def test_matches_truncated_expectation_brute_force(self):
        # E[min(N, Ng)] with N ~ Poisson(rate).
        from scipy.stats import poisson as sp

        for rate in (0.3, 1.7, 4.0):
            for ng in (1, 3, 6):
                n = np.arange(0, 200)
                brute = float(np.sum(np.minimum(n, ng) * sp.pmf(n, rate)))
                assert expected_failures_saturated(rate, ng) == pytest.approx(brute, abs=1e-12)


class TestExports:
    def test_failure_rate_round_trip_text(self, tmp_path):
        path = tmp_path / "rates.csv"
        save_failure_rate_field([0.1, 0.004235], path, header_comment="config_sha256=abc")
        text = path.read_text()
        assert text.startswith("# config_sha256=abc\n")
        assert "cell_id,failure_rate_per_km" in text
        assert "0.004235" in text

    def test_distribution_export(self, tmp_path):
        d = saturated_distribution(1.0, 2)
        path = tmp_path / "dist.csv"
        save_failure_distribution(d, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,probability"
        assert lines[-1].startswith("tail,")
