import numpy as np
import pytest
from scipy import stats

from covertrelay import (
    SchemeConfig,
    average_covert_rate,
    false_alarm,
    miss_detection,
    optimal_threshold,
    simulate_covert_rate,
    simulate_detection,
    sufficient_statistic,
    validate_threshold_optimality,
)
from covertrelay.detection import statistic_scale
from covertrelay import montecarlo
from covertrelay.montecarlo import detection_curve, substream

from conftest import random_params

XI_STAR_4_7 = 0.8973990224044965


def test_statistic_noise_floor(params, ts):
    assert sufficient_statistic(params, ts, 0.4, 0.0) == params.sigma2_a


def test_statistic_linear_in_efficiency(params, ts):
    t_lo = sufficient_statistic(params, ts, 0.4, 1.7)
    t_hi = sufficient_statistic(params, ts, 0.8, 1.7)
    assert t_hi - params.sigma2_a == pytest.approx(2.0 * (t_lo - params.sigma2_a), rel=1e-12)


def test_statistic_mean_moment_identity(params, ts, ps):
    # E[g^2] = 2 lambda^2 for an exponential gain, so E[T] = 2 K lambda^2 + noise.
    rng = substream(9, 0)
    g = rng.exponential(params.lambda_ar, 10**6)
    for scheme in (ts, ps):
        t = sufficient_statistic(params, scheme, params.eta0, g)
        k0 = statistic_scale(params, scheme, params.eta0)
        expected = 2.0 * k0 * params.lambda_ar**2 + params.sigma2_a
        assert np.mean(t) == pytest.approx(expected, rel=0.01)


def test_statistic_cdf_matches_empirical(params, ts, ps):
    for i, scheme in enumerate((ts, ps)):
        g = substream(31 + i, 0).exponential(params.lambda_ar, 10**6)
        draws = sufficient_statistic(params, scheme, params.eta0, g)
        ks = stats.kstest(draws, lambda t: 1.0 - false_alarm(params, scheme, t))
        assert ks.statistic <= 0.003


def test_simulate_detection_below_noise_floor(params, ts):
    rep = simulate_detection(params, ts, 0.7, 0.5 * params.sigma2_a, 10**4, seed=1)
    assert rep.alpha_hat == 1.0
    assert rep.beta_hat == 0.0
    assert rep.xi_hat == 1.0


def test_simulate_detection_identical_hypotheses(params, ts):
    tau = optimal_threshold(params, ts, 0.7)
    rep = simulate_detection(params, ts, params.eta0, tau, 10**4, seed=2)
    # Identical distributions make the error rates complementary in
    # expectation; the hypotheses use independent draw sets, so the
    # realization fluctuates within its interval around 1.
    assert rep.xi_hat == pytest.approx(1.0, abs=2 * rep.ci_halfwidth["xi"])


def test_simulate_detection_fig2_point(params, ts, ps):
    for scheme in (ts, ps):
        tau_star = optimal_threshold(params, scheme, 0.7)
        rep = simulate_detection(params, scheme, 0.7, tau_star, 10**6, seed=3)
        assert rep.xi_hat == pytest.approx(XI_STAR_4_7, abs=5e-3)


def test_simulate_detection_deterministic(params, ts):
    tau = optimal_threshold(params, ts, 0.7)
    a = simulate_detection(params, ts, 0.7, tau, 10**5, seed=44)
    b = simulate_detection(params, ts, 0.7, tau, 10**5, seed=44)
    assert a == b
    c = simulate_detection(params, ts, 0.7, tau, 10**5, seed=45)
    assert c.alpha_hat != a.alpha_hat or c.beta_hat != a.beta_hat


def test_simulate_detection_halfwidths_positive(params, ts):
    rep = simulate_detection(params, ts, 0.7, 0.5 * params.sigma2_a, 100, seed=5)
    assert rep.ci_halfwidth["alpha"] > 0  # positive even at an empirical rate of 1
    assert rep.ci_halfwidth["beta"] > 0
    assert rep.ci_halfwidth["xi"] > 0


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_detection_rates_within_three_sigma(params, variant):
    rng = np.random.default_rng(6 if variant == "ts" else 7)
    n = 10**5
    for trial in range(5):
        p = random_params(rng, params)
        scheme = SchemeConfig(variant, rng.uniform(0.1, 0.9))
        eta1 = rng.uniform(p.eta0 * 1.05, p.eta_u)
        k1 = statistic_scale(p, scheme, eta1)
        tau = p.sigma2_a + rng.uniform(0.05, 20.0) * k1 * p.lambda_ar**2
        rep = simulate_detection(p, scheme, eta1, tau, n, seed=50 + trial)
        a = false_alarm(p, scheme, tau)
        b = miss_detection(p, scheme, eta1, tau)
        se_a = max(np.sqrt(a * (1 - a) / n), 1.0 / n)
        se_b = max(np.sqrt(b * (1 - b) / n), 1.0 / n)
        assert abs(rep.alpha_hat - a) <= 3 * se_a
        assert abs(rep.beta_hat - b) <= 3 * se_b


def test_detection_curve_matches_pointwise(params, ts):
    taus = np.geomspace(params.sigma2_a, params.sigma2_a * 100.0, 7)
    n = 10**5
    a_curve, b_curve = detection_curve(params, ts, 0.7, taus, n, seed=8)
    a_true = false_alarm(params, ts, taus)
    b_true = miss_detection(params, ts, 0.7, taus)
    se = np.sqrt(np.maximum(a_true * (1 - a_true), b_true * (1 - b_true)) / n) + 1.0 / n
    assert np.all(np.abs(a_curve - a_true) <= 4 * se)
    assert np.all(np.abs(b_curve - b_true) <= 4 * se)


def test_simulate_covert_rate_zero_without_surplus(params, ts):
    rep = simulate_covert_rate(params, ts, params.eta0, 10**4, seed=9)
    assert rep.c_hat == 0.0


def test_simulate_covert_rate_matches_quadrature(params, ts, ps):
    for scheme in (ts, ps):
        rate = average_covert_rate(params, scheme, 0.7)
        rep = simulate_covert_rate(params, scheme, 0.7, 10**6, seed=10)
        assert abs(rep.c_hat - rate.c_avg) / rate.c_avg <= 0.02


def test_simulate_covert_rate_ci_scaling(params, ts):
    rep1 = simulate_covert_rate(params, ts, 0.7, 10**5, seed=11)
    rep2 = simulate_covert_rate(params, ts, 0.7, 2 * 10**5, seed=11)
    ratio = rep2.ci_halfwidth["c"] / rep1.ci_halfwidth["c"]
    assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.10)


def test_simulate_covert_rate_deterministic(params, ps):
    a = simulate_covert_rate(params, ps, 0.7, 10**5, seed=12)
    b = simulate_covert_rate(params, ps, 0.7, 10**5, seed=12)
    assert a == b


def test_threshold_optimality_fig2(params, ts):
    assert validate_threshold_optimality(params, ts, 0.7, grid_size=10**4, seed=13)


def test_threshold_optimality_near_degenerate(params, ts):
    assert validate_threshold_optimality(params, ts, params.eta0 * 1.001, grid_size=10**3, seed=14)


def test_threshold_optimality_extreme_split(params):
    assert validate_threshold_optimality(params, SchemeConfig.ps(0.9), 0.7, grid_size=10**3, seed=15)


def test_threshold_optimality_rejects_small_grid(params, ts):
    with pytest.raises(ValueError):
        validate_threshold_optimality(params, ts, 0.7, grid_size=50, seed=16)


def test_simulation_report_rejects_empty(params, ts):
    with pytest.raises(ValueError):
        simulate_detection(params, ts, 0.7, 1.0, 0, seed=17)
    with pytest.raises(ValueError):
        simulate_covert_rate(params, ts, 0.7, 0, seed=18)
    with pytest.raises(ValueError):
        detection_curve(params, ts, 0.7, [1.0], 0, seed=19)


def test_stream_numbers_are_distinct():
    streams = [v for k, v in vars(montecarlo).items() if k.startswith("STREAM_")]
    assert len(streams) >= 13
    assert len(set(streams)) == len(streams)
