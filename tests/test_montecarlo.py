import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from covertrelay import (
    ChannelDraw,
    SchemeConfig,
    average_covert_rate,
    covert_snr,
    false_alarm,
    miss_detection,
    optimal_threshold,
    simulate_covert_rate,
    sufficient_statistic,
)
from covertrelay.detection import statistic_scale
from covertrelay import montecarlo
from covertrelay.montecarlo import detection_curve, substream
from covertrelay.experiments import csv_bytes, run_fig2
from covertrelay.params import PS, TS
from covertrelay.validate import _optimal_on_grid, _proportion_halfwidth, run_validation

from conftest import random_params

XI_STAR_4_7 = 0.8973990224044965

# Pointwise detection checks draw from streams 0/1 and threshold-grid
# checks from streams 3/4, whatever the scheme.
POINT_STREAMS = montecarlo.STREAMS_DETECTION[TS]
GRID_STREAMS = montecarlo.STREAMS_DETECTION[PS]

# Draw counts around the streaming block size, plus one 10^6 run.
B = montecarlo._BLOCK
BLOCK_EDGE_SIZES = [1, B - 1, B, B + 1, 3 * B + 7, 10**6]


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


def test_detection_curve_below_noise_floor(params, ts):
    a_hat, b_hat = detection_curve(params, ts, 0.7, [0.5 * params.sigma2_a], 10**4, seed=1,
                                   streams=POINT_STREAMS)
    assert a_hat[0] == 1.0
    assert b_hat[0] == 0.0


def test_detection_curve_identical_hypotheses(params, ts):
    tau = optimal_threshold(params, ts, 0.7)
    n = 10**4
    a_hat, b_hat = detection_curve(params, ts, params.eta0, [tau], n, seed=2, streams=POINT_STREAMS)
    half = np.hypot(_proportion_halfwidth(np.round(a_hat * n), n),
                    _proportion_halfwidth(np.round(b_hat * n), n))
    # Identical distributions make the error rates complementary in
    # expectation; the hypotheses use independent draw sets, so the
    # realization fluctuates within its interval around 1.
    assert a_hat[0] + b_hat[0] == pytest.approx(1.0, abs=2 * half[0])


def test_detection_curve_fig2_point(params, ts, ps):
    for scheme in (ts, ps):
        tau_star = optimal_threshold(params, scheme, 0.7)
        a_hat, b_hat = detection_curve(params, scheme, 0.7, [tau_star], 10**6, seed=3,
                                       streams=POINT_STREAMS)
        assert a_hat[0] + b_hat[0] == pytest.approx(XI_STAR_4_7, abs=5e-3)


def test_detection_curve_deterministic(params, ts):
    tau = optimal_threshold(params, ts, 0.7)
    a = detection_curve(params, ts, 0.7, [tau], 10**5, seed=44, streams=POINT_STREAMS)
    b = detection_curve(params, ts, 0.7, [tau], 10**5, seed=44, streams=POINT_STREAMS)
    assert np.array_equal(a, b)
    c = detection_curve(params, ts, 0.7, [tau], 10**5, seed=45, streams=POINT_STREAMS)
    assert not np.array_equal(a, c)


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
        a_hat, b_hat = detection_curve(p, scheme, eta1, [tau], n, seed=50 + trial, streams=POINT_STREAMS)
        a = false_alarm(p, scheme, tau)
        b = miss_detection(p, scheme, eta1, tau)
        se_a = max(np.sqrt(a * (1 - a) / n), 1.0 / n)
        se_b = max(np.sqrt(b * (1 - b) / n), 1.0 / n)
        assert abs(a_hat[0] - a) <= 3 * se_a
        assert abs(b_hat[0] - b) <= 3 * se_b


def test_detection_curve_matches_pointwise(params, ts):
    taus = np.geomspace(params.sigma2_a, params.sigma2_a * 100.0, 7)
    n = 10**5
    a_curve, b_curve = detection_curve(params, ts, 0.7, taus, n, seed=8, streams=POINT_STREAMS)
    a_true = false_alarm(params, ts, taus)
    b_true = miss_detection(params, ts, 0.7, taus)
    se = np.sqrt(np.maximum(a_true * (1 - a_true), b_true * (1 - b_true)) / n) + 1.0 / n
    assert np.all(np.abs(a_curve - a_true) <= 4 * se)
    assert np.all(np.abs(b_curve - b_true) <= 4 * se)


def _one_shot_detection_curve(params, scheme, eta1, taus, n_blocks, seed, streams):
    # Reference: the whole draw set at once and one global sort per hypothesis.
    g0 = substream(seed, streams[0]).exponential(params.lambda_ar, n_blocks)
    g1 = substream(seed, streams[1]).exponential(params.lambda_ar, n_blocks)
    t0 = sufficient_statistic(params, scheme, params.eta0, g0)
    t1 = sufficient_statistic(params, scheme, eta1, g1)
    t0.sort()
    t1.sort()
    alpha_hat = 1.0 - np.searchsorted(t0, taus, side="left") / n_blocks
    beta_hat = np.searchsorted(t1, taus, side="left") / n_blocks
    return alpha_hat, beta_hat


def _one_shot_covert_rate(params, scheme, eta1, n_blocks, seed):
    # Reference: all g_ar, then all g_rb, and one full-size evaluation.
    rng = substream(seed, montecarlo.STREAM_RATE)
    draw = ChannelDraw(
        g_ar=rng.exponential(params.lambda_ar, n_blocks),
        g_rb=rng.exponential(params.lambda_rb, n_blocks),
    )
    values = np.log2(1.0 + covert_snr(params, scheme, eta1, draw))
    half = montecarlo.Z95 * float(np.std(values, ddof=1)) / np.sqrt(n_blocks) if n_blocks > 1 else np.nan
    return float(np.mean(values)), half


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_detection_curve_bit_identical_to_one_shot(params, ts, ps, n):
    # Unsorted thresholds, one below the noise floor and one repeated.
    tau_star = optimal_threshold(params, ts, 0.7)
    taus = np.concatenate([params.sigma2_a + np.geomspace(1e3, 1e-6, 40) * (tau_star - params.sigma2_a),
                           [0.5 * params.sigma2_a, tau_star, tau_star]])
    for scheme in (ts, ps):
        got = detection_curve(params, scheme, 0.7, taus, n, seed=n, streams=POINT_STREAMS)
        want = _one_shot_detection_curve(params, scheme, 0.7, taus, n, n, POINT_STREAMS)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_simulate_covert_rate_bit_identical_to_one_shot(params, ts, ps, n):
    for scheme in (ts, ps):
        rep = simulate_covert_rate(params, scheme, 0.7, n, seed=n)
        c_hat, half = _one_shot_covert_rate(params, scheme, 0.7, n, n)
        assert rep.c_hat == c_hat
        if n > 1:
            assert rep.ci_halfwidth == half
        else:
            assert np.isnan(rep.ci_halfwidth)


def _one_shot_control_variate(params, scheme, eta1, n_blocks, seed):
    # Reference: all draws at once, the controls written as ln(g / lambda) +
    # gamma, and numpy's least-squares solver on [1, controls]; the
    # half-width from the residual sum of squares and (X^T X)^-1.
    rng = substream(seed, montecarlo.STREAM_RATE)
    g_ar = rng.exponential(params.lambda_ar, n_blocks)
    g_rb = rng.exponential(params.lambda_rb, n_blocks)
    y = np.log2(1.0 + covert_snr(params, scheme, eta1, ChannelDraw(g_ar=g_ar, g_rb=g_rb)))
    u, v = g_ar / params.lambda_ar, g_rb / params.lambda_rb
    x = np.column_stack([np.ones(n_blocks), np.log(u) + np.euler_gamma, np.log(v) + np.euler_gamma,
                         u - 1.0, v - 1.0, u * v - 1.0])
    coef, rss, _, _ = np.linalg.lstsq(x, y, rcond=None)
    var = rss[0] / (n_blocks - x.shape[1]) * np.linalg.inv(x.T @ x)[0, 0]
    return coef[0], montecarlo.Z95 * np.sqrt(var)


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_control_variate_matches_least_squares(params, ts, ps, n):
    for scheme in (ts, ps):
        rep = simulate_covert_rate(params, scheme, 0.7, n, seed=n)
        if n < 7:  # no residual left: the plain estimate stands in
            assert rep.c_cv == rep.c_hat
            continue
        c_cv, half = _one_shot_control_variate(params, scheme, 0.7, n, n)
        assert rep.c_cv == pytest.approx(c_cv, rel=1e-12)
        assert rep.cv_halfwidth == pytest.approx(half, rel=1e-9)
        assert rep.cv_halfwidth < rep.ci_halfwidth


@pytest.mark.parametrize("n", [2, 6, 7])
def test_control_variate_needs_a_residual(params, ts, n):
    # Six coefficients: from seven draws on, the fit has a residual.
    rep = simulate_covert_rate(params, ts, 0.7, n, seed=3)
    fell_back = (rep.c_cv, rep.cv_halfwidth) == (rep.c_hat, rep.ci_halfwidth)
    assert fell_back == (n < 7)
    assert np.isfinite(rep.c_cv) and np.isfinite(rep.cv_halfwidth)


def test_zero_draw_keeps_the_plain_estimate(params, ts, monkeypatch):
    # A zero gain has ln 0 = -inf: the fit is dropped without a warning, and
    # nothing non-finite is reported.
    real = montecarlo.substream

    class ZeroFirst:
        def __init__(self, rng):
            self.rng = rng

        def exponential(self, scale, size):
            g = self.rng.exponential(scale, size)
            g[0] = 0.0
            return g

    monkeypatch.setattr(montecarlo, "substream", lambda seed, stream: ZeroFirst(real(seed, stream)))
    rep = simulate_covert_rate(params, ts, 0.7, 1000, seed=4)
    assert np.isfinite(rep.c_hat)
    assert (rep.c_cv, rep.cv_halfwidth) == (rep.c_hat, rep.ci_halfwidth)


def test_control_variate_mean_over_seeds_matches_quadrature(params, ts, ps):
    # 50 seeds at 2^14 draws: the mean of the estimates lies within 3
    # standard errors of the quadrature (the pooled fit's O(1/n) bias is
    # far below that).
    eta1 = 0.5 * (params.eta0 + params.eta_u)
    for scheme in (ts, ps):
        c = np.array([simulate_covert_rate(params, scheme, eta1, 2**14, seed).c_cv for seed in range(50)])
        se = np.std(c, ddof=1) / np.sqrt(c.size)
        assert abs(np.mean(c) - average_covert_rate(params, scheme, eta1).c_avg) <= 3.0 * se


@pytest.mark.parametrize("kernel,limit_mib", [("detection_curve", 4), ("simulate_covert_rate", 14)])
def test_streamed_kernels_stay_small(params, ts, kernel, limit_mib):
    # At 10^6 blocks a single full-size float64 temporary is 7.6 MiB:
    # simulate_covert_rate holds one (its values, whose standard deviation
    # is taken in place) plus one block's temporaries.
    tau_star = optimal_threshold(params, ts, 0.7)
    taus = params.sigma2_a + np.geomspace(1e-9, 1e3, 202) * (tau_star - params.sigma2_a)
    run = {
        "detection_curve": lambda: detection_curve(params, ts, 0.7, taus, 10**6, seed=20, streams=POINT_STREAMS),
        "simulate_covert_rate": lambda: simulate_covert_rate(params, ts, 0.7, 10**6, seed=20),
    }[kernel]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


@pytest.mark.parametrize("n", [1, B + 1, 10**5])
def test_thread_count_cannot_change_results(params, monkeypatch, n):
    # Reference: every job pair run in order on the calling thread.
    def run():
        return csv_bytes(run_fig2(params, mc_blocks=n, seed=n)), run_validation(params, seed=n, mc_blocks=n)

    threaded = run()
    monkeypatch.setattr(montecarlo, "_run_pair", lambda first, second: (first(), second()))
    assert run() == threaded


class JobError(Exception):
    pass


@pytest.mark.parametrize("failing", ["first", "second"])
def test_run_pair_joins_the_worker_and_raises_the_job_error(failing):
    error = JobError(failing)
    threads = {}

    def job(name):
        def run():
            threads[name] = threading.current_thread()
            if name == failing:
                raise error
            time.sleep(0.05)  # still running when the other job fails
            return name
        return run

    before = threading.active_count()
    with pytest.raises(JobError) as caught:
        montecarlo._run_pair(job("first"), job("second"))
    assert caught.value is error
    assert threading.active_count() == before
    assert threads["first"] is threading.current_thread()
    assert threads["second"] is not threading.current_thread()
    assert not threads["second"].is_alive()


def test_simulate_covert_rate_zero_without_surplus(params, ts):
    rep = simulate_covert_rate(params, ts, params.eta0, 10**4, seed=9)
    assert rep.c_hat == 0.0
    assert rep.c_cv == 0.0


def test_simulate_covert_rate_matches_quadrature(params, ts, ps):
    for scheme in (ts, ps):
        rate = average_covert_rate(params, scheme, 0.7)
        rep = simulate_covert_rate(params, scheme, 0.7, 10**6, seed=10)
        assert abs(rep.c_hat - rate.c_avg) / rate.c_avg <= 0.02


def test_simulate_covert_rate_ci_scaling(params, ts):
    rep1 = simulate_covert_rate(params, ts, 0.7, 10**5, seed=11)
    rep2 = simulate_covert_rate(params, ts, 0.7, 2 * 10**5, seed=11)
    ratio = rep2.ci_halfwidth / rep1.ci_halfwidth
    assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.10)


def test_simulate_covert_rate_deterministic(params, ps):
    a = simulate_covert_rate(params, ps, 0.7, 10**5, seed=12)
    b = simulate_covert_rate(params, ps, 0.7, 10**5, seed=12)
    assert a == b


def _optimal_on_threshold_grid(params, scheme, eta1, grid_size, seed, n_blocks=10**5):
    # validate's threshold-optimality rule on a grid_size-point threshold grid.
    tau_star = optimal_threshold(params, scheme, eta1)
    offsets = np.geomspace(params.sigma2_a * 1e-9, 1e3 * (tau_star - params.sigma2_a), grid_size)
    taus = np.append(params.sigma2_a + offsets, tau_star)
    a_hat, b_hat = detection_curve(params, scheme, eta1, taus, n_blocks, seed, streams=GRID_STREAMS)
    return _optimal_on_grid(a_hat, b_hat, n_blocks)


def test_threshold_optimality_fig2(params, ts):
    assert _optimal_on_threshold_grid(params, ts, 0.7, grid_size=10**4, seed=13)


def test_threshold_optimality_near_degenerate(params, ts):
    assert _optimal_on_threshold_grid(params, ts, params.eta0 * 1.001, grid_size=10**3, seed=14)


def test_threshold_optimality_extreme_split(params):
    assert _optimal_on_threshold_grid(params, SchemeConfig(PS, 0.9), 0.7, grid_size=10**3, seed=15)


def test_simulation_report_rejects_empty(params, ts):
    with pytest.raises(ValueError):
        simulate_covert_rate(params, ts, 0.7, 0, seed=18)
    with pytest.raises(ValueError):
        detection_curve(params, ts, 0.7, [1.0], 0, seed=19, streams=POINT_STREAMS)


def test_stream_numbers_are_distinct():
    streams = [v for k, v in vars(montecarlo).items() if k.startswith("STREAM_")]
    for name, per_variant in vars(montecarlo).items():
        if name.startswith("STREAMS_"):
            assert set(per_variant) == {TS, PS}, name
            streams += np.ravel(list(per_variant.values())).tolist()
    assert len(streams) >= 13
    assert len(set(streams)) == len(streams)
