import tracemalloc

import numpy as np
import pytest
from scipy import stats

from covertrelay import average_covert_rate, default_params, detection, montecarlo
from covertrelay.params import PS, TS, SchemeConfig, dbm_to_watts
from covertrelay.montecarlo import KS_DRAWS, _ks_distance
from covertrelay.validate import (RATE_MC_TOL, _check, _covert_rate_estimate, _proportion_halfwidth,
                                  _statistic_cdf, format_report, run_validation)

from conftest import BLOCK_EDGE_SIZES

SEED = 101


@pytest.fixture(scope="module")
def results():
    return run_validation(default_params(), seed=SEED, mc_blocks=10**5)


def test_suite_passes_on_defaults(results):
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_suite_covers_both_schemes(results):
    names = {r.name for r in results}
    for stem in ("power-balance", "snr-match", "covert-snr-forms", "threshold-grid",
                 "detection-mc", "rate-quad-vs-mc", "statistic-cdf-ks",
                 "threshold-optimality"):
        assert f"{stem}-ts" in names
        assert f"{stem}-ps" in names
    assert "xi-star-scheme-equal" in names
    assert "budget-identity" in names
    assert "channel-ks" in names


def test_check_names_in_report_order(results):
    per_scheme = ("power-balance", "snr-match", "covert-snr-forms", "threshold-grid",
                  "xi-star-closed-form", "detection-mc", "quad-convergence", "rate-quad-vs-mc",
                  "statistic-cdf-ks", "threshold-optimality")
    expected = [f"{stem}-{tag}" for tag in ("ts", "ps") for stem in per_scheme]
    expected += ["xi-star-scheme-equal", "xi-star-monotone", "budget-identity", "channel-ks"]
    assert [r.name for r in results] == expected


def test_detection_mc_schemes_draw_independently(results):
    # Each scheme tallies its own draw set, so the two checks are separate tests.
    measured = {r.name: r.measured for r in results}
    assert measured["detection-mc-ts"] != measured["detection-mc-ps"]


def test_proportion_halfwidth_positive(params, ts):
    # 100 blocks below the noise floor: empirical rates of exactly 1 and 0.
    n = 100
    a_hat, b_hat = montecarlo.detection_curve(
        params, ts, 0.7, [0.5 * params.sigma2_a], n, seed=5,
        streams=montecarlo.STREAMS_DETECTION[TS],
    )
    assert (a_hat[0], b_hat[0]) == (1.0, 0.0)
    ha = _proportion_halfwidth(np.round(a_hat[0] * n), n)
    hb = _proportion_halfwidth(np.round(b_hat[0] * n), n)
    assert ha > 0
    assert hb > 0
    assert np.hypot(ha, hb) > 0


def test_report_lists_measured_vs_tolerated(results):
    report = format_report(results)
    lines = report.splitlines()
    assert len(lines) == len(results) + 1
    assert all("measured=" in line and "tolerated=" in line for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_injected_perturbation_fails():
    skewed = run_validation(default_params(), seed=SEED, mc_blocks=10**4, perturb=0.05)
    failed = {r.name for r in skewed if not r.passed}
    # The Monte Carlo checks catch a 5% skew too, at their false-failure budget.
    assert {"detection-mc-ts", "detection-mc-ps"} <= failed


@pytest.mark.parametrize("draws,expected", [
    ([0.4, 0.2, 0.3], 0.6),  # D+ = 1 - 0.4 wins
    ([0.9, 0.5, 0.8], 0.5),  # D- = 0.5 - 0 wins
])
def test_ks_distance_hand_computed(draws, expected):
    x = np.array(draws)
    assert _ks_distance(x, lambda u: u) == pytest.approx(expected, abs=1e-15)
    assert list(x) == sorted(draws)  # sorted in place


def _one_shot_ks_distance(draws, cdf):
    # Reference: the CDF and both one-sided distances over the whole array.
    draws = np.sort(draws)
    c = cdf(draws)
    n = draws.size
    return float(max(np.max(np.arange(1.0, n + 1) / n - c), np.max(c - np.arange(0.0, n) / n)))


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_ks_distance_bit_identical_to_one_shot(params, n):
    # Both CDFs validate tests against: the H0 statistic's and the channel gain's.
    g = montecarlo.substream(n, montecarlo.STREAM_KS_CHANNEL).exponential(params.lambda_ar, n)
    cases = [(montecarlo.sufficient_statistic(params, scheme, params.eta0, g),
              lambda x, scheme=scheme: 1.0 - detection.false_alarm(params, scheme, x))
             for scheme in (SchemeConfig(TS, 0.5), SchemeConfig(PS, 0.5))]
    cases.append((g, lambda x: -np.expm1(-x / params.lambda_ar)))
    for draws, cdf in cases:
        assert _ks_distance(draws.copy(), cdf) == _one_shot_ks_distance(draws, cdf)


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_statistic_ks_on_sorted_gains_equals_the_statistics_own(params, monkeypatch, n):
    # statistic-cdf-ks evaluates the statistic's CDF on blocks of sorted
    # gains. It equals the KS distance of the materialised, sorted statistic
    # bit for bit: at the defaults, at a Pa where K is subnormal, and at one
    # where K underflows to 0 (every statistic is the noise floor).
    monkeypatch.setattr(montecarlo, "KS_DRAWS", n)
    for pa in (params.Pa, 1e-310, 1e-320):
        point = params.with_updates(Pa=pa)
        for scheme in (SchemeConfig(TS, 0.5), SchemeConfig(PS, 0.5)):
            stream = montecarlo.STREAMS_KS_STATISTIC[scheme.variant]
            g = montecarlo.substream(n, stream).exponential(point.lambda_ar, n)
            t = montecarlo.sufficient_statistic(point, scheme, point.eta0, g)
            assert np.array_equal(np.sort(t), montecarlo.sufficient_statistic(point, scheme, point.eta0, np.sort(g)))
            want = _ks_distance(t, lambda x: 1.0 - detection.false_alarm(point, scheme, x))
            assert montecarlo.gain_ks_distance(point, stream, n, _statistic_cdf(point, scheme)) == want


def test_validation_stays_small():
    # At most two 10^6-draw KS jobs in flight, each holding one 7.6 MiB
    # array of gains plus a block's temporaries: a statistic KS job forms
    # each block's statistic in place. The rate jobs draw fewer at the defaults.
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_validation(default_params())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_ks_checks_equal_scipy_kstest(results):
    """The KS distances are scipy's kstest statistic on validate's own draws.

    Bit-identical under scipy 1.17; another scipy version may round its CDF
    differently, hence the 1e-15 slack.
    """
    params = default_params()
    measured = {r.name: r.measured for r in results}
    g = montecarlo.substream(SEED, montecarlo.STREAM_KS_CHANNEL).exponential(params.lambda_ar, KS_DRAWS)
    expected = stats.kstest(g, "expon", args=(0, params.lambda_ar)).statistic
    assert measured["channel-ks"] == pytest.approx(expected, rel=0, abs=1e-15)
    for scheme in (SchemeConfig(TS, 0.5), SchemeConfig(PS, 0.5)):
        stream = montecarlo.STREAMS_KS_STATISTIC[scheme.variant]
        g = montecarlo.substream(SEED, stream).exponential(params.lambda_ar, KS_DRAWS)
        t = montecarlo.sufficient_statistic(params, scheme, params.eta0, g)
        expected = stats.kstest(t, lambda x: 1.0 - detection.false_alarm(params, scheme, x)).statistic
        assert measured[f"statistic-cdf-ks-{scheme.variant}"] == pytest.approx(expected, rel=0, abs=1e-15)


def test_rate_check_reads_the_control_variate_estimate(results):
    params = default_params()
    eta1 = 0.5 * (params.eta0 + params.eta_u)
    measured = {r.name: r.measured for r in results}
    for scheme in (SchemeConfig(TS, 0.5), SchemeConfig(PS, 0.5)):
        c_avg = average_covert_rate(params, scheme, eta1).c_avg
        rep = _covert_rate_estimate(params, scheme, eta1, 10**5, SEED)
        assert measured[f"rate-quad-vs-mc-{scheme.variant}"] == abs(c_avg - rep.c_cv) / c_avg


@pytest.mark.parametrize("pa_dbm", [-50.0, -10.0, 0.0, 20.0, 40.0, 60.0])
def test_rate_draws_keep_the_plain_confidence(monkeypatch, pa_dbm):
    # The rate check's half-width is never wider than the plain mean's at
    # mc_blocks, and it never draws more than mc_blocks. 2^18 draws keep
    # the scan short; at 60 dBm, where the control variates gain least, the
    # run draws between the pilot and mc_blocks.
    mc_blocks = 2**18
    params = default_params(Pa=dbm_to_watts(pa_dbm))
    eta1 = 0.5 * (params.eta0 + params.eta_u)
    simulate = montecarlo.simulate_covert_rate
    draws = []
    monkeypatch.setattr(montecarlo, "simulate_covert_rate",
                        lambda *args: draws.append(args[3]) or simulate(*args))
    for scheme in (SchemeConfig(TS, 0.5), SchemeConfig(PS, 0.5)):
        draws.clear()
        rep = _covert_rate_estimate(params, scheme, eta1, mc_blocks, seed=1)
        assert draws[0] == montecarlo._BLOCK
        assert max(draws) <= mc_blocks
        if pa_dbm == 60.0:
            assert montecarlo._BLOCK < draws[-1] < mc_blocks
        assert rep.cv_halfwidth <= simulate(params, scheme, eta1, mc_blocks, 1).ci_halfwidth


def test_planted_rate_error_fails_every_seed():
    # A quadrature 3% too high fails rate-quad-vs-mc at the default draw
    # count on every seed, for both schemes.
    params = default_params()
    eta1 = 0.5 * (params.eta0 + params.eta_u)
    for scheme in (SchemeConfig(TS, 0.5), SchemeConfig(PS, 0.5)):
        planted = 1.03 * average_covert_rate(params, scheme, eta1).c_avg
        for seed in range(20):
            rep = _covert_rate_estimate(params, scheme, eta1, montecarlo.MC_BLOCKS, seed)
            assert not _check("rate-quad-vs-mc", abs(planted - rep.c_cv) / planted, RATE_MC_TOL).passed
