import numpy as np
import pytest
from scipy import stats

from covertrelay import default_params, detection, montecarlo
from covertrelay.params import PS, TS, SchemeConfig
from covertrelay.validate import (KS_DRAWS, _ks_distance, _proportion_halfwidth, format_report,
                                  run_validation)

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
        streams=(montecarlo.STREAM_DETECTION_TS_H0, montecarlo.STREAM_DETECTION_TS_H1),
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
    for scheme, stream in ((SchemeConfig(TS, 0.5), montecarlo.STREAM_KS_STATISTIC_TS),
                           (SchemeConfig(PS, 0.5), montecarlo.STREAM_KS_STATISTIC_PS)):
        g = montecarlo.substream(SEED, stream).exponential(params.lambda_ar, KS_DRAWS)
        t = montecarlo.sufficient_statistic(params, scheme, params.eta0, g)
        expected = stats.kstest(t, lambda x: 1.0 - detection.false_alarm(params, scheme, x)).statistic
        assert measured[f"statistic-cdf-ks-{scheme.variant}"] == pytest.approx(expected, rel=0, abs=1e-15)
