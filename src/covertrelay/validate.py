"""Cross-validation suite: closed forms against their independent oracles.

Each check compares one analytic result with a route that does not share
its derivation (brute-force grid search, Monte Carlo tallies, alternative
algebraic forms, distributional tests) and reports the measured error
against its tolerance. The optional perturbation knob deliberately skews
the closed forms under test so the harness can prove it would catch a
regression (self-test mode).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import detection, montecarlo, rates, relaying
from .params import PS, TS, ChannelDraw, SchemeConfig, SystemParams

DEFAULT_FRACTION = 0.5  # harvesting fraction of both schemes' checks
KS_DRAWS = 10**6
KS_TOL_STATISTIC = 0.003

# The Monte Carlo checks below may fail by chance on a correct build; each
# gets a false-failure budget of beta = 1e-4 per run.
#
# detection-mc makes 6 two-sided normal comparisons (alpha and beta at 3
# thresholds). By the Bonferroni bound each gets beta/6, i.e. beta/12 per
# tail: z = Phi^-1(1 - 1e-4/12) = 4.3054, rounded up (12 * Q(4.31) = 9.8e-5).
DETECTION_MC_Z = 4.31
# channel-ks: the Dvoretzky-Kiefer-Wolfowitz inequality bounds
# P(D_n > t) <= 2 exp(-2 n t^2), so t = sqrt(ln(2/beta) / 2) / sqrt(n)
# = 2.2253e-3 at n = KS_DRAWS = 10^6, rounded up (bound 9.6e-5).
KS_TOL_CHANNEL = 0.00223


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool


def _check(name: str, measured: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(measured), float(tolerance), bool(measured <= tolerance))


def _ks_distance(draws: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of draws from a continuous CDF.

    Sorts draws in place, then evaluates cdf, i/n - c and c - (i-1)/n on
    consecutive blocks of the sorted draws and keeps a running maximum, so
    no full-size temporary is allocated. cdf must act elementwise. The
    arithmetic per element is scipy.stats.kstest's and a maximum does not
    depend on how its values are grouped, so the statistic is bit-identical,
    but no p-value is computed: the checks only compare the distance with a
    tolerance.
    """
    draws.sort()
    n = draws.size
    d = -np.inf
    for start in range(0, n, montecarlo._BLOCK):
        c = cdf(draws[start:start + montecarlo._BLOCK])
        i = np.arange(start + 1.0, start + c.size + 1.0)
        d = max(d, np.max(i / n - c), np.max(c - (i - 1.0) / n))
    return float(d)


def _statistic_ks_distance(params: SystemParams, scheme: SchemeConfig, seed: int) -> float:
    """KS distance of KS_DRAWS H0 statistics, on the scheme's own stream, from their CDF.

    Each block of the drawn gains is overwritten by its statistic, so the
    job holds one 10^6-element array; the statistic acts elementwise, so the
    values are those of one full-size evaluation.
    """
    stream = montecarlo.STREAMS_KS_STATISTIC[scheme.variant]
    t = montecarlo.substream(seed, stream).exponential(params.lambda_ar, KS_DRAWS)
    for start in range(0, KS_DRAWS, montecarlo._BLOCK):
        block = t[start:start + montecarlo._BLOCK]
        block[...] = montecarlo.sufficient_statistic(params, scheme, params.eta0, block)
    return _ks_distance(t, lambda x: 1.0 - detection.false_alarm(params, scheme, x))


def _proportion_halfwidth(successes, n: int):
    # Agresti-Coull 95% half-width; broadcasts over success counts and stays
    # positive even at empirical rates of exactly 0 or 1.
    z2 = montecarlo.Z95 * montecarlo.Z95
    n_adj = n + z2
    p_adj = (successes + 0.5 * z2) / n_adj
    return montecarlo.Z95 * np.sqrt(p_adj * (1.0 - p_adj) / n_adj)


def _optimal_on_grid(a_hat: np.ndarray, b_hat: np.ndarray, n_blocks: int) -> bool:
    """True iff the empirical error at the last threshold (the closed-form
    optimum) exceeds no other threshold's by more than 3 half-widths."""
    a_grid, b_grid = a_hat[:-1], b_hat[:-1]
    half = np.hypot(
        _proportion_halfwidth(np.round(a_grid * n_blocks), n_blocks),
        _proportion_halfwidth(np.round(b_grid * n_blocks), n_blocks),
    )
    return bool(np.all(a_hat[-1] + b_hat[-1] <= a_grid + b_grid + 3.0 * half))


def __getattr__(name: str):
    # benchmarks/tracing.py still hooks validate.stats.kstest (ROADMAP item 6).
    # Resolve it on demand and do not cache it in the module globals, so that
    # importing this module loads no scipy and vars() stays the same.
    if name == "stats":
        from scipy import stats

        return stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_validation(
    params: SystemParams,
    seed: int = 0,
    mc_blocks: int = montecarlo.MC_BLOCKS,
    fraction: float = DEFAULT_FRACTION,
    perturb: float = 0.0,
) -> list[CheckResult]:
    """Run every cross-check; returns one CheckResult per check.

    perturb != 0 scales the closed-form detection quantities under test and
    is expected to make the suite fail (harness self-test).
    """
    schemes = (SchemeConfig(TS, fraction), SchemeConfig(PS, fraction))
    eta1_mid = 0.5 * (params.eta0 + params.eta_u)

    # The five 10^6-draw jobs run first, in two lanes (montecarlo._run_pair),
    # each on its own stream; the checks below only read their results.
    def rate_and_channel_lane():
        reps = [montecarlo.simulate_covert_rate(params, s, eta1_mid, mc_blocks, seed) for s in schemes]
        samples = montecarlo.substream(seed, montecarlo.STREAM_KS_CHANNEL).exponential(params.lambda_ar, KS_DRAWS)
        return reps, _ks_distance(samples, lambda g: -np.expm1(-g / params.lambda_ar))

    def statistic_lane():
        return [_statistic_ks_distance(params, s, seed) for s in schemes]

    (rate_reps, channel_ks), statistic_ks = montecarlo._run_pair(rate_and_channel_lane, statistic_lane)

    results: list[CheckResult] = []
    rng = montecarlo.substream(seed, montecarlo.STREAM_POWER_ALGEBRA)
    skew = 1.0 + perturb
    xi_min = []  # unperturbed minimum error per scheme

    for scheme, rep, ks in zip(schemes, rate_reps, statistic_ks):
        tag = scheme.variant

        # Power algebra over random (draw, eta1) tuples.
        n = 10**4
        draw = ChannelDraw(
            g_ar=rng.exponential(params.lambda_ar, n),
            g_rb=rng.exponential(params.lambda_rb, n),
        )
        eta1s = rng.uniform(params.eta0, params.eta_u, n)
        alloc = relaying.allocate_powers(params, scheme, eta1s, draw)
        total = relaying.harvested_power_total(params, scheme, eta1s, draw.g_ar)
        balance = np.max(np.abs(alloc.pr1 + alloc.prc - total) / total)
        results.append(_check(f"power-balance-{tag}", balance, 1e-12))

        g0 = relaying.snr_h0(params, scheme, draw)
        g1 = relaying.sinr_h1(params, scheme, eta1s, draw)
        results.append(_check(f"snr-match-{tag}", np.max(np.abs(g0 - g1) / g0), 1e-10))

        gc_direct = relaying.covert_snr(params, scheme, eta1s, draw)
        gc_reduced = relaying.covert_snr_reduced(params, scheme, eta1s, draw)
        results.append(
            _check(f"covert-snr-forms-{tag}", np.max(np.abs(gc_direct - gc_reduced) / gc_reduced), 1e-12)
        )

        # Threshold optimality: closed form against a threshold grid, and
        # the minimum against the ratio-only expression.
        tau_star = detection.optimal_threshold(params, scheme, eta1_mid)
        delta = tau_star - params.sigma2_a
        offsets = np.geomspace(params.sigma2_a * 1e-9, 1e3 * delta, 10**4)
        xi_grid = detection.detection_error(params, scheme, eta1_mid, params.sigma2_a + offsets).xi
        xi_min.append(detection.detection_error(params, scheme, eta1_mid, tau_star).xi)
        xi_at_star = xi_min[-1] * skew
        results.append(_check(f"threshold-grid-{tag}", xi_at_star - np.min(xi_grid), 1e-12))
        xi_ratio = detection.min_detection_error(params.eta0 / eta1_mid)
        results.append(_check(f"xi-star-closed-form-{tag}", abs(xi_at_star - xi_ratio), 1e-10))

        # One Monte Carlo draw set per hypothesis, on this scheme's own
        # streams, serves detection-mc (3 thresholds) and
        # threshold-optimality (a 2000-point grid plus the optimum).
        taus_mc = params.sigma2_a + np.array([0.3, 1.0, 3.0]) * delta
        taus_grid = params.sigma2_a + np.geomspace(params.sigma2_a * 1e-9, 1e3 * delta, 2000)
        taus = np.concatenate([taus_mc, taus_grid, [tau_star]])
        n_det = min(mc_blocks, 10**5)
        a_hat, b_hat = montecarlo.detection_curve(params, scheme, eta1_mid, taus, n_det, seed,
                                                  montecarlo.STREAMS_DETECTION[tag])

        # Detection rates against Monte Carlo tallies (DETECTION_MC_Z
        # binomial standard errors computed from the closed-form rates).
        a = detection.false_alarm(params, scheme, taus_mc) * skew
        b = detection.miss_detection(params, scheme, eta1_mid, taus_mc) * skew
        se_a = np.maximum(np.sqrt(a * (1 - a) / n_det), 1.0 / n_det)
        se_b = np.maximum(np.sqrt(b * (1 - b) / n_det), 1.0 / n_det)
        worst = max(np.max(np.abs(a_hat[:3] - a) / (DETECTION_MC_Z * se_a)),
                    np.max(np.abs(b_hat[:3] - b) / (DETECTION_MC_Z * se_b)))
        results.append(_check(f"detection-mc-{tag}", worst, 1.0))

        # Rate quadrature against Monte Carlo.
        rate = rates.average_covert_rate(params, scheme, eta1_mid)
        results.append(_check(f"quad-convergence-{tag}", rate.quad_error, rates.QUAD_ERROR_LIMIT))
        results.append(_check(f"rate-quad-vs-mc-{tag}", abs(rate.c_avg - rep.c_hat) / rate.c_avg, 0.02))

        # Empirical CDF of the received-power statistic under H0.
        results.append(_check(f"statistic-cdf-ks-{tag}", ks, KS_TOL_STATISTIC))

        # Threshold optimality on a grid, empirical side (the closed-form
        # side is threshold-grid above).
        ok = _optimal_on_grid(a_hat[3:], b_hat[3:], n_det)
        results.append(_check(f"threshold-optimality-{tag}", 0.0 if ok else 1.0, 0.0))

    # Scheme-independent checks.
    results.append(_check("xi-star-scheme-equal", abs(xi_min[0] - xi_min[1]), 1e-10))

    phis = np.linspace(0.01, 0.99, 1000)
    xi_vals = np.array([detection.min_detection_error(p) for p in phis])
    non_increasing = float(np.sum(np.diff(xi_vals) <= 0))
    results.append(_check("xi-star-monotone", non_increasing, 0.0))

    budget = rates.covertness_budget_limit(params.eta0, params.eta_u)
    identity = abs(budget - (1.0 - detection.min_detection_error(params.eta0 / params.eta_u)))
    results.append(_check("budget-identity", identity, 1e-12))

    results.append(_check("channel-ks", channel_ks, KS_TOL_CHANNEL))

    return results


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name:<{width}}  measured={r.measured:.3e}  tolerated={r.tolerance:.3e}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
