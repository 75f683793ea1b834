"""Cross-validation suite: closed forms against their independent oracles.

Each check compares one analytic result with a route that does not share
its derivation (brute-force grid search, Monte Carlo tallies, alternative
algebraic forms, distributional tests) and reports the measured error
against its tolerance. The optional perturbation knob deliberately skews
the closed forms under test so the harness can prove it would catch a
regression (self-test mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import detection, montecarlo, rates, relaying
from .params import PS, TS, ChannelDraw, SchemeConfig, SystemParams

DEFAULT_FRACTION = 0.5  # harvesting fraction of both schemes' checks
KS_TOL_STATISTIC = 0.003
RATE_MC_TOL = 0.02  # rate-quad-vs-mc: relative gap of the quadrature from the Monte Carlo rate
# Extra draws over the pilot's estimate of what the rate check needs. The
# run's own variance ratio scatters by 1-5% around the pilot's, so without
# a margin about half of the runs would miss the target and redraw at
# mc_blocks; 25% is 5 of those spreads.
RATE_DRAW_MARGIN = 1.25

# The Monte Carlo checks below may fail by chance on a correct build; each
# gets a false-failure budget of beta = 1e-4 per run.
#
# detection-mc makes 6 two-sided normal comparisons (alpha and beta at 3
# thresholds). By the Bonferroni bound each gets beta/6, i.e. beta/12 per
# tail: z = Phi^-1(1 - 1e-4/12) = 4.3054, rounded up (12 * Q(4.31) = 9.8e-5).
DETECTION_MC_Z = 4.31
# channel-ks: the Dvoretzky-Kiefer-Wolfowitz inequality bounds
# P(D_n > t) <= 2 exp(-2 n t^2), so t = sqrt(ln(2/beta) / 2) / sqrt(n)
# = 2.2253e-3 at n = montecarlo.KS_DRAWS = 10^6, rounded up (bound 9.6e-5).
KS_TOL_CHANNEL = 0.00223


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool


def _check(name: str, measured: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(measured), float(tolerance), bool(measured <= tolerance))


def _statistic_cdf(params: SystemParams, scheme: SchemeConfig):
    """The H0 statistic's CDF as a function of the gain, for gain_ks_distance; overwrites the gains.

    Each step of the statistic (square, times K >= 0, plus sigma2_a) is
    non-decreasing in IEEE arithmetic for gains >= 0.
    """
    def cdf(g):
        t = montecarlo.sufficient_statistic(params, scheme, params.eta0, g, out=g)
        return 1.0 - detection.false_alarm(params, scheme, t)

    return cdf


def _covert_rate_estimate(params: SystemParams, scheme: SchemeConfig, eta1: float, mc_blocks: int,
                          seed: int) -> montecarlo.SimulationReport:
    """The rate simulation rate-quad-vs-mc reads, sized to the confidence of mc_blocks plain draws.

    The check reads the control-variate estimate c_cv. Its variance is the
    plain mean's times a ratio, which a pilot of min(mc_blocks, _BLOCK)
    draws measures. The run then draws RATE_DRAW_MARGIN * mc_blocks *
    ratio, clamped to [pilot, mc_blocks]. Every run reads STREAM_RATE, so
    the pilot's g_ar are the first of the run's. If the run's own
    half-widths still put its control-variate half-width above the plain
    half-width at mc_blocks, it draws mc_blocks instead. So the check never
    draws more than mc_blocks, and below mc_blocks its half-width is at
    most the plain mean's at mc_blocks.
    """
    def simulate(n):
        return montecarlo.simulate_covert_rate(params, scheme, eta1, n, seed)

    pilot_n = min(mc_blocks, montecarlo._BLOCK)
    rep = simulate(pilot_n)
    plain, cv = float(rep.ci_halfwidth), float(rep.cv_halfwidth)
    n = mc_blocks
    if plain > 0 and math.isfinite(cv):
        n = min(max(math.ceil(RATE_DRAW_MARGIN * mc_blocks * (cv / plain) ** 2), pilot_n), mc_blocks)
    if n > pilot_n:
        rep = simulate(n)
    if n < mc_blocks and not rep.cv_halfwidth <= rep.ci_halfwidth * math.sqrt(n / mc_blocks):
        rep = simulate(mc_blocks)
    return rep


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
    tau_stars = [detection.optimal_threshold(params, s, eta1_mid) for s in schemes]
    n_det = min(mc_blocks, 10**5)
    # One Monte Carlo draw set per hypothesis and scheme, on the scheme's
    # own streams, serves detection-mc (the first 3 thresholds) and
    # threshold-optimality (a 2000-point grid plus the optimum).
    det_taus = []
    for tau_star in tau_stars:
        delta = tau_star - params.sigma2_a
        taus_mc = params.sigma2_a + np.array([0.3, 1.0, 3.0]) * delta
        taus_grid = params.sigma2_a + np.geomspace(params.sigma2_a * 1e-9, 1e3 * delta, 2000)
        det_taus.append(np.concatenate([taus_mc, taus_grid, [tau_star]]))

    # Every Monte Carlo job runs first, from one list, two at a time
    # (montecarlo._run_jobs); the checks below only read the results. The
    # list goes longest first, as measured at the defaults: the three KS
    # jobs (34-40 ms each), the rate estimates (6-17 ms; 50-75 ms at 60
    # dBm), then the four 10^5-draw detection tallies (about 1.5 ms each),
    # which fill in at the end, so both threads finish close together.
    jobs = [*(partial(montecarlo.gain_ks_distance, params, montecarlo.STREAMS_KS_STATISTIC[s.variant], seed,
                      _statistic_cdf(params, s)) for s in schemes),
            partial(montecarlo.gain_ks_distance, params, montecarlo.STREAM_KS_CHANNEL, seed,
                    lambda g: -np.expm1(-g / params.lambda_ar)),
            *(partial(_covert_rate_estimate, params, s, eta1_mid, mc_blocks, seed) for s in schemes)]
    for s, taus in zip(schemes, det_taus):
        jobs += montecarlo.detection_jobs(params, s, eta1_mid, taus, n_det, seed,
                                          montecarlo.STREAMS_DETECTION[s.variant])
    mc = montecarlo._run_jobs(jobs)
    statistic_ks, channel_ks, rate_reps, tallies = mc[:2], mc[2], mc[3:5], (mc[5:7], mc[7:9])

    results: list[CheckResult] = []
    rng = montecarlo.substream(seed, montecarlo.STREAM_POWER_ALGEBRA)
    skew = 1.0 + perturb
    xi_min = []  # unperturbed minimum error per scheme

    for scheme, tau_star, taus, ks, rep, (a_hat, b_hat) in zip(schemes, tau_stars, det_taus, statistic_ks,
                                                               rate_reps, tallies):
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
        delta = tau_star - params.sigma2_a
        offsets = np.geomspace(params.sigma2_a * 1e-9, 1e3 * delta, 10**4)
        xi_grid = detection.detection_error(params, scheme, eta1_mid, params.sigma2_a + offsets).xi
        xi_min.append(detection.detection_error(params, scheme, eta1_mid, tau_star).xi)
        xi_at_star = xi_min[-1] * skew
        results.append(_check(f"threshold-grid-{tag}", xi_at_star - np.min(xi_grid), 1e-12))
        xi_ratio = detection.min_detection_error(params.eta0 / eta1_mid)
        results.append(_check(f"xi-star-closed-form-{tag}", abs(xi_at_star - xi_ratio), 1e-10))

        # Detection rates against Monte Carlo tallies (DETECTION_MC_Z
        # binomial standard errors computed from the closed-form rates).
        a = detection.false_alarm(params, scheme, taus[:3]) * skew
        b = detection.miss_detection(params, scheme, eta1_mid, taus[:3]) * skew
        se_a = np.maximum(np.sqrt(a * (1 - a) / n_det), 1.0 / n_det)
        se_b = np.maximum(np.sqrt(b * (1 - b) / n_det), 1.0 / n_det)
        worst = max(np.max(np.abs(a_hat[:3] - a) / (DETECTION_MC_Z * se_a)),
                    np.max(np.abs(b_hat[:3] - b) / (DETECTION_MC_Z * se_b)))
        results.append(_check(f"detection-mc-{tag}", worst, 1.0))

        # Rate quadrature against Monte Carlo.
        rate = rates.average_covert_rate(params, scheme, eta1_mid)
        results.append(_check(f"quad-convergence-{tag}", rate.quad_error, rates.QUAD_ERROR_LIMIT))
        results.append(_check(f"rate-quad-vs-mc-{tag}", abs(rate.c_avg - rep.c_cv) / rate.c_avg, RATE_MC_TOL))

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
