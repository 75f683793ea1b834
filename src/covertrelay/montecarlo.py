"""Stochastic validation of the closed forms by direct fading simulation.

The source's received statistic is evaluated in its infinite-blocklength
limit (received power per channel use), matching the regime of the
closed-form detection analysis; per-sample noise simulation would add a
finite-blocklength effect that is out of scope.

Reproducibility: one master seed; substream k is seeded with
numpy.random.SeedSequence([master_seed, k]), a fixed documented mixing of
the master seed and the stream counter. Every stream the package draws
from is named below; nothing else picks a stream number.

    0/1    STREAM_H0/_H1              detection draws under H0/H1
    2      STREAM_RATE                rate draws (both hops)
    3/4    STREAM_GRID_H0/_H1         threshold-grid H0/H1 draws
    5/6    STREAM_KS_STATISTIC_TS/_PS validate: H0 statistic KS test
    7      STREAM_KS_CHANNEL          validate: channel-gain KS test
    10/11  STREAM_FIG2_TS_H0/_H1      fig2 Monte Carlo columns, TS
    12/13  STREAM_FIG2_PS_H0/_H1      fig2 Monte Carlo columns, PS
    999    STREAM_POWER_ALGEBRA       validate: random power-algebra tuples

Counts are integer tallies and means are single-pass numpy reductions over
fixed-order arrays, so identical (params, seed) give bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import detection, relaying
from .params import ChannelDraw, SchemeConfig, SystemParams

STREAM_H0 = 0
STREAM_H1 = 1
STREAM_RATE = 2
STREAM_GRID_H0 = 3
STREAM_GRID_H1 = 4
STREAM_KS_STATISTIC_TS = 5
STREAM_KS_STATISTIC_PS = 6
STREAM_KS_CHANNEL = 7
STREAM_FIG2_TS_H0 = 10
STREAM_FIG2_TS_H1 = 11
STREAM_FIG2_PS_H0 = 12
STREAM_FIG2_PS_H1 = 13
STREAM_POWER_ALGEBRA = 999

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimulationReport:
    """Empirical detection/rate estimates with 95% half-widths per estimate.

    Estimates not produced by a given simulation are None. Proportion
    half-widths use the Agresti-Coull interval, which stays positive even
    at empirical rates of exactly 0 or 1.
    """

    n_blocks: int
    seed: int
    alpha_hat: float | None = None
    beta_hat: float | None = None
    xi_hat: float | None = None
    c_hat: float | None = None
    ci_halfwidth: dict = field(default_factory=dict)


def substream(master_seed: int, stream: int) -> np.random.Generator:
    """Independent generator for the given stream of a master seed."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(stream)]))


def sufficient_statistic(params: SystemParams, scheme: SchemeConfig, eta: float, g_ar):
    """Received power per channel use at the source for a given |h_ar|^2.

    The reciprocal source-relay channel makes the statistic quadratic in
    the fading gain: K(eta) * g_ar^2 + sigma2_a.
    """
    k = detection.statistic_scale(params, scheme, eta)
    return k * np.square(g_ar) + params.sigma2_a


def _proportion_halfwidth(successes, n: int):
    # Agresti-Coull 95% half-width; broadcasts over success counts.
    z2 = _Z95 * _Z95
    n_adj = n + z2
    p_adj = (successes + 0.5 * z2) / n_adj
    return _Z95 * np.sqrt(p_adj * (1.0 - p_adj) / n_adj)


def _draw_statistics(params, scheme, eta1, n_blocks: int, seed: int, streams: tuple[int, int]):
    """Received-power statistics of n_blocks fading blocks under H0 and H1.

    Each hypothesis gets an independent block of fading draws from its own
    stream (the error rates are marginal probabilities; coupling them buys
    nothing).
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    g0 = substream(seed, streams[0]).exponential(params.lambda_ar, n_blocks)
    g1 = substream(seed, streams[1]).exponential(params.lambda_ar, n_blocks)
    return (
        sufficient_statistic(params, scheme, params.eta0, g0),
        sufficient_statistic(params, scheme, eta1, g1),
    )


def simulate_detection(
    params: SystemParams,
    scheme: SchemeConfig,
    eta1: float,
    tau: float,
    n_blocks: int,
    seed: int,
) -> SimulationReport:
    """Empirical false-alarm/miss-detection rates at one threshold."""
    t0, t1 = _draw_statistics(params, scheme, eta1, n_blocks, seed, (STREAM_H0, STREAM_H1))
    k_alpha = int(np.count_nonzero(t0 >= tau))
    k_beta = int(np.count_nonzero(t1 < tau))
    alpha_hat = k_alpha / n_blocks
    beta_hat = k_beta / n_blocks
    ha = _proportion_halfwidth(k_alpha, n_blocks)
    hb = _proportion_halfwidth(k_beta, n_blocks)
    return SimulationReport(
        n_blocks=n_blocks,
        seed=seed,
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        xi_hat=alpha_hat + beta_hat,
        ci_halfwidth={
            "alpha": float(ha),
            "beta": float(hb),
            "xi": float(np.hypot(ha, hb)),
        },
    )


def detection_curve(
    params: SystemParams,
    scheme: SchemeConfig,
    eta1: float,
    taus,
    n_blocks: int,
    seed: int,
    streams: tuple[int, int] = (STREAM_H0, STREAM_H1),
):
    """Empirical alpha/beta over a whole threshold grid from one draw set.

    One set of fading blocks per hypothesis is shared by all thresholds
    (the standard construction for detector operating curves); each point
    is still marginally a binomial estimate at n_blocks trials.
    """
    taus = np.asarray(taus, dtype=float)
    t0, t1 = _draw_statistics(params, scheme, eta1, n_blocks, seed, streams)
    t0.sort()
    t1.sort()
    alpha_hat = 1.0 - np.searchsorted(t0, taus, side="left") / n_blocks
    beta_hat = np.searchsorted(t1, taus, side="left") / n_blocks
    return alpha_hat, beta_hat


def simulate_covert_rate(
    params: SystemParams,
    scheme: SchemeConfig,
    eta1: float,
    n_blocks: int,
    seed: int,
) -> SimulationReport:
    """Empirical average covert rate over i.i.d. fading blocks."""
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    rng = substream(seed, STREAM_RATE)
    draw = ChannelDraw(
        g_ar=rng.exponential(params.lambda_ar, n_blocks),
        g_rb=rng.exponential(params.lambda_rb, n_blocks),
    )
    values = np.log2(1.0 + relaying.covert_snr(params, scheme, eta1, draw))
    c_hat = float(np.mean(values))
    if n_blocks > 1:
        half = _Z95 * float(np.std(values, ddof=1)) / np.sqrt(n_blocks)
    else:
        half = float("nan")
    return SimulationReport(
        n_blocks=n_blocks,
        seed=seed,
        c_hat=c_hat,
        ci_halfwidth={"c": half},
    )


def validate_threshold_optimality(
    params: SystemParams,
    scheme: SchemeConfig,
    eta1: float,
    grid_size: int,
    seed: int,
    n_blocks: int = 10**5,
) -> bool:
    """Check the closed-form threshold against a threshold grid by Monte Carlo.

    True iff the empirical error at the derived threshold does not exceed
    any of grid_size log-spaced grid points' by more than 3 half-widths.
    All thresholds share one draw set per hypothesis.
    """
    if grid_size < 100:
        raise ValueError(f"grid_size must be >= 100, got {grid_size}")
    tau_star = detection.optimal_threshold(params, scheme, eta1)
    delta = tau_star - params.sigma2_a
    offsets = np.geomspace(params.sigma2_a * 1e-9, 1e3 * delta, grid_size)
    taus = np.append(params.sigma2_a + offsets, tau_star)

    a_hat, b_hat = detection_curve(
        params, scheme, eta1, taus, n_blocks, seed, streams=(STREAM_GRID_H0, STREAM_GRID_H1)
    )
    a_grid, b_grid = a_hat[:-1], b_hat[:-1]
    half = np.hypot(
        _proportion_halfwidth(np.round(a_grid * n_blocks), n_blocks),
        _proportion_halfwidth(np.round(b_grid * n_blocks), n_blocks),
    )
    return bool(np.all(a_hat[-1] + b_hat[-1] <= a_grid + b_grid + 3.0 * half))
