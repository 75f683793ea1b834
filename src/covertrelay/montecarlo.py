"""Stochastic validation of the closed forms by direct fading simulation.

The source's received statistic is evaluated in its infinite-blocklength
limit (received power per channel use), matching the regime of the
closed-form detection analysis; per-sample noise simulation would add a
finite-blocklength effect that is out of scope.

Reproducibility: one master seed; substream k is seeded with
numpy.random.SeedSequence([master_seed, k]), a fixed documented mixing of
the master seed and the stream counter. Every stream the package draws
from is named below; nothing else picks a stream number.

    0/1    STREAM_DETECTION_TS_H0/_H1 validate: detection H0/H1 draws, TS
    2      STREAM_RATE                rate draws (both hops)
    3/4    STREAM_DETECTION_PS_H0/_H1 validate: detection H0/H1 draws, PS
    5/6    STREAM_KS_STATISTIC_TS/_PS validate: H0 statistic KS test
    7      STREAM_KS_CHANNEL          validate: channel-gain KS test
    10/11  STREAM_FIG2_TS_H0/_H1      fig2 Monte Carlo columns, TS
    12/13  STREAM_FIG2_PS_H0/_H1      fig2 Monte Carlo columns, PS
    999    STREAM_POWER_ALGEBRA       validate: random power-algebra tuples

Counts are integer tallies and means are single-pass numpy reductions over
fixed-order arrays, so identical (params, seed) give bit-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import detection, relaying
from .params import ChannelDraw, SchemeConfig, SystemParams

STREAM_DETECTION_TS_H0 = 0
STREAM_DETECTION_TS_H1 = 1
STREAM_RATE = 2
STREAM_DETECTION_PS_H0 = 3
STREAM_DETECTION_PS_H1 = 4
STREAM_KS_STATISTIC_TS = 5
STREAM_KS_STATISTIC_PS = 6
STREAM_KS_CHANNEL = 7
STREAM_FIG2_TS_H0 = 10
STREAM_FIG2_TS_H1 = 11
STREAM_FIG2_PS_H0 = 12
STREAM_FIG2_PS_H1 = 13
STREAM_POWER_ALGEBRA = 999

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimulationReport:
    """Empirical average covert rate with its 95% half-width."""

    n_blocks: int
    seed: int
    c_hat: float
    ci_halfwidth: float


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


def detection_curve(
    params: SystemParams,
    scheme: SchemeConfig,
    eta1: float,
    taus,
    n_blocks: int,
    seed: int,
    streams: tuple[int, int],
):
    """Empirical alpha/beta over a whole threshold grid from one draw set.

    Each hypothesis gets an independent block of n_blocks fading draws
    from its own stream of the pair (the error rates are marginal
    probabilities; coupling them buys nothing). One draw set per
    hypothesis is shared by all thresholds (the standard construction for
    detector operating curves); each point is still marginally a binomial
    estimate at n_blocks trials.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    taus = np.asarray(taus, dtype=float)
    g0 = substream(seed, streams[0]).exponential(params.lambda_ar, n_blocks)
    g1 = substream(seed, streams[1]).exponential(params.lambda_ar, n_blocks)
    t0 = sufficient_statistic(params, scheme, params.eta0, g0)
    t1 = sufficient_statistic(params, scheme, eta1, g1)
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
        half = Z95 * float(np.std(values, ddof=1)) / np.sqrt(n_blocks)
    else:
        half = float("nan")
    return SimulationReport(
        n_blocks=n_blocks,
        seed=seed,
        c_hat=c_hat,
        ci_halfwidth=half,
    )

