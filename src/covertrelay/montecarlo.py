"""Stochastic validation of the closed forms by direct fading simulation.

The source's received statistic is evaluated in its infinite-blocklength
limit (received power per channel use), matching the regime of the
closed-form detection analysis; per-sample noise simulation would add a
finite-blocklength effect that is out of scope.

Reproducibility: one master seed; substream k is seeded with
numpy.random.SeedSequence([master_seed, k]), a fixed documented mixing of
the master seed and the stream counter. Every stream the package draws
from is named below; nothing else picks a stream number. The STREAMS_*
maps give each scheme variant its own streams, fixed whichever other
scheme runs alongside.

    TS      PS      name                  use
    0/1     3/4     STREAMS_DETECTION     validate: detection H0/H1 draws
    2       2       STREAM_RATE           rate draws (both hops)
    5       6       STREAMS_KS_STATISTIC  validate: H0 statistic KS test
    7       7       STREAM_KS_CHANNEL     validate: channel-gain KS test
    10/11   12/13   STREAMS_FIG2          fig2 Monte Carlo H0/H1 columns
    999     999     STREAM_POWER_ALGEBRA  validate: random power-algebra tuples

Counts are integer tallies and means are single-pass numpy reductions over
fixed-order arrays, so identical (params, seed) give bit-identical reports.

The 10^6-block kernels here and validate's KS distances stream through
blocks of _BLOCK draws, so that no full-size temporary is allocated and
each block's elementwise passes stay in cache. Their results do not
depend on the block size: each stream is consumed in order, the threshold
tallies are integer counts and add exactly, every elementwise operation
acts on each element alone, and the mean, standard deviation and maximum
reduce the same values as a one-shot evaluation would.

Independent 10^6-draw jobs run two at a time (_run_pair): the H0 and H1
tallies of detection_curve, and validate's five 10^6-draw jobs in two
lanes. Their work is numpy draws, sorts and ufunc passes, which release the
interpreter lock. Running them at once cannot change a result: each job
draws from its own stream, consumes it in order and reduces only its own
arrays, and no accumulator is shared between jobs. On one CPU the two
threads take turns, in about the time of running the jobs in order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import detection, relaying
from .params import PS, TS, ChannelDraw, SchemeConfig, SystemParams

STREAM_RATE = 2
STREAM_KS_CHANNEL = 7
STREAM_POWER_ALGEBRA = 999
STREAMS_DETECTION = {TS: (0, 1), PS: (3, 4)}  # (H0, H1)
STREAMS_KS_STATISTIC = {TS: 5, PS: 6}
STREAMS_FIG2 = {TS: (10, 11), PS: (12, 13)}  # (H0, H1)

MC_BLOCKS = 10**6  # default fading blocks per estimate (fig2, validate, --mc-blocks)

Z95 = 1.959963984540054  # two-sided 95% normal quantile

_BLOCK = 1 << 16  # draws per streamed block: 512 KiB of float64, an L2-sized chunk


@dataclass(frozen=True)
class SimulationReport:
    """Empirical average covert rate with its 95% half-width."""

    c_hat: float
    ci_halfwidth: float


def substream(master_seed: int, stream: int) -> np.random.Generator:
    """Independent generator for the given stream of a master seed."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(stream)]))


def _run_pair(first, second):
    """(first(), second()), with second on one worker thread.

    The worker is joined before this returns; an exception raised by second
    is re-raised here unchanged.
    """
    results, errors = [], []

    def work():
        try:
            results.append(second())
        except BaseException as exc:  # re-raised on the calling thread below
            errors.append(exc)

    worker = threading.Thread(target=work)
    worker.start()
    try:
        result = first()
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return result, results[0]


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
    below0, below1 = _run_pair(
        lambda: _count_below(params, scheme, params.eta0, taus, n_blocks, substream(seed, streams[0])),
        lambda: _count_below(params, scheme, eta1, taus, n_blocks, substream(seed, streams[1])),
    )
    alpha_hat = 1.0 - below0 / n_blocks
    beta_hat = below1 / n_blocks
    return alpha_hat, beta_hat


def _count_below(params, scheme, eta, taus, n_blocks, rng):
    # Per threshold, how many of n_blocks statistics lie strictly below it.
    counts = np.zeros(taus.shape, dtype=np.intp)
    for start in range(0, n_blocks, _BLOCK):
        g = rng.exponential(params.lambda_ar, min(_BLOCK, n_blocks - start))
        t = sufficient_statistic(params, scheme, eta, g)
        t.sort()
        counts += np.searchsorted(t, taus, side="left")
    return counts


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
    # The stream yields every g_ar before the first g_rb. The g_ar are drawn
    # straight into values, and each block's rates overwrite their own gains.
    values = rng.exponential(params.lambda_ar, n_blocks)
    for start in range(0, n_blocks, _BLOCK):
        g_ar = values[start:start + _BLOCK]
        draw = ChannelDraw(g_ar=g_ar, g_rb=rng.exponential(params.lambda_rb, g_ar.size))
        snr = relaying.covert_snr(params, scheme, eta1, draw)
        snr += 1.0
        np.log2(snr, out=g_ar)
    c_hat = float(np.mean(values))
    if n_blocks > 1:
        # np.std(values, ddof=1) step by step, in place: the values are not
        # needed once their mean is known, so no second full-size array is
        # allocated. The operations, and so the bits, are np.std's.
        values -= c_hat
        values *= values
        half = Z95 * float(np.sqrt(np.sum(values) / (n_blocks - 1))) / np.sqrt(n_blocks)
    else:
        half = float("nan")
    return SimulationReport(c_hat=c_hat, ci_halfwidth=half)

