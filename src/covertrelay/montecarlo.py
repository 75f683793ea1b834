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
    2       2       STREAM_RATE           rate draws (both hops; validate's pilot too)
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

simulate_covert_rate also reports a linear control-variate estimate of the
rate (Lavenberg & Welch 1981; Glasserman, Monte Carlo Methods in Financial
Engineering, 2004, section 4.1): the intercept of the least-squares fit of
log2(1 + snr) on five functions of the draw with known means under the
exponential fading law (ln g_ar, ln g_rb, g_ar, g_rb and g_ar g_rb, each
centred on its mean). The controls use only the fading law, never the
quadrature's algebra, so the estimate stays an independent oracle. Each
block adds its sums and cross products to small accumulators through numpy
reductions and np.einsum, not BLAS, so the result does not depend on the
BLAS thread count. Being summed block by block, it matches a one-shot fit
to rounding, not bit for bit.

Independent Monte Carlo jobs run two at a time (_run_pair): the H0 and H1
tallies of detection_curve, and validate's jobs in two lanes (both rate
simulations and the channel-gain KS draw in one, both statistic KS draws
in the other). Their work is numpy draws, sorts and ufunc passes, which
release the interpreter lock. Running them at once cannot change a result:
each job draws from its own stream, consumes it in order and reduces only
its own arrays, and no accumulator is shared between jobs. On one CPU the
two threads take turns, in about the time of running the jobs in order.
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
_CONTROLS = 5  # control variates of simulate_covert_rate (_add_block)


@dataclass(frozen=True)
class SimulationReport:
    """Empirical average covert rate, plain and control-variate, each with its 95% half-width."""

    c_hat: float
    ci_halfwidth: float
    c_cv: float
    cv_halfwidth: float


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
    """Empirical average covert rate over i.i.d. fading blocks, plain and control-variate.

    A run with too few draws to leave the control-variate fit a residual,
    or with a zero draw (whose logarithm is -inf), reports the plain
    estimate as its control-variate one.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    rng = substream(seed, STREAM_RATE)
    # The stream yields every g_ar before the first g_rb. The g_ar are drawn
    # straight into values, and each block's rates overwrite their own gains.
    values = rng.exponential(params.lambda_ar, n_blocks)
    sums = np.zeros(_CONTROLS + 1)
    cross = np.zeros((_CONTROLS + 1, _CONTROLS + 1))
    for start in range(0, n_blocks, _BLOCK):
        g_ar = values[start:start + _BLOCK]
        draw = ChannelDraw(g_ar=g_ar, g_rb=rng.exponential(params.lambda_rb, g_ar.size))
        _add_block(params, scheme, eta1, draw, sums, cross)
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
    c_cv, cv_half = _control_variate(n_blocks, sums, cross) or (c_hat, half)
    return SimulationReport(c_hat=c_hat, ci_halfwidth=half, c_cv=c_cv, cv_halfwidth=cv_half)


def _add_block(params, scheme, eta1, draw, sums, cross) -> None:
    """Add one block's moments to sums and cross, and overwrite draw.g_ar with its rates.

    Row i of the block's w holds, per draw:
        0, 1  ln g - (ln lambda - gamma) for g_ar and g_rb, lambda the gain's mean
        2, 3  g / lambda - 1 for g_ar and g_rb
        4     g_ar g_rb / (lambda_ar lambda_rb) - 1 (the hops are independent)
        5     the rate, log2(1 + snr)
    Rows 0-4 are the _CONTROLS controls, each of mean 0 under the
    exponential fading law. sums gains the row sums and the upper triangle
    of cross gains the block's sum of w w^T. The block's arrays die with
    the call, so they never meet the next block's temporaries.
    """
    snr = relaying.covert_snr(params, scheme, eta1, draw)
    snr += 1.0
    w = np.empty((_CONTROLS + 1, snr.size))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero draw; see _control_variate
        for i, (g, lam) in enumerate(((draw.g_ar, params.lambda_ar), (draw.g_rb, params.lambda_rb))):
            np.log(g, out=w[i])
            w[i] -= np.log(lam) - np.euler_gamma
            np.divide(g, lam, out=w[2 + i])
        np.multiply(w[2], w[3], out=w[4])
        w[2:5] -= 1.0
        np.log2(snr, out=w[5])
        draw.g_ar[...] = w[5]
        sums += w.sum(axis=1)
        for i, row in enumerate(w):
            cross[i, i:] += np.einsum("jk,k->j", w[i:], row)


def _control_variate(n: int, sums: np.ndarray, cross: np.ndarray) -> tuple[float, float] | None:
    """(estimate, 95% half-width) of the control-variate fit, or None if there is no fit.

    sums and cross are the sums over n draws of w and of w w^T (upper
    triangle only) for w = [controls, rate]. The estimate is the fit's
    intercept, ybar - b . xbar, with b the slopes from the centred normal
    equations. Its variance is the ordinary least-squares one,
    s^2 (1/n + xbar^T Sxx^-1 xbar), where s^2 is the residual sum of
    squares over n - _CONTROLS - 1 degrees of freedom. There is no fit
    below _CONTROLS + 2 draws, for a singular Sxx, or when a sum is not
    finite. Only _CONTROLS x _CONTROLS systems are solved here.
    """
    dof = n - _CONTROLS - 1
    if dof < 1 or not (np.isfinite(sums).all() and np.isfinite(cross).all()):
        return None
    mean = sums / n
    centred = cross + np.triu(cross, 1).T - n * np.multiply.outer(mean, mean)
    sxx, sxy, syy = centred[:-1, :-1], centred[:-1, -1], centred[-1, -1]
    xbar, ybar = mean[:-1], mean[-1]
    try:
        b, sxx_inv_xbar = np.linalg.solve(sxx, np.stack([sxy, xbar], axis=1)).T
    except np.linalg.LinAlgError:
        return None
    rss = max(float(syy - np.sum(b * sxy)), 0.0)
    var = rss / dof * (1.0 / n + float(np.sum(sxx_inv_xbar * xbar)))
    return float(ybar - np.sum(b * xbar)), Z95 * float(np.sqrt(var))
