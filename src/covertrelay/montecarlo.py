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
    5       6       STREAMS_KS_STATISTIC  gain_ks_distance: validate's H0 statistic KS test
    7       7       STREAM_KS_CHANNEL     gain_ks_distance: validate's channel-gain KS test
    10/11   12/13   STREAMS_FIG2          fig2 Monte Carlo H0/H1 columns
    999     999     STREAM_POWER_ALGEBRA  validate: random power-algebra tuples

Counts are integer tallies and means are single-pass numpy reductions over
fixed-order arrays, so identical (params, seed) give bit-identical reports.

The 10^6-block kernels here, gain_ks_distance included, stream through
blocks of _BLOCK draws, so that no full-size temporary is allocated and
each block's elementwise passes stay in cache. Their results do not
depend on the block size: each stream is consumed in order, the threshold
tallies are integer counts and add exactly, every elementwise operation
acts on each element alone, and the mean, standard deviation and maximum
reduce the same values as a one-shot evaluation would. The detection
tallies and gain_ks_distance draw each block into a buffer
(_exponential_into): a standard exponential draw scaled in place by the
mean, as numpy's Generator.exponential computes it, bit for bit.

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

A command's independent Monte Carlo jobs run from one job list, two at a
time (_run_jobs): the calling thread and one worker thread each take the
next job from the list until it is empty (Graham's list scheduling), so a
long job on one thread does not hold up the rest of the list. fig2 runs
each scheme's H0 and H1 tallies (detection_curve); validate submits all
nine of its jobs as one list: three gain_ks_distance jobs, two rate
estimates, and the four tallies that detection_jobs hands it. Their
work is numpy draws, sorts and ufunc passes, which release the interpreter
lock. Which thread runs a job, and in what order, cannot change a result:
each job draws from its own stream, consumes it in order and reduces only
its own arrays and buffers, and no accumulator is shared between jobs. On
one CPU the two threads take turns, in about the time of running the jobs
in order.
"""

from __future__ import annotations

import math
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
KS_DRAWS = 10**6  # gains per KS distance (gain_ks_distance)

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


def _run_jobs(jobs: list) -> list:
    """[job() for job in jobs], two jobs at a time.

    The calling thread and one worker thread each take the next job from
    the list until it is empty; results come back in list order, whichever
    thread ran each job. Once a job raises, no further job starts: the
    worker is joined and the first exception raised is re-raised here
    unchanged.
    """
    results = [None] * len(jobs)
    errors = []
    lock = threading.Lock()
    queue = iter(enumerate(jobs))

    def work():
        while True:
            with lock:
                taken = None if errors else next(queue, None)
            if taken is None:
                return
            i, job = taken
            try:
                results[i] = job()
            except BaseException as exc:  # re-raised on the calling thread below
                errors.append(exc)
                return

    worker = threading.Thread(target=work)
    worker.start()
    try:
        work()
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return results


def _exponential_into(rng: np.random.Generator, scale: float, out: np.ndarray) -> np.ndarray:
    """rng.exponential(scale, out.size), drawn into out and returned.

    numpy draws exponential(scale) as scale times a standard draw, so the
    values, and what the stream consumes, are the same bit for bit.
    """
    rng.standard_exponential(out=out)
    out *= scale
    return out


def sufficient_statistic(params: SystemParams, scheme: SchemeConfig, eta: float, g_ar, out=None):
    """Received power per channel use at the source for a given |h_ar|^2.

    The reciprocal source-relay channel makes the statistic quadratic in
    the fading gain: K(eta) * g_ar^2 + sigma2_a. It is computed in out if
    given, which may be g_ar itself.
    """
    t = np.square(g_ar, out=out, dtype=float)
    t *= detection.statistic_scale(params, scheme, eta)
    t += params.sigma2_a
    return t


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
    return tuple(_run_jobs(detection_jobs(params, scheme, eta1, taus, n_blocks, seed, streams)))


def detection_jobs(params, scheme, eta1, taus, n_blocks, seed, streams) -> list:
    """detection_curve's two jobs, for a caller's _run_jobs list: they return alpha_hat and beta_hat."""
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    taus = np.asarray(taus, dtype=float)

    def below(eta, stream):
        return _count_below(params, scheme, eta, taus, n_blocks, substream(seed, stream)) / n_blocks

    return [lambda: 1.0 - below(params.eta0, streams[0]), lambda: below(eta1, streams[1])]


def _count_below(params, scheme, eta, taus, n_blocks, rng):
    # Per threshold, how many of n_blocks statistics lie strictly below it.
    # Each block is drawn, turned into its statistic and sorted in buf.
    counts = np.zeros(taus.shape, dtype=np.intp)
    buf = np.empty(min(_BLOCK, n_blocks))
    for start in range(0, n_blocks, _BLOCK):
        t = _exponential_into(rng, params.lambda_ar, buf[:n_blocks - start])
        sufficient_statistic(params, scheme, eta, t, out=t)
        t.sort()
        counts += np.searchsorted(t, taus, side="left")
    return counts


def gain_ks_distance(params: SystemParams, stream: int, seed: int, cdf) -> float:
    """Kolmogorov-Smirnov distance (_ks_distance) of KS_DRAWS gains of mean lambda_ar from cdf.

    cdf sees blocks of the sorted gains and may overwrite them. A statistic
    s non-decreasing in the gain is tested as cdf = F(s(g)): sorted gains
    give the sorted statistics, so the distance is bit for bit that of the
    statistics, and no array of them is formed.
    """
    rng = substream(seed, stream)
    g = np.empty(KS_DRAWS)
    for start in range(0, KS_DRAWS, _BLOCK):
        _exponential_into(rng, params.lambda_ar, g[start:start + _BLOCK])
    return _ks_distance(g, cdf)


def _ks_distance(draws: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of draws from a continuous, elementwise CDF.

    Sorts draws in place, then evaluates cdf, i/n - c and c - (i-1)/n on
    consecutive blocks of the sorted draws into one scratch buffer, keeping
    a running maximum. Per block, r = (start + [0, 1, ..., m]) / n is formed
    once: r[1:] is i/n and r[:-1] is (i-1)/n, exact below 2^53. The
    arithmetic per element is scipy.stats.kstest's and a maximum does not
    depend on grouping, so the statistic is bit-identical; no p-value is
    computed.
    """
    draws.sort()
    n = draws.size
    diff = np.empty(min(n, _BLOCK))
    d = -np.inf
    for start in range(0, n, _BLOCK):
        c = cdf(draws[start:start + _BLOCK])
        r = np.arange(start, start + c.size + 1.0)
        r /= n
        out = diff[:c.size]
        d = max(d, np.subtract(r[1:], c, out=out).max(), np.subtract(c, r[:-1], out=out).max())
        # Dropped before the next block's cdf allocates, so a job holds its
        # draws, diff and one block's arrays at most.
        del c, r
    return float(d)


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
    shift = None
    for start in range(0, n_blocks, _BLOCK):
        g_ar = values[start:start + _BLOCK]
        draw = ChannelDraw(g_ar=g_ar, g_rb=rng.exponential(params.lambda_rb, g_ar.size))
        shift = _add_block(params, scheme, eta1, draw, sums, cross, shift)
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
    c_cv, cv_half = _control_variate(n_blocks, shift, sums, cross) or (c_hat, half)
    return SimulationReport(c_hat=c_hat, ci_halfwidth=half, c_cv=c_cv, cv_halfwidth=cv_half)


def _add_block(params, scheme, eta1, draw, sums, cross, shift: float | None) -> float:
    """Add one block's moments to sums and cross, overwrite draw.g_ar with its rates, and return shift.

    Row i of the block's w holds, per draw:
        0, 1  ln g - (ln lambda - gamma) for g_ar and g_rb, lambda the gain's mean
        2, 3  g / lambda - 1 for g_ar and g_rb
        4     g_ar g_rb / (lambda_ar lambda_rb) - 1 (the hops are independent)
        5     the rate, log2(1 + snr), minus shift
    Rows 0-4 are the _CONTROLS controls, each of mean 0 under the
    exponential fading law. shift is the first block's mean rate (taken
    here when shift is None), so the moments of row 5 do not cancel where
    the rate's mean lies far above its spread (high SNR). sums gains the
    row sums and the upper triangle of cross gains the block's sum of
    w w^T. The block's arrays die with the call, so they never meet the
    next block's temporaries.
    """
    snr = relaying.covert_snr(params, scheme, eta1, draw)
    w = np.empty((_CONTROLS + 1, snr.size))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero draw; see _control_variate
        for i, (g, lam) in enumerate(((draw.g_ar, params.lambda_ar), (draw.g_rb, params.lambda_rb))):
            np.log(g, out=w[i])
            w[i] -= np.log(lam) - np.euler_gamma
            np.divide(g, lam, out=w[2 + i])
        np.multiply(w[2], w[3], out=w[4])
        w[2:5] -= 1.0
        # log1p: rounding 1 + snr would err by about 1.1e-16 / snr relative.
        np.log1p(snr, out=w[5])
        w[5] /= math.log(2.0)
        draw.g_ar[...] = w[5]
        if shift is None:
            shift = float(np.mean(w[5]))
        w[5] -= shift
        sums += w.sum(axis=1)
        for i, row in enumerate(w):
            cross[i, i:] += np.einsum("jk,k->j", w[i:], row)
    return shift


def _control_variate(n: int, shift: float, sums: np.ndarray, cross: np.ndarray) -> tuple[float, float] | None:
    """(estimate, 95% half-width) of the control-variate fit, or None if there is no fit.

    sums and cross are the sums over n draws of w and of w w^T (upper
    triangle only) for w = [controls, rate - shift]. The estimate is the
    fit's intercept, ybar - b . xbar, with b the slopes from the centred
    normal equations. Its variance is the ordinary least-squares one,
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
    xbar, ybar = mean[:-1], mean[-1] + shift
    try:
        b, sxx_inv_xbar = np.linalg.solve(sxx, np.stack([sxy, xbar], axis=1)).T
    except np.linalg.LinAlgError:
        return None
    rss = max(float(syy - np.sum(b * sxy)), 0.0)
    var = rss / dof * (1.0 / n + float(np.sum(sxx_inv_xbar * xbar)))
    return float(ybar - np.sum(b * xbar)), Z95 * float(np.sqrt(var))
