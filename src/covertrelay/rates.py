"""Average/effective covert rate and the constrained efficiency optimization.

The fading average of log2(1 + snr) over the two exponential channel gains
is computed by tensor Gauss-Laguerre quadrature: substituting each gain by
its mean times the Laguerre variable absorbs the exponential weight exactly,
so there is no domain truncation to tune. A refinement at twice the node
count provides the quadrature error estimate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import detection, relaying
from .params import TS, ChannelDraw, SchemeConfig, SystemParams

QUAD_NODES = 64
QUAD_ERROR_LIMIT = 1e-6

BINDING_COVERTNESS = "covertness"
BINDING_HARVESTER = "harvester-cap"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FRACTION_TOL = 1e-4
_PRESCAN_POINTS = 99


@dataclass(frozen=True)
class RateResult:
    """Average covert rate, effective covert rate, and quadrature error.

    c_avg and psi are in bits per channel use; quad_error is the relative
    difference between the coarse and refined quadrature passes.
    """

    c_avg: float
    psi: float
    quad_error: float

    @property
    def converged(self) -> bool:
        return self.quad_error <= QUAD_ERROR_LIMIT


@dataclass(frozen=True)
class OptimizationOutcome:
    """Optimal efficiency, the rate it achieves, and which constraint binds."""

    eta1_star: float
    psi_star: float
    binding: str


@lru_cache(maxsize=8)
def _laguerre_nodes(n: int):
    return np.polynomial.laguerre.laggauss(n)


def _fading_average(params: SystemParams, integrand, n: int) -> float:
    """Integrate integrand(draw) against the two exponential gain densities."""
    u, wu = _laguerre_nodes(n)
    draw = ChannelDraw(
        g_ar=params.lambda_ar * u[:, None],
        g_rb=params.lambda_rb * u[None, :],
    )
    values = integrand(draw)
    return float(wu @ values @ wu)


def effective_rate_prefactor(scheme: SchemeConfig) -> float:
    """Fraction of the block spent on the relay-to-destination transmission."""
    if scheme.variant == TS:
        return (1.0 - scheme.fraction) / 2.0
    return 0.5


def average_covert_rate(params: SystemParams, scheme: SchemeConfig, eta1: float) -> RateResult:
    """Fading-averaged covert rate C = E[log2(1 + covert snr)].

    Uses QUAD_NODES and 2*QUAD_NODES tensor rules; the finer value is
    returned. A quad_error above QUAD_ERROR_LIMIT flags non-convergence via
    RateResult.converged and a warning, but the value is still returned.
    """

    def integrand(draw):
        return np.log2(1.0 + relaying.covert_snr_reduced(params, scheme, eta1, draw))

    coarse = _fading_average(params, integrand, QUAD_NODES)
    fine = _fading_average(params, integrand, 2 * QUAD_NODES)
    if abs(fine) <= 1e-12:
        # Numerically zero rate: a relative error would be pure noise.
        err = abs(fine - coarse)
    else:
        err = abs(fine - coarse) / abs(fine)
    if err > QUAD_ERROR_LIMIT:
        # Static message so repeated sweep points do not spam; the exact
        # error is carried in RateResult.quad_error.
        warnings.warn(
            "covert-rate quadrature exceeded its error budget; "
            "see RateResult.quad_error on the flagged results",
            RuntimeWarning,
            stacklevel=2,
        )
    return RateResult(c_avg=fine, psi=effective_rate_prefactor(scheme) * fine, quad_error=err)


def expected_rate_h0(params: SystemParams, scheme: SchemeConfig, n: int = QUAD_NODES) -> float:
    """Fading average of log2(1 + snr) for the forwarded signal, no covert data."""

    def integrand(draw):
        return np.log2(1.0 + relaying.snr_h0(params, scheme, draw))

    return _fading_average(params, integrand, n)


def covertness_budget_limit(eta0: float, eta_u: float) -> float:
    """Largest epsilon for which the covertness constraint is the binding one.

    Equals 1 - xi*(eta0/eta_u); expressed here in its explicit form so the
    identity can be cross-checked against min_detection_error.
    """
    if eta0 == eta_u:
        return 0.0
    r = eta0 / eta_u
    expo = math.sqrt(eta_u) / (2.0 * (math.sqrt(eta_u) - math.sqrt(eta0)))
    return r ** expo * (math.sqrt(eta_u / eta0) - 1.0)


def optimal_eta1(params: SystemParams) -> tuple[float, str]:
    """Minimum efficiency achieving the constrained rate maximum.

    The effective covert rate is increasing in eta1, so the optimum sits on
    whichever constraint is tighter: the covertness target (eta1 = eta0 /
    phi_epsilon) or the hardware cap eta_u. Scheme-independent.
    """
    eta0, eta_u = params.eta0, params.eta_u
    if eta0 == eta_u:
        return eta_u, BINDING_HARVESTER
    if params.epsilon <= covertness_budget_limit(eta0, eta_u):
        eta1 = eta0 / detection.solve_phi_epsilon(params.epsilon)
        if eta1 < eta_u:
            return eta1, BINDING_COVERTNESS
        return eta_u, BINDING_HARVESTER
    return eta_u, BINDING_HARVESTER


def max_effective_covert_rate(params: SystemParams, scheme: SchemeConfig) -> OptimizationOutcome:
    """Effective covert rate at the optimal eta1 (no further search needed)."""
    eta1_star, binding = optimal_eta1(params)
    rate = average_covert_rate(params, scheme, eta1_star)
    return OptimizationOutcome(eta1_star=eta1_star, psi_star=rate.psi, binding=binding)


def _h0_objective(params: SystemParams, variant: str, fraction: float) -> float:
    scheme = SchemeConfig(variant, fraction)
    return effective_rate_prefactor(scheme) * expected_rate_h0(params, scheme)


def optimize_harvest_fraction(params: SystemParams, variant: str) -> float:
    """Harvesting fraction maximizing the no-covert effective forwarded rate.

    A 99-point pre-scan brackets the maximum (guarding against surprises in
    unimodality), then golden-section search refines it to 1e-4. The
    objective vanishes at both ends of (0, 1), so the maximum is interior.
    """
    grid = np.linspace(0.01, 0.99, _PRESCAN_POINTS)
    values = [_h0_objective(params, variant, f) for f in grid]
    best = int(np.argmax(values))
    lo = grid[best - 1] if best > 0 else 1e-3
    hi = grid[best + 1] if best < _PRESCAN_POINTS - 1 else 1.0 - 1e-3

    # Golden-section maximization on [lo, hi].
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc = _h0_objective(params, variant, c)
    fd = _h0_objective(params, variant, d)
    while hi - lo > _FRACTION_TOL:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = _h0_objective(params, variant, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = _h0_objective(params, variant, d)
    return 0.5 * (lo + hi)
