"""Average/effective covert rate and the constrained efficiency optimization.

Both fading averages are a closed-form expectation over the downlink gain
g_rb = lambda_rb * y inside a 1-D rule over the uplink gain g_ar. Both
rates evaluate one ChannelDraw: the outer nodes as g_ar, lambda_rb as g_rb.

* Inner. For fixed g_ar both SNRs are rational in y
  (relaying.downlink_coefficients of that draw), so log(1 + snr) is a
  signed sum of log(1 + y/c) over the roots -c of linear and quadratic
  factors. For y ~ Exp(1), E[ln(1 + y/c)] = h(c) with h(z) = e^z E1(z)
  (Gradshteyn & Ryzhik 4.337.1). A complex root pair of the covert
  denominator contributes 2 Re h(z); of a real pair, the small root comes
  from Vieta's formula.
* Outer. Substituting g_ar = lambda_ar * e^t turns the exponential average
  into an integral over the real line that decays double-exponentially
  for t -> +inf and like e^(2t) for t -> -inf; the trapezoid rule on
  t in [-45, 4.5] (Takahasi-Mori) converges geometrically, and the
  every-other-node sum gives the error estimate at no extra cost.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import detection, relaying
from .params import TS, ChannelDraw, SchemeConfig, SystemParams

QUAD_ERROR_LIMIT = 1e-6

BINDING_COVERTNESS = "covertness"
BINDING_HARVESTER = "harvester-cap"

_FRACTION_TOL = 1e-6
_FRACTION_BOUNDS = (1e-3, 1.0 - 1e-3)

# Outer trapezoid nodes t (g_ar = lambda_ar * e^t) and their weights for the
# Exp(1) density, e^(t - e^t) dt; the end weights are halved.
_OUTER_T, _OUTER_STEP = np.linspace(-45.0, 4.5, 201, retstep=True)
_OUTER_EXP_T = np.exp(_OUTER_T)
_OUTER_W = _OUTER_STEP * np.exp(_OUTER_T - _OUTER_EXP_T)
_OUTER_W[[0, -1]] *= 0.5
# The same rule on every other node (step doubled), for the error estimate.
_OUTER_W_HALF = 2.0 * _OUTER_W[::2]
_OUTER_W_HALF[[0, -1]] = _OUTER_W[[0, -1]]

# h(z) switches from scipy's exp1 to its asymptotic series
# sum_k (-1)^k k!/z^(k+1) at |z| >= 500, before e^z overflows; 8 terms keep
# the truncation near 1e-17 relative for Re z > 0.
_ASYMPTOTIC_Z = 500.0
_ASYMPTOTIC_TERMS = 8
# Relative accuracy of each h term, for the rounding bound of the signed sum
# (measured against mpmath: scipy's real exp1 and the series stay below
# 1.5e-15; its complex exp1 loses up to 1e-12 for 1 < |z| < 10).
_H_REL_ERR = 2e-15
_H_PAIR_REL_ERR = 1e-12
_H_PAIR_INACCURATE_Z = 10.0


@dataclass(frozen=True)
class RateResult:
    """Average covert rate, effective covert rate, and quadrature error.

    c_avg and psi are in bits per channel use; quad_error is the relative
    difference between the full and the every-other-node outer rule plus a
    bound on the rounding error of the closed-form inner expectation.
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


def _h(z):
    """h(z) = e^z E1(z) elementwise, for Re z > 0 (real or complex arrays)."""
    # scipy is imported on first use, here and in optimize_harvest_fraction:
    # at module level it made `import covertrelay` 0.17 -> 0.7 s and the
    # CLI's cold start ~4% slower, measured on a 2-vCPU host.
    from scipy import special

    out = np.empty_like(z)
    big = np.abs(z) >= _ASYMPTOTIC_Z
    near = z[~big]
    out[~big] = np.exp(near) * special.exp1(near)
    u = -1.0 / z[big]
    acc = np.ones_like(u)
    for k in range(_ASYMPTOTIC_TERMS - 1, 0, -1):
        acc = 1.0 + k * u * acc
    out[big] = -u * acc
    return out


def effective_rate_prefactor(scheme: SchemeConfig) -> float:
    """Fraction of the block spent on the relay-to-destination transmission."""
    if scheme.variant == TS:
        return (1.0 - scheme.fraction) / 2.0
    return 0.5


def average_covert_rate(params: SystemParams, scheme: SchemeConfig, eta1: float) -> RateResult:
    """Fading-averaged covert rate C = E[log2(1 + covert snr)].

    A quad_error above QUAD_ERROR_LIMIT flags non-convergence via
    RateResult.converged and a warning, but the value is still returned.
    That happens as eta1 -> eta0, where the signed sum of h terms cancels
    to the size of the surplus; eta1 == eta0 itself gives exactly zero.
    """
    nodes = ChannelDraw(g_ar=params.lambda_ar * _OUTER_EXP_T, g_rb=params.lambda_rb)
    c = relaying.downlink_coefficients(params, scheme, eta1, nodes)
    if eta1 == params.eta0:
        return RateResult(c_avg=0.0, psi=0.0, quad_error=0.0)
    p_hi = c.p + c.dp
    # 1 + snr = (1 + p_hi y)(1 + p r y) / (1 + b y + a y^2); the discriminant
    # b^2 - 4a is formed without cancelling its two large terms.
    a = c.r * c.p * p_hi
    b = c.p * (1.0 + c.r)
    disc = (c.p * (1.0 - c.r)) ** 2 - 4.0 * c.r * c.p * c.dp
    real = disc >= 0.0
    w = b[real] + np.sqrt(disc[real])
    n, m = b.size, w.size
    # Real roots: both numerator roots, then the denominator's large root and
    # its small root from Vieta's formula (root product 1/a).
    h = _h(np.concatenate([1.0 / p_hi, 1.0 / (c.p * c.r), w / (2.0 * a[real]), 2.0 / w]))
    h_p_hi, h_pr, h_large, h_small = h[:n], h[n:2 * n], h[2 * n:2 * n + m], h[2 * n + m:]
    # A complex root pair of the denominator contributes 2 Re h(z).
    z_pair = (b[~real] + 1j * np.sqrt(-disc[~real])) / (2.0 * a[~real])
    h_pair = _h(z_pair)
    h_den = np.empty(n)
    h_den[real] = h_large + h_small
    h_den[~real] = 2.0 * h_pair.real
    # Per-node bound on the rounding error of the signed sum.
    rounding = _H_REL_ERR * (np.abs(h_p_hi) + np.abs(h_pr))
    rounding[real] += _H_REL_ERR * (np.abs(h_large) + np.abs(h_small))
    pair_err = np.where(np.abs(z_pair) < _H_PAIR_INACCURATE_Z, _H_PAIR_REL_ERR, _H_REL_ERR)
    rounding[~real] += pair_err * 2.0 * np.abs(h_pair)

    values = (h_p_hi + h_pr - h_den) / math.log(2.0)
    fine = float(_OUTER_W @ values)
    coarse = float(_OUTER_W_HALF @ values[::2])
    err = abs(fine - coarse) + float(_OUTER_W @ rounding) / math.log(2.0)
    if fine:
        err /= abs(fine)
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


def expected_rate_h0(params: SystemParams, scheme: SchemeConfig) -> float:
    """Fading average of log2(1 + snr) for the forwarded signal, no covert data."""
    nodes = ChannelDraw(g_ar=params.lambda_ar * _OUTER_EXP_T, g_rb=params.lambda_rb)
    c = relaying.downlink_coefficients(params, scheme, params.eta0, nodes)
    z = 1.0 / c.p
    # 1 + snr = (1 + p y) / (1 + p r y)
    h = _h(np.concatenate([z, z / c.r]))
    return float(_OUTER_W @ (h[:z.size] - h[z.size:])) / math.log(2.0)


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

    Bounded Brent search on (1e-3, 1 - 1e-3), to 1e-6 in the fraction. The
    objective vanishes at both ends of (0, 1), so the maximum is interior
    (for PS at high SNR it can lie above 1 - 1e-3; the search then stops
    within its tolerance of that bound). A local search finds the maximum
    because the objective is unimodal.

    For TS: with v = f / (1 - f) the prefactor is (1 - f)/2 = 1/(2(1 + v))
    and the harvest coefficient is 2v, so J = H(2v) / (2(1 + v)), where H(c)
    is the forwarded rate at harvest coefficient c. Per realization snr_h0
    is a concave increasing linear-fractional function of c, so H is
    concave with H(0) = 0. J'(v) has the sign of
    phi(v) = 2 H'(2v)(1 + v) - H(2v), and phi'(v) = 4 H''(2v)(1 + v) <= 0,
    so J' changes sign at most once. For PS there is no such proof; the
    tests check it against a fine grid.
    """
    from scipy import optimize

    found = optimize.minimize_scalar(
        lambda f: -_h0_objective(params, variant, f),
        bounds=_FRACTION_BOUNDS,
        method="bounded",
        options={"xatol": _FRACTION_TOL},
    )
    return float(found.x)
