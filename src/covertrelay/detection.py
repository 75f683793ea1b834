"""Source-side detection of the relay's covert transmission.

Closed-form false-alarm and miss-detection rates of the power-threshold
detector, the error-minimizing threshold, the minimum detection error (a
function of the efficiency ratio only), and the inverse problem of finding
the ratio that meets a covertness target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import SchemeConfig, SystemParams, harvest_coeff

# Bisection bracket and iteration cap for solve_phi_epsilon.
_PHI_BRACKET = (1e-15, 1.0 - 1e-15)
_PHI_MAX_ITER = 200
_PHI_TOL = 1e-12

# Below this distance from ratio 1 the closed form is evaluated by series
# expansion to dodge the 0/0 indeterminacy.
_NEAR_ONE = 1e-8


@dataclass(frozen=True)
class DetectionPoint:
    """Detector performance at the given threshold(s): alpha, beta, xi."""

    alpha: float | np.ndarray
    beta: float | np.ndarray
    xi: float | np.ndarray


def statistic_scale(params: SystemParams, scheme: SchemeConfig, eta: float) -> float:
    """Coefficient K multiplying |h_ar|^4 in the received-power statistic.

    K = harvest_coeff * eta * Pa * L_ar^2: the relay's harvested transmit
    power reaches the source over the reciprocal link, so L_ar g_ar enters twice.
    """
    return harvest_coeff(scheme) * eta * params.Pa * params.L_ar ** 2


def _exceedance(tau, sigma2_a: float, k: float, lam: float):
    # P[K*|h|^4 + sigma2_a >= tau], |h|^2 ~ Exp(lam). The clamp makes it exactly 1 at
    # and below the noise floor (alpha = 1, beta = 0), also where K underflows to 0.
    d = np.maximum(np.asarray(tau, dtype=float) - sigma2_a, 0.0)
    return np.exp(-np.sqrt(np.divide(d, k, out=np.zeros_like(d), where=d != 0)) / lam)


def false_alarm(params: SystemParams, scheme: SchemeConfig, tau):
    """False-alarm rate: deciding 'covert transmission' when there is none.

    Equals 1 for any threshold at or below the receiver noise floor.
    """
    k0 = statistic_scale(params, scheme, params.eta0)
    out = _exceedance(tau, params.sigma2_a, k0, params.lambda_ar)
    return out if out.ndim else float(out)


def miss_detection(params: SystemParams, scheme: SchemeConfig, eta1: float, tau):
    """Miss-detection rate: deciding 'no covert transmission' when there is."""
    k1 = statistic_scale(params, scheme, eta1)
    out = 1.0 - _exceedance(tau, params.sigma2_a, k1, params.lambda_ar)
    return out if out.ndim else float(out)


def detection_error(params: SystemParams, scheme: SchemeConfig, eta1: float, tau) -> DetectionPoint:
    """Detection error xi = alpha + beta at the given threshold(s)."""
    alpha = false_alarm(params, scheme, tau)
    beta = miss_detection(params, scheme, eta1, tau)
    return DetectionPoint(alpha=alpha, beta=beta, xi=alpha + beta)


def optimal_threshold(params: SystemParams, scheme: SchemeConfig, eta1: float) -> float:
    """Threshold minimizing xi; always strictly above the noise floor.

    Raises:
        ValueError: if eta1 == eta0 (the two hypotheses coincide and no
            threshold is meaningful).
    """
    eta0 = params.eta0
    if eta1 <= eta0:
        raise ValueError(
            "optimal threshold undefined: eta1 must exceed eta0 "
            f"(got eta1={eta1}, eta0={eta0})"
        )
    scale = statistic_scale(params, scheme, 1.0)  # K factor per unit efficiency
    lam = params.lambda_ar
    ratio = math.log(eta1 / eta0) / (2.0 * (math.sqrt(eta1) - math.sqrt(eta0)))
    return params.sigma2_a + lam ** 2 * scale * eta0 * eta1 * ratio ** 2


def min_detection_error(phi: float) -> float:
    """Minimum detection error xi* as a function of phi = eta0/eta1 alone.

    For phi within 1e-8 of 1 the closed form is 0/0; a second-order
    expansion in u = 1 - sqrt(phi) is used there (xi* -> 1 as phi -> 1).
    """
    if not (0 < phi <= 1):
        raise ValueError(f"phi must lie in (0, 1], got {phi}")
    u = 1.0 - math.sqrt(phi)
    if abs(1.0 - phi) < _NEAR_ONE:
        return 1.0 - math.exp(-1.0) * u * (1.0 + 0.5 * u)
    return 1.0 - phi ** (1.0 / (2.0 * u)) * (1.0 / math.sqrt(phi) - 1.0)


@lru_cache(maxsize=4096)
def solve_phi_epsilon(epsilon: float) -> float:
    """Efficiency ratio phi_epsilon with xi*(phi_epsilon) = 1 - epsilon.

    Unique by monotonicity of xi*; solved by bisection to 1e-12 in the
    function value. The ends are the limit ratios: epsilon = 0 gives 1, and
    epsilon = 1 gives 0 (xi* -> 0 as phi -> 0), where the covertness
    constraint is vacuous and the efficiency cap binds.
    """
    if epsilon == 0:
        return 1.0
    if epsilon == 1:
        return 0.0
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    target = 1.0 - epsilon
    lo, hi = _PHI_BRACKET
    for _ in range(_PHI_MAX_ITER):
        mid = 0.5 * (lo + hi)
        val = min_detection_error(mid)
        if abs(val - target) <= _PHI_TOL:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
