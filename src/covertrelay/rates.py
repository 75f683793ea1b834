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
* Lanes. A figure grid is evaluated in batched calls
  (optimize_harvest_fractions, average_covert_rates), one lane per
  (SystemParams, fraction, eta1) point. Each lane's scalars are a (lanes, 1)
  column broadcast against its row of outer nodes, and each row is reduced
  by the same 1-D dot as a one-point call (a 2-D matrix-vector product
  rounds differently in the last bit), so every lane equals the one-point
  result bit for bit. The one-point functions run the same code.
* Fraction search. scipy's bounded Brent, ported to advance all lanes in
  lock step: one objective call per iteration for the unconverged lanes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import detection, relaying
from .params import TS, ChannelDraw, SchemeConfig, SystemParams

QUAD_ERROR_LIMIT = 1e-6

BINDING_COVERTNESS = "covertness"
BINDING_HARVESTER = "harvester-cap"

_FRACTION_TOL = 1e-6
_FRACTION_BOUNDS = (1e-3, 1.0 - 1e-3)
_FRACTION_MAXFUN = 500  # scipy's default evaluation cap; never reached on (0, 1)

# Fields a rate lane carries: those relaying.downlink_coefficients and the
# outer nodes read.
_LANE_FIELDS = ("Pa", "L_ar", "L_rb", "sigma2_b", "sigma2_ra", "sigma2_rc", "eta0", "eta_u",
                "lambda_ar", "lambda_rb")

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
    # scipy.special is imported on first use: at module level it made
    # `import covertrelay` 0.17 -> 0.7 s and the CLI's cold start ~4%
    # slower, measured on a 2-vCPU host.
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


def _outer_nodes(params) -> ChannelDraw:
    return ChannelDraw(g_ar=params.lambda_ar * _OUTER_EXP_T, g_rb=params.lambda_rb)


def _lanes(points) -> SimpleNamespace:
    """The SystemParams fields the rates read, as one (lanes, 1) column each.

    relaying.downlink_coefficients only does arithmetic on these fields, so
    given columns it broadcasts each lane's scalars against that lane's row
    of outer nodes: every element goes through the same operations as in a
    one-point call.
    """
    return SimpleNamespace(**{
        name: np.array([getattr(p, name) for p in points])[:, None] for name in _LANE_FIELDS
    })


def _lane_scheme(variant: str, fractions) -> SimpleNamespace:
    # SchemeConfig stand-in holding a fraction column.
    return SimpleNamespace(variant=variant, fraction=np.asarray(fractions, dtype=float)[:, None])


def _h0_terms(params, scheme) -> np.ndarray:
    """E[ln(1 + snr_h0)] at each outer node: shape (201,), or (lanes, 201) for lane columns."""
    c = relaying.downlink_coefficients(params, scheme, params.eta0, _outer_nodes(params))
    z = 1.0 / c.p
    # 1 + snr = (1 + p y) / (1 + p r y)
    h = _h(np.concatenate([z, z / c.r]))
    return h[:len(z)] - h[len(z):]


def _covert_terms(p: np.ndarray, dp: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[log2(1 + covert snr)] at each node, and its rounding bound.

    Elementwise in 1-D arrays of DownlinkCoefficients fields, for eta1 > eta0.
    """
    p_hi = p + dp
    # 1 + snr = (1 + p_hi y)(1 + p r y) / (1 + b y + a y^2); the discriminant
    # b^2 - 4a is formed without cancelling its two large terms.
    a = r * p * p_hi
    b = p * (1.0 + r)
    disc = (p * (1.0 - r)) ** 2 - 4.0 * r * p * dp
    real = disc >= 0.0
    w = b[real] + np.sqrt(disc[real])
    n, m = b.size, w.size
    # Real roots: both numerator roots, then the denominator's large root and
    # its small root from Vieta's formula (root product 1/a).
    h = _h(np.concatenate([1.0 / p_hi, 1.0 / (p * r), w / (2.0 * a[real]), 2.0 / w]))
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
    return (h_p_hi + h_pr - h_den) / math.log(2.0), rounding


def _outer_rule(values: np.ndarray, rounding: np.ndarray) -> tuple[float, float]:
    """Outer trapezoid sum of one lane's node values and its relative error."""
    fine = float(_OUTER_W @ values)
    coarse = float(_OUTER_W_HALF @ values[::2])
    err = abs(fine - coarse) + float(_OUTER_W @ rounding) / math.log(2.0)
    if fine:
        err /= abs(fine)
    return fine, err


def _warn_flagged() -> None:
    # Static message so repeated sweep points do not spam; the exact error
    # is carried in RateResult.quad_error.
    warnings.warn(
        "covert-rate quadrature exceeded its error budget; "
        "see RateResult.quad_error on the flagged results",
        RuntimeWarning,
        stacklevel=3,
    )


def average_covert_rate(params: SystemParams, scheme: SchemeConfig, eta1: float) -> RateResult:
    """Fading-averaged covert rate C = E[log2(1 + covert snr)].

    A quad_error above QUAD_ERROR_LIMIT flags non-convergence via
    RateResult.converged and a warning, but the value is still returned.
    That happens as eta1 -> eta0, where the signed sum of h terms cancels
    to the size of the surplus; eta1 == eta0 itself gives exactly zero.
    """
    c = relaying.downlink_coefficients(params, scheme, eta1, _outer_nodes(params))
    if eta1 == params.eta0:
        return RateResult(c_avg=0.0, psi=0.0, quad_error=0.0)
    fine, err = _outer_rule(*_covert_terms(c.p, c.dp, c.r))
    if err > QUAD_ERROR_LIMIT:
        _warn_flagged()
    return RateResult(c_avg=fine, psi=effective_rate_prefactor(scheme) * fine, quad_error=err)


def average_covert_rates(points, variant: str, fractions, eta1s) -> list[RateResult]:
    """average_covert_rate at many points of one scheme variant, in one call.

    Lane i is (points[i], SchemeConfig(variant, fractions[i]), eta1s[i]).
    Each lane's result equals the one-point call bit for bit; one warning
    covers every flagged lane.
    """
    lanes = _lanes(points)
    eta1 = np.asarray(eta1s, dtype=float)
    c = relaying.downlink_coefficients(lanes, _lane_scheme(variant, fractions), eta1[:, None], _outer_nodes(lanes))
    live = eta1 != lanes.eta0[:, 0]
    values, rounding = _covert_terms(*(field[live].ravel() for field in (c.p, c.dp, c.r)))
    rows = zip(values.reshape(-1, _OUTER_T.size), rounding.reshape(-1, _OUTER_T.size))
    sums = iter([_outer_rule(v, r) for v, r in rows])
    results = []
    for fraction, has_surplus in zip(fractions, live):
        fine, err = next(sums) if has_surplus else (0.0, 0.0)
        psi = effective_rate_prefactor(SchemeConfig(variant, float(fraction))) * fine
        results.append(RateResult(c_avg=fine, psi=psi, quad_error=err))
    if any(not r.converged for r in results):
        _warn_flagged()
    return results


def expected_rate_h0(params: SystemParams, scheme: SchemeConfig) -> float:
    """Fading average of log2(1 + snr) for the forwarded signal, no covert data."""
    return float(_OUTER_W @ _h0_terms(params, scheme)) / math.log(2.0)


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


def _bounded_brent(objective, n: int) -> np.ndarray:
    """Minimize n scalar functions on _FRACTION_BOUNDS in lock step.

    A lane-by-lane port of scipy.optimize's bounded Brent search
    (_minimize_scalar_bounded with xatol=_FRACTION_TOL): each lane takes
    the same floating-point steps as scipy's scalar loop, branches become
    np.where, and the result equals scipy's x bit for bit. objective(idx, x)
    returns the values of lanes idx (an index array) at x; each iteration
    makes one call with the lanes that have not converged.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    lo, hi = _FRACTION_BOUNDS
    idx = np.arange(n)
    a, b = np.full(n, lo), np.full(n, hi)
    xf = np.full(n, lo + golden_mean * (hi - lo))
    fx = objective(idx, xf)
    nfc, fulc, fnfc, ffulc = xf, xf, fx, fx
    e = rat = np.zeros(n)
    out = np.empty(n)
    num = 1  # evaluations so far, equal in every unconverged lane
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + _FRACTION_TOL / 3.0
        tol2 = 2.0 * tol1
        go = np.abs(xf - xm) > tol2 - 0.5 * (b - a)
        if num >= _FRACTION_MAXFUN or not go.any():
            out[idx] = xf
            return out
        if not go.all():
            out[idx[~go]] = xf[~go]
            idx, a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, xm, tol1, tol2 = (
                v[go] for v in (idx, a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat, xm, tol1, tol2)
            )
        # Parabolic step through the three best points, where acceptable.
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - xf)) & (p < q * (b - xf)))
        rat_p = np.divide(p + 0.0, q, out=np.zeros_like(q), where=parabolic)
        x_p = xf + rat_p
        si = np.sign(xm - xf) + ((xm - xf) == 0)
        rat_p = np.where(((x_p - a) < tol2) | ((b - x_p) < tol2), tol1 * si, rat_p)
        # Otherwise a golden-section step into the larger part.
        e_golden = np.where(xf >= xm, a - xf, b - xf)
        e = np.where(parabolic, rat, e_golden)
        rat = np.where(parabolic, rat_p, golden_mean * e_golden)
        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = objective(idx, x)
        num += 1
        # Shrink the bracket and update the three best points.
        better = fu <= fx
        right = x >= xf
        shift = better | (fu <= fnfc) | (nfc == xf)
        take = ~shift & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        a, b = (np.where(right, np.where(better, xf, a), np.where(better, a, x)),
                np.where(right, np.where(better, b, x), np.where(better, xf, b)))
        fulc, ffulc = np.where(shift, nfc, np.where(take, x, fulc)), np.where(shift, fnfc, np.where(take, fu, ffulc))
        nfc, fnfc = np.where(better, xf, np.where(shift, x, nfc)), np.where(better, fx, np.where(shift, fu, fnfc))
        xf, fx = np.where(better, x, xf), np.where(better, fu, fx)


def optimize_harvest_fractions(points, variant: str) -> np.ndarray:
    """optimize_harvest_fraction at many points, as one lock-step search.

    Each lane returns, bit for bit, the x of scipy's
    minimize_scalar(method='bounded') on that point's objective. Every
    iteration evaluates the objective of all unconverged lanes in one
    batched call.
    """
    lanes = _lanes(points)

    def negated_objective(idx, x):
        sub = lanes if idx.size == len(points) else SimpleNamespace(
            **{name: col[idx] for name, col in vars(lanes).items()})
        h0 = np.array([_OUTER_W @ row for row in _h0_terms(sub, _lane_scheme(variant, x))]) / math.log(2.0)
        return -(effective_rate_prefactor(SimpleNamespace(variant=variant, fraction=x)) * h0)

    return _bounded_brent(negated_objective, len(points))


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
    return float(optimize_harvest_fractions([params], variant)[0])
