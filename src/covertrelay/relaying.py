"""Per-realization power allocation and SNR/SINR algebra for both schemes.

All functions are pure in (params, scheme, eta1, draw) and broadcast over
numpy arrays held in ChannelDraw, so Monte Carlo batches evaluate in one
vectorized pass. Zero channel gain is a legal input (the continuous limits
of every expression are finite) and yields zero powers and SNRs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ChannelDraw, SchemeConfig, SystemParams, harvest_coeff, info_share, relay_noise_power


@dataclass(frozen=True)
class LinkGains:
    """Composite per-draw link terms used throughout the power algebra.

    a: source-side received signal power at the relay, Pa * L_ar * g_ar [W].
    b: relay-to-destination channel gain, L_rb * g_rb [-].
    """

    a: float | np.ndarray
    b: float | np.ndarray


@dataclass(frozen=True)
class PowerAllocation:
    """Relay transmit powers for one channel realization.

    pr0: forward power with no covert transmission [W].
    pr1: forward power while also sending covert data [W].
    prc: covert-signal power [W]; pr1 + prc is the total harvested power.
    gain2: squared amplify-and-forward scaling G^2 [-].
    """

    pr0: float | np.ndarray
    pr1: float | np.ndarray
    prc: float | np.ndarray
    gain2: float | np.ndarray


def link_gains(params: SystemParams, draw: ChannelDraw) -> LinkGains:
    return LinkGains(a=params.Pa * params.L_ar * draw.g_ar, b=params.L_rb * draw.g_rb)


def harvested_power_total(params: SystemParams, scheme: SchemeConfig, eta, g_ar):
    """Total relay transmit power funded by harvesting at efficiency eta [W]."""
    if np.any(np.asarray(eta) <= 0) or np.any(np.asarray(eta) >= 1):
        raise ValueError(f"conversion efficiency must lie in (0, 1), got {eta}")
    return harvest_coeff(scheme) * eta * params.Pa * params.L_ar * g_ar


def amplification_gain2(params: SystemParams, scheme: SchemeConfig, g_ar):
    """Squared AF gain G^2 normalizing the forwarded signal to unit power."""
    s2r = relay_noise_power(scheme, params.sigma2_ra, params.sigma2_rc)
    return 1.0 / (info_share(scheme) * (params.Pa * params.L_ar * g_ar) + s2r)


def check_eta1(params: SystemParams, eta1) -> None:
    """Reject an eta1 below eta0 or above eta_u (floats, or arrays checked elementwise)."""
    if isinstance(eta1, float) and isinstance(params.eta0, float) and isinstance(params.eta_u, float):
        # One-point calls compare floats: ndarray.any() goes through a
        # Python-level wrapper that costs microseconds per call.
        low, high = eta1 < params.eta0, eta1 > params.eta_u
    else:
        eta1 = np.asarray(eta1)
        low, high = (eta1 < params.eta0).any(), (eta1 > params.eta_u).any()
    if low:
        raise ValueError(
            f"eta1 must be >= eta0 (covert power would be negative): "
            f"eta1={eta1}, eta0={params.eta0}"
        )
    if high:
        raise ValueError(f"eta1={eta1} exceeds the hardware bound eta_u={params.eta_u}")


def allocate_powers(
    params: SystemParams, scheme: SchemeConfig, eta1: float, draw: ChannelDraw
) -> PowerAllocation:
    """Split the harvested power between forwarding and covert transmission.

    The forward power under the covert hypothesis is fixed by requiring the
    destination's SNR for the forwarded signal to be unchanged; whatever of
    the (larger, since eta1 >= eta0) harvested total remains funds the
    covert signal.
    """
    check_eta1(params, eta1)
    g = link_gains(params, draw)
    s2b = params.sigma2_b
    coeff = harvest_coeff(scheme)

    pr0 = coeff * params.eta0 * g.a
    total = coeff * eta1 * g.a
    # prc in closed form; the equal-SNR condition then leaves pr1 = total - prc.
    prc = (eta1 - params.eta0) * coeff * g.a * s2b / (coeff * params.eta0 * g.a * g.b + s2b)
    pr1 = total - prc
    return PowerAllocation(pr0=pr0, pr1=pr1, prc=prc, gain2=amplification_gain2(params, scheme, draw.g_ar))


def snr_h0(params: SystemParams, scheme: SchemeConfig, draw: ChannelDraw):
    """Destination SNR for the forwarded signal with no covert transmission."""
    g = link_gains(params, draw)
    s2r = relay_noise_power(scheme, params.sigma2_ra, params.sigma2_rc)
    g2 = amplification_gain2(params, scheme, draw.g_ar)
    s = info_share(scheme) * g.a
    pr0 = harvest_coeff(scheme) * params.eta0 * g.a
    return pr0 * g.b * g2 * s / (pr0 * g.b * g2 * s2r + params.sigma2_b)


def sinr_h1(params: SystemParams, scheme: SchemeConfig, eta1: float, draw: ChannelDraw):
    """Destination SINR for the forwarded signal under covert transmission.

    Equals snr_h0 to numerical precision by construction of the allocation.
    """
    alloc = allocate_powers(params, scheme, eta1, draw)
    g = link_gains(params, draw)
    s2r = relay_noise_power(scheme, params.sigma2_ra, params.sigma2_rc)
    s = info_share(scheme) * g.a
    num = alloc.pr1 * g.b * alloc.gain2 * s
    den = alloc.pr1 * g.b * alloc.gain2 * s2r + alloc.prc * g.b + params.sigma2_b
    return num / den


def covert_snr(params: SystemParams, scheme: SchemeConfig, eta1: float, draw: ChannelDraw):
    """Destination SNR for the covert signal, via the power allocation."""
    alloc = allocate_powers(params, scheme, eta1, draw)
    g = link_gains(params, draw)
    s2r = relay_noise_power(scheme, params.sigma2_ra, params.sigma2_rc)
    return alloc.prc * g.b / (alloc.pr1 * g.b * alloc.gain2 * s2r + params.sigma2_b)


def covert_snr_reduced(params: SystemParams, scheme: SchemeConfig, eta1: float, draw: ChannelDraw):
    """Covert SNR as a single rational expression in the channel gains.

    Algebraically identical to covert_snr; kept as an independent route that
    validate checks covert_snr against, and the tests also the downlink
    coefficients of the rate quadrature (rates). q_lo and q_hi are the
    relay's H0 and H1 transmit powers times the downlink gain.
    """
    check_eta1(params, eta1)
    g = link_gains(params, draw)
    s2b = params.sigma2_b
    s2r = relay_noise_power(scheme, params.sigma2_ra, params.sigma2_rc)
    coeff = harvest_coeff(scheme)
    q_lo = coeff * params.eta0 * g.a * g.b
    q_hi = coeff * eta1 * g.a * g.b
    s = info_share(scheme) * g.a

    # q_hi - q_lo computed in factored form: the explicit difference cancels
    # catastrophically when eta1 is close to eta0.
    num = coeff * (eta1 - params.eta0) * g.a * g.b * s2b
    den = q_lo * (q_hi + s2b) * s2r / (s + s2r) + (q_lo + s2b) * s2b
    return num / den
