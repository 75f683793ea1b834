import numpy as np
import pytest
from scipy.optimize import brentq

from covertrelay import (
    ChannelDraw,
    SchemeConfig,
    allocate_powers,
    amplification_gain2,
    covert_snr,
    covert_snr_reduced,
    harvested_power_total,
    relay_noise_power,
    sinr_h1,
    snr_h0,
)
from covertrelay.params import PS
from covertrelay.relaying import downlink_coefficients, link_gains

from conftest import random_params

UNIT_DRAW = ChannelDraw(1.0, 1.0)


def _oracle_pr1(params, scheme, eta1, draw):
    """Solve the equal-SNR condition for pr1 numerically (independent route).

    Root-finds pr1 in (0, total) such that the H1 SINR with prc = total - pr1
    equals the H0 SNR, straight from the SINR definition.
    """
    g = link_gains(params, draw)
    s2r = relay_noise_power(scheme, params.sigma2_ra, params.sigma2_rc)
    g2 = amplification_gain2(params, scheme, draw.g_ar)
    s = g.a if scheme.variant == "ts" else (1.0 - scheme.fraction) * g.a
    total = harvested_power_total(params, scheme, eta1, draw.g_ar)
    target = snr_h0(params, scheme, draw)

    def mismatch(pr1):
        prc = total - pr1
        return pr1 * g.b * g2 * s / (pr1 * g.b * g2 * s2r + prc * g.b + params.sigma2_b) - target

    return brentq(mismatch, 1e-18, total, xtol=1e-18, rtol=1e-15)


def test_harvested_power_total_examples(unit_params, ts, ps):
    assert harvested_power_total(unit_params, ts, 0.8, 1.0) == pytest.approx(1.6, rel=1e-12)
    assert harvested_power_total(unit_params, ps, 0.8, 1.0) == pytest.approx(0.4, rel=1e-12)
    assert harvested_power_total(unit_params, ts, 0.8, 0.0) == 0.0
    with pytest.raises(ValueError):
        harvested_power_total(unit_params, ts, 1.0, 1.0)


def test_amplification_gain2_examples(unit_params, ts):
    assert amplification_gain2(unit_params, ts, 1.0) == pytest.approx(0.5, rel=1e-12)
    # no received signal: normalization against noise only
    assert amplification_gain2(unit_params, ts, 0.0) == pytest.approx(1.0, rel=1e-12)
    almost_one = SchemeConfig(PS, 1.0 - 1e-12)
    s2r = relay_noise_power(almost_one, unit_params.sigma2_ra, unit_params.sigma2_rc)
    assert amplification_gain2(unit_params, almost_one, 5.0) == pytest.approx(1.0 / s2r, rel=1e-9)


def test_allocate_powers_ts_worked_example(unit_params, ts):
    alloc = allocate_powers(unit_params, ts, 0.8, UNIT_DRAW)
    assert alloc.pr0 == pytest.approx(0.8, rel=1e-12)
    assert alloc.prc == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert alloc.pr1 == pytest.approx(1.6 - 4.0 / 9.0, rel=1e-12)
    # independent route: root-find the equal-SNR forward power
    assert alloc.pr1 == pytest.approx(_oracle_pr1(unit_params, ts, 0.8, UNIT_DRAW), rel=1e-10)


def test_allocate_powers_ps_worked_example(unit_params, ps):
    alloc = allocate_powers(unit_params, ps, 0.8, UNIT_DRAW)
    assert alloc.pr0 == pytest.approx(0.2, rel=1e-12)
    assert alloc.prc == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert alloc.pr1 == pytest.approx(0.4 - 1.0 / 6.0, rel=1e-12)
    assert alloc.pr1 == pytest.approx(_oracle_pr1(unit_params, ps, 0.8, UNIT_DRAW), rel=1e-10)


def test_allocate_powers_no_surplus(unit_params, ts):
    alloc = allocate_powers(unit_params, ts, unit_params.eta0, UNIT_DRAW)
    assert alloc.prc == 0.0
    assert alloc.pr1 == pytest.approx(alloc.pr0, rel=1e-12)


def test_allocate_powers_domain_errors(unit_params, ts):
    below, above = unit_params.eta0 - 0.01, unit_params.eta_u + 0.01
    inside = 0.5 * (unit_params.eta0 + unit_params.eta_u)
    for eta1, message in (
        (below, "must be >= eta0"),
        (above, "exceeds the hardware bound"),
        # Arrays with a single element out of range.
        (np.array([inside, below, inside]), "must be >= eta0"),
        (np.array([inside, inside, above]), "exceeds the hardware bound"),
    ):
        with pytest.raises(ValueError, match=message):
            allocate_powers(unit_params, ts, eta1, UNIT_DRAW)


def test_snr_h0_examples(unit_params, ts):
    assert snr_h0(unit_params, ts, UNIT_DRAW) == pytest.approx(0.4 / 1.4, rel=1e-12)
    assert snr_h0(unit_params, ts, ChannelDraw(1.0, 0.0)) == 0.0
    assert snr_h0(unit_params, ts, ChannelDraw(0.0, 1.0)) == 0.0


def test_sinr_h1_matches_snr_h0(unit_params, ts, ps):
    for scheme in (ts, ps):
        g0 = snr_h0(unit_params, scheme, UNIT_DRAW)
        g1 = sinr_h1(unit_params, scheme, 0.8, UNIT_DRAW)
        assert g1 == pytest.approx(g0, rel=1e-12)


def test_sinr_h1_reduces_to_snr_h0_without_surplus(unit_params, ts):
    g0 = snr_h0(unit_params, ts, UNIT_DRAW)
    g1 = sinr_h1(unit_params, ts, unit_params.eta0, UNIT_DRAW)
    assert g1 == pytest.approx(g0, rel=1e-14)


def test_covert_snr_examples(unit_params, ts):
    expected = (4.0 / 9.0) / ((1.6 - 4.0 / 9.0) * 0.5 + 1.0)
    assert covert_snr(unit_params, ts, 0.8, UNIT_DRAW) == pytest.approx(expected, rel=1e-12)
    assert covert_snr_reduced(unit_params, ts, 0.8, UNIT_DRAW) == pytest.approx(expected, rel=1e-12)
    assert covert_snr(unit_params, ts, unit_params.eta0, UNIT_DRAW) == 0.0


def test_covert_snr_monotone_in_eta1(unit_params, ts, ps):
    for scheme in (ts, ps):
        values = [covert_snr(unit_params, scheme, e, UNIT_DRAW) for e in np.linspace(0.4, 0.9, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))
    assert covert_snr(unit_params, ts, 0.8, UNIT_DRAW) > covert_snr(unit_params, ts, 0.6, UNIT_DRAW)


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_power_invariants_random_tuples(params, variant):
    """Equal SNR, exact energy split and matching covert-SNR forms, 1e4 tuples."""
    rng = np.random.default_rng(42 if variant == "ts" else 43)
    n_param_sets, n_draws = 25, 400
    for _ in range(n_param_sets):
        p = random_params(rng, params)
        scheme = SchemeConfig(variant, rng.uniform(0.05, 0.95))
        draw = ChannelDraw(
            g_ar=rng.exponential(p.lambda_ar, n_draws),
            g_rb=rng.exponential(p.lambda_rb, n_draws),
        )
        eta1 = rng.uniform(p.eta0, p.eta_u, n_draws)

        alloc = allocate_powers(p, scheme, eta1, draw)
        total = harvested_power_total(p, scheme, eta1, draw.g_ar)
        assert np.max(np.abs(alloc.pr1 + alloc.prc - total) / total) <= 1e-12

        g0 = snr_h0(p, scheme, draw)
        g1 = sinr_h1(p, scheme, eta1, draw)
        assert np.max(np.abs(g0 - g1) / g0) <= 1e-10

        direct = covert_snr(p, scheme, eta1, draw)
        reduced = covert_snr_reduced(p, scheme, eta1, draw)
        assert np.max(np.abs(direct - reduced) / reduced) <= 1e-12


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_covert_power_increasing_in_eta1(params, variant):
    scheme = SchemeConfig(variant, 0.4)
    etas = np.linspace(params.eta0, params.eta_u, 30)
    draw = ChannelDraw(1.3, 0.7)
    prc = np.array([allocate_powers(params, scheme, e, draw).prc for e in etas])
    assert prc[0] == 0.0
    assert np.all(prc >= 0)
    assert np.all(np.diff(prc) > 0)


def test_pr1_exceeds_pr0_with_surplus(unit_params, ts, ps):
    for scheme in (ts, ps):
        alloc = allocate_powers(unit_params, scheme, 0.8, UNIT_DRAW)
        assert alloc.pr1 > alloc.pr0


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_downlink_coefficients_reproduce_the_snrs(params, variant):
    # The closed-form rate integrates these rational forms in g_rb; they
    # must match the reduced covert SNR and snr_h0 at arbitrary gains.
    rng = np.random.default_rng(7 if variant == "ts" else 8)
    for _ in range(10):
        p = random_params(rng, params)
        scheme = SchemeConfig(variant, rng.uniform(0.05, 0.95))
        draw = ChannelDraw(
            g_ar=p.lambda_ar * np.exp(rng.uniform(-20.0, 3.0, 500)),
            g_rb=p.lambda_rb * np.exp(rng.uniform(-20.0, 3.0, 500)),
        )
        eta1 = rng.uniform(p.eta0, p.eta_u)
        # Coefficients of a unit-g_rb draw, evaluated at y = g_rb, and of
        # the draw itself at y = 1, must both give the SNRs of the draw.
        c = downlink_coefficients(p, scheme, eta1, ChannelDraw(g_ar=draw.g_ar, g_rb=1.0))
        x = draw.g_rb
        covert = c.dp * x / (1.0 + c.p * (1.0 + c.r) * x + c.r * c.p * (c.p + c.dp) * x ** 2)
        own = downlink_coefficients(p, scheme, eta1, draw)
        covert_own = own.dp / (1.0 + own.p * (1.0 + own.r) + own.r * own.p * (own.p + own.dp))
        reduced = covert_snr_reduced(p, scheme, eta1, draw)
        assert np.max(np.abs(covert - reduced) / reduced) <= 1e-13
        assert np.max(np.abs(covert_own - reduced) / reduced) <= 1e-13
        # snr_h0 itself carries 1 - r, which cancels for s << s2r; the rate
        # integrates log(1 + snr_h0) = log((1 + p x) / (1 + p r x)).
        ratio = (1.0 + c.p * x) / (1.0 + c.p * c.r * x)
        assert np.max(np.abs(ratio / (1.0 + snr_h0(p, scheme, draw)) - 1.0)) <= 1e-13
