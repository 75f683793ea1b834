import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covertrelay import (
    SchemeConfig,
    detection_error,
    false_alarm,
    min_detection_error,
    miss_detection,
    optimal_threshold,
    solve_phi_epsilon,
)
from covertrelay.detection import statistic_scale
from covertrelay.params import PS, TS

# Frozen from the brute-force grid-minimization oracle below (10^6-point
# log-spaced threshold grids with one refinement pass).
XI_STAR_QUARTER = 0.75
XI_STAR_HALF = 0.8731372948766902
XI_STAR_4_7 = 0.8973990224044965
PHI_EPS_01 = 0.5796446584169224


def xi_curve(tau, sigma2_a, k0, k1, lam):
    """Detection-error curve straight from the two exponential tail forms."""
    d = np.maximum(tau - sigma2_a, 0.0)
    a = np.exp(-np.sqrt(d / k0) / lam)
    b = 1.0 - np.exp(-np.sqrt(d / k1) / lam)
    return np.where(tau <= sigma2_a, 1.0, a + b)


def grid_min_xi(sigma2_a, k0, k1, lam=1.0, n=10**5):
    """Brute-force minimum of the error curve over a wide log-spaced grid."""
    off = np.geomspace(1e-6 * k1 * lam**2, 1e6 * k1 * lam**2, n)
    xi = xi_curve(sigma2_a + off, sigma2_a, k0, k1, lam)
    i = int(np.argmin(xi))
    off2 = np.geomspace(off[max(i - 1, 0)], off[min(i + 1, n - 1)], n)
    xi2 = xi_curve(sigma2_a + off2, sigma2_a, k0, k1, lam)
    j = int(np.argmin(xi2))
    return float(xi2[j]), float(sigma2_a + off2[j])


def test_false_alarm_piecewise(params, ts):
    assert false_alarm(params, ts, 0.5 * params.sigma2_a) == 1.0
    assert false_alarm(params, ts, params.sigma2_a) == 1.0  # boundary on the xi=1 branch
    assert false_alarm(params, ts, 1e6) == pytest.approx(0.0, abs=1e-300)


def test_rates_at_the_noise_floor_follow_the_piecewise_form(params, ts):
    # alpha = 1 and beta = 0 at and below the floor come from the clamp in
    # the tail form alone, on arrays and where K underflows to 0.
    s = params.sigma2_a
    tau = np.array([-np.inf, 0.5 * s, s, np.nextafter(s, np.inf), 2.0 * s, np.inf])
    k0, k1 = statistic_scale(params, ts, params.eta0), statistic_scale(params, ts, 0.7)
    with np.errstate(invalid="ignore"):
        a, b = (np.exp(-np.sqrt((tau - s) / k) / params.lambda_ar) for k in (k0, k1))
    assert (false_alarm(params, ts, tau) == np.where(tau <= s, 1.0, a)).all()
    assert (miss_detection(params, ts, 0.7, tau) == np.where(tau <= s, 0.0, 1.0 - b)).all()
    tiny = params.with_updates(Pa=1e-320)
    assert statistic_scale(tiny, ts, tiny.eta0) == statistic_scale(tiny, ts, 0.7) == 0.0
    floor = tau[tau <= s]
    assert (false_alarm(tiny, ts, floor) == 1.0).all()
    assert (miss_detection(tiny, ts, 0.7, floor) == 0.0).all()


def test_false_alarm_unit_scale(unit_params):
    # eta0 = 0.5 and phi = 0.5 make the H0 statistic scale exactly 1.
    p = unit_params.with_updates(eta0=0.5)
    scheme = SchemeConfig(TS, 0.5)
    assert statistic_scale(p, scheme, p.eta0) == pytest.approx(1.0, rel=1e-12)
    tau = p.sigma2_a + 1.0
    assert false_alarm(p, scheme, tau) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_miss_detection_piecewise(params, ts):
    assert miss_detection(params, ts, 0.7, params.sigma2_a / 2.0) == 0.0
    assert miss_detection(params, ts, 0.7, params.sigma2_a) == 0.0
    assert miss_detection(params, ts, 0.7, 1e6) == pytest.approx(1.0, abs=1e-12)


def test_miss_detection_unit_scale(unit_params):
    p = unit_params.with_updates(eta0=0.25)
    scheme = SchemeConfig(TS, 0.5)
    assert statistic_scale(p, scheme, 0.5) == pytest.approx(1.0, rel=1e-12)
    tau = p.sigma2_a + 1.0
    assert miss_detection(p, scheme, 0.5, tau) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_detection_error_structure(params, ts):
    point = detection_error(params, ts, 0.7, params.sigma2_a * 0.9)
    assert point.xi == 1.0 and point.alpha == 1.0 and point.beta == 0.0
    taus = np.geomspace(params.sigma2_a * 0.5, params.sigma2_a * 1e4, 64)
    point = detection_error(params, ts, 0.7, taus)
    assert np.allclose(point.xi, point.alpha + point.beta)


def test_detection_error_identical_hypotheses(params, ts):
    taus = np.geomspace(params.sigma2_a * 0.5, params.sigma2_a * 1e4, 64)
    point = detection_error(params, ts, params.eta0, taus)
    assert np.allclose(point.xi, 1.0, atol=1e-14)


def test_alpha_beta_monotone_in_tau(params, ts, ps):
    taus = np.geomspace(params.sigma2_a * 0.5, params.sigma2_a * 1e6, 500)
    for scheme in (ts, ps):
        point = detection_error(params, scheme, 0.7, taus)
        assert np.all(np.diff(point.alpha) <= 0)
        assert np.all(np.diff(point.beta) >= 0)


@pytest.mark.parametrize(
    "variant, fraction, eta1",
    [("ts", 0.5, 0.7), ("ps", 0.5, 0.7), ("ts", 0.5, 1.001 * 0.4), ("ps", 0.9, 0.7)],
    ids=["ts", "ps", "ts-near-degenerate", "ps-extreme-split"],  # default eta0 = 0.4
)
def test_optimal_threshold_beats_grid(params, variant, fraction, eta1):
    scheme = SchemeConfig(variant, fraction)
    tau_star = optimal_threshold(params, scheme, eta1)
    assert tau_star > params.sigma2_a
    k0 = statistic_scale(params, scheme, params.eta0)
    k1 = statistic_scale(params, scheme, eta1)
    xi_min, tau_min = grid_min_xi(params.sigma2_a, k0, k1, params.lambda_ar)
    assert detection_error(params, scheme, eta1, tau_star).xi <= xi_min + 1e-12
    assert tau_star == pytest.approx(tau_min, rel=1e-4)


def test_optimal_threshold_scheme_substitution(params):
    # With rho = 2 phi / (1 - phi) the two thresholds coincide exactly.
    phi = 0.2
    rho = 2 * phi / (1 - phi)
    t_ts = optimal_threshold(params, SchemeConfig(TS, phi), 0.7)
    t_ps = optimal_threshold(params, SchemeConfig(PS, rho), 0.7)
    assert t_ts == pytest.approx(t_ps, rel=1e-12)


def test_optimal_threshold_degenerate(params, ts):
    with pytest.raises(ValueError):
        optimal_threshold(params, ts, params.eta0)


def test_min_detection_error_frozen_values():
    assert min_detection_error(1.0) == 1.0
    assert min_detection_error(0.25) == pytest.approx(XI_STAR_QUARTER, abs=1e-12)
    assert min_detection_error(0.5) == pytest.approx(XI_STAR_HALF, abs=1e-10)
    assert min_detection_error(4.0 / 7.0) == pytest.approx(XI_STAR_4_7, abs=1e-10)


def test_min_detection_error_matches_grid_oracle(params, ts):
    # fig2 recipe parameters: the scheme-specific curve minimum equals the
    # ratio-only closed form.
    k0 = statistic_scale(params, ts, 0.4)
    k1 = statistic_scale(params, ts, 0.7)
    xi_min, _ = grid_min_xi(params.sigma2_a, k0, k1)
    assert min_detection_error(4.0 / 7.0) == pytest.approx(xi_min, abs=1e-8)


def test_min_detection_error_domain():
    for phi in (0.0, -0.5, 1.01):
        with pytest.raises(ValueError):
            min_detection_error(phi)


def test_min_detection_error_near_one_expansion():
    # Expansion region must join the closed form smoothly and stay below 1.
    inside = min_detection_error(1.0 - 0.5e-8)
    outside = min_detection_error(1.0 - 2e-8)
    assert outside < inside < 1.0
    assert 1.0 - inside == pytest.approx(math.exp(-1.0) * 0.25e-8, rel=1e-3)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_min_detection_error_matches_raw_exponentials(phi):
    # Independent algebraic route: the two-exponential form with eta1 = 1.
    eta0, eta1 = phi, 1.0
    delta = math.sqrt(eta1) - math.sqrt(eta0)
    log_ratio = math.log(eta1 / eta0)
    raw = 1.0 + math.exp(-math.sqrt(eta1) * log_ratio / (2 * delta)) - math.exp(
        -math.sqrt(eta0) * log_ratio / (2 * delta)
    )
    assert min_detection_error(phi) == pytest.approx(raw, abs=1e-12)
    assert 0.0 < min_detection_error(phi) < 1.0


def test_min_detection_error_strictly_increasing():
    grid = np.linspace(0.01, 0.99, 1000)
    values = np.array([min_detection_error(p) for p in grid])
    assert np.all(np.diff(values) > 0)


def test_solve_phi_epsilon_values():
    assert solve_phi_epsilon(0.25) == pytest.approx(0.25, abs=1e-9)
    assert solve_phi_epsilon(0.1) == pytest.approx(PHI_EPS_01, abs=1e-6)
    assert min_detection_error(solve_phi_epsilon(0.1)) == pytest.approx(0.9, abs=1e-12)
    assert solve_phi_epsilon(0.0) == 1.0
    assert solve_phi_epsilon(1e-9) == pytest.approx(1.0, abs=1e-6)


def test_solve_phi_epsilon_domain():
    # epsilon = 1 is the limit phi -> 0 (xi* -> 0), like epsilon = 0 -> 1.
    assert solve_phi_epsilon(1.0) == 0.0
    assert min_detection_error(1e-12) < 1e-4
    for eps in (-0.1, 1.5):
        with pytest.raises(ValueError):
            solve_phi_epsilon(eps)


@given(st.floats(min_value=1e-4, max_value=0.9))
def test_solve_phi_epsilon_inverts(eps):
    phi = solve_phi_epsilon(eps)
    assert min_detection_error(phi) == pytest.approx(1.0 - eps, abs=1e-11)


def test_xi_star_depends_only_on_ratio(params):
    """Perturbing power, fading mean, fraction, distance at fixed ratio
    leaves the minimum error unchanged."""
    eta0, eta1 = 0.4, 0.7
    reference = None
    cases = [
        params,
        params.with_updates(Pa=0.004),
        params.with_updates(lambda_ar=2.3),
        params.with_updates(d_ar=3.0),
    ]
    rng = np.random.default_rng(5)
    for p in cases:
        for variant in ("ts", "ps"):
            scheme = SchemeConfig(variant, rng.uniform(0.1, 0.9))
            tau_star = optimal_threshold(p, scheme, eta1)
            xi = detection_error(p, scheme, eta1, tau_star).xi
            if reference is None:
                reference = xi
            assert xi == pytest.approx(reference, abs=1e-10)
    assert reference == pytest.approx(min_detection_error(eta0 / eta1), abs=1e-10)


def test_ts_ps_minimum_equal(params, ts, ps):
    xi_ts = detection_error(params, ts, 0.7, optimal_threshold(params, ts, 0.7)).xi
    xi_ps = detection_error(params, ps, 0.7, optimal_threshold(params, ps, 0.7)).xi
    assert xi_ts == pytest.approx(xi_ps, abs=1e-10)

