"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (visible with `pytest -s` or in captured
output); a failing criterion fails its test. Runtime caps are asserted
with wall-clock timing.
"""

import itertools
import time

import numpy as np
import pytest

from covertrelay import (
    ChannelDraw,
    SchemeConfig,
    allocate_powers,
    average_covert_rate,
    covert_snr,
    covert_snr_reduced,
    detection_error,
    harvested_power_total,
    min_detection_error,
    optimal_eta1,
    optimal_threshold,
    simulate_covert_rate,
    sinr_h1,
    snr_h0,
)
from covertrelay import experiments as ex
from covertrelay.cli import EXIT_OK, main
from covertrelay.detection import statistic_scale
from covertrelay.montecarlo import STREAMS_DETECTION, detection_curve
from covertrelay.params import PS, TS, default_params
from covertrelay.rates import BINDING_COVERTNESS, BINDING_HARVESTER

from conftest import random_params

# Brute-force oracle values frozen in tests/test_detection.py.
XI_STAR_FIG2 = 0.8973990224044965
ETA1_STAR_EPS01 = 0.6900779541


def _report(number: int, text: str, elapsed: float, cap: float | None = None) -> None:
    print(f"PASS criterion {number}: {text} ({elapsed:.1f}s)")
    if cap is not None:
        assert elapsed <= cap, f"criterion {number} exceeded its {cap:.0f}s runtime cap"


def test_criterion_1_min_error_matches_grid_minimum():
    """xi* closed form vs 1e6-point grid minimization, 50 random ratios."""
    start = time.monotonic()
    params = default_params()
    rng = np.random.default_rng(1001)
    eta1 = 0.7
    worst = 0.0
    for _ in range(50):
        phi = rng.uniform(0.05, 0.95)
        p = params.with_updates(eta0=phi * eta1)
        closed = min_detection_error(phi)
        for variant in ("ts", "ps"):
            scheme = SchemeConfig(variant, rng.uniform(0.1, 0.9))
            delta = optimal_threshold(p, scheme, eta1) - p.sigma2_a
            taus = p.sigma2_a + np.geomspace(1e-3 * delta, 1e3 * delta, 10**6)
            grid_min = float(np.min(detection_error(p, scheme, eta1, taus).xi))
            worst = max(worst, abs(grid_min - closed))
    assert worst <= 1e-6
    _report(1, f"50 ratios x 2 schemes, max |grid - closed| = {worst:.2e} <= 1e-6",
            time.monotonic() - start, cap=60.0)


def test_criterion_2_fig2_reproduction():
    """Closed-form minimum, TS/PS equality, and Monte Carlo at the optimum."""
    start = time.monotonic()
    params = default_params()  # eta0 = 0.4, Pa = 20 dBm defaults
    eta1 = 0.7
    xi_min = {}
    for variant in ("ts", "ps"):
        scheme = SchemeConfig(variant, 0.5)
        tau_star = optimal_threshold(params, scheme, eta1)
        xi_min[variant] = detection_error(params, scheme, eta1, tau_star).xi
        a_hat, b_hat = detection_curve(params, scheme, eta1, [tau_star], 10**6, seed=1002,
                                       streams=STREAMS_DETECTION[TS])
        assert abs(a_hat[0] + b_hat[0] - xi_min[variant]) <= 5e-3
    assert abs(xi_min["ts"] - XI_STAR_FIG2) <= 1e-6
    assert abs(xi_min["ts"] - xi_min["ps"]) <= 1e-10
    _report(2, f"xi* = {xi_min['ts']:.6f} (oracle {XI_STAR_FIG2:.6f}), MC within 5e-3",
            time.monotonic() - start, cap=30.0)


def test_criterion_3_detection_rates_vs_monte_carlo():
    """alpha/beta closed forms within 3 binomial standard errors, 20 pairs."""
    from covertrelay import false_alarm, miss_detection

    start = time.monotonic()
    params = default_params()
    rng = np.random.default_rng(1003)
    n = 10**5
    worst = 0.0
    for trial in range(20):
        p = random_params(rng, params)
        variant = ("ts", "ps")[trial % 2]
        scheme = SchemeConfig(variant, rng.uniform(0.1, 0.9))
        eta1 = rng.uniform(p.eta0 * 1.02, p.eta_u)
        k1 = statistic_scale(p, scheme, eta1)
        tau = p.sigma2_a + rng.uniform(0.05, 20.0) * k1 * p.lambda_ar**2
        a_hat, b_hat = detection_curve(p, scheme, eta1, [tau], n, seed=2000 + trial,
                                       streams=STREAMS_DETECTION[TS])
        a = false_alarm(p, scheme, tau)
        b = miss_detection(p, scheme, eta1, tau)
        se_a = max(np.sqrt(a * (1 - a) / n), 1.0 / n)
        se_b = max(np.sqrt(b * (1 - b) / n), 1.0 / n)
        worst = max(worst, abs(a_hat[0] - a) / se_a, abs(b_hat[0] - b) / se_b)
    assert worst <= 3.0
    _report(3, f"20 random (tau, params) pairs, worst deviation {worst:.2f} sigma <= 3",
            time.monotonic() - start, cap=60.0)


def test_criterion_4_power_allocation_invariants():
    """Equal destination SNR under both hypotheses and exact energy split."""
    start = time.monotonic()
    params = default_params()
    for variant, seed in (("ts", 1004), ("ps", 1005)):
        rng = np.random.default_rng(seed)
        n_sets, n_draws = 25, 400  # 10^4 tuples per scheme
        for _ in range(n_sets):
            p = random_params(rng, params)
            scheme = SchemeConfig(variant, rng.uniform(0.05, 0.95))
            draw = ChannelDraw(
                g_ar=rng.exponential(p.lambda_ar, n_draws),
                g_rb=rng.exponential(p.lambda_rb, n_draws),
            )
            eta1 = rng.uniform(p.eta0, p.eta_u, n_draws)
            g0 = snr_h0(p, scheme, draw)
            g1 = sinr_h1(p, scheme, eta1, draw)
            assert np.max(np.abs(g0 - g1) / g0) <= 1e-10
            alloc = allocate_powers(p, scheme, eta1, draw)
            total = harvested_power_total(p, scheme, eta1, draw.g_ar)
            assert np.max(np.abs(alloc.pr1 + alloc.prc - total) / total) <= 1e-12
            reduced = covert_snr_reduced(p, scheme, eta1, draw)
            assert np.max(np.abs(covert_snr(p, scheme, eta1, draw) - reduced) / reduced) <= 1e-12
    _report(4, "1e4 tuples per scheme: SNR match 1e-10, energy split and covert-SNR forms 1e-12",
            time.monotonic() - start, cap=10.0)


def test_criterion_5_rate_quadrature_vs_monte_carlo():
    """Quadrature covert rate within 2% of 1e6-block Monte Carlo."""
    start = time.monotonic()
    params = default_params()
    worst = 0.0
    for variant, seed in (("ts", 1006), ("ps", 1007)):
        rng = np.random.default_rng(seed)
        for trial in range(10):
            p = random_params(rng, params)
            scheme = SchemeConfig(variant, rng.uniform(0.2, 0.8))
            eta1 = rng.uniform(p.eta0 + 0.05 * (p.eta_u - p.eta0), p.eta_u)
            rate = average_covert_rate(p, scheme, eta1)
            rep = simulate_covert_rate(p, scheme, eta1, 10**6, seed=3000 + trial)
            worst = max(worst, abs(rate.c_avg - rep.c_hat) / rate.c_avg)
    assert worst <= 0.02
    _report(5, f"10 parameter sets per scheme, worst |quad - MC|/quad = {worst:.4f} <= 0.02",
            time.monotonic() - start, cap=120.0)


def test_criterion_6_efficiency_case_split():
    """Covertness-bound vs harvester-bound optimum for the reference setup."""
    start = time.monotonic()
    params = default_params()  # eta0 = 0.4, eta_u = 0.8

    eta1, binding = optimal_eta1(params.with_updates(epsilon=0.1))
    assert binding == BINDING_COVERTNESS
    assert abs(eta1 - ETA1_STAR_EPS01) <= 1e-6

    eta1_cap, binding_cap = optimal_eta1(params.with_updates(epsilon=0.2))
    assert binding_cap == BINDING_HARVESTER
    assert eta1_cap == 0.8

    # Claim (i): at each scheme's own optimal threshold the detection error
    # is xi*(eta0 / eta1*), which names no scheme.
    for epsilon, eta1_star in ((0.1, eta1), (0.2, eta1_cap)):
        point = params.with_updates(epsilon=epsilon)
        xi_star = min_detection_error(point.eta0 / eta1_star)
        for variant, fraction in itertools.product((TS, PS), (0.05, 0.5, 0.99)):
            scheme = SchemeConfig(variant, fraction)
            xi = detection_error(point, scheme, eta1_star, optimal_threshold(point, scheme, eta1_star)).xi
            assert abs(xi - xi_star) <= 1e-12 * xi_star
    _report(6, f"eps=0.1 -> eta1*={eta1:.6f} (covertness); eps=0.2 -> 0.8 (harvester-cap)",
            time.monotonic() - start)


def test_criterion_7_fig4_kink_and_limits():
    """Binding switch at phi_eps*eta_u, vanishing endpoints, post-kink overlap."""
    from covertrelay import solve_phi_epsilon

    start = time.monotonic()
    params = default_params()
    grid = ex.fig4_eta0_grid(params.eta_u)
    step = grid[1] - grid[0]
    rows = ex.run_fig4(params, fraction=0.5, variants=(TS, PS))
    for variant in ("ts", "ps"):
        for epsilon in (0.1, 0.2):
            sub = [r for r in rows if r["scheme"] == variant and r["epsilon"] == epsilon]
            assert len(sub) == len(grid)
            dagger = solve_phi_epsilon(epsilon) * params.eta_u
            switch = next(r["eta0"] for r in sub if r["binding"] == BINDING_HARVESTER)
            assert abs(switch - dagger) <= step
            assert sub[0]["psi_star"] <= 1e-6   # eta0 -> 0
            assert sub[-1]["psi_star"] <= 1e-6  # eta0 -> eta_u
        paired = [
            (a["psi_star"], b["psi_star"])
            for a, b in zip(
                [r for r in rows if r["scheme"] == variant and r["epsilon"] == 0.1],
                [r for r in rows if r["scheme"] == variant and r["epsilon"] == 0.2],
            )
            if a["binding"] == b["binding"] == BINDING_HARVESTER
        ]
        assert paired
        assert max(abs(a - b) for a, b in paired) <= 1e-9
    # A one-scheme run gives that scheme's rows of the two-scheme run.
    assert ex.run_fig4(params, fraction=0.5, variants=(TS,)) == [r for r in rows if r["scheme"] == "ts"]
    _report(7, "kink within one grid step, endpoints <= 1e-6, post-kink curves overlap 1e-9",
            time.monotonic() - start)


def test_criterion_8_qualitative_figure_shapes():
    """Property-based stand-ins for the unpinned published curves."""
    start = time.monotonic()
    params = default_params()

    rows3 = [r for r in ex.run_fig3(params, fraction="auto") if r["eta0"] == 0.4]
    for variant in ("ts", "ps"):
        psi = [r["psi_star"] for r in rows3 if r["scheme"] == variant]
        assert all(b >= a for a, b in zip(psi, psi[1:])), "psi* must grow with source power"
    at20 = {r["scheme"]: r["psi_star"] for r in rows3 if r["pa_dbm"] == 20.0}
    assert at20["ps"] >= at20["ts"]

    rows6 = [r for r in ex.run_fig6(params, fraction="auto") if r["pa_dbm"] == 20.0]
    for variant in ("ts", "ps"):
        psi = [r["psi_star"] for r in rows6 if r["scheme"] == variant]
        i = int(np.argmin(psi))
        assert 0 < i < len(psi) - 1, "relay placement must show an interior minimum"
    _report(8, "fig3 monotone in Pa with PS >= TS at 20 dBm; fig6 interior minimum",
            time.monotonic() - start)


def test_criterion_9_monotonicity_suites():
    """Strict growth of xi*(phi) and of the rate in the upgraded efficiency."""
    start = time.monotonic()
    params = default_params()

    grid = np.linspace(0.01, 0.99, 1000)
    xi = np.array([min_detection_error(p) for p in grid])
    assert np.all(np.diff(xi) > 0)

    rng = np.random.default_rng(1009)
    for variant in ("ts", "ps"):
        for _ in range(5):
            p = random_params(rng, params)
            scheme = SchemeConfig(variant, rng.uniform(0.2, 0.8))
            etas = np.linspace(p.eta0, p.eta_u, 20)
            psi = [average_covert_rate(p, scheme, e).psi for e in etas]
            assert all(b > a for a, b in zip(psi, psi[1:]))
    _report(9, "xi* strictly increasing (1000 pts); psi strictly increasing in eta1",
            time.monotonic() - start)


def test_criterion_10_deterministic_csv(tmp_path):
    """Identical seeds produce byte-identical CSV from every recipe."""
    start = time.monotonic()
    pairs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(["fig2", "--fraction", "0.5", "--mc-blocks", "100000",
                     "--n-tau", "51", "--seed", "11", "--out", str(out)]) == EXIT_OK
        pairs.append(out.read_bytes())
    assert pairs[0] == pairs[1]

    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["sweep", "--param", "eta0", "--linspace", "0.2", "0.6", "5",
                     "--fraction", "auto", "--seed", "11", "--out", str(out)]) == EXIT_OK
        pairs.append(out.read_bytes())
    assert pairs[2] == pairs[3]
    _report(10, "fig2 and sweep reruns byte-identical", time.monotonic() - start)
