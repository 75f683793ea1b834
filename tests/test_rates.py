import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from covertrelay import (
    ChannelDraw,
    SchemeConfig,
    average_covert_rate,
    covert_snr,
    default_params,
    max_effective_covert_rate,
    min_detection_error,
    optimal_eta1,
    optimize_harvest_fraction,
    simulate_covert_rate,
)
from covertrelay.params import dbm_to_watts
from covertrelay.rates import (
    BINDING_COVERTNESS,
    BINDING_HARVESTER,
    QUAD_ERROR_LIMIT,
    covertness_budget_limit,
    expected_rate_h0,
)

from conftest import random_params

# Frozen via the bisection/threshold oracle (tests/test_detection.py freezes
# the underlying phi_epsilon at 0.5796446584...).
ETA1_STAR_EPS01 = 0.6900779541
BUDGET_04_08 = 0.1268627051233097

ORACLE_REFS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "oracle_refs.json"


def oracle_probes():
    return json.loads(ORACLE_REFS.read_text(encoding="utf-8"))["probes"]


def test_average_rate_zero_without_surplus(params, ts, ps):
    for scheme in (ts, ps):
        rate = average_covert_rate(params, scheme, params.eta0)
        assert rate.c_avg == 0.0
        assert rate.psi == 0.0
        assert rate.quad_error == 0.0
        assert rate.converged


def test_average_rate_against_monte_carlo(params, ts, ps):
    for scheme in (ts, ps):
        rate = average_covert_rate(params, scheme, 0.7)
        rep = simulate_covert_rate(params, scheme, 0.7, 10**6, seed=77)
        assert abs(rate.c_avg - rep.c_hat) / rate.c_avg <= 0.01
        assert rate.converged


def test_average_rate_vanishing_downlink(params, ts):
    rate = average_covert_rate(params.with_updates(lambda_rb=1e-12), ts, 0.7)
    assert rate.c_avg < 1e-9


def test_effective_rate_prefactors(params):
    ts = SchemeConfig.ts(0.5)
    rate = average_covert_rate(params, ts, 0.7)
    assert rate.psi == pytest.approx(0.25 * rate.c_avg, rel=1e-12)
    ts2 = SchemeConfig.ts(0.2)
    rate = average_covert_rate(params, ts2, 0.7)
    assert rate.psi == pytest.approx(0.4 * rate.c_avg, rel=1e-12)
    ps = SchemeConfig.ps(0.7)
    rate = average_covert_rate(params, ps, 0.7)
    assert rate.psi == pytest.approx(0.5 * rate.c_avg, rel=1e-12)


def _exponential_mean(f, lam):
    """E[f(X)], X ~ Exp(mean lam), by scipy quad over X = lam * e^t."""
    val, _ = integrate.quad(
        lambda t: f(lam * math.exp(t)) * math.exp(t - math.exp(t)), -40.0, 5.0,
        epsabs=1e-13, epsrel=1e-10, limit=200,
    )
    return val


def test_extreme_split_corner_meets_budget(params):
    # A splitting fraction almost at 1 puts the AF chain's noise-to-signal
    # turnover at g_ar ~ 2e-3, below the nodes of a Gauss-Laguerre rule.
    # Reference: nested adaptive quadrature of the allocation route
    # (covert_snr), independent of the closed-form inner expectation.
    scheme = SchemeConfig.ps(0.9995)
    strong = params.with_updates(Pa=1.6)
    rate = average_covert_rate(strong, scheme, 0.7)

    def covert(g_ar, g_rb):
        return math.log2(1.0 + covert_snr(strong, scheme, 0.7, ChannelDraw(g_ar, g_rb)))

    ref = _exponential_mean(
        lambda g_ar: _exponential_mean(lambda g_rb: covert(g_ar, g_rb), strong.lambda_rb), strong.lambda_ar
    )
    assert rate.converged
    assert abs(rate.c_avg - ref) / ref <= QUAD_ERROR_LIMIT


@pytest.mark.parametrize("variant", ["ts", "ps"])
@pytest.mark.parametrize("surplus", [1e-9, 1e-12])
def test_small_surplus_is_flat_or_flagged(params, variant, surplus):
    # C(delta) is linear in the surplus delta = eta1 - eta0 to first order;
    # where the closed form's signed sum cancels, the rounding bound in
    # quad_error must report it. At 1e-12 it does: the flag path.
    scheme = SchemeConfig(variant, 0.5)
    slope = average_covert_rate(params, scheme, params.eta0 + 1e-7).c_avg / 1e-7
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rate = average_covert_rate(params, scheme, params.eta0 + surplus)
    deviation = abs(rate.c_avg / surplus - slope) / slope
    if rate.converged:
        assert deviation <= QUAD_ERROR_LIMIT
        assert not caught
    else:
        assert deviation <= rate.quad_error
        assert [w.category for w in caught] == [RuntimeWarning]
    if surplus == 1e-12:
        assert not rate.converged


@pytest.mark.parametrize("entry", oracle_probes(), ids=lambda e: e["name"])
def test_rates_match_mpmath_references(entry):
    # Committed dps-30 mpmath references (benchmarks/oracle.py), built from
    # the power allocation rather than the rational forms used here.
    params = default_params().with_updates(**{k: float(v) for k, v in entry["params_si"].items()})
    scheme = SchemeConfig(entry["scheme"], entry["fraction"])
    rate = average_covert_rate(params, scheme, entry["eta1"])
    c_ref = float(entry["average_covert_rate"])
    h_ref = float(entry["expected_rate_h0"])
    assert abs(rate.c_avg - c_ref) / c_ref <= 1e-10
    assert abs(expected_rate_h0(params, scheme) - h_ref) / h_ref <= 1e-10
    assert rate.converged


def test_optimal_eta1_case_split(params):
    p1 = params.with_updates(epsilon=0.1)
    eta1, binding = optimal_eta1(p1)
    assert binding == BINDING_COVERTNESS
    assert eta1 == pytest.approx(ETA1_STAR_EPS01, abs=1e-6)

    p2 = params.with_updates(epsilon=0.2)
    eta1, binding = optimal_eta1(p2)
    assert binding == BINDING_HARVESTER
    assert eta1 == params.eta_u


def test_optimal_eta1_limits(params):
    eta1, binding = optimal_eta1(params.with_updates(epsilon=0.0))
    assert eta1 == params.eta0 and binding == BINDING_COVERTNESS

    degenerate = params.with_updates(eta0=0.8, eta_u=0.8)
    eta1, binding = optimal_eta1(degenerate)
    assert eta1 == 0.8 and binding == BINDING_HARVESTER


def test_budget_limit_value_and_identity(params):
    budget = covertness_budget_limit(0.4, 0.8)
    assert budget == pytest.approx(BUDGET_04_08, abs=1e-12)
    # Consistency with the minimum-error expression at the efficiency cap.
    for eta0, eta_u in [(0.4, 0.8), (0.1, 0.9), (0.55, 0.6)]:
        assert covertness_budget_limit(eta0, eta_u) == pytest.approx(
            1.0 - min_detection_error(eta0 / eta_u), abs=1e-12
        )


def test_max_effective_rate_monotone_in_epsilon(params, ts):
    psi = [
        max_effective_covert_rate(params.with_updates(epsilon=e), ts).psi_star
        for e in (1e-6, 0.05, 0.1)
    ]
    assert psi[0] < 1e-5
    assert psi[0] <= psi[1] <= psi[2]


def test_max_effective_rate_plateau_beyond_budget(params, ts, ps):
    # Both epsilons exceed the budget limit: the harvester cap binds and the
    # achieved rate is identical.
    for scheme in (ts, ps):
        hi1 = max_effective_covert_rate(params.with_updates(epsilon=0.2), scheme)
        hi2 = max_effective_covert_rate(params.with_updates(epsilon=0.5), scheme)
        assert hi1.binding == hi2.binding == BINDING_HARVESTER
        assert abs(hi1.psi_star - hi2.psi_star) <= 1e-12 * max(hi1.psi_star, 1e-300)


def test_eta1_star_scheme_independent(params, ts, ps):
    out_ts = max_effective_covert_rate(params, ts)
    out_ps = max_effective_covert_rate(params, ps)
    assert abs(out_ts.eta1_star - out_ps.eta1_star) <= 1e-12


def test_psi_increasing_in_eta1(params, ts, ps):
    rng = np.random.default_rng(11)
    for scheme in (ts, ps):
        for _ in range(5):
            p = random_params(rng, params)
            etas = np.linspace(p.eta0, p.eta_u, 20)
            psi = [average_covert_rate(p, scheme, e).psi for e in etas]
            assert all(b > a for a, b in zip(psi, psi[1:]))


def test_psi_star_nondecreasing_in_pa(params, ts):
    psi = [
        max_effective_covert_rate(params.with_updates(Pa=pa), ts).psi_star
        for pa in (0.001, 0.01, 0.1, 1.0)
    ]
    assert all(b >= a for a, b in zip(psi, psi[1:]))


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_optimize_harvest_fraction_local_optimum(params, variant):
    best = optimize_harvest_fraction(params, variant)
    assert 0.0 < best < 1.0

    def objective(f):
        scheme = SchemeConfig(variant, f)
        pre = (1.0 - f) / 2.0 if variant == "ts" else 0.5
        return pre * expected_rate_h0(params, scheme)

    j_best = objective(best)
    for delta in (-0.01, 0.01):
        probe = min(max(best + delta, 1e-4), 1.0 - 1e-4)
        assert j_best >= objective(probe) - 1e-12
    # deterministic search
    assert optimize_harvest_fraction(params, variant) == best


def test_ts_objective_vanishes_at_boundaries(params):
    def objective(f):
        return (1.0 - f) / 2.0 * expected_rate_h0(params, SchemeConfig.ts(f))

    interior = objective(optimize_harvest_fraction(params, "ts"))
    assert objective(1e-6) < 1e-3 * interior
    assert objective(1.0 - 1e-9) < 1e-3 * interior


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_quadrature_vs_monte_carlo_random_sets(params, variant):
    rng = np.random.default_rng(21 if variant == "ts" else 22)
    for trial in range(3):
        p = random_params(rng, params)
        scheme = SchemeConfig(variant, rng.uniform(0.2, 0.8))
        eta1 = rng.uniform(p.eta0 + 0.05 * (p.eta_u - p.eta0), p.eta_u)
        rate = average_covert_rate(p, scheme, eta1)
        rep = simulate_covert_rate(p, scheme, eta1, 10**5, seed=100 + trial)
        assert abs(rate.c_avg - rep.c_hat) / rate.c_avg <= 0.02


# The benchmark domain (config units), as in benchmarks/workloads.py.
domain_params = st.builds(
    lambda pa, d_ar, d_rb, lam_ar, lam_rb, eta_u, u: default_params(
        Pa=dbm_to_watts(pa), d_ar=d_ar, d_rb=d_rb, lambda_ar=lam_ar, lambda_rb=lam_rb,
        eta_u=eta_u, eta0=0.05 + u * (eta_u - 0.1),
    ),
    st.floats(-10.0, 32.0), st.floats(2.0, 18.0), st.floats(2.0, 18.0),
    st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.6, 0.9), st.floats(0.0, 1.0),
)


@pytest.mark.parametrize("variant", ["ts", "ps"])
@settings(max_examples=12, deadline=None)
@given(p=domain_params)
def test_optimized_fraction_beats_fine_grid(variant, p):
    # optimize_harvest_fraction is a local search: it relies on the
    # objective having a single peak (proved for TS in its docstring).
    def objective(f):
        scheme = SchemeConfig(variant, f)
        pre = (1.0 - f) / 2.0 if variant == "ts" else 0.5
        return pre * expected_rate_h0(p, scheme)

    f_star = optimize_harvest_fraction(p, variant)
    grid = np.linspace(0.001, 0.999, 999)  # ends at the search bounds
    values = [objective(f) for f in grid]
    peak = int(np.argmax(values))
    if objective(f_star) < values[peak] * (1.0 - 1e-12):
        # Only when still rising at a search bound (PS at high SNR): the
        # search stops within its tolerance of the bound, never on it.
        assert peak in (0, grid.size - 1)
        assert abs(f_star - grid[peak]) <= 1e-5
