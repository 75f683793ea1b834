import numpy as np
import pytest

from covertrelay import (
    SchemeConfig,
    average_covert_rate,
    max_effective_covert_rate,
    min_detection_error,
    optimal_eta1,
    optimize_harvest_fraction,
    simulate_covert_rate,
)
from covertrelay.rates import (
    BINDING_COVERTNESS,
    BINDING_HARVESTER,
    covertness_budget_limit,
    expected_rate_h0,
)

from conftest import random_params

# Frozen via the bisection/threshold oracle (tests/test_detection.py freezes
# the underlying phi_epsilon at 0.5796446584...).
ETA1_STAR_EPS01 = 0.6900779541
BUDGET_04_08 = 0.1268627051233097


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


def test_nonconverged_quadrature_flags(params):
    # A splitting fraction almost at 1 pushes an integrand feature below the
    # smallest quadrature node; the result must carry the flag.
    scheme = SchemeConfig.ps(0.9995)
    strong = params.with_updates(Pa=1.6)
    with pytest.warns(RuntimeWarning):
        rate = average_covert_rate(strong, scheme, 0.7)
    assert not rate.converged


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
