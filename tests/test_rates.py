import itertools
import json
import math
import pathlib
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize

from covertrelay import (
    ChannelDraw,
    SchemeConfig,
    average_covert_rate,
    covert_snr,
    covert_snr_reduced,
    default_params,
    detection_error,
    min_detection_error,
    optimal_eta1,
    optimal_threshold,
    simulate_covert_rate,
    snr_h0,
)
from covertrelay import rates
from covertrelay.experiments import FIG4_EPSILONS, fig4_eta0_grid, run_fig4
from covertrelay.params import PS, TS, dbm_to_watts, effective_rate_prefactor
from covertrelay.rates import (
    _ASYMPTOTIC_Z,
    _H_PAIR_INACCURATE_Z,
    _H_PAIR_REL_ERR,
    _H_REL_ERR,
    _NEAR_EDGES,
    _OUTER_EXP_T,
    _OUTER_W,
    _h,
    BINDING_COVERTNESS,
    BINDING_HARVESTER,
    QUAD_ERROR_LIMIT,
    RateResult,
    average_covert_rates,
    covertness_budget_limit,
    expected_rate_h0,
    lane_values,
    optimize_harvest_fractions,
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
    ts = SchemeConfig(TS, 0.5)
    rate = average_covert_rate(params, ts, 0.7)
    assert rate.psi == pytest.approx(0.25 * rate.c_avg, rel=1e-12)
    ts2 = SchemeConfig(TS, 0.2)
    rate = average_covert_rate(params, ts2, 0.7)
    assert rate.psi == pytest.approx(0.4 * rate.c_avg, rel=1e-12)
    ps = SchemeConfig(PS, 0.7)
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
    scheme = SchemeConfig(PS, 0.9995)
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

    # eta0 == eta_u: a budget limit of 0 leaves only the cap, epsilon = 0 included.
    for epsilon in (0.0, 0.1, 1.0):
        eta1, binding = optimal_eta1(params.with_updates(eta0=0.8, eta_u=0.8, epsilon=epsilon))
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
    points = [params.with_updates(epsilon=e) for e in (1e-6, 0.05, 0.1)]
    psi = [average_covert_rate(p, ts, optimal_eta1(p)[0]).psi for p in points]
    assert psi[0] < 1e-5
    assert psi[0] <= psi[1] <= psi[2]


def test_max_effective_rate_plateau_beyond_budget(params, ts, ps):
    # Both epsilons exceed the budget limit: the harvester cap binds and the
    # achieved rate is identical.
    points = [params.with_updates(epsilon=e) for e in (0.2, 0.5)]
    assert [optimal_eta1(p)[1] for p in points] == [BINDING_HARVESTER] * 2
    for scheme in (ts, ps):
        psi1, psi2 = (average_covert_rate(p, scheme, optimal_eta1(p)[0]).psi for p in points)
        assert abs(psi1 - psi2) <= 1e-12 * max(psi1, 1e-300)




def test_psi_increasing_in_eta1(params, ts, ps):
    rng = np.random.default_rng(11)
    for scheme in (ts, ps):
        for _ in range(5):
            p = random_params(rng, params)
            etas = np.linspace(p.eta0, p.eta_u, 20)
            psi = [average_covert_rate(p, scheme, e).psi for e in etas]
            assert all(b > a for a, b in zip(psi, psi[1:]))


def test_psi_star_nondecreasing_in_pa(params, ts):
    points = [params.with_updates(Pa=pa) for pa in (0.001, 0.01, 0.1, 1.0)]
    psi = [average_covert_rate(p, ts, optimal_eta1(p)[0]).psi for p in points]
    assert all(b >= a for a, b in zip(psi, psi[1:]))


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_optimize_harvest_fraction_local_optimum(params, variant):
    best = optimize_harvest_fractions(lane_values([params]), variant)[0]
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
    assert optimize_harvest_fractions(lane_values([params]), variant)[0] == best


def _power_scaled(p, k):
    """p with Pa and all five noise variances times k."""
    return p.with_updates(Pa=p.Pa * k, **{key: getattr(p, key) * k for key in (
        "sigma2_ra", "sigma2_rc", "sigma2_ba", "sigma2_bc", "sigma2_a")})


@pytest.mark.parametrize("shift_db", [-1600.0, -300.0, 300.0, 1700.0])
def test_fraction_search_does_not_depend_on_the_power_unit(params, shift_db):
    # Pa and all five noise variances scaled by one factor leave every SNR,
    # and so the optimal fractions, unchanged up to rounding.
    scaled = _power_scaled(params, 10.0 ** (shift_db / 10.0))
    for variant in ("ts", "ps"):
        want = optimize_harvest_fractions(lane_values([params]), variant)[0]
        assert optimize_harvest_fractions(lane_values([scaled]), variant)[0] == pytest.approx(want, rel=1e-14, abs=0)


def test_ts_objective_vanishes_at_boundaries(params):
    def objective(f):
        return (1.0 - f) / 2.0 * expected_rate_h0(params, SchemeConfig(TS, f))

    interior = objective(optimize_harvest_fractions(lane_values([params]), "ts")[0])
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
DOMAIN = {"Pa": (-10.0, 32.0), "d_ar": (2.0, 18.0), "d_rb": (2.0, 18.0), "lambda_ar": (0.5, 2.0),
          "lambda_rb": (0.5, 2.0), "eta_u": (0.6, 0.9)}


def _domain_point(pa, d_ar, d_rb, lambda_ar, lambda_rb, eta_u, u):
    """Config-unit domain values as params, with eta0 a share u of [0.05, eta_u - 0.05]."""
    return default_params(Pa=dbm_to_watts(pa), d_ar=d_ar, d_rb=d_rb, lambda_ar=lambda_ar, lambda_rb=lambda_rb,
                          eta_u=eta_u, eta0=0.05 + u * (eta_u - 0.1))


domain_params = st.builds(_domain_point, *(st.floats(*r) for r in DOMAIN.values()), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(p=domain_params, epsilon=st.floats(0.01, 0.5), fractions=st.tuples(*[st.floats(0.05, 0.99)] * 2))
def test_min_detection_error_is_the_same_for_both_schemes(p, epsilon, fractions):
    # The paper's claim (i): at each scheme's own optimal threshold the
    # detection error is xi*(eta0 / eta1*), which names no scheme. Over 300
    # random domain configs the worst relative difference was 3.3e-16.
    p = p.with_updates(epsilon=epsilon)
    eta1 = optimal_eta1(p)[0]
    xi_star = min_detection_error(p.eta0 / eta1)
    for variant, fraction in zip((TS, PS), fractions):
        scheme = SchemeConfig(variant, fraction)
        xi = detection_error(p, scheme, eta1, optimal_threshold(p, scheme, eta1)).xi
        assert abs(xi - xi_star) <= 1e-12 * xi_star


def _mixed_start_points(p):
    """p at Pa = -10 and 60 dBm: lanes whose outer rules start at different nodes."""
    return [p.with_updates(Pa=dbm_to_watts(-10.0)), p.with_updates(Pa=dbm_to_watts(60.0))]


@pytest.mark.parametrize("variant", ["ts", "ps"])
@settings(max_examples=12, deadline=None)
@given(p=domain_params)
def test_optimized_fraction_beats_fine_grid(variant, p):
    # optimize_harvest_fractions is a local search: it relies on the
    # objective having a single peak (proved for TS in its docstring).
    def objective(f):
        scheme = SchemeConfig(variant, f)
        pre = (1.0 - f) / 2.0 if variant == "ts" else 0.5
        return pre * expected_rate_h0(p, scheme)

    f_star = optimize_harvest_fractions(lane_values([p]), variant)[0]
    grid = np.linspace(0.001, 0.999, 999)  # ends at the search bounds
    values = [objective(f) for f in grid]
    peak = int(np.argmax(values))
    if objective(f_star) < values[peak] * (1.0 - 1e-12):
        # Only when still rising at a search bound (PS at high SNR): the
        # search then returns that bound.
        assert peak in (0, grid.size - 1)
        assert abs(f_star - grid[peak]) <= 1e-5


def _fraction_objective(p, variant):
    """The one-point objective J(f) the search maximizes."""
    def objective(f):
        scheme = SchemeConfig(variant, f)
        return effective_rate_prefactor(scheme) * expected_rate_h0(p, scheme)

    return objective


def _scipy_fraction(objective):
    """scipy's bounded Brent on J, to 1e-10 in the fraction: the independent reference."""
    return optimize.minimize_scalar(
        lambda f: -objective(f), bounds=(1e-3, 1.0 - 1e-3), method="bounded", options={"xatol": 1e-10}
    ).x


# fig4's edge lanes: eta0 one step (1e-6) from either end of (0, eta_u).
edge_params = st.builds(
    lambda p, low: p.with_updates(eta0=1e-6 if low else p.eta_u - 1e-6), domain_params, st.booleans())


@pytest.mark.parametrize("variant", ["ts", "ps"])
@settings(max_examples=15, deadline=None)
@given(points=st.lists(st.one_of(domain_params, edge_params), min_size=1, max_size=6))
def test_lane_search_reaches_scipy_bounded_brent(variant, points):
    # Mixed parameter points in one call, with lanes whose outer rules start
    # at different nodes and a repeated point: no lane may end lower in J
    # than a tight bounded Brent, and each lane equals its one-lane call.
    points = [*points, *_mixed_start_points(points[0]), points[0]]
    got = optimize_harvest_fractions(lane_values(points), variant)
    for p, f in zip(points, got):
        objective = _fraction_objective(p, variant)
        assert objective(f) >= (1.0 - 1e-12) * objective(_scipy_fraction(objective))
    assert [optimize_harvest_fractions(lane_values([p]), variant)[0] for p in points] == got.tolist()


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_lane_search_evaluations_on_fig4_grid(params, variant, monkeypatch):
    # fig4's 400 points differ in epsilon, which the objective ignores, so
    # they make 200 lanes, searched in blocks; each iteration evaluates the
    # block's lanes still open. Evaluations are counted per block.
    blocks = []
    search, slopes = rates._newton_search, rates._h0_slopes

    def block(lanes, variant, n):
        blocks.append([])
        return search(lanes, variant, n)

    def counted(lanes, variant, f):
        blocks[-1].append(len(f))
        return slopes(lanes, variant, f)

    monkeypatch.setattr(rates, "_newton_search", block)
    monkeypatch.setattr(rates, "_h0_slopes", counted)
    points = [params.with_updates(eta0=float(eta0), epsilon=eps)
              for eps in FIG4_EPSILONS for eta0 in fig4_eta0_grid(params.eta_u)]
    optimize_harvest_fractions(lane_values(points), variant)
    assert sum(evaluated[0] for evaluated in blocks) == 200
    assert sum(map(sum, blocks)) / 200 <= 7.0


# Scale invariances. Every SNR is a ratio of powers, so two maps of a point
# change no output beyond rounding: (P) Pa and all five noise variances
# times k = 10^(dB/10), which scales the optimal threshold by k, and (G)
# lambda_ar times g with d_ar times sqrt(g), which at m = 2 divides L_ar by g.
def _scaled(p, invariance, s):
    """p mapped by invariance P (dB = 300 s) or G (g = 10^(6 s)), and the factor tau* scales by."""
    if invariance == "P":
        k = 10.0 ** (30.0 * s)
        return _power_scaled(p, k), k
    g = 10.0 ** (6.0 * s)
    return p.with_updates(lambda_ar=p.lambda_ar * g, d_ar=p.d_ar * math.sqrt(g)), 1.0


def _invariant_outputs(p, variant, fraction, eta1):
    """One-point and lane c_avg, the optimal fraction, tau* and the Monte Carlo c_hat at one seed."""
    scheme = SchemeConfig(variant, fraction)
    lanes = lane_values([p])
    return (average_covert_rate(p, scheme, eta1).c_avg,
            average_covert_rates(lanes, variant, [fraction], [eta1])[0].c_avg,
            optimize_harvest_fractions(lanes, variant)[0],
            optimal_threshold(p, scheme, eta1),
            simulate_covert_rate(p, scheme, eta1, 1000, seed=3).c_hat)


@pytest.mark.parametrize("invariance", ["P", "G"])
@settings(max_examples=80, deadline=None)
@given(p=domain_params, s=st.floats(-1.0, 1.0), variant=st.sampled_from([TS, PS]),
       fraction=st.floats(0.05, 0.95), u=st.floats(0.0, 1.0))
def test_outputs_are_scale_invariant(invariance, p, s, variant, fraction, u):
    # Over 600 draws per map, c_avg moved by up to 2.7e-14 relative, growing
    # like eta1 / (eta1 - eta0): the signed h-sum cancels to the size of the
    # surplus (ROADMAP item 2). Nothing else moved by more than 3.7e-15.
    eta1 = p.eta0 + 1e-3 + u * (p.eta_u - p.eta0 - 1e-3)
    scaled, k = _scaled(p, invariance, s)
    want = _invariant_outputs(p, variant, fraction, eta1)
    got = _invariant_outputs(scaled, variant, fraction, eta1)
    c_tol = 4e-15 * eta1 / (eta1 - p.eta0)
    for name, a, b, tol in zip(("c_avg", "c_avg lane", "fraction", "tau*", "c_hat"),
                               got, want, (c_tol, c_tol, 1e-14, 1e-14, 1e-14)):
        if name == "tau*":
            a /= k
        assert abs(a - b) <= tol * abs(b), (name, a, b)


def _h_mpmath(z) -> complex:
    """h(z) = e^z E1(z) at 40 digits."""
    with mpmath.workdps(40):
        arg = mpmath.mpc(z.real, z.imag) if isinstance(z, complex) else mpmath.mpf(z)
        return complex(mpmath.exp(arg) * mpmath.e1(arg))


def _one_ulp_around(edges):
    return np.concatenate([[np.nextafter(e, 0.0), e, np.nextafter(e, np.inf)] for e in edges])


def test_h_real_matches_mpmath():
    # Log-spaced over the double range, plus each branch and band edge and
    # one ulp either side of it.
    z = np.concatenate([np.geomspace(1e-300, 1e300, 3001), _one_ulp_around([*_NEAR_EDGES, _ASYMPTOTIC_Z])])
    ref = np.array([_h_mpmath(float(x)).real for x in z])
    assert np.max(np.abs(_h(z) - ref) / ref) <= 1e-15


def test_h_complex_matches_mpmath():
    # Re z > 0 with |z| log-uniform in [1e-6, 1e6], plus the series/continued
    # fraction edge |z| = 1 near the imaginary axis, where the fraction
    # converges slowest.
    rng = np.random.default_rng(5)
    mag = np.concatenate([np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 2000)), _one_ulp_around([1.0])])
    arg = np.concatenate([rng.uniform(-1.0, 1.0, 2000), [1.0 - 1e-9, -(1.0 - 1e-9), 0.5]]) * (math.pi / 2)
    z = mag * np.exp(1j * arg)
    ref = np.array([_h_mpmath(complex(x)) for x in z])
    err = np.abs(_h(z) - ref) / np.abs(ref)
    allowed = np.where(np.abs(z) < _H_PAIR_INACCURATE_Z, _H_PAIR_REL_ERR, _H_REL_ERR)
    assert (err <= allowed).all()


def test_h_at_infinity_and_its_slopes():
    # z = inf arises where a node's SNR underflows to zero: no rate, no slope.
    assert _h(np.array([np.inf])).tolist() == [0.0]
    assert [part.tolist() for part in _h(np.array([np.inf]), slopes=True)] == [[0.0], [0.0], [0.0]]


def test_h_slopes_in_asymptotic_branch():
    # z h - 1 ~ -1/z is summed from the series, not from z h: it keeps its
    # relative accuracy where z h rounds to 1. The slopes call returns the
    # same h.
    z = np.concatenate([np.geomspace(_ASYMPTOTIC_Z, 1e300, 61), _one_ulp_around([_ASYMPTOTIC_Z])[1:]])
    h, zh1, _ = _h(z, slopes=True)
    assert (h == _h(z)).all()
    for x, got in zip(z, zh1):
        with mpmath.workdps(40 + int(math.log10(x))):
            arg = mpmath.mpf(float(x))
            ref = arg * mpmath.exp(arg) * mpmath.e1(arg) - 1
            assert abs((got - ref) / ref) <= 1e-14


def _rates_and_warning_count(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    assert all(w.category is RuntimeWarning for w in caught)
    return out, len(caught)


@pytest.mark.parametrize("variant", ["ts", "ps"])
@settings(max_examples=15, deadline=None)
@given(points=st.lists(domain_params, min_size=1, max_size=6), data=st.data())
def test_batched_covert_rate_equals_one_point_calls(variant, points, data):
    # Lanes whose outer rules start at different nodes, and the last lane
    # repeats the first.
    points = [*points, *_mixed_start_points(points[0])]
    fractions = [data.draw(st.floats(0.01, 0.99)) for _ in points]
    eta1s = [data.draw(st.floats(p.eta0, p.eta_u)) for p in points]
    points, fractions, eta1s = ([*x, x[0]] for x in (points, fractions, eta1s))
    batched, n_batched = _rates_and_warning_count(
        lambda: average_covert_rates(lane_values(points), variant, fractions, eta1s))
    single, n_single = _rates_and_warning_count(lambda: [
        average_covert_rate(p, SchemeConfig(variant, f), e) for p, f, e in zip(points, fractions, eta1s)
    ])
    assert batched == single
    assert n_batched == min(n_single, 1)  # one warning covers every flagged lane


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_lane_blocks_do_not_change_results(params, variant, monkeypatch):
    # Blocks of 3 distinct lanes: 8 points (7 with a surplus) make 3 blocks
    # in each call. Lanes whose rules start at different nodes, an eta1 ==
    # eta0 lane, a flagged lane, and the second point repeated at the end,
    # two block boundaries after its first use.
    monkeypatch.setattr(rates, "_LANE_BLOCK", 3)
    block_lanes = []
    lanes_of = rates._lanes

    def counted(values):
        block_lanes.append(len(values))
        return lanes_of(values)

    monkeypatch.setattr(rates, "_lanes", counted)
    points = [*_mixed_start_points(params), params, params.with_updates(d_ar=4.0),
              params.with_updates(Pa=1.6, eta0=0.3), params.with_updates(lambda_rb=2.0),
              params.with_updates(d_rb=14.0), params.with_updates(eta0=0.2)]
    fractions = [0.5, 0.3, 0.9, 0.5, 0.3, 0.7, 0.1, 0.6]
    eta1s = [0.7, 0.75, params.eta0 + 1e-12, 0.8, 0.3, 0.7, 0.65, 0.5]  # flagged lane 2, eta1 == eta0 in lane 4
    points, fractions, eta1s = ([*x, x[1]] for x in (points, fractions, eta1s))
    batched, n_batched = _rates_and_warning_count(
        lambda: average_covert_rates(lane_values(points), variant, fractions, eta1s))
    single, n_single = _rates_and_warning_count(lambda: [
        average_covert_rate(p, SchemeConfig(variant, f), e) for p, f, e in zip(points, fractions, eta1s)
    ])
    assert block_lanes == [3, 3, 1]
    assert batched == single
    assert n_batched == n_single == 1
    assert [r.converged for r in batched].count(False) == 1
    block_lanes.clear()
    searched = optimize_harvest_fractions(lane_values(points), variant)
    assert block_lanes == [3, 3, 2]
    assert [optimize_harvest_fractions(lane_values([p]), variant)[0] for p in points] == searched.tolist()


@pytest.mark.parametrize("kernel", ["average_covert_rates", "optimize_harvest_fractions"])
def test_lane_kernels_stay_small(params, kernel):
    # Blocks bound a call's temporaries: from 400 to 4000 lanes only the
    # per-lane keys and results grow. Without blocks the peak grew tenfold
    # (80 MiB for the TS covert rates, 70 MiB for the PS search at 4000).
    def peak(n):
        lanes = lane_values([params.with_updates(eta0=float(e)) for e in np.linspace(1e-3, params.eta_u, n)])
        run = {
            "average_covert_rates": lambda: average_covert_rates(lanes, TS, [0.5] * n, [params.eta_u] * n),
            "optimize_harvest_fractions": lambda: optimize_harvest_fractions(lanes, PS),
        }[kernel]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    small, large = peak(400), peak(4000)
    assert large <= 4 * 2**20
    assert large <= 1.5 * small


def test_a_nan_quad_error_is_flagged_by_both_entry_points():
    # At fc = 1e-30 Hz the rate overflows and its error is NaN, which is not
    # converged: the one-point and the lane call both warn about it.
    p = default_params(fc=1e-30)
    calls = [lambda: average_covert_rate(p, SchemeConfig(TS, 0.5), 0.8),
             lambda: average_covert_rates(lane_values([p]), TS, [0.5], [0.8])[0]]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        assert math.isnan(result.quad_error) and not result.converged
        assert any("covert-rate quadrature" in str(w.message) for w in caught)


def test_lane_fractions_are_checked_before_any_evaluation(params):
    # A fraction of 1.5 would reach np.log through a negative PS share first.
    with pytest.raises(ValueError, match=r"^fraction must lie in \(0, 1\), got \[1.5\]$"):
        average_covert_rates(lane_values([params, params]), "ps", [0.5, 1.5], [0.7, 0.7])
    with pytest.raises(ValueError, match="variant must be"):
        average_covert_rates(lane_values([params]), "xx", [0.5], [0.7])
    with pytest.raises(ValueError, match="variant must be"):
        optimize_harvest_fractions(lane_values([params]), "xx")


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_batched_covert_rate_branches(params, variant):
    points = [params, params.with_updates(Pa=1.6, eta0=0.3), params, params.with_updates(d_ar=4.0)]
    fractions = [0.5, 0.3, 0.5, 0.9]
    eta1s = [0.7, 0.3, params.eta0 + 1e-12, 0.8]  # eta1 == eta0 in lane 1, flagged surplus in lane 2
    with pytest.warns(RuntimeWarning) as caught:
        batched = average_covert_rates(lane_values(points), variant, fractions, eta1s)
    assert len(caught) == 1
    assert batched[1] == RateResult(c_avg=0.0, psi=0.0, quad_error=0.0)
    assert [r.converged for r in batched] == [True, True, False, True]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert batched == [
            average_covert_rate(p, SchemeConfig(variant, f), e) for p, f, e in zip(points, fractions, eta1s)
        ]
    # Lane 0 takes both root branches: complex denominator roots at weak
    # uplink nodes, real ones at strong nodes.
    p, dp, r = rates._downlink_coefficients(
        params, SchemeConfig(variant, 0.5), 0.7, ChannelDraw(params.lambda_ar * _OUTER_EXP_T, params.lambda_rb))
    disc = (p * (1.0 - r)) ** 2 - 4.0 * r * p * dp
    assert (disc < 0).any() and (disc >= 0).any()


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
        cp, cdp, cr = rates._downlink_coefficients(p, scheme, eta1, ChannelDraw(g_ar=draw.g_ar, g_rb=1.0))
        x = draw.g_rb
        covert = cdp * x / (1.0 + cp * (1.0 + cr) * x + cr * cp * (cp + cdp) * x ** 2)
        op, odp, o_r = rates._downlink_coefficients(p, scheme, eta1, draw)
        covert_own = odp / (1.0 + op * (1.0 + o_r) + o_r * op * (op + odp))
        reduced = covert_snr_reduced(p, scheme, eta1, draw)
        assert np.max(np.abs(covert - reduced) / reduced) <= 1e-13
        assert np.max(np.abs(covert_own - reduced) / reduced) <= 1e-13
        # snr_h0 itself carries 1 - r, which cancels for s << s2r; the rate
        # integrates log(1 + snr_h0) = log((1 + p x) / (1 + p r x)).
        ratio = (1.0 + cp * x) / (1.0 + cp * cr * x)
        assert np.max(np.abs(ratio / (1.0 + snr_h0(p, scheme, draw)) - 1.0)) <= 1e-13


@pytest.mark.parametrize("dtype", [float, complex])
def test_h_keeps_the_shape_of_its_argument(dtype):
    # Every element near (no asymptotic branch), and one far.
    near = np.geomspace(0.5, 400.0, 12).reshape(3, 4).astype(dtype)
    far = near.copy()
    far[0, 0] = 1e3
    for z in (near, far):
        flat = [_h(z.ravel())] if dtype is complex else [_h(z.ravel()), *_h(z.ravel(), slopes=True)]
        got = [_h(z)] if dtype is complex else [_h(z), *_h(z, slopes=True)]
        for part, ref in zip(got, flat):
            assert part.shape == z.shape
            assert (part.ravel() == ref).all()


def test_fraction_search_at_a_carrier_where_every_h_is_near():
    # At fc = 1e-24 Hz a search step can put every h0 root below the
    # asymptotic branch, where _h once returned h flattened and the row
    # sums failed.
    for variant in (TS, PS):
        f = optimize_harvest_fractions(lane_values([default_params(fc=1e-24)]), variant)[0]
        assert 1e-3 <= f <= 1.0 - 1e-3


def _rule_scan_params():
    """The domain's corners, eta0 low or high in turn, and extreme but realistic configs.

    The high eta0 leaves room for a surplus of 0.1 below eta_u.
    """
    corners = [_domain_point(*values, 0.8 * (i % 2)) for i, values in enumerate(itertools.product(*DOMAIN.values()))]
    extremes = [{"Pa": dbm_to_watts(pa)} for pa in (60.0, 100.0, 150.0, 200.0)]
    extremes += [{"d_ar": 1e-3}, {"fc": 1e6}, {"sigma2_ba": dbm_to_watts(-200.0)}]
    return corners + [default_params(**e) for e in extremes]


def _full_rule_coefficients(p, scheme, eta1):
    """The covert and the h0 (eta0) downlink coefficients on all outer nodes."""
    return [rates._downlink_coefficients(p, scheme, e, rates._outer_nodes(p)) for e in (eta1, p.eta0)]


def _starts(p, scheme, eta1):
    """(covert start, its tail bound), and the h0 start."""
    c, (p0, _, r0) = _full_rule_coefficients(p, scheme, eta1)
    covert = rates._covert_start(*(x[rates._PROBE].tolist() for x in c))
    return covert, rates._h0_start(p0[rates._PROBE], r0[rates._PROBE])


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_outer_rule_start_is_sound(variant):
    # Against the full 201-node rule: the nodes before a lane's start add at
    # most the tail bound reported in quad_error, and that bound is within
    # 1e-17 of the sum. The same holds for the h0 rate's start. At low SNR
    # a node's value is almost its bound, so the computed dropped sum is
    # allowed its rounding bound too.
    for p, fraction in itertools.product(_rule_scan_params(), (0.05, 0.5, 0.95)):
        scheme = SchemeConfig(variant, fraction)
        for surplus in (1e-1, 1e-6):
            eta1 = p.eta0 + surplus
            c, (p0, _, r0) = _full_rule_coefficients(p, scheme, eta1)
            (start, tail), h0_start = _starts(p, scheme, eta1)
            h_values = np.subtract(*np.split(rates._h0_roots(p0, r0), 2))
            assert abs(_OUTER_W[:h0_start] @ h_values[:h0_start]) <= 1e-17 * (_OUTER_W @ h_values)
            values, rounding = rates._covert_terms(*c)
            full, _ = rates._outer_rule(values, rounding, 0, 0.0)
            dropped_rounding = _OUTER_W[:start] @ rounding[:start] / math.log(2.0)
            assert abs(_OUTER_W[:start] @ values[:start]) <= tail + dropped_rounding
            assert tail <= 1e-17 * full
            # The two sums may also round apart by one unit in the last place.
            # (fc = 1 MHz, TS 0.95 at a surplus of 1e-6 is flagged by its
            # rounding bound, on the full rule too.)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "covert-rate quadrature", RuntimeWarning)
                trimmed = average_covert_rate(p, scheme, eta1).c_avg
            assert abs(trimmed - full) <= tail + np.spacing(full)


def test_source_power_moves_the_first_node(params):
    low, high = _mixed_start_points(params)
    for variant in (TS, PS):
        ((high_start, _), high_h0), ((low_start, _), low_h0) = (
            _starts(p, SchemeConfig(variant, 0.5), 0.7) for p in (high, low))
        assert high_start < low_start and high_h0 < low_h0


@pytest.mark.parametrize("n", [1, 80])
def test_row_dots_equal_one_dot_per_row(n):
    # The covert lanes reduce their rows through matmul and one-point calls
    # by 1-D dots: a numpy whose matmul loop rounds differently must fail
    # here rather than change output bytes. Rows hold zeros before each
    # start a lane can have; the coarse rule takes every other node, the
    # rounding bound the nodes from the start on.
    rng = np.random.default_rng(n)
    w_half = rates._OUTER_W_HALF
    for start in range(90, _OUTER_W.size):
        rows = rng.standard_normal((n, _OUTER_W.size)) * 10.0 ** rng.integers(-8, 8, (n, 1))
        rows[:, :start] = 0.0
        for got, want in [(rates._row_dots(rows, _OUTER_W), [_OUTER_W @ row for row in rows]),
                          (rates._row_dots(rows[:, ::2], w_half), [w_half @ row[::2] for row in rows]),
                          (rates._row_dots(rows[:, start:], _OUTER_W[start:]),
                           [_OUTER_W[start:] @ row[start:] for row in rows])]:
            assert got.tobytes() == np.array(want).tobytes()


def test_full_rows_zero_each_row_before_its_own_start():
    rows = rates._full_rows(np.ones((2, 3)), np.array([198, 199]))
    assert rows.shape == (2, _OUTER_W.size)
    assert rows.sum(axis=1).tolist() == [3.0, 2.0]
    assert not rows[:, :198].any()


def _count_h_elements(monkeypatch) -> list:
    sizes = []
    h = rates._h

    def counted(z, slopes=False):
        sizes.append(z.size)
        return h(z, slopes)

    monkeypatch.setattr(rates, "_h", counted)
    return sizes


def test_equal_lanes_are_evaluated_once(params, monkeypatch):
    sizes = _count_h_elements(monkeypatch)
    average_covert_rates(lane_values([params]), TS, [0.5], [0.7])
    one = sum(sizes)
    sizes.clear()
    average_covert_rates(lane_values([params] * 3), TS, [0.5] * 3, [0.7] * 3)
    assert sum(sizes) == one


def test_fig4_h_elements(params, monkeypatch):
    # fig4 at the defaults (auto fraction) sent 1,141,043 elements through h
    # on the full 201-node rule, with every covert lane evaluated.
    sizes = _count_h_elements(monkeypatch)
    run_fig4(params)
    assert sum(sizes) <= 0.6 * 1_141_043
