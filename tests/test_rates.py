import itertools
import json
import math
import pathlib
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
    default_params,
    max_effective_covert_rate,
    min_detection_error,
    optimal_eta1,
    simulate_covert_rate,
)
from covertrelay import rates, relaying
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
    best = optimize_harvest_fractions([params], variant)[0]
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
    assert optimize_harvest_fractions([params], variant)[0] == best


def test_ts_objective_vanishes_at_boundaries(params):
    def objective(f):
        return (1.0 - f) / 2.0 * expected_rate_h0(params, SchemeConfig(TS, f))

    interior = objective(optimize_harvest_fractions([params], "ts")[0])
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

    f_star = optimize_harvest_fractions([p], variant)[0]
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
    got = optimize_harvest_fractions(points, variant)
    for p, f in zip(points, got):
        objective = _fraction_objective(p, variant)
        assert objective(f) >= (1.0 - 1e-12) * objective(_scipy_fraction(objective))
    assert [optimize_harvest_fractions([p], variant)[0] for p in points] == got.tolist()


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_lane_search_evaluations_on_fig4_grid(params, variant, monkeypatch):
    # fig4's 400 points differ in epsilon, which the objective ignores, so
    # they make 200 lanes; each iteration evaluates the lanes still open.
    evaluated = []
    slopes = rates._h0_slopes

    def counted(lanes, variant, f):
        evaluated.append(len(f))
        return slopes(lanes, variant, f)

    monkeypatch.setattr(rates, "_h0_slopes", counted)
    points = [params.with_updates(eta0=float(eta0), epsilon=eps)
              for eps in FIG4_EPSILONS for eta0 in fig4_eta0_grid(params.eta_u)]
    optimize_harvest_fractions(points, variant)
    assert evaluated[0] == 200
    assert sum(evaluated) / evaluated[0] <= 7.0


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
        lambda: average_covert_rates(points, variant, fractions, eta1s))
    single, n_single = _rates_and_warning_count(lambda: [
        average_covert_rate(p, SchemeConfig(variant, f), e) for p, f, e in zip(points, fractions, eta1s)
    ])
    assert batched == single
    assert n_batched == min(n_single, 1)  # one warning covers every flagged lane


def test_a_nan_quad_error_is_flagged_by_both_entry_points():
    # At fc = 1e-30 Hz the rate overflows and its error is NaN, which is not
    # converged: the one-point and the lane call both warn about it.
    p = default_params(fc=1e-30)
    calls = [lambda: average_covert_rate(p, SchemeConfig(TS, 0.5), 0.8),
             lambda: average_covert_rates([p], TS, [0.5], [0.8])[0]]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        assert math.isnan(result.quad_error) and not result.converged
        assert any("covert-rate quadrature" in str(w.message) for w in caught)


def test_lane_fractions_are_checked_before_any_evaluation(params):
    # A fraction of 1.5 would reach np.log through a negative PS share first.
    with pytest.raises(ValueError, match=r"^fraction must lie in \(0, 1\), got \[1.5\]$"):
        average_covert_rates([params, params], "ps", [0.5, 1.5], [0.7, 0.7])
    with pytest.raises(ValueError, match="variant must be"):
        average_covert_rates([params], "xx", [0.5], [0.7])
    with pytest.raises(ValueError, match="variant must be"):
        optimize_harvest_fractions([params], "xx")


@pytest.mark.parametrize("variant", ["ts", "ps"])
def test_batched_covert_rate_branches(params, variant):
    points = [params, params.with_updates(Pa=1.6, eta0=0.3), params, params.with_updates(d_ar=4.0)]
    fractions = [0.5, 0.3, 0.5, 0.9]
    eta1s = [0.7, 0.3, params.eta0 + 1e-12, 0.8]  # eta1 == eta0 in lane 1, flagged surplus in lane 2
    with pytest.warns(RuntimeWarning) as caught:
        batched = average_covert_rates(points, variant, fractions, eta1s)
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
    c = relaying.downlink_coefficients(
        params, SchemeConfig(variant, 0.5), 0.7, ChannelDraw(params.lambda_ar * _OUTER_EXP_T, params.lambda_rb))
    disc = (c.p * (1.0 - c.r)) ** 2 - 4.0 * c.r * c.p * c.dp
    assert (disc < 0).any() and (disc >= 0).any()


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
        f = optimize_harvest_fractions([default_params(fc=1e-24)], variant)[0]
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
    return [relaying.downlink_coefficients(p, scheme, e, rates._outer_nodes(p)) for e in (eta1, p.eta0)]


def _starts(p, scheme, eta1):
    """(covert start, its tail bound), and the h0 start."""
    c, c0 = _full_rule_coefficients(p, scheme, eta1)
    c, c0 = ([x[rates._PROBE].tolist() for x in coef] for coef in ((c.p, c.dp, c.r), (c0.p, c0.r)))
    return rates._covert_start(*c), rates._h0_start(*c0)


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
            c, c0 = _full_rule_coefficients(p, scheme, eta1)
            (start, tail), h0_start = _starts(p, scheme, eta1)
            h_values = np.subtract(*np.split(rates._h0_roots(c0.p, c0.r), 2))
            assert abs(_OUTER_W[:h0_start] @ h_values[:h0_start]) <= 1e-17 * (_OUTER_W @ h_values)
            values, rounding = rates._covert_terms(c.p, c.dp, c.r)
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
    average_covert_rates([params], TS, [0.5], [0.7])
    one = sum(sizes)
    sizes.clear()
    average_covert_rates([params] * 3, TS, [0.5] * 3, [0.7] * 3)
    assert sum(sizes) == one


def test_fig4_h_elements(params, monkeypatch):
    # fig4 at the defaults (auto fraction) sent 1,141,043 elements through h
    # on the full 201-node rule, with every covert lane evaluated.
    sizes = _count_h_elements(monkeypatch)
    run_fig4(params)
    assert sum(sizes) <= 0.6 * 1_141_043
