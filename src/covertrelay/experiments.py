"""Named experiment recipes and the generic parameter sweep.

Each recipe returns a list of row dicts (one per grid point) carrying the
flattened input parameters plus that recipe's outputs; rows share a single
column schema per recipe so they serialize directly to CSV. Rows are
produced in grid order and everything downstream of the seed is
deterministic, so reruns emit identical bytes.

Every recipe but fig5 takes the scheme setting as `variants`, a tuple of
params.TS/params.PS (params.SCHEME_SELECTORS maps each --scheme value to
one; default both), and a fraction: a float or 'auto', as
params.parse_fraction reads them. SchemeConfig rejects a bad variant or
fraction. Exact numeric overlay with published curves is not possible
because the harvesting fractions behind them are unstated; the recipes
default to fraction='auto', which pins each point's fraction to the value
maximizing the no-covert forwarded rate.

Figs 3-6 run the paper's fixed grids (the FIG* constants below: source
power, eta0 at two covertness targets, relay position); sweep is the one
way to evaluate any other grid. fig3, fig4 and fig6 build their point list
first and then make one fraction search and one covert-rate call per
scheme over all of it (rates' lane-batched functions); sweep batches its
fraction search but evaluates rates point by point.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from . import detection, montecarlo, rates, relaying
from .params import CONFIG_FIELDS, DEFAULT_SCHEME, SCHEME_SELECTORS, SchemeConfig, SystemParams, dbm_to_watts

FLOAT_DIGITS = 12  # significant digits in CSV float fields

FIG2_ETA1 = 0.7
FIG2_N_TAU = 201
FIG3_PA_DBM = tuple(np.linspace(-10.0, 32.0, 15))
FIG3_ETA0 = (0.2, 0.4)
FIG4_GRID_POINTS = 200
FIG4_EPSILONS = (0.1, 0.2)
FIG6_D_AR = tuple(np.linspace(2.0, 18.0, 33))
FIG6_PA_DBM = (10.0, 20.0)
FIG6_TOTAL_DISTANCE = 20.0
_DEFAULT_VARIANTS = SCHEME_SELECTORS[DEFAULT_SCHEME]


def resolve_fractions(points, variant: str, fraction) -> list[float]:
    """Turn a fraction setting (float or 'auto') into one value per point.

    'auto' runs one lane-batched search, which evaluates each distinct lane
    once: the objective ignores the covertness target, so an epsilon sweep
    shares one search per point.
    """
    if fraction != "auto":
        return [float(fraction)] * len(points)
    return rates.optimize_harvest_fractions(points, variant).tolist()


def params_columns(params: SystemParams) -> dict:
    """Flattened input parameters (SI units) for inclusion in every row."""
    return {f.column: getattr(params, key) for key, f in CONFIG_FIELDS.items()}


def _rate_outputs(point: SystemParams, eta1_star: float, binding: str, rate: rates.RateResult) -> dict:
    return {
        "eta1_star": eta1_star,
        "phi_eps": detection.solve_phi_epsilon(point.epsilon),
        "psi_star": rate.psi,
        "c_avg": rate.c_avg,
        "quad_error": rate.quad_error,
        "binding": binding,
    }


def _rate_rows(points: list[SystemParams], extras: list[dict], fraction, variants) -> list[dict]:
    """One rate row per point and variant, in point order.

    Each scheme makes one fraction search and one covert-rate call over
    all points; extra columns follow scheme and fraction.
    """
    optima = [rates.optimal_eta1(p) for p in points]
    eta1s = [eta1 for eta1, _ in optima]
    per_scheme = []
    for variant in variants:
        fractions = resolve_fractions(points, variant, fraction)
        per_scheme.append((variant, fractions, rates.average_covert_rates(points, variant, fractions, eta1s)))
    rows = []
    for i, (point, extra, (eta1_star, binding)) in enumerate(zip(points, extras, optima)):
        for variant, fractions, results in per_scheme:
            rows.append({
                "scheme": variant,
                "fraction": fractions[i],
                **extra,
                **_rate_outputs(point, eta1_star, binding, results[i]),
                **params_columns(point),
            })
    return rows


def run_fig2(
    params: SystemParams,
    fraction="auto",
    eta1: float = FIG2_ETA1,
    n_tau: int = FIG2_N_TAU,
    mc_blocks: int = montecarlo.MC_BLOCKS,
    seed: int = 0,
    variants=_DEFAULT_VARIANTS,
) -> list[dict]:
    """Detection error versus threshold, closed form and Monte Carlo.

    One log-spaced threshold grid straddling the variants' optimal
    thresholds is shared by them; the optimum of each scheme is inserted
    as an extra marked row.
    """
    if n_tau < 2:
        raise ValueError(f"n_tau must be >= 2, got {n_tau}")
    schemes = [SchemeConfig(v, resolve_fractions([params], v, fraction)[0]) for v in variants]
    deltas = [detection.optimal_threshold(params, s, eta1) - params.sigma2_a for s in schemes]
    relaying._check_eta1(params, eta1)  # optimal_threshold rejects eta1 <= eta0, this eta1 > eta_u
    lo = 0.5 * params.sigma2_a  # below the noise floor, where xi = 1
    hi = params.sigma2_a + 1e3 * max(deltas)
    tau_grid = np.geomspace(lo, hi, n_tau)

    xi_star = detection.min_detection_error(params.eta0 / eta1)
    rows = []
    for idx, scheme in enumerate(schemes):
        tau_star = params.sigma2_a + deltas[idx]
        taus = np.sort(np.append(tau_grid, tau_star))
        point = detection.detection_error(params, scheme, eta1, taus)
        a_mc, b_mc = montecarlo.detection_curve(
            params, scheme, eta1, taus, mc_blocks, seed, streams=montecarlo.STREAMS_FIG2[scheme.variant]
        )
        base = params_columns(params)
        for j, tau in enumerate(taus):
            rows.append({
                "scheme": scheme.variant,
                "fraction": scheme.fraction,
                "eta1": eta1,
                "tau_w": float(tau),
                "alpha": float(point.alpha[j]),
                "beta": float(point.beta[j]),
                "xi": float(point.xi[j]),
                "alpha_mc": float(a_mc[j]),
                "beta_mc": float(b_mc[j]),
                "xi_mc": float(a_mc[j] + b_mc[j]),
                "tau_star_w": tau_star,
                "xi_star": xi_star,
                "at_optimum": int(tau == tau_star),
                **base,
            })
    return rows


def run_fig3(params: SystemParams, fraction="auto", variants=_DEFAULT_VARIANTS) -> list[dict]:
    """Maximum effective covert rate versus source power, per scheme and eta0."""
    grid = [(eta0, pa_dbm) for eta0 in FIG3_ETA0 for pa_dbm in FIG3_PA_DBM]
    points = [params.with_updates(Pa=dbm_to_watts(pa_dbm), eta0=eta0) for eta0, pa_dbm in grid]
    extras = [{"pa_dbm": float(pa_dbm)} for _, pa_dbm in grid]
    return _rate_rows(points, extras, fraction, variants)


def fig4_eta0_grid(eta_u: float) -> np.ndarray:
    """eta0 grid approaching both limits where the covert rate vanishes."""
    return np.linspace(1e-6, eta_u - 1e-6, FIG4_GRID_POINTS)


def _fig4_points(params: SystemParams) -> list[SystemParams]:
    """The fig4/fig5 grid: fig4_eta0_grid at each of FIG4_EPSILONS, epsilon-major."""
    return [params.with_updates(eta0=float(eta0), epsilon=float(epsilon))
            for epsilon in FIG4_EPSILONS for eta0 in fig4_eta0_grid(params.eta_u)]


def run_fig4(params: SystemParams, fraction="auto", variants=_DEFAULT_VARIANTS) -> list[dict]:
    """Maximum effective covert rate versus eta0 for a set of covertness targets."""
    points = _fig4_points(params)
    extras = [{"eta0_dagger": detection.solve_phi_epsilon(p.epsilon) * params.eta_u} for p in points]
    return _rate_rows(points, extras, fraction, variants)


def run_fig5(params: SystemParams) -> list[dict]:
    """Realized efficiency ratio eta0/eta1* versus eta0 (scheme-independent)."""
    rows = []
    for point in _fig4_points(params):
        phi_eps = detection.solve_phi_epsilon(point.epsilon)
        eta1_star, binding = rates.optimal_eta1(point)
        rows.append({
            "scheme": "both",
            "phi": point.eta0 / eta1_star,
            "phi_eps": phi_eps,
            "eta0_dagger": phi_eps * params.eta_u,
            "eta1_star": eta1_star,
            "binding": binding,
            **params_columns(point),
        })
    return rows


def run_fig6(params: SystemParams, fraction="auto", variants=_DEFAULT_VARIANTS) -> list[dict]:
    """Maximum effective covert rate versus relay placement on a fixed path."""
    grid = [(pa_dbm, d_ar) for pa_dbm in FIG6_PA_DBM for d_ar in FIG6_D_AR]
    points = [
        params.with_updates(Pa=dbm_to_watts(pa_dbm), d_ar=float(d_ar), d_rb=float(FIG6_TOTAL_DISTANCE - d_ar))
        for pa_dbm, d_ar in grid
    ]
    extras = [{"pa_dbm": float(pa_dbm), "total_distance_m": FIG6_TOTAL_DISTANCE} for pa_dbm, _ in grid]
    return _rate_rows(points, extras, fraction, variants)


def run_sweep(
    params: SystemParams,
    param_name: str,
    values,
    fraction="auto",
    variants=_DEFAULT_VARIANTS,
) -> list[dict]:
    """Sweep one parameter (config units) and record rate and detection outputs."""
    if param_name == "fraction":
        points = [params] * len(values)
        fractions = {v: [float(x) for x in values] for v in variants}
    elif param_name in CONFIG_FIELDS:
        conv = CONFIG_FIELDS[param_name].to_si
        points = [params.with_updates(**{param_name: conv(float(v))}) for v in values]
        fractions = {v: resolve_fractions(points, v, fraction) for v in variants}
    else:
        raise ValueError(
            f"unknown sweep parameter {param_name!r}; choose one of "
            f"{sorted(CONFIG_FIELDS)} or 'fraction'"
        )

    rows = []
    for i, (value, point) in enumerate(zip(values, points)):
        eta1_star, binding = rates.optimal_eta1(point)
        for variant in variants:
            scheme = SchemeConfig(variant, fractions[variant][i])
            rate = rates.average_covert_rate(point, scheme, eta1_star)
            if eta1_star > point.eta0:
                tau_star = detection.optimal_threshold(params=point, scheme=scheme, eta1=eta1_star)
            else:
                tau_star = float("nan")
            rows.append({
                "scheme": variant,
                "fraction": scheme.fraction,
                "swept_param": param_name,
                "swept_value": float(value),
                "tau_star_w": tau_star,
                "xi_star": detection.min_detection_error(point.eta0 / eta1_star),
                **_rate_outputs(point, eta1_star, binding, rate),
                **params_columns(point),
            })
    return rows


def csv_bytes(rows: list[dict]) -> bytes:
    """Rows (shared schema) as UTF-8 RFC-4180 CSV with a header row."""
    if not rows:
        raise ValueError("no rows to write")
    header = list(rows[0].keys())
    spec = f".{FLOAT_DIGITS}g"
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        if list(row.keys()) != header:
            raise ValueError("row schema mismatch")
        # csv.writer would write np.float64, a float subclass, through repr.
        writer.writerow([format(v, spec) if type(v) in (float, np.float64) else v for v in row.values()])
    return buf.getvalue().encode("utf-8")
