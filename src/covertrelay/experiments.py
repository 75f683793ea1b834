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
way to evaluate any other grid. fig3, fig4, fig6 and sweep share one row
layout (_point_rate_rows), which builds a point's parameter columns and
phi_eps once for all its scheme rows. fig3, fig4 and fig6 build their
point list and its rates.lane_values first, then make one fraction search
and one covert-rate call per scheme over all of it (rates' lane-batched
functions); sweep batches its fraction search but keeps one
rates.average_covert_rate call per row, only because
benchmarks/test_benchmark.py counts those calls.

csv_bytes writes the rows column by column and formats each distinct value
of a column once: a figure's parameter columns are mostly one value, and
its rows repeat each point's values once per scheme. Values that compare
and hash equal share that work only where they print alike, so 0.0 and
-0.0, or 1, 1.0 and True, keep their own text.
"""

from __future__ import annotations

import csv
import io
from operator import attrgetter

import numpy as np

from . import detection, montecarlo, rates, relaying
from .params import CONFIG_FIELDS, DEFAULT_SCHEME, SCHEME_SELECTORS, SchemeConfig, SystemParams, dbm_to_watts

FLOAT_DIGITS = 12  # significant digits in CSV float fields
_FLOAT_SPEC = f".{FLOAT_DIGITS}g"
_FLOAT_TYPES = {float, np.float64}  # cell types written with _FLOAT_SPEC
_PLAIN_TYPES = {str, int, bool}  # equal values of one of these types print alike

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
# params_columns' names and values, in CONFIG_FIELDS order.
_PARAM_COLUMNS = tuple(f.column for f in CONFIG_FIELDS.values())
_PARAM_VALUES = attrgetter(*CONFIG_FIELDS)


def resolve_fractions(lanes, variant: str, fraction) -> list[float]:
    """Turn a fraction setting (float or 'auto') into one value per lane (rates.lane_values of the points).

    'auto' runs one lane-batched search, which evaluates each distinct lane
    once: the objective ignores the covertness target, so an epsilon sweep
    shares one search per point.
    """
    if fraction != "auto":
        return [float(fraction)] * len(lanes)
    return rates.optimize_harvest_fractions(lanes, variant).tolist()


def params_columns(params: SystemParams) -> dict:
    """Flattened input parameters (SI units) for inclusion in every row."""
    return dict(zip(_PARAM_COLUMNS, _PARAM_VALUES(params)))


def _point_rate_rows(point: SystemParams, optimum: tuple[float, str], schemes) -> list[dict]:
    """A point's rate rows, one per (variant, fraction, extra columns, RateResult) in schemes.

    The row layout of every rate recipe: scheme, fraction, the recipe's extra
    columns, eta1* and phi_eps, Psi*, C and quad_error, binding, parameter
    columns. The columns of the point alone are built once for all its rows.
    """
    eta1_star, binding = optimum
    phi_eps = detection.solve_phi_epsilon(point.epsilon)
    columns = params_columns(point)
    return [{"scheme": variant, "fraction": fraction, **extra, "eta1_star": eta1_star, "phi_eps": phi_eps,
             "psi_star": rate.psi, "c_avg": rate.c_avg, "quad_error": rate.quad_error, "binding": binding,
             **columns}
            for variant, fraction, extra, rate in schemes]


def _rate_rows(points: list[SystemParams], extras: list[dict], fraction, variants) -> list[dict]:
    """One rate row per point and variant, in point order.

    Each scheme makes one fraction search and one covert-rate call over
    all points; extra columns follow scheme and fraction.
    """
    optima = [rates.optimal_eta1(p) for p in points]
    eta1s = [eta1 for eta1, _ in optima]
    lanes = rates.lane_values(points)
    per_scheme = []
    for variant in variants:
        fractions = resolve_fractions(lanes, variant, fraction)
        per_scheme.append((variant, fractions, rates.average_covert_rates(lanes, variant, fractions, eta1s)))
    rows = []
    for i, (point, extra, optimum) in enumerate(zip(points, extras, optima)):
        schemes = [(variant, fractions[i], extra, results[i]) for variant, fractions, results in per_scheme]
        rows += _point_rate_rows(point, optimum, schemes)
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
    lanes = rates.lane_values([params])
    schemes = [SchemeConfig(v, resolve_fractions(lanes, v, fraction)[0]) for v in variants]
    deltas = [detection.optimal_threshold(params, s, eta1) - params.sigma2_a for s in schemes]
    relaying.check_eta1(params, eta1)  # optimal_threshold rejects eta1 <= eta0, this eta1 > eta_u
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
    if params.eta_u < max(FIG3_ETA0):  # else with_updates names the grid's eta0 as if it were the config's
        raise ValueError(f"fig3 runs eta0 at {' and '.join(map(str, FIG3_ETA0))}, so eta_u must be at least "
                         f"{max(FIG3_ETA0)}, got eta_u={params.eta_u}")
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


def _eta0_dagger(point: SystemParams) -> float:
    """phi_epsilon * eta_u: the eta0 from which the harvester cap, not covertness, binds."""
    return detection.solve_phi_epsilon(point.epsilon) * point.eta_u


def run_fig4(params: SystemParams, fraction="auto", variants=_DEFAULT_VARIANTS) -> list[dict]:
    """Maximum effective covert rate versus eta0 for a set of covertness targets."""
    points = _fig4_points(params)
    extras = [{"eta0_dagger": _eta0_dagger(p)} for p in points]
    return _rate_rows(points, extras, fraction, variants)


def run_fig5(params: SystemParams) -> list[dict]:
    """Realized efficiency ratio eta0/eta1* versus eta0 (scheme-independent)."""
    rows = []
    for point in _fig4_points(params):
        eta1_star, binding = rates.optimal_eta1(point)
        rows.append({
            "scheme": "both",
            "phi": point.eta0 / eta1_star,
            "phi_eps": detection.solve_phi_epsilon(point.epsilon),
            "eta0_dagger": _eta0_dagger(point),
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
        lanes = rates.lane_values(points)
        fractions = {v: resolve_fractions(lanes, v, fraction) for v in variants}
    else:
        raise ValueError(
            f"unknown sweep parameter {param_name!r}; choose one of "
            f"{sorted(CONFIG_FIELDS)} or 'fraction'"
        )

    rows = []
    for i, (value, point) in enumerate(zip(values, points)):
        eta1_star, binding = rates.optimal_eta1(point)
        xi_star = detection.min_detection_error(point.eta0 / eta1_star)
        schemes = []
        for variant in variants:
            scheme = SchemeConfig(variant, fractions[variant][i])
            # An empty field where eta1* = eta0, at which the optimal threshold is undefined.
            tau_star = detection.optimal_threshold(point, scheme, eta1_star) if eta1_star > point.eta0 else None
            extra = {"swept_param": param_name, "swept_value": float(value), "tau_star_w": tau_star,
                     "xi_star": xi_star}
            schemes.append((variant, scheme.fraction, extra, rates.average_covert_rate(point, scheme, eta1_star)))
        rows += _point_rate_rows(point, (eta1_star, binding), schemes)
    return rows


def _csv_field(value) -> str:
    """value as csv.writer writes it among other fields (QUOTE_MINIMAL, CRLF line ends)."""
    buf = io.StringIO()
    csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n").writerow((value, None))
    return buf.getvalue()[:-3]  # the empty second field's ",\r\n"


def _column_fields(cells: tuple) -> list[str]:
    """One CSV column's fields, each distinct value formatted once (the rule is in csv_bytes)."""
    kinds = set(map(type, cells))
    if kinds <= _FLOAT_TYPES:
        text = {v: format(v, _FLOAT_SPEC) for v in dict.fromkeys(cells)}
        if 0.0 in text:  # 0.0 and -0.0 share a key
            return [text[v] if v else format(v, _FLOAT_SPEC) for v in cells]
    elif len(kinds) == 1 and kinds <= _PLAIN_TYPES:
        text = {v: _csv_field(v) for v in dict.fromkeys(cells)}
    else:
        return [format(v, _FLOAT_SPEC) if type(v) in _FLOAT_TYPES else _csv_field(v) for v in cells]
    if len(text) == 1:  # such as a parameter column of a figure
        return [*text.values()] * len(cells)
    return list(map(text.__getitem__, cells))


def csv_bytes(rows: list[dict]) -> bytes:
    """Rows (shared schema) as UTF-8 RFC-4180 CSV with a header row.

    float and np.float64 cells have FLOAT_DIGITS significant digits
    (csv.writer would write a np.float64 through repr); every other cell is
    written as csv.writer writes it (QUOTE_MINIMAL). The rows are written
    column by column, and each distinct value of a column is formatted once.
    Values that compare and hash equal share that text only where they print
    alike: float and np.float64 do, but a zero is formatted per cell, since
    0.0 and -0.0 do not; a column of only str, only int or only bool shares
    csv.writer's text; any other column, such as 1 beside 1.0 or True, is
    formatted cell by cell. Every NaN prints as nan.
    """
    if not rows:
        raise ValueError("no rows to write")
    header = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != header:
            raise ValueError("row schema mismatch")
    columns = [_column_fields(cells) for cells in zip(*(row.values() for row in rows))]
    lines = [",".join(map(_csv_field, header)), *map(",".join, zip(*columns) if columns else [()] * len(rows))]
    # csv.writer quotes a lone empty field, so that its line is not blank.
    blank = '""' if header else ""
    return ("\r\n".join(line or blank for line in lines) + "\r\n").encode("utf-8")
