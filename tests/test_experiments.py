import numpy as np
import pytest

from covertrelay import solve_phi_epsilon
from covertrelay import experiments as ex
from covertrelay.params import CONFIG_FIELDS


def _by(rows, **filters):
    out = rows
    for key, value in filters.items():
        out = [r for r in out if r[key] == value]
    return out


def test_fig2_rows(params):
    rows = ex.run_fig2(params, fraction=0.5, mc_blocks=10**6, seed=3, n_tau=101)
    assert {r["scheme"] for r in rows} == {"ts", "ps"}
    header = list(rows[0].keys())
    assert all(list(r.keys()) == header for r in rows)

    minima = {}
    for scheme in ("ts", "ps"):
        sub = _by(rows, scheme=scheme)
        # one marked optimum row per scheme, and it attains the curve minimum
        marked = _by(sub, at_optimum=1)
        assert len(marked) == 1
        xi = np.array([r["xi"] for r in sub])
        assert marked[0]["xi"] == pytest.approx(np.min(xi), abs=1e-12)
        minima[scheme] = np.min(xi)
        # Monte Carlo tracks the closed form at every grid point
        err = np.array([abs(r["xi_mc"] - r["xi"]) for r in sub])
        assert np.max(err) <= 5e-3
        # both grid extremes sit on the xi -> 1 tails
        assert sub[0]["xi"] == 1.0
        assert sub[-1]["xi"] >= 1.0 - 1e-6
    assert abs(minima["ts"] - minima["ps"]) <= 1e-6


def test_fig3_rows(params):
    rows = _by(ex.run_fig3(params, fraction=0.5), eta0=0.4)
    for pa in ex.FIG3_PA_DBM:
        sub = _by(rows, pa_dbm=pa)
        assert {r["scheme"] for r in sub} == {"ts", "ps"}
    assert all(r["psi_star"] > 0 for r in rows)


def test_fig5_rows(params):
    rows = _by(ex.run_fig5(params), epsilon=0.1)
    phi_eps = solve_phi_epsilon(0.1)
    for r in rows:
        if r["binding"] == "covertness":
            assert r["phi"] == pytest.approx(phi_eps, rel=1e-9)
        else:
            assert r["phi"] == pytest.approx(r["eta0"] / params.eta_u, rel=1e-12)
    assert rows[-1]["phi"] == pytest.approx(1.0, abs=2e-5)


def test_fig6_rows(params):
    rows = ex.run_fig6(params, fraction=0.5)
    for r in rows:
        assert r["d_ar_m"] + r["d_rb_m"] == pytest.approx(20.0, abs=1e-12)
    for scheme in ("ts", "ps"):
        lo = [r["psi_star"] for r in _by(rows, scheme=scheme, pa_dbm=10.0)]
        hi = [r["psi_star"] for r in _by(rows, scheme=scheme, pa_dbm=20.0)]
        assert all(h > l for h, l in zip(hi, lo))  # more power dominates pointwise
        i = int(np.argmin(hi))
        assert 0 < i < len(hi) - 1  # interior minimum


def test_sweep_rows(params):
    rows = ex.run_sweep(params, "Pa", [0.0, 10.0, 20.0], fraction=0.5)
    assert len(rows) == 6
    assert all(r["swept_param"] == "Pa" for r in rows)
    psi_ts = [r["psi_star"] for r in _by(rows, scheme="ts")]
    assert psi_ts == sorted(psi_ts)
    with pytest.raises(ValueError):
        ex.run_sweep(params, "nonsense", [1.0])


# The CSV parameter-column schema, in order (SI units).
PARAM_COLUMNS = [
    "Pa_w", "fc_hz", "m", "d_ar_m", "d_rb_m", "lambda_ar", "lambda_rb",
    "sigma2_ra_w", "sigma2_rc_w", "sigma2_ba_w", "sigma2_bc_w", "sigma2_a_w",
    "eta0", "eta_u", "epsilon",
]


def test_every_config_key_sweeps_with_the_table_columns(params):
    assert [f.column for f in CONFIG_FIELDS.values()] == PARAM_COLUMNS
    for key, field in CONFIG_FIELDS.items():
        rows = ex.run_sweep(params, key, [field.default], fraction=0.5, scheme_selector="ts")
        header = ex.csv_bytes(rows).split(b"\r\n")[0].decode().split(",")
        assert header[-len(PARAM_COLUMNS):] == PARAM_COLUMNS
        assert rows[0]["swept_param"] == key


def test_sweep_fraction(params):
    rows = ex.run_sweep(params, "fraction", [0.2, 0.5], scheme_selector="ts")
    assert [r["fraction"] for r in rows] == [0.2, 0.5]


def test_resolve_fractions_modes(params):
    assert ex.resolve_fractions([params, params], "ts", 0.37) == [0.37, 0.37]
    (auto,) = ex.resolve_fractions([params], "ts", "auto")
    assert 0.0 < auto < 1.0
    assert ex.resolve_fractions([params], "ts", "auto") == [auto]  # deterministic
    # The search ignores epsilon: points that differ only in it share one lane.
    points = [params.with_updates(epsilon=e) for e in (0.05, 0.1, 0.3)]
    assert ex.resolve_fractions(points, "ts", "auto") == [auto] * 3


def test_csv_output_format(params):
    rows = ex.run_sweep(params, "eta0", [0.3, 0.4], fraction=0.5, scheme_selector="ts")
    data = ex.csv_bytes(rows)
    lines = data.decode("utf-8").split("\r\n")
    assert lines[0].startswith("scheme,fraction,swept_param")
    assert len(lines) == len(rows) + 2  # header + rows + trailing newline
    # 12 significant digits on floats
    assert f"{rows[0]['psi_star']:.12g}" in lines[1]


def test_csv_rejects_mixed_schema():
    with pytest.raises(ValueError):
        ex.csv_bytes([{"a": 1}, {"b": 2}])
    with pytest.raises(ValueError):
        ex.csv_bytes([])


def test_csv_rerun_identical(params):
    first = ex.csv_bytes(ex.run_fig2(params, fraction=0.5, mc_blocks=10**4, seed=9, n_tau=41))
    second = ex.csv_bytes(ex.run_fig2(params, fraction=0.5, mc_blocks=10**4, seed=9, n_tau=41))
    assert first == second
