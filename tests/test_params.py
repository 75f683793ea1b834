import math
import pathlib
import re
import runpy
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covertrelay import params as cp
from covertrelay.params import PS, TS
from covertrelay import (
    ChannelDraw,
    SchemeConfig,
    SystemParams,
    dbm_to_watts,
    path_loss,
    relay_noise_power,
)

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"

# Independently computed: (3e8 / (4 pi 9e8))^2 = 1 / (144 pi^2).
NU_900MHZ = 7.036193308495677e-4


def test_dbm_to_watts_definition():
    assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(-80.0) == pytest.approx(1e-11, rel=1e-12)


@given(st.floats(min_value=-120.0, max_value=60.0))
def test_dbm_watts_roundtrip(p_dbm):
    assert 10.0 * math.log10(dbm_to_watts(p_dbm)) + 30.0 == pytest.approx(p_dbm, abs=1e-10)


def test_path_loss_reference_values():
    assert path_loss(1.0, 2.0, 900e6) == pytest.approx(NU_900MHZ, rel=1e-12)
    assert path_loss(1.0, 7.3, 900e6) == pytest.approx(NU_900MHZ, rel=1e-12)  # d=1: exponent moot
    assert path_loss(10.0, 2.0, 900e6) == pytest.approx(NU_900MHZ / 100.0, rel=1e-12)


def test_path_loss_decreasing_in_distance():
    gains = [path_loss(d, 2.7, 2.4e9) for d in np.linspace(0.5, 50.0, 200)]
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_path_loss_domain_errors():
    with pytest.raises(ValueError):
        path_loss(0.0, 2.0, 900e6)
    with pytest.raises(ValueError):
        path_loss(-1.0, 2.0, 900e6)
    with pytest.raises(ValueError):
        path_loss(1.0, 2.0, 0.0)
    # Overflow in d^(-m), overflow in the carrier term, underflow to 0.
    for d, m, fc in [(1e-300, 2.0, 900e6), (10.0, 2.0, 1e-294), (10.0, 1e6, 900e6)]:
        message = f"path loss at d={d} m, m={m}, fc={fc} Hz is not positive and finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            path_loss(d, m, fc)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cp.default_params(d_ar=d, m=m, fc=fc)


def test_relay_noise_power_ts_sums():
    assert relay_noise_power(SchemeConfig(TS, 0.3), 1e-11, 1e-11) == pytest.approx(2e-11, rel=1e-12)


def test_relay_noise_power_ps_limits():
    near_one = SchemeConfig(PS, 1.0 - 1e-12)
    assert relay_noise_power(near_one, 1e-11, 3e-12) == pytest.approx(3e-12, rel=1e-9)
    near_zero = SchemeConfig(PS, 1e-12)
    assert relay_noise_power(near_zero, 1e-11, 3e-12) == pytest.approx(1.3e-11, rel=1e-9)


def test_system_params_validation(params):
    with pytest.raises(ValueError):
        params.with_updates(Pa=0.0)
    with pytest.raises(ValueError):
        params.with_updates(eta0=0.9)  # above eta_u
    with pytest.raises(ValueError):
        params.with_updates(eta_u=1.0)
    with pytest.raises(ValueError):
        params.with_updates(epsilon=1.5)
    with pytest.raises(ValueError):
        params.with_updates(m=-0.1)
    with pytest.raises(ValueError, match="path loss"):
        params.with_updates(d_ar=1e-300)  # the gain overflows
    with pytest.raises(TypeError):
        params.with_updates(eta=0.5)


@pytest.mark.parametrize("changes, gains_computed", [
    ({}, 0),
    ({"eta0": 0.3, "epsilon": 0.2}, 0),
    ({"Pa": 2.0, "sigma2_ba": 1e-10, "lambda_rb": 2.0}, 0),
    ({"d_ar": 3.0, "d_rb": 17.0}, 2),
    ({"m": 3.0}, 2),
    ({"fc": 2.4e9, "eta0": 0.5}, 2),
])
def test_with_updates_equals_a_freshly_built_point(params, monkeypatch, changes, gains_computed):
    fresh = SystemParams(**{**{f.name: getattr(params, f.name) for f in fields(SystemParams)}, **changes})
    calls = []
    monkeypatch.setattr(cp, "path_loss", lambda *a: calls.append(a) or path_loss(*a))
    updated = params.with_updates(**changes)
    # The gains carry over unless d_ar, d_rb, m or fc changes.
    assert len(calls) == gains_computed
    assert updated == fresh
    assert (updated.L_ar, updated.L_rb) == (fresh.L_ar, fresh.L_rb)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig("xx", 0.5)
    with pytest.raises(ValueError):
        SchemeConfig(TS, 0.0)
    with pytest.raises(ValueError):
        SchemeConfig(PS, 1.0)


@pytest.mark.parametrize("key", list(cp.CONFIG_FIELDS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_system_params_rejects_non_finite_fields(key, value):
    with pytest.raises(ValueError, match=key if key != "m" else "path-loss exponent"):
        cp.default_params(**{key: value})


def test_scheme_config_checks_every_entry_of_a_fraction_column():
    column = np.array([0.2, 0.5, 0.9])[:, None]
    assert SchemeConfig(PS, column).fraction is column
    column[1] = 1.5
    with pytest.raises(ValueError, match=r"^fraction must lie in \(0, 1\), got \[1.5\]$"):
        SchemeConfig(TS, column)
    with pytest.raises(ValueError, match=r"got \[nan\]$"):
        SchemeConfig(PS, np.array([[0.5], [math.nan]]))
    # Ints and numpy scalars are checked like floats.
    SchemeConfig(TS, np.float32(0.5))
    SchemeConfig(PS, np.float64(0.25))
    for bad in (1, 0, np.float32(2.0), np.int64(-1), math.nan):
        with pytest.raises(ValueError, match=rf"^fraction must lie in \(0, 1\), got {bad}$"):
            SchemeConfig(TS, bad)


@pytest.mark.parametrize("text, expected", [("auto", "auto"), ("0.25", 0.25), (" 1e-3", 1e-3)])
def test_parse_fraction(text, expected):
    assert cp.parse_fraction(text) == expected


@pytest.mark.parametrize("text, message", [
    ("abc", "fraction must be a number or 'auto', got 'abc'"),
    ("1.5", "fraction must lie in (0, 1), got 1.5"),
    ("nan", "fraction must lie in (0, 1), got nan"),
    ("Auto", "fraction must be a number or 'auto', got 'Auto'"),
])
def test_parse_fraction_errors(text, message):
    with pytest.raises(ValueError) as err:
        cp.parse_fraction(text)
    assert str(err.value) == message


def test_channel_draw_rejects_negative():
    with pytest.raises(ValueError):
        ChannelDraw(-1.0, 0.5)
    ChannelDraw(np.array([0.0, 1.0]), np.array([2.0, 3.0]))  # arrays fine


def test_default_params_section_values(params):
    assert params.Pa == pytest.approx(0.1)
    assert params.sigma2_a == pytest.approx(1e-11)
    assert params.sigma2_b == pytest.approx(2e-11)
    assert params.L_ar == pytest.approx(NU_900MHZ / 100.0, rel=1e-12)
    assert params.eta_u == 0.8


def test_config_table_is_the_parameter_schema():
    keys = [f.name for f in fields(SystemParams)]
    assert list(cp.CONFIG_FIELDS) == keys
    template_keys = [
        line.partition("=")[0].strip()
        for line in cp.config_template().splitlines()
        if "=" in line and not line.startswith("#")
    ]
    assert template_keys == keys + ["scheme", "fraction"]


def test_domain_is_config_keys_around_their_defaults():
    for key, (lo, hi) in cp.DOMAIN.items():
        assert lo < cp.CONFIG_FIELDS[key].default < hi, key
    eta_u = cp.CONFIG_FIELDS["eta_u"].default
    assert cp.ETA0_LOW <= cp.CONFIG_FIELDS["eta0"].default <= eta_u - cp.ETA0_GAP


def test_benchmark_domain_lies_in_the_declared_domain():
    # The benchmark draws its configs from its own copy of the ranges.
    workloads = runpy.run_path(str(BENCHMARKS / "workloads.py"))
    for key, (lo, hi) in workloads["DOMAIN"].items():
        assert cp.DOMAIN[key][0] <= lo < hi <= cp.DOMAIN[key][1], key
    assert workloads["ETA0_LOW"] >= cp.ETA0_LOW
    assert workloads["ETA0_GAP"] >= cp.ETA0_GAP


def test_config_template_roundtrip():
    text = cp.config_template()
    parsed, scheme, fraction = cp.parse_config(text)
    assert parsed == cp.default_params()
    assert scheme == "both"
    assert fraction == "auto"


def test_parse_config_overrides_and_units():
    text = "Pa = 10\nd_ar = 5\nscheme = ps\nfraction = 0.3\n"
    parsed, scheme, fraction = cp.parse_config(text)
    assert parsed.Pa == pytest.approx(dbm_to_watts(10.0))
    assert parsed.d_ar == 5.0
    assert scheme == "ps"
    assert fraction == 0.3


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("Pa = 10\nbogus_key = 1\n", 2),
        ("Pa ten\n", 1),
        ("Pa = ten\n", 1),
        ("scheme = xx\n", 1),
        ("\n\nfraction = 1.5\n", 3),
        ("fraction = nan\n", 1),
        ("scheme = ts\nfraction = abc\n", 2),
        ("Pa = 10\nT_block = 1\n", 2),  # T cancels in every formula; not a parameter
        ("m = 2\nPa = 4000\n", 2),  # finite in dBm, overflows in watts
        ("sigma2_a = 4000\n", 1),
    ],
)
def test_parse_config_errors_carry_line_numbers(text, line_no):
    with pytest.raises(cp.ConfigError) as err:
        cp.parse_config(text)
    assert err.value.line_no == line_no
    assert f"line {line_no}" in str(err.value)


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(cp.config_template(), encoding="utf-8")
    parsed, _, _ = cp.load_config(path)
    assert parsed == cp.default_params()
