"""System parameters, unit conversions, path loss and the parameter-file schema.

All internal quantities are SI (watts, hertz, meters). Config files use the
engineering units the hardware is usually quoted in (dBm, MHz, m) and are
converted here at load time. CONFIG_FIELDS is the one table of parameter
keys, units, defaults and CSV column names; everything else derives from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

SPEED_OF_LIGHT = 3e8  # m/s

TS = "ts"
PS = "ps"
# Values of the scheme setting (--scheme, the scheme key) and the variants each runs.
SCHEME_SELECTORS = {TS: (TS,), PS: (PS,), "both": (TS, PS)}
DEFAULT_SCHEME = "both"


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power in dBm to watts; ValueError above about 3112 dBm, where watts overflow."""
    try:
        return 10.0 ** ((p_dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"power {p_dbm} dBm is not finite in watts") from None


def path_loss(d: float, m: float, fc: float) -> float:
    """Distance-power path loss gain: (c / (4 pi fc))^2 * d^(-m).

    Args:
        d: link distance in meters, > 0.
        m: path-loss exponent, >= 0.
        fc: carrier frequency in hertz, > 0.
    """
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    if fc <= 0:
        raise ValueError(f"carrier frequency must be positive, got {fc}")
    nu = (SPEED_OF_LIGHT / (4.0 * math.pi * fc)) ** 2
    return nu * d ** (-m)


@dataclass(frozen=True)
class SystemParams:
    """All physical constants of the relay link.

    Attributes:
        Pa: source transmit power, W.
        fc: carrier frequency, Hz.
        m: path-loss exponent.
        d_ar: source-to-relay distance, m.
        d_rb: relay-to-destination distance, m.
        lambda_ar: mean of |h_ar|^2 (exponential fading parameter).
        lambda_rb: mean of |h_rb|^2.
        sigma2_ra: relay antenna noise variance, W.
        sigma2_rc: relay RF-to-baseband conversion noise variance, W.
        sigma2_ba: destination antenna noise variance, W.
        sigma2_bc: destination conversion noise variance, W.
        sigma2_a: source receiver noise variance, W.
        eta0: baseline energy-conversion efficiency, in (0, 1).
        eta_u: hardware upper bound on conversion efficiency, in (0, 1).
        epsilon: covertness parameter in [0, 1].

    There is no block-duration field: every per-phase energy is a power
    times a phase fraction, so the block length cancels.
    """

    Pa: float
    fc: float
    m: float
    d_ar: float
    d_rb: float
    lambda_ar: float
    lambda_rb: float
    sigma2_ra: float
    sigma2_rc: float
    sigma2_ba: float
    sigma2_bc: float
    sigma2_a: float
    eta0: float
    eta_u: float
    epsilon: float

    def __post_init__(self):
        positive = [
            ("Pa", self.Pa), ("fc", self.fc), ("d_ar", self.d_ar),
            ("d_rb", self.d_rb), ("lambda_ar", self.lambda_ar),
            ("lambda_rb", self.lambda_rb), ("sigma2_ra", self.sigma2_ra),
            ("sigma2_rc", self.sigma2_rc), ("sigma2_ba", self.sigma2_ba),
            ("sigma2_bc", self.sigma2_bc), ("sigma2_a", self.sigma2_a),
        ]
        for name, value in positive:
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0 <= self.m < math.inf:
            raise ValueError(f"path-loss exponent must be finite and >= 0, got {self.m}")
        if not (0 < self.eta0 <= self.eta_u < 1):
            raise ValueError(
                f"need 0 < eta0 <= eta_u < 1, got eta0={self.eta0}, eta_u={self.eta_u}"
            )
        if not (0 <= self.epsilon <= 1):
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")

    @property
    def L_ar(self) -> float:
        """Path-loss gain of the source-to-relay link (reciprocal link equal)."""
        return path_loss(self.d_ar, self.m, self.fc)

    @property
    def L_rb(self) -> float:
        """Path-loss gain of the relay-to-destination link."""
        return path_loss(self.d_rb, self.m, self.fc)

    @property
    def sigma2_b(self) -> float:
        """Total noise power at the destination (antenna + conversion)."""
        return self.sigma2_ba + self.sigma2_bc

    def with_updates(self, **kwargs) -> "SystemParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SchemeConfig:
    """Energy-harvesting scheme: variant 'ts' or 'ps' plus its fraction.

    For 'ts' the fraction is the share of the block spent harvesting; for
    'ps' it is the received-power share routed to the harvester.

    The fraction may also be an array, such as rates' (lanes, 1) column of
    one fraction per lane, each entry checked alike; such a config is not
    hashed or compared.
    """

    variant: str
    fraction: float | np.ndarray

    def __post_init__(self):
        if self.variant not in (TS, PS):
            raise ValueError(f"variant must be '{TS}' or '{PS}', got {self.variant!r}")
        self.check_fraction(self.fraction)

    @staticmethod
    def check_fraction(fraction) -> None:
        """Raise ValueError unless the fraction, or each entry of an array, lies in (0, 1)."""
        # A float in range passes on a plain comparison: ndarray.any() costs microseconds.
        if isinstance(fraction, float) and 0 < fraction < 1:
            return
        f = np.asarray(fraction)
        outside = ~((0 < f) & (f < 1))
        if outside.any():
            raise ValueError(f"fraction must lie in (0, 1), got {f[outside] if f.ndim else fraction}")


# TS splits each block in time, PS each received signal in power; these
# three factors are all the physics that tells them apart. They only do
# arithmetic on scheme.fraction, so a column of fractions gives a column of
# factors (rates' lanes).

def harvest_coeff(scheme: SchemeConfig):
    """Harvested power per unit (eta * received signal power): 2f/(1-f) for TS, f for PS."""
    f = scheme.fraction
    if scheme.variant == TS:
        return 2.0 * f / (1.0 - f)
    return f


def info_share(scheme: SchemeConfig):
    """Share of the received signal (and antenna noise) reaching the information branch."""
    if scheme.variant == TS:
        return 1.0
    return 1.0 - scheme.fraction


def effective_rate_prefactor(scheme: SchemeConfig):
    """Fraction of the block spent on the relay-to-destination transmission."""
    if scheme.variant == TS:
        return (1.0 - scheme.fraction) / 2.0
    return 0.5


@dataclass(frozen=True)
class ChannelDraw:
    """One fading-block realization of the squared channel gains.

    Fields may be scalars or equally-shaped numpy arrays (vectorized blocks).
    """

    g_ar: float | np.ndarray
    g_rb: float | np.ndarray

    def __post_init__(self):
        # ndarray.any() rather than np.any: half the cost per draw, which the
        # rates build on every call.
        if (np.asarray(self.g_ar) < 0).any() or (np.asarray(self.g_rb) < 0).any():
            raise ValueError("channel gains must be non-negative")


def relay_noise_power(scheme: SchemeConfig, sigma2_ra: float, sigma2_rc: float) -> float:
    """Effective noise power entering the relay's information branch.

    Only the information share of the antenna noise reaches it (all of it
    for TS); conversion noise is added after the split in both schemes.
    """
    return info_share(scheme) * sigma2_ra + sigma2_rc


# ---------------------------------------------------------------------------
# Parameter files: flat "key = value" text, '#' comments, engineering units.
# ---------------------------------------------------------------------------

class ConfigField(NamedTuple):
    """One SystemParams field as it appears in parameter files and CSV rows."""

    key: str  # SystemParams field and config-file key
    unit: str  # config-file unit
    to_si: Callable[[float], float]  # config-file value -> SI value
    default: float  # in config-file units
    column: str  # CSV column holding the SI value
    description: str


CONFIG_FIELDS = {f.key: f for f in (
    ConfigField("Pa", "dBm", dbm_to_watts, 20.0, "Pa_w", "source transmit power"),
    ConfigField("fc", "MHz", lambda v: v * 1e6, 900.0, "fc_hz", "carrier frequency"),
    ConfigField("m", "-", float, 2.0, "m", "path-loss exponent"),
    ConfigField("d_ar", "m", float, 10.0, "d_ar_m", "source-to-relay distance"),
    ConfigField("d_rb", "m", float, 10.0, "d_rb_m", "relay-to-destination distance"),
    ConfigField("lambda_ar", "-", float, 1.0, "lambda_ar", "mean of |h_ar|^2"),
    ConfigField("lambda_rb", "-", float, 1.0, "lambda_rb", "mean of |h_rb|^2"),
    ConfigField("sigma2_ra", "dBm", dbm_to_watts, -80.0, "sigma2_ra_w", "relay antenna noise variance"),
    ConfigField("sigma2_rc", "dBm", dbm_to_watts, -80.0, "sigma2_rc_w", "relay conversion noise variance"),
    ConfigField("sigma2_ba", "dBm", dbm_to_watts, -80.0, "sigma2_ba_w", "destination antenna noise variance"),
    ConfigField("sigma2_bc", "dBm", dbm_to_watts, -80.0, "sigma2_bc_w", "destination conversion noise variance"),
    ConfigField("sigma2_a", "dBm", dbm_to_watts, -80.0, "sigma2_a_w", "source receiver noise variance"),
    ConfigField("eta0", "-", float, 0.4, "eta0", "baseline conversion efficiency"),
    ConfigField("eta_u", "-", float, 0.8, "eta_u", "conversion efficiency upper bound"),
    ConfigField("epsilon", "-", float, 0.1, "epsilon", "covertness parameter"),
)}


class ConfigError(ValueError):
    """Raised on malformed parameter files; carries the offending line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def default_params(**overrides) -> SystemParams:
    """SystemParams built from the default engineering-unit values."""
    values = {key: f.to_si(f.default) for key, f in CONFIG_FIELDS.items()}
    values.update(overrides)
    return SystemParams(**values)


def config_template() -> str:
    """Text of a parameter file populated with the default values."""
    lines = [
        "# covertrelay parameter file",
        "# One 'key = value' per line; '#' starts a comment.",
        "# Units are fixed per key and shown in brackets.",
        "",
    ]
    for f in CONFIG_FIELDS.values():
        lines.append(f"{f.key} = {f.default:g}  # [{f.unit}] {f.description}")
    lines += [
        "",
        f"scheme = {DEFAULT_SCHEME}  # [{'|'.join(SCHEME_SELECTORS)}] energy-harvesting scheme(s) to run",
        "fraction = auto  # [-] harvesting fraction in (0,1), or 'auto' to",
        "                 # optimize it for the no-covert-transmission rate",
        "",
    ]
    return "\n".join(lines)


def parse_fraction(text: str) -> float | str:
    """A fraction setting: the literal 'auto', or a number SchemeConfig accepts."""
    if text == "auto":
        return text
    try:
        fraction = float(text)
    except ValueError:
        raise ValueError(f"fraction must be a number or 'auto', got {text!r}") from None
    SchemeConfig.check_fraction(fraction)
    return fraction


def parse_config(text: str) -> tuple[SystemParams, str | None, float | str | None]:
    """Parse parameter-file text.

    Returns:
        (params, scheme, fraction) where scheme is a SCHEME_SELECTORS key
        and fraction a parse_fraction value, each None when the text does
        not set it.

    Raises:
        ConfigError: on unknown keys, bad values or missing assignments,
            with the 1-based line number.
    """
    si: dict[str, float] = {}
    scheme = fraction = None

    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line_no)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key == "scheme":
            if value not in SCHEME_SELECTORS:
                raise ConfigError(f"scheme must be one of {'|'.join(SCHEME_SELECTORS)}, got {value!r}", line_no)
            scheme = value
            continue
        if key == "fraction":
            try:
                fraction = parse_fraction(value)
            except ValueError as exc:
                raise ConfigError(str(exc), line_no) from None
            continue
        if key not in CONFIG_FIELDS:
            raise ConfigError(f"unknown key {key!r}", line_no)
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"value for {key!r} is not a number: {value!r}", line_no) from None
        try:
            si[key] = CONFIG_FIELDS[key].to_si(number)
        except ValueError as exc:
            raise ConfigError(f"value for {key!r}: {exc}", line_no) from None

    try:
        params = default_params(**si)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return params, scheme, fraction


def load_config(path) -> tuple[SystemParams, str | None, float | str | None]:
    """Read and parse a parameter file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
