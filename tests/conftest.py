import numpy as np
import pytest
from hypothesis import strategies as st

from covertrelay import SchemeConfig, SystemParams, default_params, montecarlo
from covertrelay.params import CONFIG_FIELDS, DOMAIN, ETA0_GAP, ETA0_LOW, PS, TS

# Draw counts around the Monte Carlo streaming block size, plus one 10^6 run.
B = montecarlo._BLOCK
BLOCK_EDGE_SIZES = [1, B - 1, B, B + 1, 3 * B + 7, 10**6]


@pytest.fixture
def params() -> SystemParams:
    """Default parameter set (20 dBm source, 10 m hops, -80 dBm noise)."""
    return default_params()


@pytest.fixture
def unit_params() -> SystemParams:
    """Params engineered so Pa*L_ar = 1 W and L_rb = 1 (worked-example algebra).

    Carrier frequency is chosen to make the path-loss constant exactly 1 at
    1 m, and both hop noises are 0.5 + 0.5 W so sigma_r^2 = sigma_b^2 = 1 W
    under time switching.
    """
    fc = 3e8 / (4.0 * np.pi)
    return SystemParams(
        Pa=1.0, fc=fc, m=2.0, d_ar=1.0, d_rb=1.0,
        lambda_ar=1.0, lambda_rb=1.0,
        sigma2_ra=0.5, sigma2_rc=0.5, sigma2_ba=0.5, sigma2_bc=0.5,
        sigma2_a=1.0, eta0=0.4, eta_u=0.9, epsilon=0.1,
    )


@pytest.fixture
def ts() -> SchemeConfig:
    return SchemeConfig(TS, 0.5)


@pytest.fixture
def ps() -> SchemeConfig:
    return SchemeConfig(PS, 0.5)


def domain_point(values: dict, u: float, base: SystemParams | None = None) -> SystemParams:
    """base (default: the defaults) at config-unit values of DOMAIN keys, eta0 a share u of its range."""
    si = {key: CONFIG_FIELDS[key].to_si(value) for key, value in values.items()}
    si["eta0"] = ETA0_LOW + u * (values["eta_u"] - ETA0_GAP - ETA0_LOW)
    return (base or default_params()).with_updates(**si)


# params.DOMAIN as a hypothesis strategy: eta_u is drawn before eta0.
domain_params = st.builds(domain_point, st.fixed_dictionaries({key: st.floats(*r) for key, r in DOMAIN.items()}),
                          st.floats(0.0, 1.0))


def random_params(rng: np.random.Generator, base: SystemParams) -> SystemParams:
    """base at a config drawn uniformly from params.DOMAIN, seeded for property sweeps."""
    return domain_point({key: rng.uniform(lo, hi) for key, (lo, hi) in DOMAIN.items()}, rng.uniform(), base)
