import numpy as np
import pytest

from covertrelay import SchemeConfig, SystemParams, default_params, montecarlo
from covertrelay.params import PS, TS

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


def random_params(rng: np.random.Generator, base: SystemParams) -> SystemParams:
    """Random but physically sane parameter set for property sweeps."""
    eta0 = rng.uniform(0.1, 0.5)
    return base.with_updates(
        Pa=10 ** (rng.uniform(0.0, 30.0) / 10.0) * 1e-3,
        d_ar=rng.uniform(3.0, 20.0),
        d_rb=rng.uniform(3.0, 20.0),
        lambda_ar=rng.uniform(0.5, 2.0),
        lambda_rb=rng.uniform(0.5, 2.0),
        eta0=eta0,
        eta_u=rng.uniform(eta0 + 0.1, 0.9),
    )
