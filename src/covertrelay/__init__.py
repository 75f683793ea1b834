"""Covert-communication performance of a self-sustained amplify-and-forward relay.

Library layout:
    params      system constants, units, path loss, config I/O
    relaying    per-realization power allocation and SNR/SINR algebra
    detection   source-side detection performance and optimal threshold
    rates       fading-averaged covert rates and the efficiency optimization
    montecarlo  seeded simulation oracle validating the closed forms
    experiments figure recipes, generic sweeps, CSV serialization
    validate    cross-validation suite (CLI `validate` subcommand)
    cli         command-line entry point
"""

from .detection import (
    DetectionPoint,
    detection_error,
    false_alarm,
    min_detection_error,
    miss_detection,
    optimal_threshold,
    solve_phi_epsilon,
    xi_star_range,
)
from .params import (
    ChannelDraw,
    SchemeConfig,
    SystemParams,
    dbm_to_watts,
    default_params,
    load_config,
    path_loss,
    relay_noise_power,
    watts_to_dbm,
)
from .rates import (
    OptimizationOutcome,
    RateResult,
    average_covert_rate,
    max_effective_covert_rate,
    optimal_eta1,
    optimize_harvest_fraction,
)
from .relaying import (
    LinkGains,
    PowerAllocation,
    allocate_powers,
    amplification_gain2,
    covert_snr,
    covert_snr_reduced,
    harvested_power_total,
    sinr_h1,
    snr_h0,
)
from .montecarlo import (
    SimulationReport,
    simulate_covert_rate,
    simulate_detection,
    sufficient_statistic,
    validate_threshold_optimality,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelDraw",
    "DetectionPoint",
    "LinkGains",
    "OptimizationOutcome",
    "PowerAllocation",
    "RateResult",
    "SchemeConfig",
    "SimulationReport",
    "SystemParams",
    "allocate_powers",
    "amplification_gain2",
    "average_covert_rate",
    "covert_snr",
    "covert_snr_reduced",
    "dbm_to_watts",
    "default_params",
    "detection_error",
    "false_alarm",
    "harvested_power_total",
    "load_config",
    "max_effective_covert_rate",
    "min_detection_error",
    "miss_detection",
    "optimal_eta1",
    "optimal_threshold",
    "optimize_harvest_fraction",
    "path_loss",
    "relay_noise_power",
    "simulate_covert_rate",
    "simulate_detection",
    "sinr_h1",
    "snr_h0",
    "solve_phi_epsilon",
    "sufficient_statistic",
    "validate_threshold_optimality",
    "watts_to_dbm",
    "xi_star_range",
]
