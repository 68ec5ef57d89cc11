"""Throughput modeling for MIMO-OFDM pair networks under transceiver
impairments: semi-analytic link BER, SINR-threshold rate tables, sum
throughput maximization, and distributed power control."""

__version__ = "0.1.0"

from .config import ConfigError, SystemParams, db_to_linear, linear_to_db
from .dprc import DprcParams, DprcState, best_response_power, run_dprc
from .impairment_model import (
    PhaseNoisePsdParams,
    ici_factor,
    phase_noise_psd,
    rfo_std,
    sinr_after_rfo,
    sinr_baseband,
)
from .link_abstraction import (
    ImpairmentFlags,
    LinkOutcome,
    ModScheme,
    RateEntry,
    RateTable,
    ber_end_to_end,
    build_rate_table,
    conditional_ber,
    make_mod_scheme,
    mmse_weights,
    perturb_channel,
    select_mode,
    training_length,
)
from .mc_oracle import OracleConfig, OracleResult, demap, simulate_link_ber
from .network_opt import (
    GaParams,
    maximize_sum_throughput,
    sinr_in_all,
    sum_throughput,
)
from .radio_env import (
    Topology,
    noise_variance,
    path_gain,
    sample_topology,
    total_noise_power,
)
from .rng import complex_normal, derive_seed, substream

__all__ = [
    "__version__",
    "ConfigError",
    "SystemParams",
    "db_to_linear",
    "linear_to_db",
    "DprcParams",
    "DprcState",
    "best_response_power",
    "run_dprc",
    "PhaseNoisePsdParams",
    "ici_factor",
    "phase_noise_psd",
    "rfo_std",
    "sinr_after_rfo",
    "sinr_baseband",
    "ImpairmentFlags",
    "LinkOutcome",
    "ModScheme",
    "RateEntry",
    "RateTable",
    "ber_end_to_end",
    "build_rate_table",
    "conditional_ber",
    "make_mod_scheme",
    "mmse_weights",
    "perturb_channel",
    "select_mode",
    "training_length",
    "OracleConfig",
    "OracleResult",
    "demap",
    "simulate_link_ber",
    "GaParams",
    "maximize_sum_throughput",
    "sinr_in_all",
    "sum_throughput",
    "Topology",
    "noise_variance",
    "path_gain",
    "sample_topology",
    "total_noise_power",
    "complex_normal",
    "derive_seed",
    "substream",
]
