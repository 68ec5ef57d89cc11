"""Throughput modeling for MIMO-OFDM pair networks under transceiver
impairments: semi-analytic link BER, SINR-threshold rate tables, sum
throughput maximization, and distributed power control.

The top level re-exports the names of the README's quick start; everything
else is imported from its module."""

__version__ = "0.1.0"

from .config import SystemParams
from .dprc import run_dprc
from .link_abstraction import FLAG_SETS, build_rate_table
from .network_opt import maximize_sum_throughput
from .radio_env import sample_topology
from .rng import substream

__all__ = [
    "FLAG_SETS",
    "SystemParams",
    "build_rate_table",
    "maximize_sum_throughput",
    "run_dprc",
    "sample_topology",
    "substream",
]
