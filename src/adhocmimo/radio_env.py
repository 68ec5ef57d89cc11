"""Geometry, large-scale gain, and noise for a K-pair ad hoc network.

Transmitters land uniformly (by area) on a disk; each intended receiver sits
at a uniform random distance within a fixed range from its transmitter. Entry
(j, i) of the distance/gain matrices describes the path from transmitter i to
receiver j, so the diagonal holds the wanted links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemParams, db_to_linear

__all__ = [
    "Topology",
    "path_gain",
    "noise_variance",
    "total_noise_power",
    "sample_topology",
]


def path_gain(d, params: SystemParams):
    """Log-distance channel power gain at distance d (meters).

    Strictly decreasing in d; raises for d below the reference distance where
    the model is not defined.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d < params.d0_m):
        raise ValueError(f"distance below reference distance {params.d0_m} m")
    lp_db = params.lp_d0_db + 10.0 * params.alpha * np.log10(d / params.d0_m)
    out = 10.0 ** (-lp_db / 10.0)
    return float(out) if out.ndim == 0 else out


def noise_variance(params: SystemParams) -> float:
    """Per-subcarrier thermal noise power (linear mW): density integrated
    over one subcarrier bandwidth plus the receiver noise figure."""
    dbm = params.eta_n_dbm_hz + 10.0 * math.log10(params.ws_hz) + params.f_n_db
    return float(db_to_linear(dbm))


def total_noise_power(params: SystemParams) -> float:
    """Noise power over all ns subcarriers (linear mW), the additive term in
    the wideband SINR denominator."""
    return params.ns * noise_variance(params)


# layout of every draw: transmitters on a disk of this radius, each receiver
# this far from its own transmitter (the README's constants table lists them)
DISK_RADIUS_M = 1000.0
PAIR_MIN_M = 10.0
PAIR_MAX_M = 300.0


@dataclass(frozen=True)
class Topology:
    """K transmit/receive pairs with pairwise distances and gains."""

    k: int
    d: np.ndarray        # (K, K) meters, d[j, i] = Tx i -> Rx j
    rho: np.ndarray      # (K, K) linear power gains, rho[j, i] = path_gain(d[j, i])
    tx_xy: np.ndarray | None = None
    rx_xy: np.ndarray | None = None

    def __post_init__(self):
        if self.d.shape != (self.k, self.k) or self.rho.shape != (self.k, self.k):
            raise ValueError("distance/gain matrices must be (K, K)")


def sample_topology(
    k: int,
    params: SystemParams,
    rng: np.random.Generator,
) -> Topology:
    """Draw one network layout.

    Transmitters are uniform by area on the disk; each receiver is placed at
    a uniform distance in [PAIR_MIN_M, PAIR_MAX_M] and uniform angle from
    its own transmitter. Cross distances shorter than the path-loss
    reference are clamped to it so the gain model stays in its domain.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if params.d0_m > PAIR_MIN_M:
        raise ValueError(
            f"d0_m must not exceed the shortest pair distance {PAIR_MIN_M} m")
    r = DISK_RADIUS_M * np.sqrt(rng.uniform(size=k))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=k)
    tx = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    dist = rng.uniform(PAIR_MIN_M, PAIR_MAX_M, size=k)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=k)
    rx = tx + np.column_stack([dist * np.cos(phi), dist * np.sin(phi)])
    d = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=-1)
    d = np.maximum(d, params.d0_m)
    # keep the exact sampled pair distances on the diagonal
    d[np.arange(k), np.arange(k)] = dist
    return Topology(k=k, d=d, rho=path_gain(d, params), tx_xy=tx, rx_xy=rx)
