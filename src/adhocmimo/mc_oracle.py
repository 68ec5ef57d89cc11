"""Symbol-level Monte Carlo reference for the semi-analytic link BER.

Random symbol vectors are pushed through the power-normalized channel with
additive Gaussian noise, detected with the same MMSE weights the analytic
chain uses, and demapped to the nearest point by slicing each axis against
its decision edges; a point exactly on an edge keeps an argmin's tie rule
(the lower label). Nothing here reuses the Gaussian decision-statistic
approximation, the per-axis error expressions, or the quadrature averaging,
so agreement between the two paths validates those approximations rather
than echoing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .impairment_model import RFO_EPS_LIMIT, rfo_std, sinr_after_rfo
from .link_abstraction import (
    _POPCOUNT, ModScheme, make_mod_scheme, mmse_weights, training_length,
)
from .rng import complex_normal, substream

__all__ = [
    "OracleConfig",
    "OracleResult",
    "demap",
    "simulate_link_ber",
]

# symbol vectors simulated per batch
BATCH_VECTORS = 20_000


def _slice(x, levels, gray, half_step):
    """Level index of each coordinate on one axis: the number of decision
    edges below it. An edge whose upper neighbour has the smaller Gray code
    counts as below a coordinate exactly on it, so that neighbour wins."""
    idx = np.zeros(np.shape(x), dtype=np.intp)
    for edge, upper_wins in zip(levels[:-1] + half_step, gray[1:] < gray[:-1]):
        idx += (x >= edge) if upper_wins else (x > edge)
    return idx


def demap(y_hat, mod: ModScheme):
    """Label of the constellation point nearest to y_hat (hard decision),
    sliced per axis against the decision edges.

    Accepts scalars or arrays. A point on an edge goes to the neighbour with
    the smaller Gray code, which is the lower label: the tie rule of an
    argmin over all points, which keeps the first minimum.
    """
    y = np.asarray(y_hat, dtype=complex)
    ir = _slice(y.real, mod.re_levels, mod.re_gray, mod.half_step)
    ii = _slice(y.imag, mod.im_levels, mod.im_gray, mod.half_step)
    labels = (mod.re_gray[ir] << (mod.u // 2)) | mod.im_gray[ii]
    return int(labels) if labels.ndim == 0 else labels


@dataclass(frozen=True)
class OracleConfig:
    """One oracle run: a (m x n) link at baseband SINR sinr_b, optionally with
    residual-offset and channel-estimation impairments. n_symbols counts
    transmitted symbol vectors (channel uses), each carrying m * u bits."""

    m: int
    n: int
    u: int
    sinr_b: float
    rfo: bool = False
    imperfect_ce: bool = False
    n_symbols: int = 100_000
    seed: int = 0
    n_sub: int = 64

    def __post_init__(self):
        if self.m < 1 or self.n < self.m:
            raise ValueError("need 1 <= m <= n")
        if not self.sinr_b > 0:
            raise ValueError("sinr_b must be positive")
        if self.n_symbols < 2:
            raise ValueError("n_symbols must be at least 2")


@dataclass(frozen=True)
class OracleResult:
    ber: float
    stderr: float
    n_bits: int
    n_vectors: int


class _RunningMoments:
    """Streaming mean/stderr over per-vector BER samples."""

    def __init__(self):
        self.n = 0
        self.sum = 0.0
        self.sum_sq = 0.0

    def add(self, samples: np.ndarray) -> None:
        self.n += samples.size
        self.sum += float(samples.sum())
        self.sum_sq += float((samples * samples).sum())

    def result(self, bits_per_vector: int) -> OracleResult:
        mean = self.sum / self.n
        var = max(self.sum_sq - self.n * mean * mean, 0.0) / (self.n - 1)
        return OracleResult(
            ber=mean,
            stderr=math.sqrt(var / self.n),
            n_bits=self.n * bits_per_vector,
            n_vectors=self.n,
        )


def _transmit_and_count(h, h_hat, sinr_eff, mod: ModScheme, rng) -> np.ndarray:
    """Bit errors per symbol vector for a batch of channels (b, n, m) with
    per-vector effective SINR (b,)."""
    b, n, m = h.shape
    scale = 1.0 / math.sqrt(m)
    labels = rng.integers(0, len(mod.points), size=(b, m))
    x = mod.points[labels]
    noise = complex_normal(rng, (b, n))
    y = ((h * scale) @ x[..., None])[..., 0]
    # numpy divides by a real-valued complex by multiplying both parts by its
    # reciprocal, so scaling the float view in place keeps the bits
    noise_parts = noise.view(float)
    noise_parts *= (1.0 / np.sqrt(sinr_eff))[:, None]
    y += noise
    # not reused when h_hat is h: holding the scaled channel through the solve
    # measured slower in cold ber-validate runs
    w = mmse_weights(h_hat * scale, sinr_eff)
    y_det = (w @ y[..., None])[..., 0]
    labels_hat = demap(y_det, mod)
    return _POPCOUNT[np.bitwise_xor(labels_hat, labels)].sum(axis=-1)


def simulate_link_ber(cfg: OracleConfig) -> OracleResult:
    """Ensemble BER: a fresh Rayleigh channel (and, per flags, a fresh offset
    draw and estimation error) for every transmitted symbol vector."""
    mod = make_mod_scheme(cfg.u)
    rng = substream(cfg.seed, "mc-oracle")
    mt = training_length(cfg.m)
    moments = _RunningMoments()
    done = 0
    while done < cfg.n_symbols:
        b = min(BATCH_VECTORS, cfg.n_symbols - done)
        h = complex_normal(rng, (b, cfg.n, cfg.m))
        s_eff = np.full(b, float(cfg.sinr_b))
        if cfg.rfo:
            sigma = rfo_std(cfg.sinr_b, cfg.n_sub)
            eps = np.clip(
                rng.normal(0.0, sigma, size=b), -RFO_EPS_LIMIT, RFO_EPS_LIMIT
            )
            s_eff = sinr_after_rfo(s_eff, eps)
        if cfg.imperfect_ce:
            err_std = np.sqrt(cfg.m / (mt * s_eff))
            h_hat = h + complex_normal(rng, h.shape) * err_std[:, None, None]
        else:
            h_hat = h
        errs = _transmit_and_count(h, h_hat, s_eff, mod, rng)
        moments.add(errs / (cfg.m * cfg.u))
        done += b
    return moments.result(cfg.m * cfg.u)
