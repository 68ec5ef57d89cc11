"""Symbol-level Monte Carlo reference for the semi-analytic link BER.

Random symbol vectors are pushed through the power-normalized channel with
additive Gaussian noise, detected with the analytic chain's MMSE detector,
and demapped to the nearest point by slicing each axis against its decision
edges; a point exactly on an edge keeps an argmin's tie rule (the lower
label). The detector is one elimination, link_abstraction's batch-last
Gauss-Jordan solve of (H^H H + nu I) X = R: mmse_weights solves it for the
right-hand side H^H and gets the rows W, while the oracle solves it for the
one column H^H y and gets the detected symbols W y without forming W.
Nothing here reuses the Gaussian decision-statistic approximation, the
per-axis error expressions, or the quadrature averaging, so agreement
between the two paths validates those approximations rather than echoing
them.

simulate_link_ber takes ber_end_to_end's first six arguments, so both paths
describe one link: the same flags and SystemParams set the phase-noise
compression, the offset spread (params.ns) and the estimation error
(estimation_error_std), drawn afresh per vector where the chain integrates.

The draws are made per batch of BATCH_VECTORS vectors; everything after
them (the offset's SINR, the estimate scaling, detection, demapping and the
error count) runs per block of BLOCK_VECTORS vectors of that batch, so its
temporaries stay block-sized. Each of those steps works per vector and the
elimination sums over the antenna axis, so the block size moves no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemParams
from .impairment_model import RFO_EPS_LIMIT, rfo_std, sinr_after_rfo, sinr_baseband
from .link_abstraction import (
    _POPCOUNT, ImpairmentFlags, ModScheme, _mmse_solve, estimation_error_std,
)
from .rng import complex_normal, substream

__all__ = [
    "OracleResult",
    "demap",
    "simulate_link_ber",
]

# symbol vectors drawn per batch, and detected per block of a batch
BATCH_VECTORS = 20_000
BLOCK_VECTORS = 4096


def _slice(x, mod: ModScheme):
    """Level index of each coordinate on one axis: the number of decision
    edges below it. An edge whose upper neighbour has the smaller Gray code
    counts as below a coordinate exactly on it, so that neighbour wins."""
    idx = np.zeros(np.shape(x), dtype=np.intp)
    for edge, upper_wins in zip(mod.levels[:-1] + mod.half_step, mod.gray[1:] < mod.gray[:-1]):
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
    labels = mod.gray[_slice(y.real, mod)]
    if mod.has_im_axis:
        labels = (labels << (mod.u // 2)) | mod.gray[_slice(y.imag, mod)]
    return int(labels) if labels.ndim == 0 else labels


@dataclass(frozen=True)
class OracleResult:
    ber: float
    stderr: float
    n_bits: int
    n_vectors: int


def _oracle_result(errors: np.ndarray, bits_per_vector: int) -> OracleResult:
    """Mean and standard error of the per-vector BER samples
    errors / bits_per_vector, from the integer error counts per vector."""
    n = errors.size
    total = float(errors.sum()) / bits_per_vector
    total_sq = float(np.dot(errors, errors)) / bits_per_vector ** 2
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return OracleResult(
        ber=mean,
        stderr=math.sqrt(var / n),
        n_bits=n * bits_per_vector,
        n_vectors=n,
    )


def _detect(h, h_hat, x, noise, sinr_eff) -> np.ndarray:
    """MMSE estimates (m, b) of the symbols x (m, b) sent over channels h
    with estimates h_hat, both (n, m, b), given unit-variance noise draws
    (b, n), scaled in place, and effective SINRs (b,). The power split's
    1/sqrt(m) moves onto the noise: W y of the power-normalized link is the
    solution of (H^H H + nu I) x_hat = H^H (H x + sqrt(nu) noise) on the
    unscaled channel and estimate, with nu = m / sinr."""
    n, m, b = h.shape
    nu = m / sinr_eff
    noise *= np.sqrt(nu)[:, None]
    y = noise.T
    for j in range(m):
        y += h[:, j] * x[j]
    aug = np.empty((m, m + 1, b), dtype=complex)
    h_herm = np.empty((m, n, b), dtype=complex)
    np.conjugate(h_hat.swapaxes(0, 1), out=h_herm)
    h_herm_y = aug[:, m]
    np.multiply(h_herm[:, 0], y[0], out=h_herm_y)
    for k in range(1, n):
        h_herm_y += h_herm[:, k] * y[k]
    return _mmse_solve(aug, h_herm, nu)[:, 0]


def _count_batch(errors, rng, n, m, mod: ModScheme, flags: ImpairmentFlags,
                 sinr_b: float, eps_std: float | None) -> None:
    """Fill errors (b,) with the bit errors of b fresh symbol vectors. All of
    the batch's draws come first, in the order that fixes every result
    (channel, offset, estimate error, labels, noise); the offset's SINR, the
    estimate scaling, detection, demapping and the error count run per block
    of BLOCK_VECTORS vectors. The draws die on return, before the next
    batch's are made."""
    b = errors.size
    h = complex_normal(rng, (b, n, m))
    if flags.rfo:
        eps = np.clip(rng.normal(0.0, eps_std, size=b), -RFO_EPS_LIMIT, RFO_EPS_LIMIT)
    if flags.channel_est:
        h_err = complex_normal(rng, h.shape)
    labels = rng.integers(0, len(mod.points), size=(b, m))
    noise = complex_normal(rng, (b, n))
    for lo in range(0, b, BLOCK_VECTORS):
        blk = slice(lo, lo + BLOCK_VECTORS)
        h_blk = h_hat = h[blk]
        s_eff = sinr_after_rfo(sinr_b, eps[blk]) if flags.rfo else np.full(len(h_blk), sinr_b)
        if flags.channel_est:
            h_hat = h_err[blk]
            h_hat *= estimation_error_std(m, s_eff)[:, None, None]
            h_hat += h_blk
        sent = labels[blk].T
        x_hat = _detect(h_blk.transpose(1, 2, 0), h_hat.transpose(1, 2, 0),
                        mod.points[sent], noise[blk], s_eff)
        errors[blk] = _POPCOUNT[np.bitwise_xor(demap(x_hat, mod), sent)].sum(axis=0)
        del x_hat   # a view of this block's solve: free it before the next one


def simulate_link_ber(
    sinr_in: float,
    m: int,
    n: int,
    mod: ModScheme,
    flags: ImpairmentFlags,
    params: SystemParams,
    *,
    n_symbols: int,
    seed: int,
) -> OracleResult:
    """Ensemble BER of the link ber_end_to_end describes, from the same
    first six arguments: a fresh Rayleigh channel (and, per flags, a fresh
    offset draw and estimation error) for every one of n_symbols transmitted
    symbol vectors, each carrying m * u bits."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if not sinr_in > 0:
        raise ValueError("sinr_in must be positive")
    if n_symbols < 2:
        raise ValueError("n_symbols must be at least 2")
    sinr_b = float(sinr_baseband(sinr_in, params.f_ici) if flags.phase_noise else sinr_in)
    eps_std = rfo_std(sinr_b, params.ns) if flags.rfo else None
    rng = substream(seed, "mc-oracle")
    errors = np.empty(n_symbols, dtype=np.int64)
    for done in range(0, n_symbols, BATCH_VECTORS):
        _count_batch(errors[done:done + BATCH_VECTORS], rng, n, m, mod, flags, sinr_b, eps_std)
    return _oracle_result(errors, m * mod.u)
