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
Its input SINR may be a scalar, which gives floats, or a 1-D array of
points, which gives arrays: one set of draws per batch serves every point
(common random numbers), each point scaling the same standard-normal offset
and estimation-error draws by its own spread, so an array of points equals
the scalar calls at each of them bit for bit.

The draws are made per batch of BATCH_VECTORS vectors; everything after
them (the offset's SINR, the estimate scaling, detection, demapping and the
error count) runs per block of BLOCK_VECTORS vectors of that batch and per
point, writing to new block-sized arrays so that the draws stay intact for
the next point. Each of those steps works per vector and the elimination
sums over the antenna axis, so the block size moves no bit.
"""

from __future__ import annotations

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
    """BER and its standard error: floats for one SINR, arrays for an array
    of them. n_bits and n_vectors count one point's bits and vectors."""

    ber: float | np.ndarray
    stderr: float | np.ndarray
    n_bits: int
    n_vectors: int


def _oracle_result(total, total_sq, n: int, bits_per_vector: int) -> OracleResult:
    """Mean and standard error of n per-vector BER samples
    errors / bits_per_vector, from the integer sum of the per-vector error
    counts and the sum of their squares: scalars or arrays of them, one
    entry per point."""
    mean = np.asarray(total) / bits_per_vector / n
    var = np.maximum(np.asarray(total_sq) / bits_per_vector ** 2 - n * mean * mean,
                     0.0) / (n - 1)
    stderr = np.sqrt(var / n)
    if mean.ndim == 0:
        mean, stderr = float(mean), float(stderr)
    return OracleResult(ber=mean, stderr=stderr, n_bits=n * bits_per_vector, n_vectors=n)


def _detect(h, h_hat, x, noise, sinr_eff) -> np.ndarray:
    """MMSE estimates (m, b) of the symbols x (m, b) sent over channels h
    with estimates h_hat, both (n, m, b), given unit-variance noise draws
    (b, n), which it leaves intact, and effective SINRs (b,). The power
    split's 1/sqrt(m) moves onto the noise: W y of the power-normalized link
    is the solution of (H^H H + nu I) x_hat = H^H (H x + sqrt(nu) noise) on
    the unscaled channel and estimate, with nu = m / sinr."""
    n, m, b = h.shape
    nu = m / sinr_eff
    y = (noise * np.sqrt(nu)[:, None]).T
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


def _count_batch(errors, rng, b, n, m, mod: ModScheme, flags: ImpairmentFlags,
                 sinr_b: np.ndarray, eps_std: list[float] | None) -> None:
    """Add to errors (2, points) each point's bit errors over b fresh symbol
    vectors and the sum of their per-vector counts squared. All of the
    batch's draws come first, in the order that fixes every result
    (channel, offset, estimate error, labels, noise); each block of
    BLOCK_VECTORS vectors then runs every point: the offset's SINR, the
    estimate scaling, detection, demapping and the error count. The draws
    die on return, before the next batch's are made."""
    h = complex_normal(rng, (b, n, m))
    if flags.rfo:
        # eps_std * g is the bits of rng.normal(0.0, eps_std) at every point
        g = rng.standard_normal(b)
    if flags.channel_est:
        h_err = complex_normal(rng, h.shape)
    labels = rng.integers(0, len(mod.points), size=(b, m))
    noise = complex_normal(rng, (b, n))
    for lo in range(0, b, BLOCK_VECTORS):
        blk = slice(lo, lo + BLOCK_VECTORS)
        h_blk = h[blk]
        h_t = h_blk.transpose(1, 2, 0)
        sent = labels[blk].T
        x = mod.points[sent]
        for i, s_b in enumerate(sinr_b):
            if flags.rfo:
                eps = np.clip(eps_std[i] * g[blk], -RFO_EPS_LIMIT, RFO_EPS_LIMIT)
                s_eff = sinr_after_rfo(s_b, eps)
            else:
                s_eff = np.full(len(h_blk), s_b)
            h_hat = h_blk
            if flags.channel_est:
                h_hat = h_err[blk] * estimation_error_std(m, s_eff)[:, None, None]
                h_hat += h_blk
            x_hat = _detect(h_t, h_hat.transpose(1, 2, 0), x, noise[blk], s_eff)
            per_vector = _POPCOUNT[np.bitwise_xor(demap(x_hat, mod), sent)].sum(axis=0)
            errors[:, i] += per_vector.sum(), per_vector @ per_vector
            del x_hat   # a view of this solve: free it before the next one


def simulate_link_ber(
    sinr_in: float | np.ndarray,
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
    symbol vectors, each carrying m * u bits. sinr_in is one input SINR,
    giving float results, or a 1-D array of them, giving arrays whose
    points all share the draws."""
    sinr = np.asarray(sinr_in, dtype=float)
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if sinr.ndim > 1 or not np.all(sinr > 0):
        raise ValueError("sinr_in must be positive, one value or a 1-D array")
    if n_symbols < 2:
        raise ValueError("n_symbols must be at least 2")
    sinr_b = np.atleast_1d(sinr_baseband(sinr, params.f_ici) if flags.phase_noise else sinr)
    eps_std = [rfo_std(s, params.ns) for s in sinr_b] if flags.rfo else None
    rng = substream(seed, "mc-oracle")
    errors = np.zeros((2, sinr_b.size), dtype=np.int64)
    for done in range(0, n_symbols, BATCH_VECTORS):
        _count_batch(errors, rng, min(BATCH_VECTORS, n_symbols - done), n, m, mod,
                     flags, sinr_b, eps_std)
    return _oracle_result(*errors.reshape(2, *sinr.shape), n_symbols, m * mod.u)
