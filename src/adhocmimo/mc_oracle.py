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
them runs per block of BLOCK_VECTORS vectors of that batch. Once per block,
what no point changes is laid out batch-last: the products H[:, j] * x[j]
of the channel and the sent symbols, the noise, and the conjugated channel
and estimate error. Per point there is only the work that depends on the
point: the offset's SINR, the conjugated estimate conj(E) * sigma + conj(H)
(bitwise the conjugate of E * sigma + H), detection, demapping and the
error count, each writing to new block-sized arrays so that the block's
layouts stay intact for the next point. Each of those steps works per
vector and the elimination sums over the antenna axis, so the block size
moves no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import SystemParams
from .impairment_model import RFO_EPS_LIMIT, rfo_std, sinr_after_rfo, sinr_baseband
from .link_abstraction import (
    _POPCOUNT, ImpairmentFlags, ModScheme, _mmse_solve, estimation_error_std,
    make_mod_scheme,
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


@lru_cache(maxsize=None)
def _slice_edges(u: int) -> np.ndarray:
    """One axis's decision edges as _slice compares them, strictly: an edge
    whose upper neighbour has the smaller Gray code moves one float down, so
    that a coordinate exactly on it counts it as below (x >= edge is
    x > nextafter(edge, -inf) for every float x). Cached per scheme, so
    read-only."""
    mod = make_mod_scheme(u)
    edges = (mod.levels[:-1] + mod.half_step).tolist()
    upper_wins = (mod.gray[1:] < mod.gray[:-1]).tolist()
    # math's nextafter: numpy's ufunc would page 64 KB more of numpy's code
    # into a run's peak RSS
    edges = np.array([math.nextafter(e, -math.inf) if wins else e
                      for e, wins in zip(edges, upper_wins)])
    edges.flags.writeable = False
    return edges


def _slice(x, mod: ModScheme) -> np.ndarray:
    """Level index of each coordinate on one axis: the number of decision
    edges below it, from one comparison against every edge. An edge whose
    upper neighbour has the smaller Gray code counts as below a coordinate
    exactly on it, so that neighbour wins."""
    x = np.asarray(x)
    edges = _slice_edges(mod.u).reshape((-1,) + (1,) * x.ndim)
    # counted in intp: a uint8 count is faster, but its reduce and take loops
    # page about 128 KB more of numpy's code into a run's peak RSS
    return np.add.reduce(x > edges, axis=0, dtype=np.intp)


def demap(y_hat, mod: ModScheme):
    """Label of the constellation point nearest to y_hat (hard decision),
    sliced per axis against the decision edges; with an imaginary axis,
    both axes are sliced at once, on the (real, imaginary) float pairs.

    Accepts scalars or arrays. A point on an edge goes to the neighbour with
    the smaller Gray code, which is the lower label: the tie rule of an
    argmin over all points, which keeps the first minimum.
    """
    y = np.asarray(y_hat, dtype=complex)
    if mod.has_im_axis:
        codes = mod.gray.take(_slice(y[..., None].view(np.float64), mod))
        labels = (codes[..., 0] << (mod.u // 2)) | codes[..., 1]
    else:
        labels = mod.gray.take(_slice(y.real, mod))
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


def _detect(h_herm, hx, noise, sinr_eff) -> np.ndarray:
    """MMSE estimates (m, b) of the symbols x sent over channels H with
    estimates H_hat, given H_hat^H as h_herm (m, n, b), the products
    H[:, j] * x[j] as hx (m, n, b), unit-variance noise draws (n, b) and
    effective SINRs (b,); it leaves all of them intact. The power split's
    1/sqrt(m) moves onto the noise: W y of the power-normalized link is the
    solution of (H^H H + nu I) x_hat = H^H (H x + sqrt(nu) noise) on the
    unscaled channel and estimate, with nu = m / sinr."""
    m, n, b = h_herm.shape
    nu = m / sinr_eff
    y = noise * np.sqrt(nu)
    for hx_j in hx:
        y += hx_j
    aug = np.empty((m, m + 1, b), dtype=complex)
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
    (channel, offset, estimate error, labels, noise). Each block of
    BLOCK_VECTORS vectors then lays out what no point changes: the products
    H[:, j] * x[j], the noise and the conjugated channel and estimate error,
    batch-last. Per point it runs the offset's SINR, the estimate
    conj(E) * sigma + conj(H), which is conj(E * sigma + H) bit for bit,
    detection, demapping and the error count. The draws die on return,
    before the next batch's are made."""
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
        h_t = h[blk].transpose(2, 1, 0)                   # (m, n, block)
        sent = labels[blk].T
        hx = np.multiply(h_t, mod.points[sent][:, None], order="C")
        noise_t = np.ascontiguousarray(noise[blk].T)
        # the draws die with the batch, so they are conjugated where they
        # lie; a layout that is batch-last already (n = m = 1) is not copied
        h_herm = np.ascontiguousarray(np.conjugate(h_t, out=h_t))
        if flags.channel_est:
            e_t = h_err[blk].transpose(2, 1, 0)
            e_herm = np.ascontiguousarray(np.conjugate(e_t, out=e_t))
        for i, s_b in enumerate(sinr_b):
            if flags.rfo:
                eps = np.clip(eps_std[i] * g[blk], -RFO_EPS_LIMIT, RFO_EPS_LIMIT)
                s_eff = sinr_after_rfo(s_b, eps)
            else:
                s_eff = np.full(sent.shape[1], s_b)
            h_hat_herm = h_herm
            if flags.channel_est:
                h_hat_herm = e_herm * estimation_error_std(m, s_eff)
                h_hat_herm += h_herm
            x_hat = _detect(h_hat_herm, hx, noise_t, s_eff)
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
