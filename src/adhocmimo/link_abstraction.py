"""Semi-analytic BER of an MMSE-detected spatial-multiplexing link, and the
SINR-threshold rate tables built on top of it.

The link is abstracted per subcarrier: unit-variance Rayleigh channel
entries, transmit power split evenly over the active streams, a
training-based channel estimate whose error variance tracks the operating
SINR, linear MMSE detection, and a Gaussian model for each post-detection
decision statistic. Bit error rates are averaged over channel draws and,
when enabled, over the residual-frequency-offset distribution with
Gauss-Hermite quadrature. A rate table is the set of (streams, bits/symbol)
modes that meet the BER target, each with the smallest SINR grid point at
which it does.

Each distinct decision statistic is integrated once. For square Gray QAM and
any complex gain s, Im(s z) = Re(s (-i z)), Re(s (-z)) = -Re(s z) and the
decision edges are symmetric, so the 2P (label, axis) statistics of a scheme
reduce to P/2 representative means Re(s z_r), whose region probabilities,
read forward or mirrored, serve four uses each (Cho & Yoon, IEEE TCOM 2002).
The BER is a split-tail sum: each (representative, edge) pair takes the
Gaussian tail on the far side of the edge from the representative's level,
all in one erfc call, contracted with constant coefficients (the signed
steps of the summed Gray flips), so no region probability is a difference
of two tails near 1. The offset SINR is even in the offset and numpy's
Gauss-Hermite nodes are symmetric, so the quadrature runs over the
non-negative nodes with mirrored weights added.

The MMSE rows take the push-through form (H^H H + I/sinr)^-1 H^H, an M x M
system, never larger than the N x N one of H^H (H H^H + I/sinr)^-1. They are
found by Gauss-Jordan elimination without pivoting (the matrix is Hermitian
positive definite), with the batch of channels on the last axis, so each
elimination step is one vectorized pass instead of one LAPACK call per draw.
The symbol oracle runs the same elimination with the one right-hand column
H^H y in place of H^H, which gives its detected symbols W y directly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .config import SystemParams, _whole, db_to_linear
from .impairment_model import RFO_EPS_LIMIT, rfo_std, sinr_after_rfo, sinr_baseband
from .rng import complex_normal, substream

__all__ = [
    "ModScheme",
    "make_mod_scheme",
    "ImpairmentFlags",
    "FLAG_SETS",
    "training_length",
    "estimation_error_std",
    "mmse_weights",
    "ber_end_to_end",
    "RateEntry",
    "RateTable",
    "table_build_key",
    "build_rate_table",
    "select_mode",
]

# supported bits/symbol -> mean-energy normalizer of the square grid
_D_BY_U = {1: 1, 2: 2, 4: 10, 6: 42}

# the SINR grid a rate table is scanned on (dB) and the Gauss-Hermite order
# of the residual-offset average; table_build_key records all four
SINR_LO_DB = -5.0
SINR_HI_DB = 45.0
GRID_STEP_DB = 0.1
QUAD_ORDER = 15


def erfc(x):
    """scipy's complementary error function, imported at the first call so
    that the network scenarios, which compute no BER, never load scipy."""
    from scipy.special import erfc as scipy_erfc

    return scipy_erfc(x)


@dataclass(frozen=True, eq=False)
class ModScheme:
    """Gray-labeled square constellation with unit mean symbol energy.

    One axis is stored: both axes of a square QAM share the ascending levels
    and their Gray bits gray. A label, the index of points, holds the Gray
    bits of its real level re_index[label] above those of its imaginary one.
    edges holds the L - 1 decision edges, midway between adjacent levels;
    slice_edges holds them strictly, as the oracle's slicer compares: an edge
    whose upper neighbour has the smaller Gray code is one float lower, so a
    coordinate on it counts it as below. Cached and shared: read-only."""

    u: int
    points: np.ndarray
    levels: np.ndarray
    gray: np.ndarray
    re_index: np.ndarray
    edges: np.ndarray
    slice_edges: np.ndarray

    @property
    def has_im_axis(self) -> bool:
        return self.u > 1


@lru_cache(maxsize=None)
def make_mod_scheme(u: int) -> ModScheme:
    """Build the scheme for u bits per symbol (1, 2, 4 or 6)."""
    if u not in _D_BY_U:
        raise ValueError(f"unsupported bits/symbol: {u}")
    side = 1 << (u - u // 2)
    levels = (2.0 * np.arange(side) - (side - 1)) / math.sqrt(_D_BY_U[u])
    gray = np.arange(side)
    gray ^= gray >> 1
    level_of = np.empty_like(gray)   # the level each Gray code labels
    level_of[gray] = np.arange(side)
    im = 1j * levels[level_of] if u > 1 else np.zeros(1, dtype=complex)
    points = (levels[level_of, None] + im).ravel()
    edges = levels[:-1] + 1.0 / math.sqrt(_D_BY_U[u])
    upper_wins = (gray[1:] < gray[:-1]).tolist()
    # math's nextafter: numpy's ufunc would page 64 KB more of numpy's code
    # into a run's peak RSS
    slice_edges = np.array([math.nextafter(e, -math.inf) if wins else e
                            for e, wins in zip(edges.tolist(), upper_wins)])
    edges.flags.writeable = slice_edges.flags.writeable = False
    return ModScheme(u, points, levels, gray, re_index=level_of.repeat(len(im)),
                     edges=edges, slice_edges=slice_edges)


@dataclass(frozen=True)
class ImpairmentFlags:
    """Which transceiver impairments are active in the BER chain."""

    phase_noise: bool
    rfo: bool
    channel_est: bool

    def label(self) -> str:
        parts = []
        if self.phase_noise:
            parts.append("pn")
        if self.rfo:
            parts.append("rfo")
        if self.channel_est:
            parts.append("ce")
        return "+".join(parts) if parts else "none"


# the named impairment sets of the scenarios, tables and test fixtures; a
# set named after its impairments is keyed by its label
FLAG_SETS = {
    "ideal": ImpairmentFlags(phase_noise=False, rfo=False, channel_est=False),
    "imp": ImpairmentFlags(phase_noise=True, rfo=True, channel_est=True),
    "pn": ImpairmentFlags(phase_noise=True, rfo=False, channel_est=False),
    "rfo": ImpairmentFlags(phase_noise=False, rfo=True, channel_est=False),
    "ce": ImpairmentFlags(phase_noise=False, rfo=False, channel_est=True),
    "rfo+ce": ImpairmentFlags(phase_noise=False, rfo=True, channel_est=True),
}


def training_length(m: int) -> int:
    """Training symbols spent on channel estimation: the smallest power of
    two that is at least the stream count."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return 1 << (m - 1).bit_length()


def estimation_error_std(m: int, sinr):
    """Per-entry standard deviation of the training-based channel estimate's
    error at operating SINR sinr (scalar or array): sqrt(m / (mt * sinr))
    for mt = training_length(m) training symbols."""
    return np.sqrt(m / (training_length(m) * sinr))


def _mmse_solve(aug: np.ndarray, h_herm: np.ndarray, nu: float | np.ndarray) -> np.ndarray:
    """Solve (H^H H + nu I) X = R for a stack held batch-last: aug is
    (M, M + R, B) with R in its right-hand block, h_herm is H^H as (M, N, B)
    and nu is one value or (B,). The Gram block is filled here and aug is
    eliminated in place, Gauss-Jordan without pivoting (the matrix is
    Hermitian positive definite); returns X, aug's right-hand block."""
    m = aug.shape[0]
    for j in range(m):
        h_col = h_herm[j].conj()
        for i in range(j):
            np.sum(h_herm[i] * h_col, axis=0, out=aug[i, j])
            np.conjugate(aug[i, j], out=aug[j, i])
        np.sum(h_herm[j] * h_col, axis=0, out=aug[j, j])
        aug[j, j] += nu
    for k in range(m):
        # columns left of k are already eliminated; the pivot column is not read again
        row = aug[k, k + 1:]
        # numpy divides by a real-valued complex by multiplying both parts
        # by its reciprocal, so this keeps the bits of row / aug[k, k].real
        row *= 1.0 / aug[k, k].real
        for i in range(m):
            if i != k:
                aug[i, k + 1:] -= aug[i, k] * row
    return aug[:, m:]


def mmse_weights(h_hat: np.ndarray, sinr_rfo) -> np.ndarray:
    """Linear MMSE detector rows for the channel estimate,
    W = (H^H H + (1/sinr) I)^-1 H^H: _mmse_solve with right-hand side H^H,
    whose block of the augmented matrix becomes W. Supports stacked
    (..., N, M) inputs and a per-batch sinr array; returns (..., M, N)."""
    h_hat = np.asarray(h_hat)
    *batch, n, m = h_hat.shape
    nu = np.broadcast_to(1.0 / np.asarray(sinr_rfo, dtype=float), batch).reshape(-1)
    aug = np.empty((m, m + n, nu.size), dtype=complex)
    h_herm = aug[:, m:]                                        # (M, N, B)
    h_last = np.moveaxis(h_hat.reshape(-1, n, m), 0, -1)      # (N, M, B)
    np.conjugate(h_last.swapaxes(0, 1), out=h_herm)
    _mmse_solve(aug, h_herm, nu)
    return np.moveaxis(h_herm, -1, 0).reshape(*batch, m, n)


# ---------------------------------------------------------------------------
# conditional BER given the detection statistics

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


@lru_cache(maxsize=None)
def _orbit(u: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbit kernel's P/2 representative points, the (P/2, L-1) sign of
    the tail each takes at each decision edge, and the tails' coefficients.
    The weights W are the Gray flips, summed over the four (label, axis) uses
    a representative serves, of landing in each of its L decision regions.
    For z_r on level i, Re(s z_r) serves z_r's real axis and i z_r's
    imaginary axis forward; mirrored (level i <-> L-1-i) it serves -z_r's
    real axis and -i z_r's imaginary axis. With upper tails Q_k at the edges
    the flips sum to W_0 + sum_k (W_{k+1} - W_k) Q_k, and W is 0 at the
    representative's own level, so taking the lower tail 1 - Q_k at the
    edges below that level (sign -1) leaves
    sum_k sign_k (W_{k+1} - W_k) Q(sign_k (edge_k - mean) / sigma): each tail
    is the small side of its edge and keeps full relative precision."""
    mod = make_mod_scheme(u)
    reps = mod.re_index < len(mod.levels) // 2
    level = mod.re_index[reps]
    flips = _POPCOUNT[np.bitwise_xor.outer(mod.gray, mod.gray)]
    # the imaginary axis repeats the real one's levels and bits
    weights = (flips[level] + flips[::-1, ::-1][level]) * (1 + mod.has_im_axis)
    edge = np.arange(len(mod.levels) - 1)
    sign = np.where(edge < level[:, None], -1.0, 1.0)
    # Q(x) = erfc(x / sqrt(2)) / 2: the 1/2 goes here, the sqrt(2) into the scale
    coef = 0.5 * sign * np.diff(weights, axis=-1)
    return mod.points[reps], sign, coef


def _ber_given_stats(s_diag, sigma2, mod: ModScheme):
    """Average BER over streams given the post-detection diagonal gains
    (..., M) and total interference-plus-noise variances (..., M): one erfc
    per (representative, edge), each on the small side of its edge,
    contracted with the signed steps of the summed Gray flips."""
    reps, sign, coef = _orbit(mod.u)
    scale = np.maximum(np.sqrt(np.maximum(sigma2, 0.0)), 1e-300)   # sqrt(2) sigma
    mean = (s_diag[..., None] * reps).real                      # (..., M, P/2)
    x = mod.edges - mean[..., None]                              # (..., M, P/2, L-1)
    x *= sign
    x /= scale[..., None, None]
    tails = erfc(x)   # looked up at call time: a wrapper on the module name sees it
    errors = tails.reshape(tails.shape[:-2] + (-1,)) @ coef.ravel()
    return (errors / (len(mod.points) * mod.u)).mean(axis=-1)


def _detection_stats(g, g_hat, sinr_rfo):
    """Post-detection diagonal gains and decision-statistic variances for the
    power-normalized link (signal scaled by 1/sqrt(M), noise 1/sinr), given
    its channel g = h / sqrt(M) and estimate g_hat = h_hat / sqrt(M) at one
    SINR: the detected stream's off-diagonal interference plus the
    detector-row-scaled noise."""
    m = g.shape[-1]
    w = mmse_weights(g_hat, sinr_rfo)
    s = w @ g
    idx = np.arange(m)
    s_diag = s[..., idx, idx]
    inter = np.sum(np.abs(s) ** 2, axis=-1) - np.abs(s_diag) ** 2
    w_energy = np.sum(np.abs(w) ** 2, axis=-1)
    # times the reciprocal, as the detector's own 1/sinr: a division moves bits
    return s_diag, inter + w_energy * (1.0 / sinr_rfo)


# ---------------------------------------------------------------------------
# channel-averaged BER


def _draw_channel_set(m, n, n_draws, rng):
    h = complex_normal(rng, (n_draws, n, m))
    e_raw = complex_normal(rng, (n_draws, n, m))
    return h, e_raw


@lru_cache(maxsize=None)
def _gh_nodes(quad_order: int):
    """The non-negative Gauss-Hermite nodes, each with its mirror's weight
    added: the integrand is even in the offset, and numpy's nodes and
    weights are exactly symmetric. Cached per order, so read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(quad_order)
    half = quad_order // 2
    folded = weights[half:].copy()
    folded[quad_order % 2:] += weights[:half][::-1]
    nodes, folded = nodes[half:], folded / math.sqrt(math.pi)
    nodes.flags.writeable = folded.flags.writeable = False
    return nodes, folded


def _check_draws(n_draws) -> None:
    if not n_draws >= 1:
        raise ValueError(f"n_draws must be at least 1, got {n_draws}")


def _ber_per_draw(sinr_in, h, e_raw, mod, flags: ImpairmentFlags,
                  params: SystemParams):
    """The impairment chain at a positive input SINR, one BER per channel
    draw, (n_draws,): phase-noise ICI compresses the SINR, the residual
    offset is averaged over QUAD_ORDER Gauss-Hermite nodes (read at call
    time), and the channel estimate degrades with the SINR at each node."""
    sinr_b = sinr_baseband(sinr_in, params.f_ici) if flags.phase_noise else sinr_in
    m = h.shape[-1]
    if flags.rfo:
        nodes, weights = _gh_nodes(QUAD_ORDER)
        sigma = rfo_std(sinr_b, params.ns)
        eps = np.clip(math.sqrt(2.0) * sigma * nodes, -RFO_EPS_LIMIT, RFO_EPS_LIMIT)
        sinr_nodes = sinr_after_rfo(sinr_b, eps)
    else:
        sinr_nodes, weights = (sinr_b,), (1.0,)
    scale = 1.0 / math.sqrt(m)
    g = h * scale
    pb = np.zeros(h.shape[0])
    for w_node, s_node in zip(weights, sinr_nodes):
        if flags.channel_est:
            g_hat = h + estimation_error_std(m, s_node) * e_raw
            g_hat *= scale
        else:
            g_hat = g
        pb += w_node * _ber_given_stats(*_detection_stats(g, g_hat, s_node), mod)
    return pb


def ber_end_to_end(
    sinr_in: float,
    m: int,
    n: int,
    mod: ModScheme,
    flags: ImpairmentFlags,
    params: SystemParams,
    n_draws: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Full chain from wideband input SINR to BER with the selected
    impairments, averaged over n_draws Rayleigh channel and estimate-error
    draws. Returns (mean, standard error over the draws).

    At zero input SINR the decision statistic carries no signal, so the BER
    is exactly one half for every Gray-labeled scheme.
    """
    if not sinr_in >= 0:
        raise ValueError("sinr_in must be non-negative")
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    _check_draws(n_draws)
    if sinr_in == 0:
        return 0.5, 0.0
    h, e_raw = _draw_channel_set(m, n, n_draws, rng)
    pb = _ber_per_draw(sinr_in, h, e_raw, mod, flags, params)
    se = pb.std(ddof=1) / math.sqrt(n_draws) if n_draws > 1 else 0.0
    return float(pb.mean()), float(se)


# ---------------------------------------------------------------------------
# rate tables


@dataclass(frozen=True)
class RateEntry:
    rate_bps: float
    m: int
    u: int
    threshold_db: float


@dataclass(eq=False)
class RateTable:
    """Modes that meet the BER target, in strictly ascending order of both
    threshold and rate (dominated modes removed). Construction checks the
    order, that each mode runs on n_rx antennas with a supported u, and that
    each threshold is finite. Treat as immutable."""

    n_rx: int
    flags_label: str
    entries: tuple[RateEntry, ...]
    build_info: dict | None = None

    def __post_init__(self):
        for e in self.entries:
            if not 1 <= e.m <= self.n_rx or e.u not in _D_BY_U:
                raise ValueError(f"an N{self.n_rx} receiver cannot run m={e.m}, u={e.u}")
            if not math.isfinite(e.threshold_db):
                raise ValueError(f"threshold_db {e.threshold_db} is not finite")
        for column in ("threshold_db", "rate_bps"):
            values = [getattr(e, column) for e in self.entries]
            if not all(a < b for a, b in zip(values, values[1:])):
                raise ValueError(f"rate table entries must strictly ascend in {column}")

    @cached_property
    def thresholds_linear(self) -> np.ndarray:
        return db_to_linear(np.array([e.threshold_db for e in self.entries]))

    @cached_property
    def rates_by_index(self) -> np.ndarray:
        """Rate (bps) of each rate index; index 0, below every threshold, is 0."""
        return np.array([0.0] + [e.rate_bps for e in self.entries])

    def to_dict(self) -> dict:
        # format v1 also carries "impaired" and "grid_step_db", both derived:
        # the flags label and the build block hold the facts
        doc = {
            "version": 1,
            "n_rx": self.n_rx,
            "impaired": self.flags_label != "none",
            "flags": self.flags_label,
            "grid_step_db": GRID_STEP_DB,
            "entries": [asdict(e) for e in self.entries],
        }
        if self.build_info is not None:
            doc["build"] = self.build_info
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RateTable":
        if doc.get("version") != 1:
            raise ValueError("unsupported rate table version")
        entries = tuple(
            RateEntry(
                rate_bps=float(e["rate_bps"]),
                m=_whole(e["m"]),
                u=_whole(e["u"]),
                threshold_db=float(e["threshold_db"]),
            )
            for e in doc["entries"]
        )
        return cls(
            n_rx=_whole(doc["n_rx"]),
            flags_label=doc["flags"],
            entries=entries,
            build_info=doc.get("build"),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "RateTable":
        return cls.from_dict(json.loads(Path(path).read_text()))


def select_mode(sinr_in: float, table: RateTable) -> RateEntry | None:
    """Highest-rate entry whose threshold does not exceed sinr_in; None when
    even the lowest mode is out of reach. No scenario calls it (the network
    layer looks rates up in batches); the benchmark's tracer wraps it by name."""
    idx = int(np.searchsorted(table.thresholds_linear, sinr_in, side="right"))
    return table.entries[idx - 1] if idx else None


def _pareto_front(cands: list[RateEntry]) -> tuple[RateEntry, ...]:
    """Keep, from highest rate down (lowest threshold first within a rate),
    every mode whose threshold strictly undercuts the last one kept; result
    ascends in both columns."""
    front: list[RateEntry] = []
    for e in sorted(cands, key=lambda e: (-e.rate_bps, e.threshold_db)):
        if not front or e.threshold_db < front[-1].threshold_db:
            front.append(e)
    return tuple(reversed(front))


def table_build_key(params: SystemParams, *, seed: int, n_draws: int) -> dict:
    """Every input that shapes a rate table besides its antenna count and
    impairment set: the seed and draw count, the grid and quadrature
    constants, and the SystemParams fields the BER chain and the rates read.
    build_rate_table records it as the table's build block; a cached table
    is fresh when its block equals the key, so a table built under other
    constants reads as stale."""
    return {
        "seed": seed,
        "n_draws": n_draws,
        "sinr_lo_db": SINR_LO_DB,
        "sinr_hi_db": SINR_HI_DB,
        "grid_step_db": GRID_STEP_DB,
        "quad_order": QUAD_ORDER,
        "gamma_ber": params.gamma_ber,
        "f_ici": params.f_ici,
        "ns": params.ns,
        "r_base_bps": params.r_base_bps,
    }


def build_rate_table(
    n_rx: int, flags: ImpairmentFlags, params: SystemParams, *,
    seed: int, n_draws: int,
) -> RateTable:
    """Scan every (m <= n_rx, u) mode for the lowest point of the SINR grid
    (SINR_LO_DB to SINR_HI_DB in GRID_STEP_DB steps) meeting the BER target
    and keep the Pareto frontier.

    One channel/estimate draw set per stream count is reused across the whole
    grid (common random numbers), which makes the averaged BER smooth and
    monotone in SINR. A mode is first checked at the top of the grid and
    omitted if it fails there; otherwise one library bisection over the rest
    of the grid finds the first passing point. No grid point is evaluated
    twice, and a passing mode costs at most 10 evaluations of its draw set.
    """
    _check_draws(n_draws)
    n_grid = int(round((SINR_HI_DB - SINR_LO_DB) / GRID_STEP_DB)) + 1
    grid_db = np.round(SINR_LO_DB + GRID_STEP_DB * np.arange(n_grid), 9)
    gamma = params.gamma_ber

    cands: list[RateEntry] = []
    for m in range(1, n_rx + 1):
        rng = substream(seed, f"rate-table-n{n_rx}-m{m}-{flags.label()}")
        h, e_raw = _draw_channel_set(m, n_rx, n_draws, rng)
        for u in sorted(_D_BY_U):
            mod = make_mod_scheme(u)

            def mean_ber(j: int) -> float:
                pb = _ber_per_draw(db_to_linear(grid_db[j]), h, e_raw, mod, flags, params)
                return float(pb.mean())

            if mean_ber(n_grid - 1) > gamma:
                continue
            first_pass = bisect_left(range(n_grid - 1), True, key=lambda j: mean_ber(j) <= gamma)
            cands.append(
                RateEntry(
                    rate_bps=params.r_base_bps * m * u,
                    m=m,
                    u=u,
                    threshold_db=float(grid_db[first_pass]),
                )
            )

    return RateTable(
        n_rx=n_rx,
        flags_label=flags.label(),
        entries=_pareto_front(cands),
        build_info=table_build_key(params, seed=seed, n_draws=n_draws),
    )
