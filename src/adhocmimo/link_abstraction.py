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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .config import SystemParams, db_to_linear
from .impairment_model import RFO_EPS_LIMIT, rfo_std, sinr_after_rfo, sinr_baseband
from .rng import complex_normal, substream

__all__ = [
    "ModScheme",
    "make_mod_scheme",
    "ImpairmentFlags",
    "FLAG_SETS",
    "training_length",
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


def erfc(x):
    """scipy's complementary error function, imported at the first call so
    that the network scenarios, which compute no BER, never load scipy."""
    from scipy.special import erfc as scipy_erfc

    return scipy_erfc(x)


def _gray(i: int) -> int:
    return i ^ (i >> 1)


@dataclass(frozen=True, eq=False)
class ModScheme:
    """Gray-labeled square constellation with unit mean symbol energy.

    points is indexed by bit label. re_index/im_index map a label to its
    level index on each axis; re_gray/im_gray give the per-level axis bits.
    """

    u: int
    d: int
    points: np.ndarray
    re_levels: np.ndarray
    im_levels: np.ndarray
    re_index: np.ndarray
    im_index: np.ndarray
    re_gray: np.ndarray
    im_gray: np.ndarray

    @property
    def half_step(self) -> float:
        """Half the distance between adjacent axis levels."""
        return 1.0 / math.sqrt(self.d)

    @property
    def has_im_axis(self) -> bool:
        return len(self.im_levels) > 1


@lru_cache(maxsize=None)
def make_mod_scheme(u: int) -> ModScheme:
    """Build the scheme for u bits per symbol (1, 2, 4 or 6)."""
    if u not in _D_BY_U:
        raise ValueError(f"unsupported bits/symbol: {u}")
    d = _D_BY_U[u]
    if u == 1:
        re_levels = np.array([-1.0, 1.0])
        im_levels = np.array([0.0])
        im_bits = 0
    else:
        side = 1 << (u // 2)
        re_levels = (2.0 * np.arange(side) - (side - 1)) / math.sqrt(d)
        im_levels = re_levels.copy()
        im_bits = u // 2
    n_pts = 1 << u
    points = np.zeros(n_pts, dtype=complex)
    re_index = np.zeros(n_pts, dtype=np.int64)
    im_index = np.zeros(n_pts, dtype=np.int64)
    for ir in range(len(re_levels)):
        for ii in range(len(im_levels)):
            label = (_gray(ir) << im_bits) | _gray(ii)
            points[label] = re_levels[ir] + 1j * im_levels[ii]
            re_index[label] = ir
            im_index[label] = ii
    re_gray = np.array([_gray(i) for i in range(len(re_levels))], dtype=np.int64)
    im_gray = np.array([_gray(i) for i in range(len(im_levels))], dtype=np.int64)
    return ModScheme(
        u=u, d=d, points=points,
        re_levels=re_levels, im_levels=im_levels,
        re_index=re_index, im_index=im_index,
        re_gray=re_gray, im_gray=im_gray,
    )


@dataclass(frozen=True)
class ImpairmentFlags:
    """Which transceiver impairments are active in the BER chain."""

    phase_noise: bool = True
    rfo: bool = True
    channel_est: bool = True

    @classmethod
    def none(cls) -> "ImpairmentFlags":
        return cls(phase_noise=False, rfo=False, channel_est=False)

    @classmethod
    def all(cls) -> "ImpairmentFlags":
        return cls(phase_noise=True, rfo=True, channel_est=True)

    def label(self) -> str:
        parts = []
        if self.phase_noise:
            parts.append("pn")
        if self.rfo:
            parts.append("rfo")
        if self.channel_est:
            parts.append("ce")
        return "+".join(parts) if parts else "none"


# the named impairment sets of the scenarios, tables and test fixtures
FLAG_SETS = {
    "ideal": ImpairmentFlags.none(),
    "imp": ImpairmentFlags.all(),
    "pn": ImpairmentFlags(phase_noise=True, rfo=False, channel_est=False),
    "rfo": ImpairmentFlags(phase_noise=False, rfo=True, channel_est=False),
    "ce": ImpairmentFlags(phase_noise=False, rfo=False, channel_est=True),
}


def training_length(m: int) -> int:
    """Training symbols spent on channel estimation: the smallest power of
    two that is at least the stream count."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return 1 << (m - 1).bit_length()


def mmse_weights(h_hat: np.ndarray, sinr_rfo) -> np.ndarray:
    """Linear MMSE detector rows for the channel estimate,
    W = (H^H H + (1/sinr) I)^-1 H^H: Gauss-Jordan elimination of
    [H^H H + I/sinr | H^H] with the stack on the last axis. Supports stacked
    (..., N, M) inputs and a per-batch sinr array; returns (..., M, N)."""
    h_hat = np.asarray(h_hat)
    *batch, n, m = h_hat.shape
    nu = np.broadcast_to(1.0 / np.asarray(sinr_rfo, dtype=float), batch).reshape(-1)
    aug = np.empty((m, m + n, nu.size), dtype=complex)
    h_herm = aug[:, m:]                                        # (M, N, B)
    h_last = np.moveaxis(h_hat.reshape(-1, n, m), 0, -1)      # (N, M, B)
    np.conjugate(h_last.swapaxes(0, 1), out=h_herm)
    # a contiguous copy: products against a strided view of h_hat are slower
    h_cols = h_herm.conj()
    for i in range(m):
        aug[i, i] = (h_herm[i] * h_cols[i]).sum(axis=0) + nu
        for j in range(i + 1, m):
            aug[i, j] = (h_herm[i] * h_cols[j]).sum(axis=0)
            aug[j, i] = aug[i, j].conj()
    for k in range(m):
        # columns left of k are already eliminated; the pivot column is not read again
        row = aug[k, k + 1:]
        row /= aug[k, k].real
        for i in range(m):
            if i != k:
                aug[i, k + 1:] -= aug[i, k] * row
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
    reps = mod.re_index < len(mod.re_levels) // 2
    level = mod.re_index[reps]
    axes = (mod.re_gray, mod.im_gray) if mod.has_im_axis else (mod.re_gray,)
    weights = 0
    for gray in axes:
        flips = _POPCOUNT[np.bitwise_xor.outer(gray, gray)]
        weights = weights + flips[level] + flips[::-1, ::-1][level]
    edge = np.arange(len(mod.re_levels) - 1)
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
    edges = mod.re_levels[:-1] + mod.half_step
    x = edges - mean[..., None]                                  # (..., M, P/2, L-1)
    x *= sign
    x /= scale[..., None, None]
    tails = erfc(x)   # looked up at call time: a wrapper on the module name sees it
    errors = tails.reshape(tails.shape[:-2] + (-1,)) @ coef.ravel()
    return (errors / (len(mod.points) * mod.u)).mean(axis=-1)


def _detection_stats(h, h_hat, sinr_rfo):
    """Post-detection diagonal gains and decision-statistic variances for the
    power-normalized link (signal scaled by 1/sqrt(M), noise 1/sinr): the
    detected stream's off-diagonal interference plus the detector-row-scaled
    noise."""
    m = h.shape[-1]
    scale = 1.0 / math.sqrt(m)
    g = h * scale
    g_hat = h_hat * scale
    w = mmse_weights(g_hat, sinr_rfo)
    s = w @ g
    idx = np.arange(m)
    s_diag = s[..., idx, idx]
    nu = 1.0 / np.asarray(sinr_rfo, dtype=float)
    inter = np.sum(np.abs(s) ** 2, axis=-1) - np.abs(s_diag) ** 2
    w_energy = np.sum(np.abs(w) ** 2, axis=-1)
    sigma2 = inter + w_energy * (nu[..., None] if nu.ndim else nu)
    return s_diag, sigma2


# ---------------------------------------------------------------------------
# channel-averaged BER


def _draw_channel_set(m, n, n_draws, rng):
    h = complex_normal(rng, (n_draws, n, m))
    e_raw = complex_normal(rng, (n_draws, n, m))
    return h, e_raw


def _gh_nodes(quad_order: int):
    """The non-negative Gauss-Hermite nodes, each with its mirror's weight
    added: the integrand is even in the offset, and numpy's nodes and
    weights are exactly symmetric."""
    nodes, weights = np.polynomial.hermite.hermgauss(quad_order)
    half = quad_order // 2
    folded = weights[half:].copy()
    folded[quad_order % 2:] += weights[:half][::-1]
    return nodes[half:], folded / math.sqrt(math.pi)


def _check_sizes(n_draws, quad_order) -> None:
    for name, value in (("n_draws", n_draws), ("quad_order", quad_order)):
        if not value >= 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _ber_per_draw(sinr_in, h, e_raw, mod, flags: ImpairmentFlags,
                  params: SystemParams, quad_order: int):
    """The impairment chain at a positive input SINR, one BER per channel
    draw, (n_draws,): phase-noise ICI compresses the SINR, the residual
    offset is averaged over Gauss-Hermite nodes, and the channel estimate
    degrades with the SINR at each node."""
    sinr_b = sinr_baseband(sinr_in, params.f_ici) if flags.phase_noise else sinr_in
    m = h.shape[-1]
    mt = training_length(m)
    if flags.rfo:
        nodes, weights = _gh_nodes(quad_order)
        sigma = rfo_std(sinr_b, params.ns)
        eps = np.clip(math.sqrt(2.0) * sigma * nodes, -RFO_EPS_LIMIT, RFO_EPS_LIMIT)
        sinr_nodes = sinr_after_rfo(np.full_like(eps, sinr_b), eps)
    else:
        sinr_nodes = np.array([sinr_b])
        weights = np.array([1.0])
    pb = np.zeros(h.shape[0])
    for w_node, s_node in zip(weights, sinr_nodes):
        if flags.channel_est:
            err_std = math.sqrt(m / (mt * s_node))
            h_hat = h + err_std * e_raw
        else:
            h_hat = h
        pb += w_node * _ber_given_stats(*_detection_stats(h, h_hat, s_node), mod)
    return pb


def ber_end_to_end(
    sinr_in: float,
    m: int,
    n: int,
    mod: ModScheme,
    flags: ImpairmentFlags,
    params: SystemParams,
    n_draws: int = 2000,
    rng: np.random.Generator | None = None,
    quad_order: int = 15,
) -> tuple[float, float]:
    """Full chain from wideband input SINR to BER with the selected
    impairments, averaged over n_draws Rayleigh channel and estimate-error
    draws. Returns (mean, standard error over the draws).

    At zero input SINR the decision statistic carries no signal, so the BER
    is exactly one half for every Gray-labeled scheme.
    """
    if not sinr_in >= 0:
        raise ValueError("sinr_in must be non-negative")
    if m > n:
        raise ValueError("stream count cannot exceed receive antennas")
    _check_sizes(n_draws, quad_order)
    if sinr_in == 0:
        return 0.5, 0.0
    rng = rng if rng is not None else substream(0, "ber-end-to-end")
    h, e_raw = _draw_channel_set(m, n, n_draws, rng)
    pb = _ber_per_draw(sinr_in, h, e_raw, mod, flags, params, quad_order)
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
    threshold and rate (dominated modes removed; construction checks the
    order). Treat as immutable."""

    n_rx: int
    impaired: bool
    grid_step_db: float
    entries: tuple[RateEntry, ...]
    flags_label: str = ""
    build_info: dict | None = None

    def __post_init__(self):
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
        doc = {
            "version": 1,
            "n_rx": self.n_rx,
            "impaired": self.impaired,
            "flags": self.flags_label,
            "grid_step_db": self.grid_step_db,
            "entries": [
                {
                    "rate_bps": e.rate_bps,
                    "m": e.m,
                    "u": e.u,
                    "threshold_db": e.threshold_db,
                }
                for e in self.entries
            ],
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
                m=int(e["m"]),
                u=int(e["u"]),
                threshold_db=float(e["threshold_db"]),
            )
            for e in doc["entries"]
        )
        return cls(
            n_rx=int(doc["n_rx"]),
            impaired=bool(doc["impaired"]),
            grid_step_db=float(doc["grid_step_db"]),
            entries=entries,
            flags_label=doc.get("flags", ""),
            build_info=doc.get("build"),
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "RateTable":
        return cls.from_dict(json.loads(Path(path).read_text()))


def select_mode(sinr_in: float, table: RateTable) -> RateEntry | None:
    """Highest-rate entry whose threshold does not exceed sinr_in; None when
    even the lowest mode is out of reach."""
    idx = int(np.searchsorted(table.thresholds_linear, sinr_in, side="right"))
    return table.entries[idx - 1] if idx else None


def _pareto_front(cands: list[RateEntry]) -> tuple[RateEntry, ...]:
    """Keep, from highest rate down, every mode whose threshold strictly
    undercuts all higher-rate survivors; result ascends in both columns."""
    best_thr: dict[float, RateEntry] = {}
    for e in cands:
        kept = best_thr.get(e.rate_bps)
        if kept is None or e.threshold_db < kept.threshold_db:
            best_thr[e.rate_bps] = e
    ordered = sorted(best_thr.values(), key=lambda e: e.rate_bps, reverse=True)
    front: list[RateEntry] = []
    thr_seen = math.inf
    for e in ordered:
        if e.threshold_db < thr_seen:
            front.append(e)
            thr_seen = e.threshold_db
    return tuple(reversed(front))


def table_build_key(
    params: SystemParams,
    *,
    seed: int = 0,
    n_draws: int = 2000,
    grid_step_db: float = 0.1,
    sinr_range_db: tuple[float, float] = (-5.0, 45.0),
    quad_order: int = 15,
) -> dict:
    """Every input that shapes a rate table besides its antenna count and
    impairment set: the build settings and the SystemParams fields the BER
    chain and the rates read. build_rate_table records it as the table's
    build block; a cached table is fresh when its block equals the key."""
    lo_db, hi_db = sinr_range_db
    return {
        "seed": seed,
        "n_draws": n_draws,
        "sinr_lo_db": lo_db,
        "sinr_hi_db": hi_db,
        "grid_step_db": grid_step_db,
        "quad_order": quad_order,
        "gamma_ber": params.gamma_ber,
        "f_ici": params.f_ici,
        "ns": params.ns,
        "r_base_bps": params.r_base_bps,
    }


def build_rate_table(
    n_rx: int, flags: ImpairmentFlags, params: SystemParams, **settings
) -> RateTable:
    """Scan every (m <= n_rx, u) mode for the lowest SINR grid point meeting
    the BER target and keep the Pareto frontier. settings are the keyword
    arguments of table_build_key (seed, n_draws, grid_step_db,
    sinr_range_db, quad_order).

    One channel/estimate draw set per stream count is reused across the whole
    grid (common random numbers), which makes the averaged BER smooth and
    monotone in SINR so the first passing grid point is found by bisection.
    Modes that fail the target everywhere on the grid are omitted.
    """
    build = table_build_key(params, **settings)
    _check_sizes(build["n_draws"], build["quad_order"])
    lo_db, step_db = build["sinr_lo_db"], build["grid_step_db"]
    n_grid = int(round((build["sinr_hi_db"] - lo_db) / step_db)) + 1
    grid_db = np.round(lo_db + step_db * np.arange(n_grid), 9)
    gamma = params.gamma_ber

    cands: list[RateEntry] = []
    for m in range(1, n_rx + 1):
        rng = substream(build["seed"], f"rate-table-n{n_rx}-m{m}-{flags.label()}")
        h, e_raw = _draw_channel_set(m, n_rx, build["n_draws"], rng)
        for u in sorted(_D_BY_U):
            mod = make_mod_scheme(u)
            cache: dict[int, float] = {}

            def mean_ber(j: int) -> float:
                if j not in cache:
                    pb = _ber_per_draw(db_to_linear(grid_db[j]), h, e_raw, mod,
                                       flags, params, build["quad_order"])
                    cache[j] = float(pb.mean())
                return cache[j]

            if mean_ber(n_grid - 1) > gamma:
                continue
            if mean_ber(0) <= gamma:
                first_pass = 0
            else:
                lo_i, hi_i = 0, n_grid - 1   # fail at lo_i, pass at hi_i
                while hi_i - lo_i > 1:
                    mid = (lo_i + hi_i) // 2
                    if mean_ber(mid) <= gamma:
                        hi_i = mid
                    else:
                        lo_i = mid
                first_pass = hi_i
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
        impaired=flags != ImpairmentFlags.none(),
        grid_step_db=step_db,
        entries=_pareto_front(cands),
        flags_label=flags.label(),
        build_info=build,
    )
