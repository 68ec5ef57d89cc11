"""Distributed power and rate control for the pair network.

Two stages of local iteration, then a final rate pick. Stage 1 is a
synchronous power game: each pair maximizes a sigmoid reward on its own SINR
minus a linear power price, seeing the other pairs only through the
aggregate interference at its receiver; the closed-form best response
answers all pairs of a round in one array expression. Stage 2 walks the
surviving powers onto the rate-table thresholds: each active pair rescales
its power so its SINR lands on the threshold of the best rate it currently
clears. Step 3 reads the final rates off the table.

The stages and run_dprc also take a batch of members with the same pair
count and run them as one (M, K) array; a single call is the M = 1 case.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .config import SystemParams
from .link_abstraction import RateTable
from .radio_env import Topology, total_noise_power
from .rng import substream

__all__ = [
    "DprcState",
    "sigmoid_utility",
    "best_response_power",
    "stage1",
    "stage2",
    "run_dprc",
]


# Utility shaping and iteration depth (the README's constants table lists
# them). BETA, the SINR at which the sigmoid reward is 1/2, is derived from
# GAMMA_SIG, the smallest SINR considered useful; the price is charged per
# mW. Both stages run ROUNDS rounds.
SIGMOID_A = 1.0
PRICE_PER_MW = 1e-3
GAMMA_SIG = 1.001
ROUNDS = 30
BETA = GAMMA_SIG - math.log(SIGMOID_A * GAMMA_SIG - 1.0) / SIGMOID_A


@dataclass
class DprcState:
    """Final powers and selected rate indices (0 = silent), plus optional
    per-round (stage, iteration, powers, sinr, rate index) snapshots."""

    p: np.ndarray
    r: np.ndarray
    history: list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=list
    )


def sigmoid_utility(sinr, p):
    """Reward-minus-price utility: expit(a * (sinr - beta)) - price * p."""
    return expit(SIGMOID_A * (np.asarray(sinr, float) - BETA)) \
        - PRICE_PER_MW * np.asarray(p, float)


def best_response_power(ieff, p_t: float):
    """Utility-maximizing power for each pair whose SINR at power p is
    p / ieff (ieff = interference-plus-noise over own gain, mW), in closed
    form. Returns a float for a scalar ieff and an array for an array.

    The utility's stationary points satisfy sg * (1 - sg) = alpha * ieff / a
    in the sigmoid value sg; the maximum is the upper root,
    sg = (1 + sqrt(1 - q)) / 2 with q = 4 * alpha * ieff / a, and its SINR
    is beta + ln(sg / (1 - sg)) / a, clipped to the budget [0, p_t]. Since
    1 - sg = q / (2 * (1 + sqrt(1 - q))), the log-odds are
    2 * ln(1 + sqrt(1 - q)) - ln(q), free of cancellation for tiny ieff. A
    pair whose price slope reaches the sigmoid's peak slope (q >= 1), or
    whose best utility does not beat the zero-power floor, shuts off.
    """
    x = np.asarray(ieff, dtype=float)
    if np.any(x <= 0):
        raise ValueError("ieff must be positive")
    if p_t <= 0:
        raise ValueError("p_t must be positive")
    ieff_arr = np.atleast_1d(x)
    q = 4.0 * PRICE_PER_MW * ieff_arr / SIGMOID_A
    on = q < 1.0
    root = np.sqrt(np.where(on, 1.0 - q, 0.0))
    log_odds = 2.0 * np.log1p(root) - np.log(q)
    p = np.clip(ieff_arr * (BETA + log_odds / SIGMOID_A), 0.0, p_t)
    # drop rule: silence unless transmitting beats the zero-power floor
    keep = on & (sigmoid_utility(p / ieff_arr, p) > sigmoid_utility(0.0, 0.0))
    p = np.where(keep, p, 0.0)
    return float(p[0]) if x.ndim == 0 else p.reshape(x.shape)


def _gains(topo) -> tuple[bool, np.ndarray]:
    """Whether topo is one Topology rather than a batch, and the (M, K, K)
    stack of the members' gains (M = 1 for one topology)."""
    if isinstance(topo, Topology):
        return True, topo.rho[None]
    topos = list(topo)
    if not topos:
        raise ValueError("a batch needs at least one topology")
    if any(t.k != topos[0].k for t in topos):
        raise ValueError("batch members must share the pair count K")
    return False, np.stack([t.rho for t in topos])


def _per_member(single: bool, value, m: int, name: str) -> list:
    """One value per batch member: [value] for a single call, otherwise the
    sequence itself, which must hold one entry per topology."""
    values = [value] if single else list(value)
    if len(values) != m:
        raise ValueError(f"{name} must have one entry per topology")
    return values


def _thresholds(single: bool, thresholds_linear, m: int) -> np.ndarray:
    """Each member's strictly ascending thresholds as a row of an (M, T)
    array, padded with +inf, which no SINR clears. None means no thresholds."""
    if thresholds_linear is None:
        return np.empty((m, 0))
    rows = [np.asarray(t, dtype=float)
            for t in _per_member(single, thresholds_linear, m, "thresholds_linear")]
    if any(t.ndim != 1 or np.any(np.diff(t) <= 0) for t in rows):
        raise ValueError("thresholds must be strictly ascending")
    out = np.full((m, max(t.size for t in rows)), np.inf)
    for row, t in zip(out, rows):
        row[: t.size] = t
    return out


def _effective_interference(p: np.ndarray, rho: np.ndarray, noise_mw: float):
    """Per-pair (interference + noise) / own gain, the ieff of the game, for
    (M, K) powers against (M, K, K) gains."""
    received = (rho @ p[..., None])[..., 0]
    own = np.diagonal(rho, axis1=1, axis2=2)
    interference = received - p * own
    return (interference + noise_mw) / own


def _sinr(p: np.ndarray, rho: np.ndarray, noise_mw: float) -> np.ndarray:
    """network_opt.sinr_in_all for (M, K) powers, each row against its own
    (K, K) gains."""
    own = np.diagonal(rho, axis1=1, axis2=2)
    received = (p[:, None, :] @ rho.transpose(0, 2, 1))[:, 0]
    interference = received - p * own
    return p * own / (interference + noise_mw)


def _rate_indices(sinr: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Highest threshold index cleared by each SINR of an (M, K) array
    against the members' (M, T) thresholds; 0 means none. The count of
    thresholds at or below a SINR is searchsorted(..., side="right")."""
    return (thresholds[:, None, :] <= sinr[:, :, None]).sum(axis=-1)


def _record(trace: list, single: bool, stage: int, it: int, *arrays) -> None:
    """Append one round's (stage, iteration, powers, sinr, rate index) row:
    (K,) arrays for a single call, (traced members, K) for a batch."""
    trace.append((stage, it, *(a[0] if single else a for a in arrays)))


def stage1(
    topo: Topology | Sequence[Topology],
    params: SystemParams,
    rng: np.random.Generator | Sequence[np.random.Generator],
    *,
    trace: list | None = None,
    thresholds_linear=None,
    traced=None,
) -> np.ndarray:
    """Synchronous best-response power game from a random start
    p_i(0) = u_i * P_T: every round, all pairs play the closed-form best
    response to the interference of the previous round. Returns the power
    vector after ROUNDS rounds. Trace rows carry each pair's rate index
    against thresholds_linear (run_dprc passes its table's).

    Batch form: equal-length sequences of topologies (one K), generators
    and, if given, thresholds play M games as one (M, K) array and return
    (M, K) powers; each member draws its start from its own generator.
    Trace rows then hold the members indexed by traced (default all)."""
    single, rho = _gains(topo)
    m, k = rho.shape[:2]
    rngs = _per_member(single, rng, m, "rng")
    sel = np.arange(m) if traced is None else np.asarray(traced, dtype=np.intp)
    rho_sel = rho[sel]
    thr_sel = _thresholds(single, thresholds_linear, m)[sel]
    p_t = params.p_t_mw
    noise_mw = total_noise_power(params)
    p = np.stack([g.uniform(0.0, 1.0, size=k) for g in rngs]) * p_t
    for it in range(ROUNDS):
        p = best_response_power(_effective_interference(p, rho, noise_mw), p_t)
        if trace is not None:
            sinr = _sinr(p[sel], rho_sel, noise_mw)
            _record(trace, single, 1, it, p[sel], sinr, _rate_indices(sinr, thr_sel))
    return p[0] if single else p


# stage 2 lands a pair this hair above its threshold: the SINR recomputed at
# the rescaled power may round a few ulp below an exact landing, and the next
# round would then read the pair one mode lower
_LANDING_MARGIN = 1.0 + 1e-13


def stage2(
    p0: np.ndarray,
    topo: Topology | Sequence[Topology],
    thresholds_linear,
    params: SystemParams,
    *,
    trace: list | None = None,
    traced=None,
) -> DprcState | list[DprcState]:
    """Threshold tracking: in each of ROUNDS rounds, every pair picks the
    best rate its SINR clears and rescales power to sit just above that
    rate's threshold.

    Pairs clearing no threshold keep their power untouched; powers stay in
    [0, P_T].

    Batch form: (M, K) starting powers, equal-length sequences of
    topologies (one K) and threshold arrays; returns one state per member,
    whose history holds that member's rows of trace if it is among traced
    (default all).
    """
    single, rho = _gains(topo)
    m, k = rho.shape[:2]
    thr = _thresholds(single, thresholds_linear, m)
    sel = np.arange(m) if traced is None else np.asarray(traced, dtype=np.intp)
    rho_sel = rho[sel]
    noise_mw = total_noise_power(params)
    p = np.array(p0, dtype=float).reshape(m, k)
    for it in range(ROUNDS):
        sinr = _sinr(p, rho, noise_mw)
        r = _rate_indices(sinr, thr)
        active = (r > 0) & (p > 0)
        landing = np.take_along_axis(thr, np.maximum(r - 1, 0), axis=1)
        target = np.where(active, landing * _LANDING_MARGIN, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(active, target / np.maximum(sinr, 1e-300), 1.0)
        p = np.clip(p * ratio, 0.0, params.p_t_mw)
        if trace is not None:
            _record(trace, single, 2, it, p[sel], _sinr(p[sel], rho_sel, noise_mw), r[sel])
    r = _rate_indices(_sinr(p, rho, noise_mw), thr)
    if single:
        return DprcState(p=p[0], r=r[0], history=trace if trace is not None else [])
    slot = dict(zip(sel.tolist(), range(sel.size)))
    rows = trace if trace is not None else []

    def history(j: int) -> list:
        if j not in slot:
            return []
        return [(s, it, *(a[slot[j]] for a in arrays)) for s, it, *arrays in rows]

    return [DprcState(p=p[j], r=r[j], history=history(j)) for j in range(m)]


def run_dprc(
    topo: Topology | Sequence[Topology],
    table: RateTable | Sequence[RateTable],
    params: SystemParams,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
    *,
    trace: bool | Sequence[bool] = False,
) -> tuple[DprcState, float] | tuple[list[DprcState], np.ndarray]:
    """Full algorithm: power game, threshold tracking against the table's
    thresholds, then the final per-pair mode pick. Returns the final state
    and the resulting sum throughput (bits/s).

    Batch form: equal-length sequences of topologies (all with the same K),
    tables and generators run M members through both stages as one (M, K)
    array and return (list of M states, (M,) sums); trace is one bool or one
    per member, and only traced members keep a history. Each member draws
    only from its own generator, so its result is bit-identical alone and
    in any batch.
    """
    single = isinstance(topo, Topology)
    if single:
        rng = rng if rng is not None else substream(0, "dprc")
    else:
        topo, rng = list(topo), list(rng)
    m = 1 if single else len(topo)
    tables = _per_member(single, table, m, "table")
    flags = [trace] * m if np.ndim(trace) == 0 else _per_member(False, trace, m, "trace")
    traced = np.flatnonzero(flags)
    rows: list | None = [] if traced.size else None
    thr = table.thresholds_linear if single else [t.thresholds_linear for t in tables]
    p1 = stage1(topo, params, rng, trace=rows, thresholds_linear=thr, traced=traced)
    state = stage2(p1, topo, thr, params, trace=rows, traced=traced)
    # step 3: stage2's closing rate indices are the table lookup at the
    # final powers, so the rates are read off them
    if single:
        return state, float(table.rates_by_index[state.r].sum())
    return state, np.array([t.rates_by_index[s.r].sum() for s, t in zip(state, tables)])
