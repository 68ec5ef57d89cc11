"""Distributed power and rate control for the pair network.

Two stages of local iteration, then a final rate pick. Stage 1 is a
synchronous power game: each pair maximizes a sigmoid reward on its own SINR
minus a linear power price, seeing the other pairs only through the
aggregate interference at its receiver; the closed-form best response
answers all pairs of a round in one array expression. Stage 2 walks the
surviving powers onto the rate-table thresholds: each active pair rescales
its power so its SINR lands on the threshold of the best rate it currently
clears. Step 3 reads the final rates off the table.

The stages and run_dprc take a batch of members with the same pair count
and run them as one (M, K) array; a single run is a batch of one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import SystemParams
from .link_abstraction import RateTable
from .network_opt import rate_indices, sinr_in_all, stack_gains, stack_tables
from .radio_env import Topology, total_noise_power

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
    """Final powers and selected rate indices (0 = silent). A traced
    member's history holds its (powers, sinr, rate index) after every round
    of stage 1 and then stage 2, each of shape (2 * ROUNDS, K); it is None
    for untraced members."""

    p: np.ndarray
    r: np.ndarray
    history: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def sigmoid_utility(sinr, p):
    """Reward-minus-price utility: 1 / (1 + exp(-a * (sinr - beta))) - price * p.

    The sigmoid is scipy's expit in expit's own form, 1 / (1 + exp(-x)),
    computed in numpy so that the network scenarios do not load scipy.
    numpy's vectorized exp can differ from libm's by an ulp, so over SINRs
    from 0 to 1e8 the two differ by at most 2 ulp of the value (on 1.4% of
    them); at beta both read exactly 1/2. Far below beta exp(-x) overflows to
    inf and the sigmoid reads exactly 0, as expit does; that overflow is
    silenced."""
    x = SIGMOID_A * (np.asarray(sinr, float) - BETA)
    with np.errstate(over="ignore"):
        reward = 1.0 / (1.0 + np.exp(-x))
    return reward - PRICE_PER_MW * np.asarray(p, float)


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


def _per_member(values, m: int, name: str) -> list:
    """The sequence values as a list, which must hold one entry per member."""
    values = list(values)
    if len(values) != m:
        raise ValueError(f"{name} must have one entry per topology")
    return values


def _effective_interference(p: np.ndarray, rho: np.ndarray, noise_mw: float):
    """Per-pair (interference + noise) / own gain, the ieff of the game, for
    (M, K) powers against (M, K, K) gains."""
    received = (rho @ p[..., None])[..., 0]
    own = np.diagonal(rho, axis1=1, axis2=2)
    interference = received - p * own
    return (interference + noise_mw) / own


def stage1(
    topos: Sequence[Topology],
    tables: Sequence[RateTable],
    params: SystemParams,
    rngs: Sequence[np.random.Generator],
    *,
    trace: list | None = None,
    traced=None,
) -> np.ndarray:
    """Synchronous best-response power game over a batch: equal-length
    sequences of topologies (one K), tables and generators play M games as
    one (M, K) array. Each member starts from p_i(0) = u_i * P_T drawn from
    its own generator; every round, all pairs play the closed-form best
    response to the interference of the previous round. Returns the (M, K)
    powers after ROUNDS rounds.

    With a trace list, every round appends (powers, sinr, rate index) of
    the members indexed by traced (default all), each (traced, K); the
    tables only give those rate indices."""
    rho = stack_gains(topos)
    m, k = rho.shape[:2]
    rngs = _per_member(rngs, m, "rngs")
    sel = np.arange(m) if traced is None else np.asarray(traced, dtype=np.intp)
    rho_sel = rho[sel]
    thr_sel = stack_tables(_per_member(tables, m, "tables"))[0][sel]
    p_t = params.p_t_mw
    noise_mw = total_noise_power(params)
    p = np.stack([g.uniform(0.0, 1.0, size=k) for g in rngs]) * p_t
    for _ in range(ROUNDS):
        p = best_response_power(_effective_interference(p, rho, noise_mw), p_t)
        if trace is not None:
            sinr = sinr_in_all(p[sel, None], rho_sel, noise_mw)[:, 0]
            trace.append((p[sel], sinr, rate_indices(sinr, thr_sel)))
    return p


# stage 2 lands a pair this hair above its threshold: the SINR recomputed at
# the rescaled power may round a few ulp below an exact landing, and the next
# round would then read the pair one mode lower
_LANDING_MARGIN = 1.0 + 1e-13


def stage2(
    p0: np.ndarray,
    topos: Sequence[Topology],
    tables: Sequence[RateTable],
    params: SystemParams,
    *,
    trace: list | None = None,
    traced=None,
) -> list[DprcState]:
    """Threshold tracking over a batch: (M, K) starting powers, and
    equal-length sequences of topologies (one K) and tables. In each of
    ROUNDS rounds, every pair picks the best rate its SINR clears and
    rescales power to sit just above that rate's threshold. Pairs clearing
    no threshold keep their power untouched; powers stay in [0, P_T].
    Returns one state per member, without history.

    A trace list receives (powers, sinr, rate index) rows as in stage1."""
    rho = stack_gains(topos)
    m = rho.shape[0]
    thr = stack_tables(_per_member(tables, m, "tables"))[0]
    rows = np.arange(m)[:, None]
    sel = np.arange(m) if traced is None else np.asarray(traced, dtype=np.intp)
    rho_sel = rho[sel]
    noise_mw = total_noise_power(params)
    p = np.array(p0, dtype=float)
    for _ in range(ROUNDS):
        sinr = sinr_in_all(p[:, None], rho, noise_mw)[:, 0]
        r = rate_indices(sinr, thr)
        active = (r > 0) & (p > 0)
        landing = thr[rows, np.maximum(r - 1, 0)]
        target = np.where(active, landing * _LANDING_MARGIN, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(active, target / np.maximum(sinr, 1e-300), 1.0)
        p = np.clip(p * ratio, 0.0, params.p_t_mw)
        if trace is not None:
            sinr_sel = sinr_in_all(p[sel, None], rho_sel, noise_mw)[:, 0]
            trace.append((p[sel], sinr_sel, r[sel]))
    r = rate_indices(sinr_in_all(p[:, None], rho, noise_mw)[:, 0], thr)
    return [DprcState(p=p[j], r=r[j]) for j in range(m)]


def run_dprc(
    topos: Sequence[Topology],
    tables: Sequence[RateTable],
    params: SystemParams,
    rngs: Sequence[np.random.Generator],
    *,
    trace: bool | Sequence[bool] = False,
) -> tuple[list[DprcState], np.ndarray]:
    """Full algorithm over a batch: equal-length sequences of topologies
    (all with the same K), tables and generators run M members through the
    power game, threshold tracking against each member's table, and the
    final per-pair mode pick, as one (M, K) array. Returns the M final
    states and the (M,) sum throughputs (bits/s). trace is one bool or one
    per member; only traced members keep a history. Each member draws only
    from its own generator, so its result is bit-identical in any batch.
    """
    topos = list(topos)
    m = len(topos)
    tables = _per_member(tables, m, "tables")
    flags = [trace] * m if np.ndim(trace) == 0 else _per_member(trace, m, "trace")
    traced = np.flatnonzero(flags)
    rows: list | None = [] if traced.size else None
    p1 = stage1(topos, tables, params, rngs, trace=rows, traced=traced)
    states = stage2(p1, topos, tables, params, trace=rows, traced=traced)
    if rows:
        p, sinr, r = (np.stack(column, axis=1) for column in zip(*rows))
        for i, j in enumerate(traced):
            states[j].history = (p[i], sinr[i], r[i])
    # step 3: stage2's closing rate indices are the table lookup at the
    # final powers, so the rates are read off them
    rates = stack_tables(tables)[1]
    return states, rates[np.arange(m)[:, None], [s.r for s in states]].sum(axis=-1)
