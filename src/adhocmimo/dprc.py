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
and run them as one (M, K) array; a single run is a batch of one. Each
stage returns its per-round history, so a run's trace is a slice of the
batch's arrays.
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
    """A batch's final (M, K) powers and selected rate indices (0 = silent),
    and its history: (powers, sinr, rate index) after every round of stage 1
    and then stage 2, each of shape (M, 2 * ROUNDS, K). A stage-1 row's rate
    index is the one its SINR clears; a stage-2 row's is the one its round
    aimed at, which the previous row's SINR clears."""

    p: np.ndarray
    r: np.ndarray
    history: tuple[np.ndarray, np.ndarray, np.ndarray]


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


def _effective_interference(
    p: np.ndarray, gains: tuple[np.ndarray, np.ndarray], noise_mw: float
) -> np.ndarray:
    """Per-pair (interference + noise) / own gain, the ieff of the game, for
    (M, K) powers against the (M, K) own and (M, K, K) cross gains of
    stack_gains."""
    own, cross = gains
    interference = (cross @ p[..., None])[..., 0]
    return (interference + noise_mw) / own


def stage1(
    gains: tuple[np.ndarray, np.ndarray], params: SystemParams,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Synchronous best-response power game over a batch: the stacked gains
    of stack_gains and M generators play M games as one (M, K) array. Each
    member starts from p_i(0) = u_i * P_T drawn from its own generator;
    every round, all pairs play the closed-form best response to the
    interference of the previous round. Returns the powers and SINRs after each of the
    ROUNDS rounds, each (M, ROUNDS, K)."""
    p_t = params.p_t_mw
    noise_mw = total_noise_power(params)
    p = np.stack([g.uniform(0.0, 1.0, size=gains[0].shape[-1]) for g in rngs]) * p_t
    powers, sinrs = [], []
    for _ in range(ROUNDS):
        p = best_response_power(_effective_interference(p, gains, noise_mw), p_t)
        powers.append(p)
        sinrs.append(sinr_in_all(p[:, None], gains, noise_mw)[:, 0])
    return np.stack(powers, axis=1), np.stack(sinrs, axis=1)


# stage 2 lands a pair this hair above its threshold: the SINR recomputed at
# the rescaled power may round a few ulp below an exact landing, and the next
# round would then read the pair one mode lower
_LANDING_MARGIN = 1.0 + 1e-13


def stage2(
    p0: np.ndarray, gains: tuple[np.ndarray, np.ndarray], thr: np.ndarray,
    params: SystemParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold tracking over a batch: (M, K) starting powers, the stacked
    gains of stack_gains and the (M, T) thresholds of stack_tables. In each of
    ROUNDS rounds, every pair picks the best rate its SINR clears and
    rescales power to sit just above that rate's threshold. Pairs clearing
    no threshold keep their power untouched; powers stay in [0, P_T].
    Returns the powers and SINRs after each round and the rate index each
    round aimed at, each (M, ROUNDS, K). A round aims at the rate index of
    the SINR it starts from, which is the previous round's."""
    rows = np.arange(thr.shape[0])[:, None]
    noise_mw = total_noise_power(params)
    p = np.array(p0, dtype=float)
    sinr = sinr_in_all(p[:, None], gains, noise_mw)[:, 0]
    powers, sinrs, aims = [], [], []
    for _ in range(ROUNDS):
        r = rate_indices(sinr, thr)
        active = (r > 0) & (p > 0)
        landing = thr[rows, np.maximum(r - 1, 0)]
        target = np.where(active, landing * _LANDING_MARGIN, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(active, target / np.maximum(sinr, 1e-300), 1.0)
        p = np.clip(p * ratio, 0.0, params.p_t_mw)
        sinr = sinr_in_all(p[:, None], gains, noise_mw)[:, 0]
        powers.append(p)
        sinrs.append(sinr)
        aims.append(r)
    return np.stack(powers, axis=1), np.stack(sinrs, axis=1), np.stack(aims, axis=1)


def run_dprc(
    topos: Sequence[Topology],
    tables: Sequence[RateTable],
    params: SystemParams,
    rngs: Sequence[np.random.Generator],
) -> tuple[DprcState, np.ndarray]:
    """Full algorithm over a batch: equal-length sequences of topologies
    (all with the same K), tables and generators run M members through the
    power game, threshold tracking against each member's table, and the
    final per-pair mode pick, as one (M, K) array. Returns the batch's final
    state, history included, and the (M,) sum throughputs (bits/s). Each
    member draws only from its own generator, so its result is
    bit-identical in any batch.
    """
    tables, rngs = list(tables), list(rngs)
    gains = stack_gains(topos)
    m = gains[0].shape[0]
    if not m == len(tables) == len(rngs):
        raise ValueError("topos, tables and rngs must have one length")
    thr, rates = stack_tables(tables)
    p1, sinr1 = stage1(gains, params, rngs)
    p2, sinr2, r2 = stage2(p1[:, -1], gains, thr, params)
    # step 3: the rates are read off the table at the final powers
    r = rate_indices(sinr2[:, -1], thr)
    history = (
        np.concatenate([p1, p2], axis=1),
        np.concatenate([sinr1, sinr2], axis=1),
        np.concatenate([rate_indices(sinr1, thr), r2], axis=1),
    )
    state = DprcState(p=p2[:, -1], r=r, history=history)
    return state, rates[np.arange(m)[:, None], r].sum(axis=-1)
