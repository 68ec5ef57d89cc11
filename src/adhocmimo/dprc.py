"""Distributed power and rate control for the pair network.

Two stages of local iteration, then a final rate pick. Stage 1 is a
synchronous power game: each pair maximizes a sigmoid reward on its own SINR
minus a linear power price, seeing the other pairs only through the
aggregate interference at its receiver; the closed-form best response
answers all pairs of a round in one array expression. Stage 2 walks the
surviving powers onto the rate-table thresholds: each active pair rescales
its power so its SINR lands on the threshold of the best rate it currently
clears. Step 3 reads the final rates off the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .config import SystemParams
from .link_abstraction import RateTable
from .network_opt import sinr_in_all
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


def _effective_interference(p: np.ndarray, topo: Topology, noise_mw: float):
    """Per-pair (interference + noise) / own gain, the ieff of the game."""
    received = topo.rho @ p
    own = np.diagonal(topo.rho)
    interference = received - p * own
    return (interference + noise_mw) / own


def _rate_indices(sinr: np.ndarray, thresholds_linear: np.ndarray) -> np.ndarray:
    """Highest threshold index cleared by each SINR; 0 means none."""
    return np.searchsorted(thresholds_linear, sinr, side="right")


def stage1(
    topo: Topology,
    params: SystemParams,
    rng: np.random.Generator,
    *,
    trace: list | None = None,
    thresholds_linear=(),
) -> np.ndarray:
    """Synchronous best-response power game from a random start
    p_i(0) = u_i * P_T: every round, all pairs play the closed-form best
    response to the interference of the previous round. Returns the power
    vector after ROUNDS rounds. Trace rows carry each pair's rate index
    against thresholds_linear (run_dprc passes its table's)."""
    p_t = params.p_t_mw
    noise_mw = total_noise_power(params)
    p = rng.uniform(0.0, 1.0, size=topo.k) * p_t
    for it in range(ROUNDS):
        ieff = _effective_interference(p, topo, noise_mw)
        p = best_response_power(ieff, p_t)
        if trace is not None:
            sinr = sinr_in_all(p, topo, noise_mw)
            r = _rate_indices(sinr, np.asarray(thresholds_linear, dtype=float))
            trace.append((1, it, p.copy(), sinr, r))
    return p


# stage 2 lands a pair this hair above its threshold: the SINR recomputed at
# the rescaled power may round a few ulp below an exact landing, and the next
# round would then read the pair one mode lower
_LANDING_MARGIN = 1.0 + 1e-13


def stage2(
    p0: np.ndarray,
    topo: Topology,
    thresholds_linear: np.ndarray,
    params: SystemParams,
    *,
    trace: list | None = None,
) -> DprcState:
    """Threshold tracking: in each of ROUNDS rounds, every pair picks the
    best rate its SINR clears and rescales power to sit just above that
    rate's threshold.

    Pairs clearing no threshold keep their power untouched; powers stay in
    [0, P_T].
    """
    thresholds_linear = np.asarray(thresholds_linear, dtype=float)
    if thresholds_linear.ndim != 1 or np.any(np.diff(thresholds_linear) <= 0):
        raise ValueError("thresholds must be strictly ascending")
    noise_mw = total_noise_power(params)
    p = np.asarray(p0, dtype=float).copy()
    r = np.zeros(topo.k, dtype=int)
    hist: list = trace if trace is not None else []
    for it in range(ROUNDS):
        sinr = sinr_in_all(p, topo, noise_mw)
        r = _rate_indices(sinr, thresholds_linear)
        active = (r > 0) & (p > 0)
        target = np.where(
            active, thresholds_linear[np.maximum(r - 1, 0)] * _LANDING_MARGIN, 1.0
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(active, target / np.maximum(sinr, 1e-300), 1.0)
        p = np.clip(p * ratio, 0.0, params.p_t_mw)
        if trace is not None:
            hist.append((2, it, p.copy(), sinr_in_all(p, topo, noise_mw), r.copy()))
    sinr = sinr_in_all(p, topo, noise_mw)
    r = _rate_indices(sinr, thresholds_linear)
    return DprcState(p=p, r=r, history=hist)


def run_dprc(
    topo: Topology,
    table: RateTable,
    params: SystemParams,
    rng: np.random.Generator | None = None,
    *,
    trace: bool = False,
) -> tuple[DprcState, float]:
    """Full algorithm: power game, threshold tracking against the table's
    thresholds, then the final per-pair mode pick. Returns the final state
    and the resulting sum throughput (bits/s)."""
    rng = rng if rng is not None else substream(0, "dprc")
    rows: list | None = [] if trace else None
    p1 = stage1(topo, params, rng, trace=rows,
                thresholds_linear=table.thresholds_linear)
    state = stage2(p1, topo, table.thresholds_linear, params, trace=rows)
    # step 3: stage2's closing rate indices are the table lookup at the
    # final powers, so the rates are read off them
    return state, float(table.rates_by_index[state.r].sum())
