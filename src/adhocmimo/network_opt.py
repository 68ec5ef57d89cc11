"""Network-level SINR and the centralized maximization of sum throughput
with a real-coded genetic algorithm.

Power allocations are plain float arrays (mW, one entry per pair). The
objective is piecewise constant: each pair's rate is a table lookup on its
input SINR, so gradients are useless and a population search is the
appropriate tool.
"""

from __future__ import annotations

from collections.abc import Sequence
import numpy as np

from .config import SystemParams
from .link_abstraction import RateTable
from .radio_env import Topology, total_noise_power
from .rng import substream

__all__ = [
    "sinr_in_all",
    "maximize_sum_throughput",
]


def sinr_in_all(p, topo: Topology, noise_mw: float) -> np.ndarray:
    """Input SINR of every pair (or batch of allocations) at once.

    p may be (K,) or (B, K); the result matches. noise_mw is the total
    receiver noise power over all subcarriers.
    """
    p = np.asarray(p, dtype=float)
    own = np.diagonal(topo.rho)
    received = p @ topo.rho.T          # (..., j) = sum_i p_i * rho[j, i]
    interference = received - p * own
    return p * own / (interference + noise_mw)


# GA settings (the README's constants table lists them)
POPULATION_PER_PAIR = 4         # population size 4 K
GENERATIONS = 100
CROSSOVER_RATE = 0.8
MUTATIONS_PER_ALLOCATION = 1.0  # each gene mutates with probability 1 / K
STEP_FRAC = 0.1                 # Gaussian mutation step std, share of P_T
RESET_FRAC = 0.8                # share of mutations that redraw the gene
ELITISM = 2


def _corner_allocations(k: int, p_t: float) -> np.ndarray:
    corners = np.zeros((k + 2, k))
    corners[0] = p_t
    corners[2:] = p_t * np.eye(k)
    return corners


def maximize_sum_throughput(
    topo: Topology | Sequence[Topology],
    table: RateTable | Sequence[RateTable],
    params: SystemParams,
    *,
    seed: int | Sequence[int],
    extra_seeds=None,
):
    """Search per-pair powers in [0, P_T] for the maximum sum throughput.

    Tournament selection (size 2), blend crossover, mixed Gaussian-step and
    uniform-redraw mutation, elitism. The initial population contains the
    K+2 corner allocations
    (all-on, all-off, each pair alone at P_T) plus any extra_seeds rows, so
    with elitism the result never falls below the best of those baselines.
    Returns (best allocation, its sum throughput).

    Batch form: equal-length sequences of topologies (all with the same K),
    tables and seeds evolve M independent runs as one (M, population, K)
    array, and the result is ((M, K) allocations, (M,) sums); extra_seeds
    is then one (K,) or (rows, K) array per member, with the same row count
    for all. Each run draws only from its own substream(seed, "ga") in a
    fixed layout per generation, so a member's result is bit-identical
    alone and in any batch.
    """
    single = isinstance(topo, Topology)
    topos, tables, ga_seeds = ([topo], [table], [seed]) if single else (
        list(topo), list(table), list(seed))
    m = len(topos)
    if m == 0 or not m == len(tables) == len(ga_seeds):
        raise ValueError("topo, table and seed must be sequences of one nonzero length")
    k = topos[0].k
    if any(t.k != k for t in topos):
        raise ValueError("batch members must share the pair count K")

    p_t = params.p_t_mw
    mut_rate = MUTATIONS_PER_ALLOCATION / k
    mut_sigma = STEP_FRAC * p_t
    noise_mw = total_noise_power(params)
    seeds = np.broadcast_to(_corner_allocations(k, p_t), (m, k + 2, k))
    if extra_seeds is not None:
        extra = np.asarray(extra_seeds, dtype=float).reshape(m, -1, k)
        seeds = np.concatenate([seeds, np.clip(extra, 0.0, p_t)], axis=1)
    pop_size = max(POPULATION_PER_PAIR * k, seeds.shape[1] + ELITISM)
    n_pairs = pop_size // 2

    # gains laid out for p @ rho^T per member, and members grouped by table
    # so each generation does one rate lookup per distinct table
    rho_t = np.stack([t.rho.T for t in topos])
    own = np.stack([np.diagonal(t.rho) for t in topos])[:, None, :]
    groups: dict[int, tuple[RateTable, list[int]]] = {}
    for i, tab in enumerate(tables):
        groups.setdefault(id(tab), (tab, []))[1].append(i)

    def fitness(pop: np.ndarray) -> np.ndarray:
        signal = pop * own
        sinr = signal / (pop @ rho_t - signal + noise_mw)
        fit = np.empty(pop.shape[:2])
        for tab, idx in groups.values():
            fit[idx] = tab.rate_for_sinr(sinr[idx]).sum(axis=-1)
        return fit

    # one generator per distinct seed; members sharing a seed share its draws
    slot = {s: j for j, s in enumerate(dict.fromkeys(ga_seeds))}
    member_slot = np.array([slot[s] for s in ga_seeds])
    rngs = [substream(s, "ga") for s in slot]
    # per generation: tournament entrants, crossover coins, blend weights,
    # mutation choice, redraw values, then one block of Gaussian steps
    cuts = np.cumsum([2 * pop_size, n_pairs, 2 * n_pairs * k, pop_size * k])
    uniform = np.empty((len(rngs), cuts[-1] + pop_size * k))
    normal = np.empty((len(rngs), pop_size * k))

    genes = p_t * np.stack([r.random((pop_size, k)) for r in rngs])[member_slot]
    genes[:, : seeds.shape[1]] = seeds
    fit = fitness(genes)

    for _ in range(GENERATIONS):
        for r, u, z in zip(rngs, uniform, normal):
            r.random(out=u)
            r.standard_normal(out=z)
        tour, cross, blend, choice, redraw = np.split(
            uniform[member_slot], cuts, axis=1)

        # tournament selection, two random entrants per parent slot
        entrants = (tour * pop_size).astype(np.intp).reshape(m, 2, pop_size)
        a, b = entrants[:, 0], entrants[:, 1]
        wins = np.take_along_axis(fit, a, 1) >= np.take_along_axis(fit, b, 1)
        parents = np.take_along_axis(genes, np.where(wins, a, b)[..., None], 1)

        # blend crossover on consecutive parent pairs
        children = parents.copy()
        mates = parents[:, : 2 * n_pairs].reshape(m, n_pairs, 2, k)
        lo = mates.min(axis=2, keepdims=True)
        span = mates.max(axis=2, keepdims=True) - lo
        blended = lo - 0.5 * span + 2.0 * span * blend.reshape(m, n_pairs, 2, k)
        crossed = (cross < CROSSOVER_RATE)[..., None, None]
        children[:, : 2 * n_pairs] = np.where(crossed, blended, mates).reshape(
            m, 2 * n_pairs, k)

        # mutation: a Gaussian step refines, a uniform redraw escapes the
        # collapsed-population basin that small steps cannot leave
        choice = choice.reshape(m, pop_size, k)
        stepped = children + mut_sigma * normal[member_slot].reshape(m, pop_size, k)
        children = np.where(
            choice < mut_rate * RESET_FRAC,
            p_t * redraw.reshape(m, pop_size, k),
            np.where(choice < mut_rate, stepped, children),
        )
        np.clip(children, 0.0, p_t, out=children)

        # elitism: best of the current generation survive unchanged
        elite = np.argsort(fit, axis=1, kind="stable")[:, -ELITISM:]
        children[:, :ELITISM] = np.take_along_axis(genes, elite[..., None], 1)

        genes = children
        fit = fitness(genes)

    # elitism carries the best allocation seen so far into every generation
    best = fit.argmax(axis=1)
    best_p = genes[np.arange(m), best]
    best_fit = fit[np.arange(m), best]
    return (best_p[0], float(best_fit[0])) if single else (best_p, best_fit)
