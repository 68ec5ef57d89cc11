"""Network-level SINR, the rate lookup shared by the GA and DPRC, and the
centralized maximization of sum throughput with a real-coded genetic
algorithm.

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
    "split_gains",
    "stack_gains",
    "stack_tables",
    "interference_plus_noise",
    "sinr_in_all",
    "rate_indices",
    "maximize_sum_throughput",
]


def split_gains(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gains (..., K, K), where rho[..., j, i] is the gain from transmitter
    i to receiver j, split for the SINR: own (..., K), each pair's own link,
    and cross (..., K, K), the gains with the diagonal zeroed. Interference
    summed against cross adds up the other transmitters directly; total
    received power minus the signal would cancel at high SINR."""
    rho = np.asarray(rho, dtype=float)
    diagonal = np.eye(rho.shape[-1], dtype=bool)
    return rho[..., diagonal], np.where(diagonal, 0.0, rho)


def stack_gains(topos: Sequence[Topology]) -> tuple[np.ndarray, np.ndarray]:
    """The (M, K) own and (M, K, K) cross gains of a batch (split_gains),
    split once for all its SINR evaluations; the M >= 1 topologies must
    share the pair count K."""
    topos = list(topos)
    if not topos:
        raise ValueError("a batch needs at least one topology")
    if any(t.k != topos[0].k for t in topos):
        raise ValueError("batch members must share the pair count K")
    return split_gains(np.stack([t.rho for t in topos]))


def stack_tables(tables: Sequence[RateTable]) -> tuple[np.ndarray, np.ndarray]:
    """The rate ladders of a batch's M tables: (M, T) linear thresholds,
    padded with +inf, which no SINR clears, and the (M, T + 1) rates of
    each rate index (each table's rates_by_index; padding is never read).
    T is at least 1, so a table with no modes reads rate 0 everywhere, and
    at most 255, the most rate_indices counts."""
    tables = list(tables)
    width = max([1] + [len(t.entries) for t in tables])
    if width > 255:
        raise ValueError(f"a rate table may hold at most 255 modes, not {width}")
    thresholds = np.full((len(tables), width), np.inf)
    rates = np.zeros((len(tables), width + 1))
    for j, t in enumerate(tables):
        thresholds[j, : len(t.entries)] = t.thresholds_linear
        rates[j, : len(t.entries) + 1] = t.rates_by_index
    return thresholds, rates


def rate_indices(sinr: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Rate index of each SINR of an (M, ..., K) array against the members'
    (M, T) thresholds from stack_tables: how many of its member's thresholds
    are at or below it, so 0 means none. Thresholds are inclusive lower
    bounds."""
    # one (T, M, ..., K) comparison, counted down its leading axis in uint8
    # (stack_tables keeps T <= 255)
    held = thresholds.T.reshape(thresholds.shape[::-1] + (1,) * (sinr.ndim - 1))
    return np.add.reduce(held <= sinr, axis=0, dtype=np.uint8).astype(np.intp)


def interference_plus_noise(p, cross: np.ndarray, noise_mw: float) -> np.ndarray:
    """Interference plus total receiver noise (mW) at every receiver for
    allocation rows p of shape (..., B, K) against the (..., K, K) cross
    gains of split_gains: noise_mw + sum_{i != j} p[..., b, i] * rho[..., j, i]."""
    return np.asarray(p, dtype=float) @ np.swapaxes(cross, -1, -2) + noise_mw


def sinr_in_all(p, gains: tuple[np.ndarray, np.ndarray], noise_mw: float) -> np.ndarray:
    """Input SINR of every pair for allocation rows p of shape (..., B, K)
    against the (own, cross) gains of split_gains, of shapes (..., K) and
    (..., K, K): own signal over interference_plus_noise, in p's shape."""
    own, cross = gains
    p = np.asarray(p, dtype=float)
    return p * own[..., None, :] / interference_plus_noise(p, cross, noise_mw)


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
    topos: Sequence[Topology],
    tables: Sequence[RateTable],
    params: SystemParams,
    *,
    seeds: Sequence[int],
    extra_seeds=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Search per-pair powers in [0, P_T] for the maximum sum throughput of
    each member of a batch: equal-length sequences of topologies (all with
    the same K), tables and seeds evolve M independent runs as one
    (M, population, K) array. Returns the (M, K) best allocations and their
    (M,) sum throughputs; a single run is a batch of one.

    Tournament selection (size 2), blend crossover, mixed Gaussian-step and
    uniform-redraw mutation, elitism. Each initial population contains the
    K+2 corner allocations (all-on, all-off, each pair alone at P_T) plus
    the member's extra_seeds rows (one (K,) or (rows, K) array per member,
    the same row count for all), so with elitism the result never falls
    below the best of those baselines. Each run draws only from its own
    substream(seed, "ga") in a fixed layout per generation, so a member's
    result is bit-identical in any batch.
    """
    tables, seeds = list(tables), list(seeds)
    gains = stack_gains(topos)
    m, k = gains[0].shape
    if not m == len(tables) == len(seeds):
        raise ValueError("topos, tables and seeds must have one length")

    p_t = params.p_t_mw
    mut_rate = MUTATIONS_PER_ALLOCATION / k
    reset_rate = mut_rate * RESET_FRAC
    mut_sigma = STEP_FRAC * p_t
    noise_mw = total_noise_power(params)
    baseline = np.broadcast_to(_corner_allocations(k, p_t), (m, k + 2, k))
    if extra_seeds is not None:
        extra = np.asarray(extra_seeds, dtype=float).reshape(m, -1, k)
        baseline = np.concatenate([baseline, np.clip(extra, 0.0, p_t)], axis=1)
    pop_size = max(POPULATION_PER_PAIR * k, baseline.shape[1] + ELITISM)
    n_pairs = pop_size // 2
    paired = 2 * n_pairs

    thresholds, rates = stack_tables(tables)
    rows = np.arange(m)[:, None]
    # member j's rate of index i sits at j * (T + 1) + i of the flat rates,
    # and its allocation i at row j * pop_size + i of the flat genes
    rate_offsets = (rows * rates.shape[1])[..., None]
    rates = rates.ravel()
    member_base = rows * pop_size

    def fitness(pop: np.ndarray) -> np.ndarray:
        idx = rate_indices(sinr_in_all(pop, gains, noise_mw), thresholds)
        return rates[idx + rate_offsets].sum(axis=-1)

    # one generator per distinct seed; members sharing a seed share its draws
    slot = {s: j for j, s in enumerate(dict.fromkeys(seeds))}
    member_slot = np.array([slot[s] for s in seeds])
    rngs = [substream(s, "ga") for s in slot]
    # per generation, one row per generator: the uniform block (tournament
    # entrants, crossover coins, blend weights, mutation choice, redraw
    # values), then one block of Gaussian steps
    cuts = np.cumsum([0, 2 * pop_size, n_pairs, paired * k] + 3 * [pop_size * k])
    tour, cross, blend, choice, redraw, step = map(slice, cuts[:-1], cuts[1:])
    draws = np.empty((len(rngs), cuts[-1]))
    # fill targets made once: a fresh view as out costs about as much as a fill
    blocks = [(row[: step.start], row[step]) for row in draws]

    genes = p_t * np.stack([r.random((pop_size, k)) for r in rngs])[member_slot]
    genes[:, : baseline.shape[1]] = baseline
    fit = fitness(genes)

    for _ in range(GENERATIONS):
        for r, (uniform, normal) in zip(rngs, blocks):
            r.random(out=uniform)
            r.standard_normal(out=normal)
        d = draws[member_slot]

        # tournament selection, two random entrants per parent slot
        entrants = (d[:, tour] * pop_size).astype(np.intp).reshape(m, 2, pop_size)
        entrants += member_base[..., None]
        a, b = entrants[:, 0], entrants[:, 1]
        score = fit.ravel()[entrants]
        winners = np.where(score[:, 0] >= score[:, 1], a, b)
        # np.take gathers rows of K about twice as fast as fancy indexing
        flat = genes.reshape(-1, k)
        parents = np.take(flat, winners, axis=0)

        # blend crossover on consecutive parent pairs; the unpaired last
        # parent of an odd population passes through. Each parent slot also
        # gathers its mate, the pair-swapped winner, so the pair's bounds (min
        # and max are symmetric) and both children are whole (M, paired, K)
        # passes. A pair that does not cross gathers each parent as its own
        # mate, and the zero span returns it bit for bit
        pairs = winners[:, :paired].reshape(m, n_pairs, 2)
        crossed = (d[:, cross] < CROSSOVER_RATE)[..., None]
        mates = np.take(flat, np.where(crossed, pairs[..., ::-1], pairs), axis=0)
        own, mates = parents[:, :paired], mates.reshape(m, paired, k)
        # children = lo - 0.5 * span + 2.0 * span * weight, in place
        children = np.minimum(own, mates)
        span = np.maximum(own, mates)
        span -= children
        children -= 0.5 * span
        span *= 2.0
        span *= d[:, blend].reshape(m, paired, k)
        children += span
        if paired < pop_size:
            children = np.concatenate([children, parents[:, paired:]], axis=1)

        # mutation: a Gaussian step refines, a uniform redraw escapes the
        # collapsed-population basin that small steps cannot leave
        which = d[:, choice].reshape(m, pop_size, k)
        stepped = children + mut_sigma * d[:, step].reshape(m, pop_size, k)
        children = np.where(
            which < reset_rate,
            p_t * d[:, redraw].reshape(m, pop_size, k),
            np.where(which < mut_rate, stepped, children),
        )
        # clip to [0, P_T]; two ufunc calls skip np.clip's wrapper
        np.maximum(children, 0.0, out=children)
        np.minimum(children, p_t, out=children)

        # elitism: best of the current generation survive unchanged
        elite = np.argsort(fit, axis=1, kind="stable")[:, -ELITISM:]
        children[:, :ELITISM] = np.take(flat, elite + member_base, axis=0)

        genes = children
        fit = fitness(genes)

    # elitism carries the best allocation seen so far into every generation
    best = fit.argmax(axis=1)
    return genes[np.arange(m), best], fit[np.arange(m), best]
