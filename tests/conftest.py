"""Shared fixtures: system parameters and the shipped rate-table cache, plus
the single-channel BER helpers the link and oracle tests compare: the
analytic conditional BER and its symbol-level simulation on one frozen
channel. The LAPACK form of the MMSE detector is kept here as the
reference for the elimination kernel, and the kernel's first form as the
reference it must match bit for bit; likewise the oracle's axis slicer as a
loop over the decision edges, the GA's generation loop as
it was before its draws shared one buffer per generation, and the rate
lookup as a loop over the threshold columns, which that GA reads.

Rate tables are expensive to build, so prebuilt copies live as JSON under
tests/data/tables, built at the table build key of simcli's defaults
(fixture_build_key). They are read through simcli's own cache check, so a
missing, stale or mislabeled copy fails the test that asks for it, as it
would fail a scenario; the shipped fixtures are never rewritten, only copied
byte for byte into scenario output trees (seed_tables).
"""

import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from adhocmimo.config import SystemParams
from adhocmimo.experiments_cli import _cached_table, spec_from_args, table_filename
from adhocmimo.link_abstraction import (
    ModScheme,
    RateTable,
    _ber_given_stats,
    _detection_stats,
    mmse_weights,
    table_build_key,
)
from adhocmimo.mc_oracle import _POPCOUNT, OracleResult, _oracle_result, demap
from adhocmimo import network_opt
from adhocmimo.network_opt import (
    _corner_allocations, rate_indices, sinr_in_all, stack_gains, stack_tables,
)
from adhocmimo.radio_env import total_noise_power
from adhocmimo.rng import complex_normal, substream

settings.register_profile("suite", deadline=None, max_examples=25, derandomize=True)
settings.load_profile("suite")

CACHE_DIR = Path(__file__).parent / "data" / "tables"

# one verdict line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fixture_build_key() -> dict:
    """The table build key of `simcli rate-table` at its defaults, which the
    shipped fixtures were built at."""
    spec = spec_from_args(["rate-table"])
    return table_build_key(spec.params, seed=spec.table_seed, n_draws=spec.table_draws)


def seed_tables(out_dir: Path) -> None:
    """Copy every shipped rate table, byte for byte, into a scenario output
    tree."""
    table_dir = out_dir / "tables"
    table_dir.mkdir(parents=True, exist_ok=True)
    for path in CACHE_DIR.glob("rates_*.json"):
        shutil.copy(path, table_dir / path.name)


def table_rates(table: RateTable, sinr) -> np.ndarray:
    """Rate (bps) of each SINR of an array on one table, read through the
    network layer's rate lookup."""
    thresholds, rates = stack_tables([table])
    return rates[0, rate_indices(np.asarray(sinr, dtype=float)[None], thresholds)[0]]


# own links 1 m long, interferers hundreds of meters away: 28-85 dB input
# SINRs, where total received power minus the signal would cancel about 7
# digits of the interference
HIGH_SINR_D = [[1.0, 300.0, 900.0], [250.0, 1.0, 700.0], [600.0, 400.0, 1.0]]
HIGH_SINR_P = np.array([[100.0, 37.0, 80.0], [5.0, 100.0, 1e-3]])


def interference_by_hand(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_{i != j} p[i] * rho[j, i] for each (K,) row of p, exactly rounded."""
    k = rho.shape[-1]
    return np.array([[math.fsum(row[i] * rho[j, i] for i in range(k) if i != j)
                      for j in range(k)] for row in p])


def mmse_weights_reference(h_hat: np.ndarray, sinr_rfo) -> np.ndarray:
    """The MMSE detector rows as W = H^H (H H^H + (1/sinr) I)^-1, one LAPACK
    solve per stacked (N, N) system."""
    h_hat = np.asarray(h_hat)
    n = h_hat.shape[-2]
    nu = 1.0 / np.asarray(sinr_rfo, dtype=float)
    gram = h_hat @ np.swapaxes(h_hat.conj(), -1, -2)
    idx = np.arange(n)
    gram[..., idx, idx] += nu[..., None] if nu.ndim else nu
    solved = np.linalg.solve(gram, h_hat)       # (..., N, M) = A^-1 H
    return np.swapaxes(solved.conj(), -1, -2)   # (..., M, N)


def mmse_weights_elimination_reference(h_hat: np.ndarray, sinr_rfo) -> np.ndarray:
    """The elimination kernel as it first shipped: the Gram matrix filled
    entry by entry, each diagonal entry conjugated onto itself. The
    shipped kernel must match it bit for bit."""
    h_hat = np.asarray(h_hat)
    *batch, n, m = h_hat.shape
    nu = np.broadcast_to(1.0 / np.asarray(sinr_rfo, dtype=float), batch).reshape(-1)
    aug = np.empty((m, m + n, nu.size), dtype=complex)
    h_herm = aug[:, m:]
    h_last = np.moveaxis(h_hat.reshape(-1, n, m), 0, -1)
    np.conjugate(h_last.swapaxes(0, 1), out=h_herm)
    h_cols = h_herm.conj()
    for i in range(m):
        for j in range(i, m):
            aug[i, j] = (h_herm[i] * h_cols[j]).sum(axis=0)
            aug[j, i] = aug[i, j].conj()
        aug[i, i] += nu
    for k in range(m):
        row = aug[k, k + 1:]
        row /= aug[k, k].real
        for i in range(m):
            if i != k:
                aug[i, k + 1:] -= aug[i, k] * row
    return np.moveaxis(h_herm, -1, 0).reshape(*batch, m, n)


def slice_reference(x, mod: ModScheme) -> np.ndarray:
    """The oracle's axis slicer as a loop over the decision edges: each adds
    1 where the coordinate lies above it, or on it where the upper
    neighbour has the smaller Gray code."""
    idx = np.zeros(np.shape(x), dtype=np.intp)
    for edge, upper_wins in zip(mod.edges, mod.gray[1:] < mod.gray[:-1]):
        idx += (x >= edge) if upper_wins else (x > edge)
    return idx


def rate_indices_reference(sinr: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """rate_indices as a loop over the (M, T) thresholds' columns: each adds
    1 where its threshold is at or below the SINR."""
    column_shape = (-1,) + (1,) * (sinr.ndim - 1)
    idx = np.zeros(sinr.shape, dtype=np.intp)
    for column in thresholds.T:
        idx += column.reshape(column_shape) <= sinr
    return idx


def maximize_sum_throughput_reference(
    topos, tables, params, *, seeds, extra_seeds=None
):
    """The batched GA as it first shipped: separate uniform and normal draw
    buffers split with np.split and gathered apart, crossover bounds as
    min/max reductions over each mate pair, the children copied from the
    parents, fitness and parents gathered by (member, index) pairs, and
    rates looked up column by column. The shipped GA must match it bit for
    bit."""
    ga = network_opt
    tables, seeds = list(tables), list(seeds)
    gains = stack_gains(topos)
    m, k = gains[0].shape
    p_t = params.p_t_mw
    mut_rate = ga.MUTATIONS_PER_ALLOCATION / k
    mut_sigma = ga.STEP_FRAC * p_t
    noise_mw = total_noise_power(params)
    baseline = np.broadcast_to(_corner_allocations(k, p_t), (m, k + 2, k))
    if extra_seeds is not None:
        extra = np.asarray(extra_seeds, dtype=float).reshape(m, -1, k)
        baseline = np.concatenate([baseline, np.clip(extra, 0.0, p_t)], axis=1)
    pop_size = max(ga.POPULATION_PER_PAIR * k, baseline.shape[1] + ga.ELITISM)
    n_pairs = pop_size // 2

    thresholds, rates = stack_tables(tables)
    rows = np.arange(m)[:, None]

    def fitness(pop):
        idx = rate_indices_reference(sinr_in_all(pop, gains, noise_mw), thresholds)
        return rates[rows[..., None], idx].sum(axis=-1)

    slot = {s: j for j, s in enumerate(dict.fromkeys(seeds))}
    member_slot = np.array([slot[s] for s in seeds])
    rngs = [substream(s, "ga") for s in slot]
    cuts = np.cumsum([2 * pop_size, n_pairs, 2 * n_pairs * k, pop_size * k])
    uniform = np.empty((len(rngs), cuts[-1] + pop_size * k))
    normal = np.empty((len(rngs), pop_size * k))

    genes = p_t * np.stack([r.random((pop_size, k)) for r in rngs])[member_slot]
    genes[:, : baseline.shape[1]] = baseline
    fit = fitness(genes)

    for _ in range(ga.GENERATIONS):
        for r, u, z in zip(rngs, uniform, normal):
            r.random(out=u)
            r.standard_normal(out=z)
        tour, cross, blend, choice, redraw = np.split(
            uniform[member_slot], cuts, axis=1)

        entrants = (tour * pop_size).astype(np.intp).reshape(m, 2, pop_size)
        a, b = entrants[:, 0], entrants[:, 1]
        parents = genes[rows, np.where(fit[rows, a] >= fit[rows, b], a, b)]

        children = parents.copy()
        mates = parents[:, : 2 * n_pairs].reshape(m, n_pairs, 2, k)
        lo = mates.min(axis=2, keepdims=True)
        span = mates.max(axis=2, keepdims=True) - lo
        blended = lo - 0.5 * span + 2.0 * span * blend.reshape(m, n_pairs, 2, k)
        crossed = (cross < ga.CROSSOVER_RATE)[..., None, None]
        children[:, : 2 * n_pairs] = np.where(crossed, blended, mates).reshape(
            m, 2 * n_pairs, k)

        choice = choice.reshape(m, pop_size, k)
        stepped = children + mut_sigma * normal[member_slot].reshape(m, pop_size, k)
        children = np.where(
            choice < mut_rate * ga.RESET_FRAC,
            p_t * redraw.reshape(m, pop_size, k),
            np.where(choice < mut_rate, stepped, children),
        )
        np.clip(children, 0.0, p_t, out=children)

        elite = np.argsort(fit, axis=1, kind="stable")[:, -ga.ELITISM:]
        children[:, :ga.ELITISM] = genes[rows, elite]

        genes = children
        fit = fitness(genes)

    best = fit.argmax(axis=1)
    return genes[np.arange(m), best], fit[np.arange(m), best]


def conditional_ber(
    h: np.ndarray, h_hat: np.ndarray, sinr_rfo: float, mod: ModScheme
) -> float:
    """Analytic BER of one channel draw under the Gaussian decision-statistic
    model, integrating every decision region of each axis."""
    if sinr_rfo <= 0:
        raise ValueError("sinr_rfo must be positive")
    h = np.asarray(h)
    h_hat = np.asarray(h_hat)
    if h.shape != h_hat.shape:
        raise ValueError("h and h_hat must have the same shape")
    scale = 1.0 / math.sqrt(h.shape[-1])
    out = _ber_given_stats(*_detection_stats(h[None] * scale, h_hat[None] * scale, sinr_rfo),
                           mod)
    return float(out[0])


def simulate_conditional_ber(
    h: np.ndarray,
    h_hat: np.ndarray,
    sinr_rfo: float,
    mod: ModScheme,
    n_symbols: int,
    rng: np.random.Generator,
    *,
    batch_size: int = 20_000,
) -> OracleResult:
    """Symbol-level BER for one frozen channel/estimate pair; the detector
    is fixed and only symbols and noise are redrawn."""
    if sinr_rfo <= 0:
        raise ValueError("sinr_rfo must be positive")
    if n_symbols < 2:
        raise ValueError("n_symbols must be at least 2")
    h = np.asarray(h, dtype=complex)
    h_hat = np.asarray(h_hat, dtype=complex)
    if h.shape != h_hat.shape:
        raise ValueError("h and h_hat must have the same shape")
    n, m = h.shape
    scale = 1.0 / math.sqrt(m)
    w = mmse_weights(h_hat * scale, sinr_rfo)    # (m, n)
    g = h * scale
    noise_std = 1.0 / math.sqrt(sinr_rfo)
    errors = np.empty(n_symbols, dtype=np.int64)
    for done in range(0, n_symbols, batch_size):
        b = min(batch_size, n_symbols - done)
        labels = rng.integers(0, len(mod.points), size=(b, m))
        x = mod.points[labels]
        y = x @ g.T + complex_normal(rng, (b, n)) * noise_std
        y_det = y @ w.T
        labels_hat = demap(y_det, mod)
        errors[done:done + b] = _POPCOUNT[np.bitwise_xor(labels_hat, labels)].sum(axis=-1)
    return _oracle_result(errors.sum(), errors @ errors, n_symbols, m * mod.u)


@pytest.fixture(scope="session")
def params() -> SystemParams:
    return SystemParams()


@pytest.fixture(scope="session")
def table_cache():
    """Callable (n_rx, flag_name) -> RateTable: the shipped fixture, if
    simcli would accept it as fresh at the default table build key."""
    want = fixture_build_key()
    loaded: dict[tuple[int, str], RateTable] = {}

    def get(n_rx: int, flag_name: str) -> RateTable:
        key = (n_rx, flag_name)
        if key not in loaded:
            path = CACHE_DIR / table_filename(n_rx, flag_name)
            table, problem = _cached_table(path, want, n_rx, flag_name)
            if table is None:
                pytest.fail(problem)
            loaded[key] = table
        return loaded[key]

    return get
