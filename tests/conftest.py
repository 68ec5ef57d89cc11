"""Shared fixtures: system parameters and the shipped rate-table cache, plus
the single-channel BER helpers the link and oracle tests compare: the
analytic conditional BER and its symbol-level simulation on one frozen
channel. The LAPACK form of the MMSE detector is kept here as the
reference for the elimination kernel, and the kernel's first form as the
reference it must match bit for bit.

Rate tables are expensive to build, so prebuilt copies live as JSON under
tests/data/tables, built at the default table build key (seed 0, 2000
draws, the default grid, default SystemParams). A missing or stale copy is
rebuilt into a session temporary directory; the shipped fixtures are never
rewritten.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from adhocmimo.config import SystemParams
from adhocmimo.link_abstraction import (
    FLAG_SETS,
    ModScheme,
    RateTable,
    _ber_given_stats,
    _detection_stats,
    build_rate_table,
    mmse_weights,
    table_build_key,
)
from adhocmimo.mc_oracle import _POPCOUNT, OracleResult, _RunningMoments, demap
from adhocmimo.network_opt import rate_indices, stack_tables
from adhocmimo.rng import complex_normal

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
    out = _ber_given_stats(*_detection_stats(h[None], h_hat[None], sinr_rfo), mod)
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
    moments = _RunningMoments()
    done = 0
    while done < n_symbols:
        b = min(batch_size, n_symbols - done)
        labels = rng.integers(0, len(mod.points), size=(b, m))
        x = mod.points[labels]
        y = x @ g.T + complex_normal(rng, (b, n)) * noise_std
        y_det = y @ w.T
        labels_hat = demap(y_det, mod)
        errs = _POPCOUNT[np.bitwise_xor(labels_hat, labels)].sum(axis=-1)
        moments.add(errs / (m * mod.u))
        done += b
    return moments.result(m * mod.u)


@pytest.fixture(scope="session")
def params() -> SystemParams:
    return SystemParams()


@pytest.fixture(scope="session")
def table_cache(params, tmp_path_factory):
    """Callable (n_rx, flag_name) -> RateTable, backed by the shipped cache;
    tables missing from it or stale are built into a session temp dir."""
    build_dir = tmp_path_factory.mktemp("tables")
    want = table_build_key(params)
    loaded: dict[tuple[int, str], RateTable] = {}

    def get(n_rx: int, flag_name: str) -> RateTable:
        key = (n_rx, flag_name)
        if key in loaded:
            return loaded[key]
        path = CACHE_DIR / f"rates_N{n_rx}_{flag_name}.json"
        if path.exists():
            table = RateTable.load(path)
            if table.build_info == want:
                loaded[key] = table
                return table
        table = build_rate_table(n_rx, FLAG_SETS[flag_name], params)
        table.save(build_dir / path.name)
        loaded[key] = table
        return table

    return get
