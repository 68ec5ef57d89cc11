"""Shared fixtures: system parameters and the shipped rate-table cache.

Rate tables are expensive to build, so prebuilt copies live as JSON under
tests/data/tables, built at the default table build key (seed 0, 2000
draws, the default grid, default SystemParams). A missing or stale copy is
rebuilt into a session temporary directory; the shipped fixtures are never
rewritten.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from adhocmimo.config import SystemParams
from adhocmimo.link_abstraction import (
    FLAG_SETS,
    RateTable,
    build_rate_table,
    table_build_key,
)
from adhocmimo.network_opt import rate_indices, stack_tables

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
