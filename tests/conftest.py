"""Shared fixtures: system parameters and the shipped rate-table cache.

Rate tables are expensive to build, so prebuilt copies live as JSON under
tests/data/tables with fixed build settings (seed 0, 2000 draws, the
default grid). A missing or stale copy is rebuilt into a session temporary
directory; the shipped fixtures are never rewritten.
"""

from pathlib import Path

import pytest
from hypothesis import settings

from adhocmimo.config import SystemParams
from adhocmimo.link_abstraction import RateTable, build_rate_table

settings.register_profile("suite", deadline=None, max_examples=25, derandomize=True)
settings.load_profile("suite")

CACHE_DIR = Path(__file__).parent / "data" / "tables"

_FLAG_KWARGS = {
    "ideal": dict(phase_noise=False, rfo=False, channel_est=False),
    "imp": dict(phase_noise=True, rfo=True, channel_est=True),
    "pn": dict(phase_noise=True, rfo=False, channel_est=False),
    "rfo": dict(phase_noise=False, rfo=True, channel_est=False),
    "ce": dict(phase_noise=False, rfo=False, channel_est=True),
}

_BUILD_INFO = {
    "seed": 0,
    "n_draws": 2000,
    "sinr_lo_db": -5.0,
    "sinr_hi_db": 45.0,
    "quad_order": 15,
}

# one verdict line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def params() -> SystemParams:
    return SystemParams()


@pytest.fixture(scope="session")
def table_cache(params, tmp_path_factory):
    """Callable (n_rx, flag_name) -> RateTable, backed by the shipped cache;
    tables missing from it or stale are built into a session temp dir."""
    build_dir = tmp_path_factory.mktemp("tables")
    loaded: dict[tuple[int, str], RateTable] = {}

    def get(n_rx: int, flag_name: str) -> RateTable:
        from adhocmimo.link_abstraction import ImpairmentFlags

        key = (n_rx, flag_name)
        if key in loaded:
            return loaded[key]
        path = CACHE_DIR / f"rates_N{n_rx}_{flag_name}.json"
        if path.exists():
            table = RateTable.load(path)
            if table.build_info == _BUILD_INFO:
                loaded[key] = table
                return table
        table = build_rate_table(
            n_rx,
            ImpairmentFlags(**_FLAG_KWARGS[flag_name]),
            params,
            n_draws=_BUILD_INFO["n_draws"],
            seed=_BUILD_INFO["seed"],
        )
        table.save(build_dir / path.name)
        loaded[key] = table
        return table

    return get
