"""A fixed piece of work that gauges how fast the host runs right now.

The benchmark runs on a shared virtual machine whose speed drifts by up to
1.5-2x over tens of seconds, for reasons outside the guest: a loop of pure
Python, small numpy calls, batched solves and a sweep over a large array all
slow down together, while steal time stays near 1%. The timed loop
(child.py) runs `calibrate()` before and after every timed scenario
repetition, and run.py rescales the scenario's time to the host speed at
which one pass takes NOMINAL_S seconds (README.md has the figures).

The work mixes what the scenarios do: interpreter-bound Python, numpy calls
on tiny arrays, batched 4x4 solves and memory-bound streaming. It uses only
the standard library and numpy, never adhocmimo, so a change to the package
cannot change it. Its inputs are fixed; only its time varies.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

# Rescaled times are seconds at the host speed where one pass takes this
# long; it is about the median pass on the 2-vCPU guest the benchmark was
# built on, so rescaled and measured times are alike there.
NOMINAL_S = 0.35


@lru_cache(maxsize=None)
def _inputs() -> dict[str, np.ndarray]:
    """Made on first use, so a process's peak RSS before then is its own."""
    rng = np.random.default_rng(20100409)
    return {
        "tiny": rng.standard_normal(10),
        "mats": rng.standard_normal((2000, 4, 4)) + 4.0 * np.eye(4),
        "rhs": rng.standard_normal((2000, 4, 1)),
        "big": rng.standard_normal(2_000_000),
    }


def _python(n: int = 500_000) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


def _tiny_numpy(n: int = 15_000) -> float:
    tiny = _inputs()["tiny"]
    acc = 0.0
    for i in range(n):
        acc += float(np.log2(1.0 + np.maximum(tiny * (i % 7), 0.5)).sum())
    return acc


def _solves(n: int = 100) -> float:
    mats, rhs = _inputs()["mats"], _inputs()["rhs"]
    acc = 0.0
    for _ in range(n):
        acc += float(np.linalg.solve(mats, rhs).sum())
    return acc


def _stream(n: int = 4) -> float:
    big = _inputs()["big"]
    acc = 0.0
    for _ in range(n):
        acc += float(np.abs(big * 1.5 - 0.25).max())
    return acc


def calibrate() -> float:
    """Time one pass of the fixed work (s)."""
    _inputs()
    t0 = time.perf_counter()
    _python()
    _tiny_numpy()
    _solves()
    _stream()
    return time.perf_counter() - t0
