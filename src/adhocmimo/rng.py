"""Named, reproducible random substreams derived from one master seed."""

from __future__ import annotations

import math
import zlib

import numpy as np


def _seed_sequence(master_seed: int, purpose: str, index: int) -> np.random.SeedSequence:
    """The SeedSequence of a (master, purpose, index) triple; the purpose
    enters as the crc32 of its UTF-8 bytes."""
    if master_seed < 0 or index < 0:
        raise ValueError("master_seed and index must be non-negative")
    tag = zlib.crc32(purpose.encode("utf-8"))
    return np.random.SeedSequence([int(master_seed), tag, int(index)])


def substream(master_seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Return an independent generator for one purpose (e.g. "topology").

    Different (purpose, index) pairs give statistically independent streams;
    the same triple always reproduces the same sequence, so per-trial workers
    can be seeded order-independently.
    """
    return np.random.default_rng(_seed_sequence(master_seed, purpose, index))


def derive_seed(master_seed: int, purpose: str, index: int = 0) -> int:
    """Collapse a (master, purpose, index) triple to one integer seed, for
    components that take a seed rather than a generator."""
    seq = _seed_sequence(master_seed, purpose, index)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly symmetric complex Gaussian draws with unit variance per entry,
    assembled in place: every real part is drawn before any imaginary part."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z /= math.sqrt(2.0)
    return z
