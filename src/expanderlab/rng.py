"""Seed derivation.

One master seed per run; every consumer derives its own stream from
(master_seed, label, index) so results do not depend on call order or
worker scheduling. Streams use the counter-based Philox generator.
"""

from __future__ import annotations

import hashlib

import numpy as np

SEED_RANGE = range(-2 ** 127, 2 ** 127)    # the seeds 16 signed bytes hold


def derive_seed(master_seed: int, label: str, index: int = 0) -> int:
    """Deterministic 63-bit child seed for (master_seed, label, index)."""
    h = hashlib.sha256()
    h.update(int(master_seed).to_bytes(16, "little", signed=True))
    h.update(label.encode("utf-8"))
    h.update(int(index).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest()[:8], "little") >> 1


def child_seed(master_seed: int, label: str, index: int = 0) -> int:
    """`derive_seed` reduced below 2**31. No kernel needs the reduction; it
    stays so that every pinned seed and output stays the same."""
    return derive_seed(master_seed, label, index) % 2 ** 31


def generator(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Philox generator seeded from a labeled derivation of the master seed."""
    return np.random.Generator(np.random.Philox(key=derive_seed(master_seed, label, index)))
