"""Deterministic random number generation.

Every randomized operation in the package draws from a Philox counter-based
generator keyed by a 64-bit seed derived from stable string parts (global
seed, frame id, corruption name, then a stream name). Seeds are derived with
SHA-256 rather than Python's salted `hash`, so given parts produce the same
bytes on every run, platform, and worker layout.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "make_rng"]

_SEP = b"\x1f"


def derive_seed(*parts: object) -> int:
    """Map arbitrary parts (ints, strings, enums) to a stable 64-bit seed."""
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(_SEP)
    return int.from_bytes(h.digest()[:8], "little")


def make_rng(*parts: object) -> np.random.Generator:
    """Counter-based generator keyed by `derive_seed(*parts)`."""
    return np.random.Generator(np.random.Philox(key=derive_seed(*parts)))
