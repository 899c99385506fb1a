"""Deterministic named random streams.

All randomness in a run flows from one 64-bit master seed.  Each consumer
derives an independent generator from a stable string label, so results do
not depend on scheduling or evaluation order.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, label: str) -> np.random.Generator:
    """Generator for ``(seed, label)``: SHA-256 of both, fed to PCG64."""
    digest = hashlib.sha256(f"{seed}\x1f{label}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))

