"""Deterministic named random streams.

All randomness in a run flows from one 64-bit master seed.  Each consumer
derives an independent generator from a stable string label, so results do
not depend on scheduling or evaluation order.

The generator for ``(seed, label)`` is exactly
``np.random.default_rng(int.from_bytes(sha256(f"{seed}\\x1f{label}")[:16], "big"))``.
``streams`` derives many of them at once: numpy's ``SeedSequence`` hash
constants do not depend on the data, so its pool mixing and
``generate_state(4, uint64)`` run as ``uint32`` array operations over the
whole batch, and each ``PCG64`` is fed its precomputed state.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Iterable, Iterator

import numpy as np

_M32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's pool size in uint32 words; a 128-bit entropy fills it


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    """The first ``count`` terms of ``init, init * mult, ...`` modulo 2^32."""
    out, h = [], init
    for _ in range(count):
        out.append(h)
        h = h * mult & _M32
    return out


# SeedSequence's hashmix runs 16 times while mixing the pool (4 fills, 12
# cross mixes), xoring with one constant and multiplying by the next
_MIX_CONSTS = _hash_constants(0x43B0D7E5, 0x931E8875, 2 * _POOL * _POOL + 1)
# generate_state(4, uint64) draws 8 uint32 words
_STATE_CONSTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)


def _state_words(entropy: list) -> list:
    """The 8 uint32 words of ``SeedSequence(x).generate_state(4, np.uint64)``
    from the 4 uint32 words of an entropy ``x < 2^128``, least significant
    first.  A word may be an int or a uint32 array holding one word of many
    entropies.  SeedSequence hashes a missing pool word as 0, so zero-padding
    a short entropy is exact."""
    steps = iter(range(2 * _POOL * _POOL))

    def hashmix(value):
        t = next(steps)
        value = (value ^ _MIX_CONSTS[t]) * _MIX_CONSTS[t + 1] & _M32
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src]) & _M32
                pool[dst] = mixed ^ (mixed >> 16)
    out = []
    for i in range(2 * _POOL):
        value = (pool[i % _POOL] ^ _STATE_CONSTS[i]) * _STATE_CONSTS[i + 1] & _M32
        out.append(value ^ (value >> 16))
    return out


@functools.cache
def _preset_seed() -> type:
    """Seed sequence type that hands ``PCG64`` one precomputed state.  It is
    built on first use: ``numpy.random`` loads lazily, and a command that
    draws nothing should not pay for importing it."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetSeed(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a preset seed holds exactly 4 uint64 words")
            return self.state

    return PresetSeed


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(x).generate_state(4, np.uint64)`` for each row of
    ``words``, the 4 uint32 words of an entropy ``x``, least significant
    first."""
    # one row runs on ints: a ufunc call on a 1-element array costs more
    lanes = words[0].tolist() if len(words) == 1 else list(words.T.astype(np.uint32))
    state = np.array(_state_words(lanes), dtype=np.uint32).reshape(2 * _POOL, -1)
    # pairs of little-endian uint32 words are the uint64 state words
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def streams(seed: int, labels: Iterable[str]) -> Iterator[np.random.Generator]:
    """Generators for ``(seed, label)``, one per label in order, each equal
    to ``stream(seed, label)``.  The states of the whole batch are derived up
    front; each generator is built only when it is taken."""
    digests = b"".join(hashlib.sha256(f"{seed}\x1f{label}".encode()).digest()[:16]
                       for label in labels)
    # the entropy is the first 16 digest bytes read big-endian
    words = np.frombuffer(digests, dtype=">u4").reshape(-1, _POOL)[:, ::-1]
    preset = _preset_seed()
    for state in _seed_states(words):
        yield np.random.Generator(np.random.PCG64(preset(state)))


def stream(seed: int, label: str) -> np.random.Generator:
    """Generator for ``(seed, label)``: SHA-256 of both, fed to PCG64."""
    return next(streams(seed, (label,)))
