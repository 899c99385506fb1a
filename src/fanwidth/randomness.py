"""Deterministic named random streams.

All randomness in a run flows from one 64-bit master seed.  Each consumer
derives an independent generator from a stable string label, so results do
not depend on scheduling or evaluation order.

The generator for ``(seed, label)`` is exactly
``np.random.default_rng(int.from_bytes(sha256(f"{seed}\\x1f{label}")[:16], "big"))``.
``PCG64Batch`` runs many of those generators at once for the embedding's
per-column draws: numpy's ``SeedSequence`` hash constants do not depend on
the data, so its pool mixing and ``generate_state(4, uint64)`` run as
``uint32`` array operations over the whole batch, and the PCG64 steps and
outputs as ``uint64`` array arithmetic.  ``numpy.random`` itself is imported
only when a ``stream`` is made, so a command that draws nothing does not
load it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

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
    first, each a uint32 array holding that word of many entropies.
    SeedSequence hashes a missing pool word as 0, so zero-padding
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


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(x).generate_state(4, np.uint64)`` for each row of
    ``words``, the 4 uint32 words of an entropy ``x``, least significant
    first."""
    state = np.array(_state_words(list(words.T.astype(np.uint32))), dtype=np.uint32)
    # pairs of little-endian uint32 words are the uint64 state words
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _entropy(seed: int, label: str) -> bytes:
    """The 16 bytes whose big-endian value seeds ``stream(seed, label)``."""
    return hashlib.sha256(f"{seed}\x1f{label}".encode()).digest()[:16]


def label_states(seed: int, labels: Iterable[str]) -> np.ndarray:
    """The ``(len(labels), 4)`` uint64 seed states of ``stream(seed, label)``
    for each label in order."""
    # _entropy of each label, with the prefix encoded once
    prefix = f"{seed}\x1f".encode()
    digests = b"".join([hashlib.sha256(prefix + label.encode()).digest()[:16]
                        for label in labels])
    # the entropy is the 16 digest bytes read big-endian
    words = np.frombuffer(digests, dtype=">u4").reshape(-1, _POOL)[:, ::-1]
    return _seed_states(words)


_U64 = np.uint64
_LO32 = _U64(_M32)
# PCG64's 128-bit LCG multiplier, as 64-bit halves and the low half's 32-bit limbs
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _U64(_MULT >> 64), _U64(_MULT & (1 << 64) - 1)
_MULT_LO0, _MULT_LO1 = _U64(_MULT & _M32), _U64(_MULT >> 32 & _M32)


class PCG64Batch:
    """numpy's ``PCG64`` generators of many ``stream(seed, label)``, stepped
    in lockstep as ``uint64`` arrays: a 128-bit LCG with XSL-RR output
    (O'Neill 2014), each 128-bit word held as a high and a low array.

    It makes exactly the draws an embedding column takes from a fresh stream,
    bit for bit: ``random(count)`` and, for a power of two ``delta``, the
    pair ``integers(0, delta)``, ``integers(0, delta)``.
    """

    def __init__(self, states: np.ndarray):
        """``states`` holds the 4 seed words of each generator, as from
        ``label_states``; numpy seeds PCG64 with ``init = v0:v1`` and
        increment ``(v2:v3) << 1 | 1``."""
        self.inc_hi = states[:, 2] << _U64(1) | states[:, 3] >> _U64(63)
        self.inc_lo = states[:, 3] << _U64(1) | _U64(1)
        self.hi = np.zeros(len(states), dtype=np.uint64)
        self.lo = np.zeros(len(states), dtype=np.uint64)
        self._step()
        self._add(states[:, 0], states[:, 1])
        self._step()

    def __len__(self) -> int:
        return len(self.lo)

    def _add(self, hi: np.ndarray, lo: np.ndarray):
        """``state += hi:lo`` modulo 2^128."""
        low = self.lo + lo
        self.hi = self.hi + hi + (low < lo)
        self.lo = low

    def _step(self):
        """``state = state * _MULT + inc`` modulo 2^128.  The high word of
        the low halves' 64x64-bit product is summed from 32-bit limbs."""
        lo0, lo1 = self.lo & _LO32, self.lo >> _U64(32)
        p00, p01 = lo0 * _MULT_LO0, lo0 * _MULT_LO1
        p10, p11 = lo1 * _MULT_LO0, lo1 * _MULT_LO1
        mid = (p00 >> _U64(32)) + (p01 & _LO32) + (p10 & _LO32)
        carry = p11 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
        self.hi = carry + self.hi * _MULT_LO + self.lo * _MULT_HI
        self.lo = self.lo * _MULT_LO
        self._add(self.inc_hi, self.inc_lo)

    def next64(self) -> np.ndarray:
        """Each generator's next 64-bit output: step, then rotate
        ``hi ^ lo`` right by the top 6 state bits."""
        self._step()
        word, rot = self.hi ^ self.lo, self.hi >> _U64(58)
        return word >> rot | word << (_U64(64) - rot & _U64(63))

    def random(self, count: int) -> np.ndarray:
        """``(len(self), count)`` array; row ``t`` is generator ``t``'s
        ``random(count)``: the top 53 bits of each output times 2^-53."""
        out = np.empty((len(self), count), dtype=np.float64)
        for c in range(count):
            out[:, c] = self.next64() >> _U64(11)
        out *= 2.0 ** -53
        return out

    def offsets(self, delta: int) -> tuple[np.ndarray, np.ndarray]:
        """Each generator's two ``integers(0, delta)`` for a power of two
        ``delta <= 2^31``.  numpy draws them by Lemire's method from the two
        32-bit halves of one output, low half first; a power-of-two range
        never rejects, so each is its half's top ``log2 delta`` bits.  At
        ``delta = 1`` nothing is drawn."""
        if delta < 1 or delta & (delta - 1) or delta > 1 << 31:
            raise ValueError(f"block size {delta} is not a power of two in 1..2^31")
        if delta == 1:
            zero = np.zeros(len(self), dtype=np.int64)
            return zero, zero.copy()
        shift = _U64(64 - delta.bit_length() + 1)
        out = self.next64()
        return (out << _U64(32) >> shift).astype(np.int64), (out >> shift).astype(np.int64)


def stream(seed: int, label: str) -> np.random.Generator:
    """Generator for ``(seed, label)``: SHA-256 of both, fed to PCG64."""
    return np.random.default_rng(int.from_bytes(_entropy(seed, label), "big"))
