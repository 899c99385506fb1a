"""Deterministic named random streams.

All randomness in a run flows from one 64-bit master seed.  Each consumer
derives an independent generator from a stable string label, so results do
not depend on scheduling or evaluation order.

The generator for ``(seed, label)`` is exactly
``np.random.default_rng(int.from_bytes(sha256(f"{seed}\\x1f{label}")[:16], "big"))``.
``PCG64Batch`` runs many of those generators at once for the embedding's
per-column draws: numpy's ``SeedSequence`` hash constants do not depend on
the data, so its pool mixing and ``generate_state(4, uint64)`` run as
``uint32`` array operations over the whole batch.  The PCG64 state after
``c`` steps is ``A_c * s + B_c * inc`` modulo 2^128 (Brown 1994), so a tile
of up to ``_TILE`` draws of every generator is a handful of 2-D ``uint64``
array operations with per-process tables of ``A_c`` and ``B_c``.
``numpy.random`` itself is imported only when a ``stream`` is made, so a
command that draws nothing does not load it.
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


def _digest_states(digests: list) -> np.ndarray:
    """The seed states of the streams whose entropies are the first 16 bytes
    of ``digests``, SHA-256 digests, read big-endian."""
    words = np.frombuffer(b"".join(digests), dtype=">u4").reshape(-1, 8)
    return _seed_states(words[:, _POOL - 1::-1])


def label_states(seed: int, labels: Iterable[str]) -> np.ndarray:
    """The ``(len(labels), 4)`` uint64 seed states of ``stream(seed, label)``
    for each label in order."""
    prefix = f"{seed}\x1f".encode()  # encoded once
    return _digest_states([hashlib.sha256(prefix + label.encode()).digest()
                           for label in labels])


def numbered_states(seed: int, head: str, numbers: Iterable[int],
                    tail: str = "") -> np.ndarray:
    """``label_states(seed, [f"{head}{j}{tail}" for j in numbers])``, each
    hashed input built by one f-string."""
    head = f"{seed}\x1f{head}"
    return _digest_states([hashlib.sha256(f"{head}{j}{tail}".encode()).digest()
                           for j in numbers])


_U64 = np.uint64
_LO32 = _U64(_M32)
# PCG64's 128-bit LCG multiplier
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Most steps one closed-form tile takes: its temporaries are ``len x _TILE``
_TILE = 32


def _jump_tables(steps: int):
    """``A_c = M^c`` and ``B_c = sum_{t<c} M^t`` modulo 2^128 at index
    ``c - 1`` for ``c = 1..steps``, as high and low ``uint64`` arrays: ``c``
    steps of ``s -> M * s + inc`` take ``s`` to ``A_c * s + B_c * inc``."""
    a, b, jumps = 1, 0, []
    for _ in range(steps):
        a, b = a * _MULT % (1 << 128), (b * _MULT + 1) % (1 << 128)
        jumps += [a, b]
    hi = np.array([x >> 64 for x in jumps], dtype=np.uint64)
    lo = np.array([x & (1 << 64) - 1 for x in jumps], dtype=np.uint64)
    return hi[0::2], lo[0::2], hi[1::2], lo[1::2]


_A_HI, _A_LO, _B_HI, _B_LO = _jump_tables(_TILE)


def _add128(hi, lo, add_hi, add_lo):
    """``hi:lo + add_hi:add_lo`` modulo 2^128, broadcast."""
    low = lo + add_lo
    return hi + add_hi + (low < add_lo), low


def _mul128(a_hi, a_lo, x_hi, x_lo):
    """``a_hi:a_lo * x_hi:x_lo`` modulo 2^128, broadcast.  The high word of
    the low halves' 64x64-bit product is summed from 32-bit limbs."""
    a0, a1 = a_lo & _LO32, a_lo >> _U64(32)
    x0, x1 = x_lo & _LO32, x_lo >> _U64(32)
    p00, p01, p10, p11 = a0 * x0, a0 * x1, a1 * x0, a1 * x1
    mid = (p00 >> _U64(32)) + (p01 & _LO32) + (p10 & _LO32)
    carry = p11 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return carry + a_lo * x_hi + a_hi * x_lo, a_lo * x_lo


class PCG64Batch:
    """numpy's ``PCG64`` generators of many ``stream(seed, label)``, run
    together as ``uint64`` arrays: a 128-bit LCG with XSL-RR output (O'Neill
    2014), each 128-bit word held as a high and a low array.  Draws come in
    tiles of at most ``_TILE`` steps, every state of a tile in closed form
    from the state before it.

    It makes exactly the draws an embedding column takes from a fresh stream,
    bit for bit: ``random(count)`` and, for a power of two ``delta``, the
    pair ``integers(0, delta)``, ``integers(0, delta)``.
    """

    TILE = _TILE

    def __init__(self, states: np.ndarray):
        """``states`` holds the 4 seed words of each generator, as from
        ``label_states``; numpy seeds PCG64 with ``init = v0:v1`` and
        increment ``(v2:v3) << 1 | 1``: from state 0 it steps, adds
        ``init`` and steps, which gives ``M * (inc + init) + inc``."""
        self.inc_hi = states[:, 2] << _U64(1) | states[:, 3] >> _U64(63)
        self.inc_lo = states[:, 3] << _U64(1) | _U64(1)
        hi, lo = _add128(self.inc_hi, self.inc_lo, states[:, 0], states[:, 1])
        hi, lo = _mul128(_A_HI[0], _A_LO[0], hi, lo)
        self.hi, self.lo = _add128(hi, lo, self.inc_hi, self.inc_lo)

    def __len__(self) -> int:
        return len(self.lo)

    def _outputs(self, steps: int, inc_terms) -> np.ndarray:
        """``(len(self), steps)`` array of each generator's next 64-bit
        outputs, ``steps <= _TILE``, given ``inc_terms``, the ``B_c * inc``
        of ``_inc_terms``.  Each output rotates ``hi ^ lo`` of its state
        right by the top 6 state bits."""
        hi, lo = _mul128(_A_HI[:steps], _A_LO[:steps],
                         self.hi[:, None], self.lo[:, None])
        hi, lo = _add128(hi, lo, inc_terms[0][:, :steps], inc_terms[1][:, :steps])
        self.hi, self.lo = hi[:, -1], lo[:, -1]
        word, rot = hi ^ lo, hi >> _U64(58)
        return word >> rot | word << (_U64(64) - rot & _U64(63))

    def _inc_terms(self, steps: int):
        """``B_c * inc`` for ``c = 1..steps``, one column each."""
        return _mul128(_B_HI[:steps], _B_LO[:steps],
                       self.inc_hi[:, None], self.inc_lo[:, None])

    def tiles(self, count: int):
        """Yield ``random(count)`` in its closed-form tiles, in order: each a
        ``(len(self), width)`` array with ``width <= _TILE``."""
        inc_terms = self._inc_terms(min(count, _TILE))
        for start in range(0, count, _TILE):
            steps = min(_TILE, count - start)
            yield (self._outputs(steps, inc_terms) >> _U64(11)) * 2.0 ** -53

    def random(self, count: int) -> np.ndarray:
        """``(len(self), count)`` array; row ``t`` is generator ``t``'s
        ``random(count)``: the top 53 bits of each output times 2^-53."""
        out = np.empty((len(self), count), dtype=np.float64)
        for start, tile in zip(range(0, count, _TILE), self.tiles(count)):
            out[:, start:start + tile.shape[1]] = tile
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
        out = self._outputs(1, self._inc_terms(1))[:, 0]
        return (out << _U64(32) >> shift).astype(np.int64), (out >> shift).astype(np.int64)


def stream(seed: int, label: str) -> np.random.Generator:
    """Generator for ``(seed, label)``: SHA-256 of both, fed to PCG64."""
    return np.random.default_rng(int.from_bytes(_entropy(seed, label), "big"))
