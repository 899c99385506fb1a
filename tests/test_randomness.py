"""Named streams and the batch PCG64 against numpy's own generators and
against the batch's first, step-by-step form, bit for bit."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanwidth.randomness import (
    _TILE,
    PCG64Batch,
    _seed_states,
    label_states,
    numbered_states,
    stream,
)

SEEDS = st.integers(0, 2**64 - 1)
LABELS = st.lists(st.text(), min_size=1, max_size=6)


def reference(seed: int, label: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}\x1f{label}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


def draws(rng: np.random.Generator, k: int, i: int) -> list:
    return [rng.random(k), rng.integers(0, 2**i), rng.integers(0, 2**i, size=k),
            rng.standard_normal(k), rng.choice(k + 3, size=k, replace=False),
            rng.bit_generator.state["state"]]


def assert_same_draws(rng: np.random.Generator, ref: np.random.Generator, k: int, i: int):
    for got, want in zip(draws(rng, k, i), draws(ref, k, i)):
        assert np.array_equal(got, want)


def assert_batch_matches(batch_of, rngs_of, count: int, delta: int):
    """A fresh batch's seeded state, ``random(count)`` and ``offsets(delta)``
    equal those of fresh numpy generators, one per batch row."""
    batch, rngs = batch_of(), rngs_of()
    for t, rng in enumerate(rngs):
        state = rng.bit_generator.state["state"]
        assert int(batch.hi[t]) << 64 | int(batch.lo[t]) == state["state"]
        assert int(batch.inc_hi[t]) << 64 | int(batch.inc_lo[t]) == state["inc"]
    got = batch_of().random(count)
    assert got.shape == (len(rngs), count)
    for t, rng in enumerate(rngs):
        assert np.array_equal(got[t], rng.random(count))
    r_h, r_p = batch_of().offsets(delta)
    for t, rng in enumerate(rngs_of()):
        assert (r_h[t], r_p[t]) == (rng.integers(0, delta), rng.integers(0, delta))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, labels=LABELS, k=st.integers(1, 9), i=st.integers(0, 62))
def test_stream_matches_default_rng(seed, labels, k, i):
    for label in labels:
        assert_same_draws(stream(seed, label), reference(seed, label), k, i)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, labels=LABELS, count=st.integers(1, 200), i=st.integers(0, 23))
def test_batch_matches_stream(seed, labels, count, i):
    assert_batch_matches(lambda: PCG64Batch(label_states(seed, labels)),
                         lambda: [stream(seed, label) for label in labels],
                         count, 1 << i)


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, labels=LABELS)
def test_offsets_match_stream_at_every_block_size(seed, labels):
    states = label_states(seed, labels)
    for i in range(24):
        r_h, r_p = PCG64Batch(states).offsets(1 << i)
        for t, label in enumerate(labels):
            rng = stream(seed, label)
            assert (r_h[t], r_p[t]) == (rng.integers(0, 1 << i), rng.integers(0, 1 << i))


def test_batch_equals_one_at_a_time():
    labels = [f"inst/i={i}/j={j}/{use}" for i in range(4) for j in range(1, 40)
              for use in ("offsets", "alpha")]
    batch = PCG64Batch(label_states(17, labels)).random(5)
    single = [stream(17, label).random(5) for label in labels]
    assert len(batch) == len(labels)
    assert all(np.array_equal(x, y) for x, y in zip(batch, single))
    assert label_states(17, []).shape == (0, 4)
    assert len(PCG64Batch(label_states(17, []))) == 0


@pytest.mark.parametrize("delta", [0, 3, 6, 2**31 + 2**30, 2**32])
def test_offsets_reject_other_block_sizes(delta):
    with pytest.raises(ValueError, match="power of two"):
        PCG64Batch(label_states(1, ["x"])).offsets(delta)


@pytest.mark.parametrize("bits", [0, 1, 33, 96, 128])
def test_states_equal_seed_sequence(bits):
    # numpy coerces an entropy to as few uint32 words as hold it, and pads
    # the pool with hashes of 0; a batch holds all 4 words of every entropy
    entropies = [0 if bits == 0 else (1 << (bits - 1)) | 0x5A5A5A5A % (1 << bits),
                 (1 << bits) - 1]
    words = np.array([[(x >> (32 * w)) & 0xFFFFFFFF for w in range(4)]
                      for x in entropies], dtype=np.uint32)
    batch = _seed_states(words)
    for row, x in enumerate(entropies):
        want = np.random.SeedSequence(x).generate_state(4, np.uint64)
        assert np.array_equal(batch[row], want)
        assert np.array_equal(_seed_states(words[row:row + 1])[0], want)
    assert_batch_matches(lambda: PCG64Batch(batch),
                         lambda: [np.random.default_rng(x) for x in entropies],
                         200, 2**31)


# PCG64Batch as first written: every generator stepped once per draw, about
# 35 uint64 array operations a step.  The closed-form tiles must match it.
_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _U64(_MULT >> 64), _U64(_MULT & (1 << 64) - 1)
_MULT_LO0, _MULT_LO1 = _U64(_MULT & 0xFFFFFFFF), _U64(_MULT >> 32 & 0xFFFFFFFF)


class SteppingBatch:
    def __init__(self, states: np.ndarray):
        self.inc_hi = states[:, 2] << _U64(1) | states[:, 3] >> _U64(63)
        self.inc_lo = states[:, 3] << _U64(1) | _U64(1)
        self.hi = np.zeros(len(states), dtype=np.uint64)
        self.lo = np.zeros(len(states), dtype=np.uint64)
        self._step()
        self._add(states[:, 0], states[:, 1])
        self._step()

    def _add(self, hi, lo):
        """``state += hi:lo`` modulo 2^128."""
        low = self.lo + lo
        self.hi = self.hi + hi + (low < lo)
        self.lo = low

    def _step(self):
        """``state = state * _MULT + inc`` modulo 2^128."""
        lo0, lo1 = self.lo & _LO32, self.lo >> _U64(32)
        p00, p01 = lo0 * _MULT_LO0, lo0 * _MULT_LO1
        p10, p11 = lo1 * _MULT_LO0, lo1 * _MULT_LO1
        mid = (p00 >> _U64(32)) + (p01 & _LO32) + (p10 & _LO32)
        carry = p11 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
        self.hi = carry + self.hi * _MULT_LO + self.lo * _MULT_HI
        self.lo = self.lo * _MULT_LO
        self._add(self.inc_hi, self.inc_lo)

    def next64(self) -> np.ndarray:
        self._step()
        word, rot = self.hi ^ self.lo, self.hi >> _U64(58)
        return word >> rot | word << (_U64(64) - rot & _U64(63))

    def random(self, count: int) -> np.ndarray:
        out = np.empty((len(self.lo), count), dtype=np.float64)
        for c in range(count):
            out[:, c] = self.next64() >> _U64(11)
        out *= 2.0 ** -53
        return out

    def offsets(self, delta: int):
        if delta == 1:
            zero = np.zeros(len(self.lo), dtype=np.int64)
            return zero, zero.copy()
        shift = _U64(64 - delta.bit_length() + 1)
        out = self.next64()
        return (out << _U64(32) >> shift).astype(np.int64), (out >> shift).astype(np.int64)


def same_state(batch, ref) -> bool:
    return all(np.array_equal(getattr(batch, name), getattr(ref, name))
               for name in ("hi", "lo", "inc_hi", "inc_lo"))


RAW_STATES = st.lists(st.tuples(*[st.integers(0, 2**64 - 1)] * 4), min_size=1,
                      max_size=5).map(lambda rows: np.array(rows, dtype=np.uint64))


class TestClosedFormMatchesStepping:
    def test_every_count_up_to_400(self):
        # counts 1..400 cross the tile edges at every multiple of _TILE; the
        # draw after them shows that the state moved exactly count steps
        states = label_states(9, [f"tile/{t}" for t in range(6)])
        want = SteppingBatch(states).random(401)
        assert 400 > 12 * _TILE
        for count in range(1, 401):
            batch = PCG64Batch(states)
            assert np.array_equal(batch.random(count), want[:, :count]), count
            assert np.array_equal(batch.random(1), want[:, count:count + 1]), count

    @settings(max_examples=40, deadline=None)
    @given(states=RAW_STATES, calls=st.lists(
        st.one_of(st.tuples(st.just("random"), st.integers(0, 3 * _TILE + 1)),
                  st.tuples(st.just("offsets"), st.integers(0, 31).map(lambda i: 1 << i))),
        max_size=6))
    def test_ragged_calls_on_hypothesis_states(self, states, calls):
        batch, ref = PCG64Batch(states), SteppingBatch(states)
        assert same_state(batch, ref)
        for kind, arg in calls:
            got, want = getattr(batch, kind)(arg), getattr(ref, kind)(arg)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
            assert np.asarray(got).shape == np.asarray(want).shape
            assert same_state(batch, ref)

    def test_ragged_counts_per_row(self):
        # each row of a ragged table reads its own count from a wide draw
        labels = [f"inst/i=4/j={j}/alpha" for j in range(1, 70)]
        counts = [(7 * j) % 75 + 1 for j in range(len(labels))]
        wide = PCG64Batch(label_states(5, labels)).random(max(counts))
        for row, (label, count) in enumerate(zip(labels, counts)):
            alone = SteppingBatch(label_states(5, [label])).random(count)[0]
            assert np.array_equal(wide[row, :count], alone)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, head=st.text(), tail=st.text(),
       numbers=st.lists(st.integers(-10**6, 10**12), max_size=5))
def test_numbered_states_equal_label_states(seed, head, tail, numbers):
    want = label_states(seed, [f"{head}{j}{tail}" for j in numbers])
    assert np.array_equal(numbered_states(seed, head, numbers, tail), want)
