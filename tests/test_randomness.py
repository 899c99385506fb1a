"""Named streams and the batch PCG64 against numpy's own generators, bit for bit."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanwidth.randomness import PCG64Batch, _seed_states, label_states, stream

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
