"""Named streams against numpy's own seeding, bit for bit."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanwidth.randomness import _seed_states, stream, streams


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), labels=st.lists(st.text(), min_size=1, max_size=6),
       k=st.integers(1, 9), i=st.integers(0, 62))
def test_streams_match_default_rng(seed, labels, k, i):
    for label, rng in zip(labels, streams(seed, labels), strict=True):
        assert_same_draws(rng, reference(seed, label), k, i)
    assert_same_draws(stream(seed, labels[0]), reference(seed, labels[0]), k, i)


def test_batch_equals_one_at_a_time():
    labels = [f"inst/i={i}/j={j}/{use}" for i in range(4) for j in range(1, 40)
              for use in ("offsets", "alpha")]
    batch = [rng.random(5) for rng in streams(17, labels)]
    single = [stream(17, label).random(5) for label in labels]
    assert len(batch) == len(labels)
    assert all(np.array_equal(x, y) for x, y in zip(batch, single))
    assert list(streams(17, [])) == []


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
