"""Pinned first values of the numpy draws that the output bytes rest on.

Every certificate, ordering and embedding is a function of a few numpy
algorithms: ``SeedSequence`` seeding of PCG64 (``randomness.stream``, and its
batch form ``label_states``), ``Generator.standard_normal`` (the projection
directions), ``Generator.random`` (the stretches, which ``PCG64Batch.random``
reproduces), ``Generator.integers(0, 2**63 - 1)`` (the restart seeds),
``Generator.integers(0, delta)`` (the block offsets, which
``PCG64Batch.offsets`` reproduces) and ``Generator.choice(..., replace=False)``
(``--dims-cap``).  A numpy release that changed one of them would change the
bytes; these tests name the draw that changed.  Each draw test starts from a
pinned PCG64 state, not from a seed, so a change in seeding fails only
``test_seed_sequence_state``.  Floats are pinned as ``float.hex`` bits.  The
values were recorded on numpy 2.4.6.
"""

import numpy as np
import pytest

# The entropies of three streams the program draws from, as
# ``int.from_bytes(randomness._entropy(seed, label), "big")``, and the PCG64
# state and increment ``np.random.default_rng(entropy)`` starts from.
STREAMS = {
    (3, "projection"): (
        0x16C943B9C936F8D7156189856466A8A,
        0xCEF88579FED50C1A90097C88D9914C1B, 0xA7342667EF678F8D7374092506829141),
    (0, "order/restart=0"): (
        0x8402B0D1484CB55380286A6C5531D6FD,
        0x365A79D3A84ECC894B1C1498828DBA02, 0xC34A5802A1AF5F7E03B1D9DE5294F1FF),
    (7, "inst/i=2/j=5/alpha"): (
        0xD52EEE46CC6B4C2410558C4274CD988C,
        0xA72990B161F9C7E6553459C4114B2810, 0x46A1AF7DE07BCD41372A6D2253372AC5),
}


def pinned(key) -> np.random.Generator:
    """A generator at the pinned PCG64 state of stream ``key``."""
    _, state, inc = STREAMS[key]
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def hexes(values: np.ndarray) -> list:
    return [x.hex() for x in values.tolist()]


@pytest.mark.parametrize("key, words", [
    ((3, "projection"),
     [0x2BFD5F6F8C6A693, 0x352A8D52A1D0D0D1, 0x539A1333F7B3C7C6, 0xB9BA0492834148A0]),
    ((0, "order/restart=0"),
     [0x87CEB5FA3B5737CF, 0xD5BFDE28841D3BA8, 0x61A52C0150D7AFBF, 0x1D8ECEF294A78FF]),
    ((7, "inst/i=2/j=5/alpha"),
     [0x7E85DA1BCA3ADF27, 0x1669CE9DBD33BB8A, 0x2350D7BEF03DE6A0, 0x9B953691299B9562]),
])
def test_seed_sequence_state(key, words):
    entropy, state, inc = STREAMS[key]
    assert np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist() == words
    assert np.random.default_rng(entropy).bit_generator.state["state"] == {
        "state": state, "inc": inc}


@pytest.mark.parametrize("key, values", [
    ((3, "projection"),
     ["0x1.f84fb5d5bac4ap+0", "-0x1.e94cb1fe224e0p-1", "-0x1.59ebf36a4752fp+0"]),
    ((0, "order/restart=0"),
     ["0x1.0685844c911b0p+1", "-0x1.5fada7548bfcfp-12", "-0x1.94575529636e2p-1"]),
    ((7, "inst/i=2/j=5/alpha"),
     ["0x1.2d2e35d2d391ep-1", "0x1.ef7e739ce0c7cp-2", "0x1.003ac7b7931d5p+0"]),
])
def test_standard_normal(key, values):
    assert hexes(pinned(key).standard_normal(3)) == values


@pytest.mark.parametrize("block", [1, 3, 512, 4096])
def test_standard_normal_in_blocks_equals_one_call(block):
    # the projection directions are drawn a column block at a time; the
    # ziggurat's rare rejections draw extra outputs, so many values are compared
    for key in STREAMS:
        whole = pinned(key).standard_normal(10_000)
        rng = pinned(key)
        parts = [rng.standard_normal(min(block, 10_000 - start))
                 for start in range(0, 10_000, block)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


@pytest.mark.parametrize("key, values", [
    ((3, "projection"),
     ["0x1.f3c9eca689f0ap-2", "0x1.7009f6ff55623p-1", "0x1.2452e1853e8d0p-1"]),
    ((0, "order/restart=0"),
     ["0x1.f33716ad379b0p-4", "0x1.001225dcbb23cp-3", "0x1.adb42075c37b2p-2"]),
    ((7, "inst/i=2/j=5/alpha"),
     ["0x1.46e609e05d310p-3", "0x1.7a7d82c3df730p-3", "0x1.fbc70fbe7e110p-2"]),
])
def test_random(key, values):
    assert hexes(pinned(key).random(3)) == values


@pytest.mark.parametrize("key, value", [
    ((3, "projection"), 4501697011908482151),
    ((0, "order/restart=0"), 1124132671308225123),
    ((7, "inst/i=2/j=5/alpha"), 1472220360015549284),
])
def test_integers_below_2_63_minus_1(key, value):
    assert int(pinned(key).integers(0, 2**63 - 1)) == value


@pytest.mark.parametrize("key, pairs", [
    ((3, "projection"), [[1, 0], [649, 499], [1363022951, 1048133012]]),
    ((0, "order/restart=0"), [[1, 0], [845, 124], [1773984356, 261732533]]),
    ((7, "inst/i=2/j=5/alpha"), [[0, 0], [46, 163], [97719141, 342778014]]),
])
def test_integers_below_a_power_of_two(key, pairs):
    # a column's two offsets, r_h and r_p, from a fresh stream
    for delta, pair in zip((2, 1024, 2**31), pairs):
        rng = pinned(key)
        assert [int(rng.integers(0, delta)) for _ in range(2)] == pair


@pytest.mark.parametrize("key, small, large", [
    ((3, "projection"), [11, 17, 15, 16, 6, 10, 4, 8],
     [35795, 39006, 41801, 39790, 45066, 30598]),
    ((0, "order/restart=0"), [13, 1, 2, 10, 7, 17, 8, 9],
     [51787, 26309, 7640, 7838, 37075, 27642]),
    ((7, "inst/i=2/j=5/alpha"), [0, 16, 19, 7, 8, 2, 15, 10],
     [11586, 2852, 39066, 30350, 10006, 31089]),
])
def test_choice_without_replacement(key, small, large):
    # numpy picks its algorithm by population and sample size; both kinds
    assert pinned(key).choice(20, size=8, replace=False).tolist() == small
    assert pinned(key).choice(62_696, size=6, replace=False).tolist() == large
