import random

import pytest

from claes.chaos import ChaoticState, _step_raw, seed_from_key1

import oracles

# frozen from the big-integer oracle (see oracles.logistic_*)
TEN_STEPS_FROM_FIXED = 0x7FF9D525B92D28C0
SEED_COUNTING_5A = 0x0BD0E82BFA8AFAD0
SEED_ZEROS_00 = 0x3B605CB01FE197B7
FIRST_BYTE_ZEROS_00 = 0x7A


def test_zero_is_a_fixed_point():
    assert _step_raw(0) == 0


def test_step_at_one_half():
    assert _step_raw(1 << 62) == 39999 * (1 << 61) // 10000


def test_ten_steps_match_oracle():
    m = 0x0FEDCBA987654321
    for _ in range(10):
        m = _step_raw(m)
    assert m == TEN_STEPS_FROM_FIXED

    m = 0x0FEDCBA987654321
    for _ in range(10):
        m = oracles.logistic_step(m)
    assert m == TEN_STEPS_FROM_FIXED


def test_range_preserved_under_iteration():
    rng = random.Random(2024)
    for _ in range(200):
        m = rng.randrange(1 << 63)
        for _ in range(50):
            m = _step_raw(m)
            assert 0 <= m < 1 << 63


def test_state_validates_inputs():
    with pytest.raises(ValueError):
        ChaoticState(1 << 63)
    with pytest.raises(ValueError):
        ChaoticState(-1)
    with pytest.raises(ValueError):
        ChaoticState(1, domain_tag=256)


def test_seed_from_all_zero_prefix():
    state = seed_from_key1(bytes(9), 0x00)
    assert state.m_raw == SEED_ZEROS_00
    assert state.iterations == 0
    assert 0 < state.m_raw < (1 << 63) - 1


def test_seed_from_counting_prefix():
    state = seed_from_key1(bytes(range(1, 10)), 0x5A)
    assert state.m_raw == SEED_COUNTING_5A
    assert state.domain_tag == 0x5A


def test_seed_matches_oracle_on_random_prefixes():
    rng = random.Random(99)
    for _ in range(20):
        prefix = rng.randbytes(9)
        tag = rng.randrange(256)
        assert seed_from_key1(prefix, tag).m_raw == oracles.logistic_seed(prefix, tag)


def test_seed_pads_short_prefixes():
    assert seed_from_key1(b"\x01", 3).m_raw == seed_from_key1(b"\x01" + bytes(8), 3).m_raw


def test_seed_rejects_long_material():
    with pytest.raises(ValueError):
        seed_from_key1(bytes(10), 0)


def test_seed_last_byte_changes_state():
    a = seed_from_key1(b"\x01\x02\x03\x04\x05\x06\x07\x08\x09", 0)
    b = seed_from_key1(b"\x01\x02\x03\x04\x05\x06\x07\x08\x0a", 0)
    assert a.m_raw != b.m_raw


# the "next byte" of a stream is take(1)

def test_next_byte_on_zero_state():
    state = ChaoticState(0)
    assert state.take(1) == b"\x00"
    assert state.m_raw == 0
    assert state.iterations == 4


def test_next_byte_from_zero_prefix_seed():
    assert seed_from_key1(bytes(9), 0x00).take(1)[0] == FIRST_BYTE_ZEROS_00


def test_two_next_bytes_advance_eight_iterations():
    state = seed_from_key1(b"abc", 1)
    state.take(1)
    state.take(1)
    assert state.iterations == 8


def test_take_agrees_with_next_byte():
    bulk = seed_from_key1(b"stream", 9).take(64)
    state = seed_from_key1(b"stream", 9)
    singles = b"".join(state.take(1) for _ in range(64))
    assert bulk == singles
    assert state.iterations == 256


def test_take_matches_oracle_stream():
    state = seed_from_key1(b"\xde\xad\xbe\xef", 0x42)
    expected, _ = oracles.logistic_stream(oracles.logistic_seed(b"\xde\xad\xbe\xef".ljust(9, b"\x00"), 0x42), 200)
    assert state.take(200) == expected


def test_streams_reproducible():
    # same seed twice, bulk sizes split differently
    s1 = seed_from_key1(b"determini", 0x11)
    s2 = seed_from_key1(b"determini", 0x11)
    assert s1.take(4096) == s2.take(1024) + s2.take(3072)
