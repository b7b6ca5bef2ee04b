import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claes.chaos import ChaoticState, _chaos_reference, seed_from_key1
from claes.errors import EmptyKey, LengthMismatch, ZeroState
from claes.keymatrix import default_matrix
from claes.keyschedule import (
    _PAD,
    DOMAIN_KEY2,
    DOMAIN_KEYSTREAM,
    DOMAIN_ROUND_KEYS,
    KEY2_CYCLES,
    Lfsr8,
    baseline_keystream,
    derive_final_key,
    derive_key2,
    derive_key3,
    derive_key_material,
    derive_round_keys,
    fold_seed_prefix,
    generate_keystream,
    keystream_seed,
    lfsr_next,
)

import oracles

# frozen from the oracle chain
ZERO_MASTER_KEY2_FIRST = 0xD8
KEY3_AA55 = bytes.fromhex("ac9c")
KEYSTREAM32_COUNTING = bytes.fromhex(
    "cf82d685e4a762850a9b894247ab8695d0c8a713ccda061085f1cd3b9c6ffa17"
)
ZERO_MASTER_ROUND_KEY0 = bytes.fromhex("42dad9e37e26b4b68e551cdc23db8052")
BASELINE_SENTINEL_4 = bytes.fromhex("fcc42d9e")
LFSR_01_FIRST = 0x1C


# --- LFSR -------------------------------------------------------------------

def test_lfsr_zero_seed_rejected():
    with pytest.raises(ZeroState):
        Lfsr8(0x00)


def test_lfsr_first_output_from_one():
    out, reg = lfsr_next(Lfsr8(0x01))
    assert out == LFSR_01_FIRST
    assert reg.state == out


def test_lfsr_output_is_oracle_bitwise_simulation():
    rng = random.Random(31)
    for _ in range(10):
        seed = rng.randrange(1, 256)
        reg = Lfsr8(seed)
        mine = []
        for _ in range(20):
            out, reg = lfsr_next(reg)
            mine.append(out)
        assert mine == oracles.lfsr_outputs(seed, 20)


def test_lfsr_every_seed_visits_all_255_states():
    for seed in range(1, 256):
        reg = Lfsr8(seed)
        seen = set()
        for _ in range(255):
            out, reg = lfsr_next(reg)
            seen.add(out)
        assert len(seen) == 255
        assert 0 not in seen


# --- Key2 / Key3 / final key -------------------------------------------------

def test_key2_has_key1_length():
    key1 = bytes(range(48))
    key2 = derive_key2(seed_from_key1(fold_seed_prefix(key1), DOMAIN_KEY2), key1)
    assert len(key2) == len(key1)


def test_key2_of_zero_key1_is_raw_chaos():
    key1 = bytes(24)
    seed_a = seed_from_key1(fold_seed_prefix(key1), DOMAIN_KEY2)
    seed_b = seed_from_key1(fold_seed_prefix(key1), DOMAIN_KEY2)
    key2 = derive_key2(seed_a, key1)
    raw = bytes(seed_b.take(4)[-1] for _ in range(24))
    assert key2 == raw


def test_key2_first_byte_for_zero_master():
    km = derive_key_material(bytes(16))
    assert km.key2[0] == ZERO_MASTER_KEY2_FIRST


def test_key2_consumes_sixteen_iterations_per_byte():
    key1 = bytes(10)
    seed = seed_from_key1(fold_seed_prefix(key1), DOMAIN_KEY2)
    m = seed.m_raw
    derive_key2(seed, key1)
    # 16 steps are 4 bytes of the stream
    assert seed.m_raw == _chaos_reference(m, 0, 4 * 10)[1]


def test_key2_is_one_chaos_draw(monkeypatch):
    calls = []
    real = ChaoticState.take
    monkeypatch.setattr(ChaoticState, "take", lambda self, n: calls.append(n) or real(self, n))
    key1 = bytes(range(48))
    key2 = derive_key2(seed_from_key1(fold_seed_prefix(key1), DOMAIN_KEY2), key1)
    assert calls == [KEY2_CYCLES * len(key1)]
    monkeypatch.setattr(ChaoticState, "take", real)
    per_byte = seed_from_key1(fold_seed_prefix(key1), DOMAIN_KEY2)
    assert key2 == bytes(per_byte.take(KEY2_CYCLES)[-1] ^ b for b in key1)


def test_key3_of_zero_key2_is_rotated_lfsr():
    key2 = bytes(8)
    key3 = derive_key3(key2)
    expected = bytes(
        oracles.rotr8(l, 1) for l in oracles.lfsr_outputs(0x5C, 8)
    )
    assert key3 == expected


def test_key3_known_pair():
    assert derive_key3(bytes.fromhex("aa55")) == KEY3_AA55


def test_key3_never_equals_key2():
    rng = random.Random(77)
    key2 = rng.randbytes(255)
    key3 = derive_key3(key2)
    assert all(a != b for a, b in zip(key2, key3))


def test_final_key_xor_identities():
    key1 = bytes.fromhex("0105")
    assert derive_final_key(key1, b"\xaa\xbb", b"\xaa\xbb") == key1
    assert derive_final_key(bytes(2), bytes(2), bytes(2)) == bytes(2)
    assert derive_final_key(b"\x01\x01", b"\x02\x02", b"\x04\x04") == b"\x07\x07"


def test_final_key_length_mismatch():
    with pytest.raises(LengthMismatch):
        derive_final_key(b"\x00", b"\x00\x00", b"\x00")


# --- keystream ----------------------------------------------------------------

def test_keystream_empty():
    km = derive_key_material(b"k")
    assert generate_keystream(keystream_seed(km.key1), km.final_key, 0) == b""


@pytest.mark.parametrize("n", [0, 1, 64])
def test_keystream_refuses_an_empty_final_key(n):
    seed = keystream_seed(b"abc")
    with pytest.raises(EmptyKey):
        generate_keystream(seed, b"", n)
    # refused before the chaos state moves
    assert seed.m_raw == keystream_seed(b"abc").m_raw


def test_keystream_zero_final_key_is_raw_chaos():
    key1 = b"abcdef"
    a = generate_keystream(keystream_seed(key1), bytes(6), 32)
    b = keystream_seed(key1).take(32)
    assert a == b


@given(st.binary(min_size=1, max_size=40), st.integers(0, 300))
@settings(max_examples=100, deadline=None)
def test_keystream_is_chaos_xor_cycled_final_key(final_key, n):
    raw = keystream_seed(b"whitening").take(n)
    expected = bytes(raw[t] ^ final_key[t % len(final_key)] for t in range(n))
    assert generate_keystream(keystream_seed(b"whitening"), final_key, n) == expected


def test_keystream_frozen_vector():
    km = derive_key_material(bytes(range(16)))
    ks = generate_keystream(keystream_seed(km.key1), km.final_key, 32)
    assert ks == KEYSTREAM32_COUNTING


def test_keystream_cost_is_linear_in_length():
    km = derive_key_material(b"linearity")
    m = keystream_seed(km.key1).m_raw
    for n in (500, 1000):
        seed = keystream_seed(km.key1)
        generate_keystream(seed, km.final_key, n)
        # 4 map steps per byte, as one take of n bytes
        assert seed.m_raw == _chaos_reference(m, 0, n)[1]


def test_keystream_avalanche_on_master_bit_flip():
    # one flipped master-key bit should flip about half of the first 1024
    # keystream bits, averaged over random trials
    rng = random.Random(1001)
    fractions = []
    for _ in range(200):
        master = bytearray(rng.randbytes(16))
        flipped = bytearray(master)
        bit = rng.randrange(128)
        flipped[bit // 8] ^= 1 << (bit % 8)
        streams = []
        for mk in (bytes(master), bytes(flipped)):
            km = derive_key_material(mk)
            streams.append(generate_keystream(keystream_seed(km.key1), km.final_key, 128))
        diff = sum(bin(a ^ b).count("1") for a, b in zip(*streams))
        fractions.append(diff / 1024)
    mean = sum(fractions) / len(fractions)
    assert 0.45 <= mean <= 0.55, mean


# --- round keys ----------------------------------------------------------------

def test_round_keys_shape():
    seed = seed_from_key1(b"shape", DOMAIN_ROUND_KEYS)
    m = seed.m_raw
    rk = derive_round_keys(seed)
    assert type(rk) is bytes and len(rk) == 11 * 16
    assert rk == _chaos_reference(m, 0, 176)[0]


def test_round_keys_zero_master_frozen():
    km = derive_key_material(bytes(16))
    assert km.round_keys[:16] == ZERO_MASTER_ROUND_KEY0


def test_domain_tags_separate_streams():
    rng = random.Random(404)
    for _ in range(100):
        key1 = rng.randbytes(48)
        prefix = fold_seed_prefix(key1)
        a = seed_from_key1(prefix, DOMAIN_ROUND_KEYS).take(1)
        b = seed_from_key1(prefix, DOMAIN_KEYSTREAM).take(1)
        if a != b:
            break
    else:
        pytest.fail("round-key and keystream domains produced identical first bytes 100 times")
    # and across the full sample they differ almost always
    same = 0
    for _ in range(100):
        key1 = rng.randbytes(48)
        prefix = fold_seed_prefix(key1)
        same += seed_from_key1(prefix, DOMAIN_ROUND_KEYS).take(1) == seed_from_key1(prefix, DOMAIN_KEYSTREAM).take(1)
    assert same <= 2


# --- key material assembly ------------------------------------------------------

def test_fold_seed_prefix():
    assert fold_seed_prefix(b"abc") == b"abc" + bytes(6)
    # the XOR of 9-byte integers against the bytewise fold, for Key1
    # lengths that are and are not multiples of 9
    rng = random.Random(16)
    for n in range(1, 301):
        key1 = rng.randbytes(n)
        expected = bytearray(9)
        for i, b in enumerate(key1):
            expected[i % 9] ^= b
        assert fold_seed_prefix(key1) == bytes(expected), n


@pytest.mark.parametrize("length", [1, 85, 86, 200])
def test_final_key_across_the_pad_period(length):
    # Key1 has 3 bytes per master-key byte, so from 86 bytes on it runs
    # past the 255-byte pad period and the pad is cycled
    master = random.Random(length).randbytes(length)
    km = derive_key_material(master)
    assert len(km.final_key) == 3 * length
    assert km.final_key == bytes(b ^ _PAD[i % 255] for i, b in enumerate(km.key1))
    assert km.final_key == derive_final_key(km.key1, km.key2, km.key3)
    assert km.final_key == oracles.key_material(master)[3]


def test_swapping_master_bytes_three_apart_keeps_both_seeds():
    # bytes i and i + 3 fill Key1 positions 3i.. and 3i + 9.., which the
    # stride-9 fold XORs together: the seeds cannot tell them apart
    master = bytes(range(16))
    swapped = master[3:4] + master[1:3] + master[0:1] + master[4:]
    a, b = derive_key_material(master), derive_key_material(swapped)
    assert fold_seed_prefix(a.key1) == fold_seed_prefix(b.key1)
    assert a.round_keys == b.round_keys
    assert a.keystream_state == b.keystream_state
    assert a.final_key != b.final_key


def test_key_material_xor_relation():
    rng = random.Random(55)
    for _ in range(20):
        km = derive_key_material(rng.randbytes(rng.randrange(1, 40)))
        assert len(km.key1) == len(km.key2) == len(km.key3) == len(km.final_key)
        assert km.final_key == bytes(
            a ^ b ^ c for a, b, c in zip(km.key1, km.key2, km.key3)
        )


@given(st.binary(min_size=1, max_size=64))
@example(bytes(range(100)))  # Key1 of 300 bytes runs past the 255-byte pad period
@settings(max_examples=100, deadline=None)
def test_final_key_equals_full_chain(master):
    # the final key is computed from Key1 and the LFSR pad alone; Key2 and
    # Key3, derived lazily, must give the same bytes through the full chain
    km = derive_key_material(master)
    assert km.final_key == derive_final_key(km.key1, km.key2, km.key3)


def test_key2_and_key3_are_derived_only_when_read(monkeypatch):
    import claes.keyschedule as ks

    calls = []
    real_key2, real_key3 = ks.derive_key2, ks.derive_key3
    monkeypatch.setattr(ks, "derive_key2", lambda *a: calls.append(2) or real_key2(*a))
    monkeypatch.setattr(ks, "derive_key3", lambda *a: calls.append(3) or real_key3(*a))
    km = derive_key_material(b"lazy")
    assert calls == []
    assert km.key3 == km.key3
    assert calls == [2, 3]


def test_key_material_matches_oracle_chain():
    for master in (b"\x07", bytes(range(16)), bytes(range(255, 223, -1))):
        km = derive_key_material(master)
        k1, k2, k3, fk = oracles.key_material(master)
        assert (km.key1, km.key2, km.key3, km.final_key) == (k1, k2, k3, fk)
        assert km.round_keys == oracles.round_keys(master)
        assert km.keystream_state == keystream_seed(km.key1).m_raw


def test_key_material_is_deterministic():
    a = derive_key_material(b"same master key")
    b = derive_key_material(b"same master key")
    assert a == b


# --- baseline keystream -----------------------------------------------------------

def test_baseline_empty():
    assert baseline_keystream(default_matrix(), bytes([26, 26, 26]), 0) == b""


def test_baseline_deterministic():
    m = default_matrix()
    key1 = bytes([1, 2, 3, 4, 5, 6])
    assert baseline_keystream(m, key1, 100) == baseline_keystream(m, key1, 100)


def test_baseline_frozen_vector():
    got = baseline_keystream(default_matrix(), bytes([26, 26, 26]), 4)
    assert got == BASELINE_SENTINEL_4
    assert got == oracles.baseline_stream(bytes([26, 26, 26]), 4)


def test_baseline_one_lookup_per_byte(monkeypatch):
    import claes.keyschedule as ks

    calls = 0
    real = ks.encode_byte

    def counting(m, b):
        nonlocal calls
        calls += 1
        return real(m, b)

    monkeypatch.setattr(ks, "encode_byte", counting)
    baseline_keystream(default_matrix(), bytes([26, 26, 26]), 321)
    assert calls == 321
