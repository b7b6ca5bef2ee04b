import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claes import _native, cipher
from claes.cipher import (
    FLAG_LZ78,
    MAGIC,
    VERSION,
    Envelope,
    block_encrypt,
    decrypt_message,
    encrypt_message,
    rijndael_round_keys,
)
from claes.errors import (
    BadMagic,
    BadVersion,
    ClaesError,
    EmptyKey,
    LengthMismatch,
    MessageTooLong,
    OutputLimitExceeded,
    Truncated,
    UnknownFlags,
)
from claes.keyschedule import derive_key_material
from claes.lz78 import Token, encode_tokens
from claes import vectors

import oracles

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

# frozen from the first-principles oracle
ZERO_BLOCK_ZERO_KEYS = bytes.fromhex("36363636363636363636363636363636")
ZERO_KEY_EXPANSION_RK1 = bytes.fromhex("62636363626363636263636362636363")
ZERO_KEY_EXPANSION_RK10 = bytes.fromhex("b4ef5bcb3e92e21123e951cf6f8f188e")


ZERO_ROUND_KEYS = bytes(176)


def _ctr_keystream(nonce, nblocks, round_keys):
    # the fused pass on the active path, with both operands zero
    zeros = bytes(16 * nblocks)
    return cipher._ctr_xor(nonce, round_keys, zeros, zeros, 16 * nblocks)


# --- block core ---------------------------------------------------------------

def test_standard_vector():
    rk = rijndael_round_keys(FIPS_KEY)
    assert block_encrypt(FIPS_PLAINTEXT, rk) == FIPS_CIPHERTEXT


def test_zero_block_zero_round_keys_golden():
    assert block_encrypt(bytes(16), ZERO_ROUND_KEYS) == ZERO_BLOCK_ZERO_KEYS


def test_block_core_matches_independent_reference():
    rng = random.Random(42)
    for _ in range(64):
        key = rng.randbytes(16)
        block = rng.randbytes(16)
        rk = rijndael_round_keys(key)
        oracle_rk = oracles.expand_key(key)
        assert rk == oracle_rk
        assert block_encrypt(block, rk) == oracles.aes_encrypt(block, oracle_rk)


def test_block_requires_16_bytes():
    for size in (15, 17):
        with pytest.raises(ValueError):
            block_encrypt(bytes(size), ZERO_ROUND_KEYS)


def test_rijndael_expansion_shape_and_first_round():
    rk = rijndael_round_keys(FIPS_KEY)
    assert type(rk) is bytes and len(rk) == 11 * 16
    assert rk[:16] == FIPS_KEY


def test_rijndael_expansion_zero_key_golden():
    rk = rijndael_round_keys(bytes(16))
    assert rk[:16] == bytes(16)
    assert rk[16:32] == ZERO_KEY_EXPANSION_RK1
    assert rk[160:] == ZERO_KEY_EXPANSION_RK10


def test_rijndael_rejects_wrong_key_size():
    with pytest.raises(LengthMismatch):
        rijndael_round_keys(bytes(15))


def test_round_keys_validation():
    # round keys are 176 flat bytes; eleven separate blocks are refused too
    for bad in (bytes(160), bytes(175), bytes(177), (bytes(16),) * 11):
        with pytest.raises(LengthMismatch):
            block_encrypt(bytes(16), bad)


@given(
    blocks=st.integers(1, 5).flatmap(lambda n: st.binary(min_size=16 * n, max_size=16 * n)),
    flat=st.binary(min_size=176, max_size=176),
)
@settings(max_examples=200, deadline=None)
def test_python_core_matches_oracle_per_block(blocks, flat):
    expected = b"".join(oracles.aes_encrypt(blocks[i:i + 16], flat) for i in range(0, len(blocks), 16))
    assert cipher._encrypt_blocks(blocks, flat) == expected


def test_batched_counter_mode_matches_per_block():
    # counter mode on the active path against the independent oracle, under
    # random chaos-style and under Rijndael round keys
    rng = random.Random(11)
    for nblocks in (1, 2, 17, 33, 256):
        for rk in (rng.randbytes(176), rijndael_round_keys(rng.randbytes(16))):
            nonce = rng.randbytes(12)
            batched = _ctr_keystream(nonce, nblocks, rk)
            counter_blocks = [nonce + i.to_bytes(4, "big") for i in range(nblocks)]
            assert batched == b"".join(oracles.aes_encrypt(b, rk) for b in counter_blocks)


def test_ctr_keystream_refuses_counter_wrap():
    # checked before any other argument, so this call allocates nothing
    with pytest.raises(MessageTooLong):
        cipher._ctr_xor(bytes(12), bytes(176), b"", b"", 16 * 2**32 + 1)
    cipher._ctr_xor(bytes(12), bytes(176), b"", b"", 0)
    with pytest.raises(LengthMismatch):
        cipher._ctr_xor(bytes(12), bytes(176), b"", b"", 16 * 2**32)


@pytest.mark.parametrize(
    "nonce, round_keys, a, b",
    [(bytes(11), bytes(176), bytes(5), bytes(5)), (bytes(12), bytes(160), bytes(5), bytes(5)),
     (bytes(12), bytes(176), bytes(4), bytes(5)), (bytes(12), bytes(176), bytes(5), bytes(4))],
    ids=["nonce", "round-keys", "a", "b"],
)
def test_ctr_xor_checks_its_arguments(nonce, round_keys, a, b):
    with pytest.raises(LengthMismatch):
        cipher._ctr_xor(nonce, round_keys, a, b, 5)


def _ctr_oracle(nonce, counters, round_keys):
    return b"".join(oracles.aes_encrypt(nonce + i.to_bytes(4, "big"), round_keys) for i in counters)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_ctr_known_answer_vectors(request, monkeypatch, compiled):
    # the pinned round keys are the classic expansion of AES_KEY and the
    # chaos round keys of the counting16 master
    (rijndael_rk, _), (chaos_rk, _) = vectors.CTR_KEYSTREAMS
    assert rijndael_rk == rijndael_round_keys(bytes.fromhex(vectors.AES_KEY)).hex()
    counting16 = bytes.fromhex(vectors.GOLDEN_KEYS["counting16"]["master"])
    assert chaos_rk == derive_key_material(counting16).round_keys.hex()
    kernel = request.getfixturevalue("kernel") if compiled else None
    monkeypatch.setattr(_native, "_kernel", kernel)
    nonce = bytes.fromhex(vectors.CTR_NONCE)
    # on the kernel, every loop it binds: where the AES-NI one serves, the
    # T-table one that the ARM targets run is checked too
    for loop in kernel.ctr_loops.values() if compiled else [None]:
        if loop is not None:
            monkeypatch.setattr(kernel, "ctr_xor", loop)
        for flat, expected in vectors.CTR_KEYSTREAMS:
            rk = bytes.fromhex(flat)
            assert _ctr_keystream(nonce, 3, rk).hex() == expected
            assert _ctr_oracle(nonce, range(3), rk).hex() == expected


# 1023-1025 and 2049 straddle the Python core's 1024-block chunks, and 7-9
# and 17 the AES-NI loop's batches of eight blocks; each count runs whole,
# and one and fifteen bytes short, so n covers 0, 1, 15, 16, 17
@pytest.mark.parametrize("nblocks", [0, 1, 2, 7, 8, 9, 17, 256, 1023, 1024, 1025, 1537, 2049])
@given(nonce=st.binary(min_size=12, max_size=12), flat=st.binary(min_size=176, max_size=176),
       seed=st.integers(0, 2**32))
@settings(max_examples=12, deadline=None)
def test_compiled_ctr_matches_python_core_and_oracle(kernel, nblocks, nonce, flat, seed):
    rng = random.Random(seed)
    a = rng.randbytes(16 * nblocks)
    b = rng.randbytes(16 * nblocks + rng.randrange(32))
    for n in sorted({max(0, 16 * nblocks - short) for short in (0, 1, 15)}):
        reference = cipher._python_ctr_xor(nonce, flat, a, b, n)
        # every loop the kernel binds: the AES-NI one where the CPU has it,
        # and the T-table one that the ARM targets run
        for aes, ctr_xor in kernel.ctr_loops.items():
            assert ctr_xor(nonce, flat, a, b, n) == reference, aes
        stream = bytes(x ^ y ^ z for x, y, z in zip(reference, a, b))
        # the oracle takes about 1 ms a block: every block of short streams,
        # and the first and last blocks of long ones and of each chunk
        blocks = -(-n // 16)
        edges = {i for c in range(0, blocks, cipher._CTR_CHUNK_BLOCKS) for i in (c - 1, c)}
        for i in sorted(({*range(min(blocks, 17)), blocks - 1} | edges) - {-1}):
            got = stream[16 * i:16 * i + 16]
            assert got == _ctr_oracle(nonce, [i], flat)[:len(got)]


# --- envelope -------------------------------------------------------------------

def test_envelope_codec_roundtrip():
    env = Envelope(flags=1, nonce=bytes(12), plain_len=77, payload=b"abc")
    again = Envelope.decode(env.encode())
    assert again == env


def test_envelope_bad_magic():
    blob = bytearray(Envelope(flags=0, nonce=bytes(12), plain_len=0, payload=b"").encode())
    blob[0] = ord("X")
    with pytest.raises(BadMagic):
        Envelope.decode(bytes(blob))


def test_envelope_bad_version():
    blob = bytearray(Envelope(flags=0, nonce=bytes(12), plain_len=0, payload=b"").encode())
    blob[5] = 0x02
    with pytest.raises(BadVersion):
        Envelope.decode(bytes(blob))


def test_envelope_truncated_header():
    with pytest.raises(Truncated):
        Envelope.decode(b"CLAES\x01\x00")


@given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(lambda b: MAGIC + b)))
@settings(max_examples=300, deadline=None)
def test_hostile_envelope_decode_raises_only_claes_errors(blob):
    try:
        Envelope.decode(blob)
    except ClaesError:
        pass


@pytest.mark.parametrize("flags", [0x02, 0x80, 0xFE, 0xFF])
def test_envelope_rejects_unknown_flags(flags):
    master = b"flag check"
    blob = bytearray(encrypt_message(master, bytes(12), b"reading", compress=False).encode())
    blob[6] = flags
    with pytest.raises(UnknownFlags):
        Envelope.decode(bytes(blob))
    with pytest.raises(UnknownFlags):
        Envelope(flags=flags, nonce=bytes(12), plain_len=7, payload=bytes(blob[27:]))


def test_envelope_validates_fields():
    with pytest.raises(LengthMismatch):
        Envelope(flags=0, nonce=bytes(11), plain_len=0, payload=b"")
    with pytest.raises(ValueError):
        Envelope(flags=300, nonce=bytes(12), plain_len=0, payload=b"")


@pytest.mark.parametrize("plain_len", [-1, 2**64, 2**70])
def test_envelope_refuses_a_plain_len_outside_8_bytes(plain_len):
    # refused when built, not later in encode()
    with pytest.raises(ValueError):
        Envelope(flags=0, nonce=bytes(12), plain_len=plain_len, payload=b"")
    top = Envelope(flags=0, nonce=bytes(12), plain_len=2**64 - 1, payload=b"")
    assert Envelope.decode(top.encode()) == top


# --- message pipeline --------------------------------------------------------------

def test_message_roundtrip_both_flags():
    rng = random.Random(500)
    for compress in (False, True):
        for size in (0, 1, 15, 16, 17, 1000):
            master = rng.randbytes(16)
            nonce = rng.randbytes(12)
            plaintext = rng.randbytes(size)
            env = encrypt_message(master, nonce, plaintext, compress)
            assert env.plain_len == size
            assert bool(env.flags & FLAG_LZ78) == compress
            assert decrypt_message(env, master) == plaintext


def test_empty_plaintext_without_compression():
    env = encrypt_message(b"key", bytes(12), b"", compress=False)
    assert env.payload == b""
    assert env.plain_len == 0
    assert decrypt_message(env, b"key") == b""


def test_envelope_golden_bytes():
    master = bytes.fromhex(vectors.ENVELOPE_MASTER)
    nonce = bytes.fromhex(vectors.ENVELOPE_NONCE)
    plaintext = bytes.fromhex(vectors.ENVELOPE_PLAINTEXT)
    assert encrypt_message(master, nonce, plaintext, False).encode().hex() == vectors.ENVELOPE_PLAIN
    assert encrypt_message(master, nonce, plaintext, True).encode().hex() == vectors.ENVELOPE_COMPRESSED


def test_encrypt_requires_key_and_nonce():
    with pytest.raises(EmptyKey):
        encrypt_message(b"", bytes(12), b"data")
    with pytest.raises(LengthMismatch):
        encrypt_message(b"key", bytes(11), b"data")
    with pytest.raises(EmptyKey):
        decrypt_message(Envelope(flags=0, nonce=bytes(12), plain_len=0, payload=b""), b"")


def test_wrong_plain_len_detected():
    env = encrypt_message(b"key", bytes(12), b"0123456789", compress=False)
    tampered = Envelope(env.flags, env.nonce, env.plain_len + 1, env.payload)
    with pytest.raises(LengthMismatch):
        decrypt_message(tampered, b"key")


def test_corrupted_compressed_payload_never_silently_wrong_length():
    rng = random.Random(9090)
    master = b"fault injection key"
    nonce = rng.randbytes(12)
    plaintext = rng.randbytes(512) + b"ABCD" * 64
    env = encrypt_message(master, nonce, plaintext, compress=True)
    outcomes = {"error": 0, "same_length": 0}
    for _ in range(1000):
        corrupted = bytearray(env.payload)
        pos = rng.randrange(len(corrupted))
        corrupted[pos] ^= 1 + rng.randrange(255)
        bad = Envelope(env.flags, env.nonce, env.plain_len, bytes(corrupted))
        try:
            out = decrypt_message(bad, master)
        except ClaesError:
            outcomes["error"] += 1
        else:
            # a same-length wrong plaintext is possible and accepted; a
            # wrong-length silent success is not
            assert len(out) == env.plain_len
            assert out != plaintext
            outcomes["same_length"] += 1
    assert outcomes["error"] + outcomes["same_length"] == 1000


def test_wrong_key_never_recovers_plaintext():
    rng = random.Random(321)
    plaintext = rng.randbytes(300)
    nonce = rng.randbytes(12)
    master = rng.randbytes(16)
    env = encrypt_message(master, nonce, plaintext, compress=True)
    for _ in range(1000):
        wrong = bytearray(master)
        bit = rng.randrange(128)
        wrong[bit // 8] ^= 1 << (bit % 8)
        try:
            out = decrypt_message(env, bytes(wrong))
        except ClaesError:
            continue
        assert out != plaintext
    assert decrypt_message(env, master) == plaintext


def test_nonce_separation():
    rng = random.Random(654)
    master = b"nonce separation"
    plaintext = b"same plaintext every time"
    differing = 0
    for _ in range(1000):
        n1 = rng.randbytes(12)
        n2 = rng.randbytes(12)
        if n1 == n2:
            continue
        a = encrypt_message(master, n1, plaintext, compress=False)
        b = encrypt_message(master, n2, plaintext, compress=False)
        differing += a.payload != b.payload
    assert differing == 1000


def test_a_colliding_master_key_byte_opens_the_envelope():
    # 0x06 and 0xA0 share a code in the default cube, so they give one Key1
    sealing = bytes([0x06]) + bytes(range(1, 16))
    opening = bytes([0xA0]) + bytes(range(1, 16))
    env = encrypt_message(sealing, bytes(12), b"equivalent keys", compress=False)
    cipher.clear_key_cache()
    assert decrypt_message(env, opening) == b"equivalent keys"


def test_chaos_round_keys_feed_the_block_core():
    # pipeline keystream blocks must be AES(nonce||counter) under the chaos
    # round keys, checked against the independent oracle
    master = b"pipeline wiring check"
    km = derive_key_material(master)
    nonce = bytes(12)
    env = encrypt_message(master, nonce, bytes(16), compress=False)
    ks_seed_block = oracles.aes_encrypt(nonce + (0).to_bytes(4, "big"), km.round_keys)
    from claes.keyschedule import generate_keystream, keystream_seed

    whitening = generate_keystream(keystream_seed(km.key1), km.final_key, 16)
    expected_payload = bytes(w ^ k for w, k in zip(whitening, ks_seed_block))
    assert env.payload == expected_payload


@given(st.sampled_from([0, FLAG_LZ78]), st.binary(min_size=20, max_size=512))
@settings(max_examples=200, deadline=None)
def test_hostile_envelope_body_raises_only_claes_errors(flags, body):
    # a valid magic, version and flags, then arbitrary nonce, declared
    # length and payload (other flags are refused by Envelope.decode)
    env = Envelope.decode(MAGIC + bytes((VERSION, flags)) + body)
    try:
        decrypt_message(env, b"fuzzing key")
    except ClaesError:
        pass


@given(st.binary(max_size=512))
@settings(max_examples=200, deadline=None)
@example(b"")
def test_envelope_declaring_the_largest_length_raises_only_claes_errors(body):
    # plain_len comes from outside: no output buffer is sized from it
    env = Envelope(flags=FLAG_LZ78, nonce=bytes(12), plain_len=2**64 - 1, payload=body)
    with pytest.raises(ClaesError):
        decrypt_message(env, b"fuzzing key")


def test_envelope_declaring_the_largest_length_of_a_valid_stream():
    master = b"bounded decode"
    env = encrypt_message(master, bytes(12), b"abc" * 1000)
    hostile = Envelope(env.flags, env.nonce, 2**64 - 1, env.payload)
    with pytest.raises(LengthMismatch, match="decoded 3000 bytes"):
        decrypt_message(hostile, master)


def test_chained_tokens_fail_fast_against_declared_length():
    # token t extends entry t by one byte, so 4000 tokens would decode to
    # about 8 MB; the declared 64 bytes are passed at token 10
    master = b"bounded decode"
    stream = encode_tokens([Token(t, 65) for t in range(4000)])
    carrier = encrypt_message(master, bytes(12), stream, compress=False)
    env = Envelope(flags=FLAG_LZ78, nonce=carrier.nonce, plain_len=64, payload=carrier.payload)
    with pytest.raises(OutputLimitExceeded, match="token 10 "):
        decrypt_message(env, master)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_a_short_stream_declaring_64_mib_is_refused_in_bounded_memory(request, monkeypatch, compiled):
    # no output buffer is sized from the declared length alone
    monkeypatch.setattr(_native, "_kernel", request.getfixturevalue("kernel") if compiled else None)
    master = b"bounded decode"
    env = encrypt_message(master, bytes(12), b"A")
    assert len(env.payload) == 3
    hostile = Envelope(env.flags, env.nonce, 64 << 20, env.payload)
    tracemalloc.start()
    try:
        with pytest.raises(ClaesError):
            decrypt_message(hostile, master)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
