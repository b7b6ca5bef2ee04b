"""Built-in verification: pinned vectors plus quick invariant checks.

Runs in a few seconds; the pytest suite performs the same checks at full
statistical scale.
"""

from __future__ import annotations

import random

from . import _native, lz78, vectors
from .chaos import seed_from_key1
from .cipher import Cipher, Envelope, block_encrypt, rijndael_round_keys
from .keyschedule import Lfsr8, derive_key_material, generate_keystream, keystream_seed, lfsr_next


def _check_aes_standard_vector():
    key = bytes.fromhex(vectors.AES_KEY)
    plaintext = bytes.fromhex(vectors.AES_PLAINTEXT)
    rk = rijndael_round_keys(key)
    got = block_encrypt(plaintext, rk)
    assert got.hex() == vectors.AES_CIPHERTEXT, f"AES vector mismatch: {got.hex()}"


def _check_golden_key_material():
    for name, entry in vectors.GOLDEN_KEYS.items():
        master = bytes.fromhex(entry["master"])
        km = derive_key_material(master)
        for field in ("key1", "key2", "key3", "final_key"):
            got = getattr(km, field)[:64].hex()
            assert got == entry[field], f"{name}.{field} mismatch"
        assert km.final_key[255:].hex() == entry["final_key_tail"], f"{name}.final_key_tail mismatch"
        assert km.keystream_state == keystream_seed(km.key1).m_raw, f"{name}.keystream_state mismatch"
        ks = generate_keystream(keystream_seed(km.key1), km.final_key, 64)
        assert ks.hex() == entry["keystream64"], f"{name}.keystream mismatch"
        rk = km.round_keys[:64].hex()
        assert rk == entry["round_keys64"], f"{name}.round_keys mismatch"


def _check_envelope_vectors():
    master = bytes.fromhex(vectors.ENVELOPE_MASTER)
    nonce = bytes.fromhex(vectors.ENVELOPE_NONCE)
    plaintext = bytes.fromhex(vectors.ENVELOPE_PLAINTEXT)
    # a fresh cipher, so its keystream comes from the path active now
    cipher = Cipher(master)
    for compress, expected in (
        (False, vectors.ENVELOPE_PLAIN),
        (True, vectors.ENVELOPE_COMPRESSED),
    ):
        blob = cipher.seal(nonce, plaintext, compress).encode()
        assert blob.hex() == expected, f"envelope (compress={compress}) mismatch"
        assert cipher.open(Envelope.decode(blob)) == plaintext


def _check_lz78_roundtrip():
    rng = random.Random(408)
    cases = [b"", b"A", b"A" * 500, bytes(rng.randrange(256) for _ in range(2000))]
    for data in cases:
        tokens = lz78.compress(data)
        assert lz78.decompress(tokens) == data
        assert lz78.decode_tokens(lz78.encode_tokens(tokens)) == tokens
        assert lz78.pack(data) == lz78.encode_tokens(tokens)
        assert lz78.unpack(lz78.pack(data)) == data
    assert len(lz78.compress(b"A" * 10000)) == 141


def _check_lfsr_period():
    reg = Lfsr8(0x5C)
    seen = set()
    for _ in range(255):
        out, reg = lfsr_next(reg)
        seen.add(out)
    assert len(seen) == 255, f"LFSR visited {len(seen)} states, expected 255"


def _check_chaos_determinism():
    a = seed_from_key1(b"\x01\x02\x03\x04\x05\x06\x07\x08\x09", 0x5A).take(4096)
    b = seed_from_key1(b"\x01\x02\x03\x04\x05\x06\x07\x08\x09", 0x5A).take(4096)
    assert a == b, "chaotic stream is not reproducible"


def _check_kernel():
    kernel = _native.kernel()
    if kernel is not None:
        assert _native.kernel_matches_reference(kernel, 4096), "compiled kernel differs from the reference"
    return _native.kernel_path()


def _check_block_avalanche():
    rng = random.Random(517)
    km = derive_key_material(bytes.fromhex(vectors.ENVELOPE_MASTER))
    rk = km.round_keys
    total = 0
    trials = 200
    for _ in range(trials):
        block = bytes(rng.randrange(256) for _ in range(16))
        bit = rng.randrange(128)
        flipped = bytearray(block)
        flipped[bit // 8] ^= 1 << (bit % 8)
        a = block_encrypt(block, rk)
        b = block_encrypt(bytes(flipped), rk)
        total += sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    mean = total / trials
    assert 57.6 <= mean <= 70.4, f"block avalanche mean {mean:.2f} outside 64 +/- 10%"


CHECKS = (
    ("aes-standard-vector", _check_aes_standard_vector),
    ("golden-key-material", _check_golden_key_material),
    ("envelope-vectors", _check_envelope_vectors),
    ("lz78-roundtrip", _check_lz78_roundtrip),
    ("lfsr-period", _check_lfsr_period),
    ("chaos-determinism", _check_chaos_determinism),
    ("kernel", _check_kernel),
    ("block-avalanche", _check_block_avalanche),
)


def run() -> list[tuple[str, str | None]]:
    """Run every check; returns (name, None) on pass or (name, reason) on failure.

    A check may return a note, which is appended to its name on a pass.
    """
    results = []
    for name, check in CHECKS:
        try:
            note = check()
            results.append((f"{name}: {note}" if note else name, None))
        except Exception as exc:  # report, never abort the remaining checks
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results
