"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import random
import time

import pytest

from claes import vectors
from claes.bench import (
    METHODS,
    REFERENCE_MS,
    check_trends,
    default_profiles,
    emit_table,
    fit_linear,
    run_bench,
)
from claes.chaos import seed_from_key1
from claes.cipher import (
    Envelope,
    block_encrypt,
    decrypt_message,
    encrypt_message,
    rijndael_round_keys,
)
from claes.errors import (
    BadIndex,
    BadMagic,
    BadVersion,
    EmptyKey,
    LengthMismatch,
    Truncated,
    ZeroState,
)
from claes.keymatrix import default_matrix, derive_key1
from claes.keyschedule import (
    Lfsr8,
    derive_final_key,
    derive_key_material,
    generate_keystream,
    keystream_seed,
)
from claes.lz78 import Token, compress, decode_tokens, decompress, encode_tokens

import oracles


def _report(number: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _hamming(a: bytes, b: bytes) -> int:
    return sum(bin(x ^ y).count("1") for x, y in zip(a, b))


def test_criterion_1_block_core_correctness():
    started = time.perf_counter()
    rk = rijndael_round_keys(bytes.fromhex(vectors.AES_KEY))
    vector_ok = (
        block_encrypt(bytes.fromhex(vectors.AES_PLAINTEXT), rk).hex() == vectors.AES_CIPHERTEXT
    )
    mismatches = 0
    rng = random.Random(0xAE5)
    for _ in range(256):
        key = rng.randbytes(16)
        block = rng.randbytes(16)
        mine = block_encrypt(block, rijndael_round_keys(key))
        ref = oracles.aes_encrypt(block, oracles.expand_key(key))
        mismatches += mine != ref
    elapsed = time.perf_counter() - started
    ok = vector_ok and mismatches == 0 and elapsed < 1.0
    _report(
        1,
        "block-core-correctness",
        ok,
        f"(standard vector {'ok' if vector_ok else 'BAD'}, "
        f"{mismatches}/256 reference mismatches, {elapsed:.2f}s < 1s)",
    )


def test_criterion_2_pipeline_roundtrip():
    started = time.perf_counter()
    rng = random.Random(0xC2)
    failures = 0
    sizes = [0, 1, 15, 16, 17, 65536]
    while len(sizes) < 1000:
        sizes.append(int(2 ** rng.uniform(0.0, 16.0)))
    for i, size in enumerate(sizes):
        master = rng.randbytes(rng.randrange(1, 33))
        nonce = rng.randbytes(12)
        plaintext = rng.randbytes(size)
        compress_flag = bool(i % 2)
        env = encrypt_message(master, nonce, plaintext, compress_flag)
        blob = env.encode()
        if decrypt_message(Envelope.decode(blob), master) != plaintext:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 60.0
    _report(2, "pipeline-roundtrip", ok, f"({failures}/1000 failures, {elapsed:.1f}s < 60s)")


def test_criterion_3_lz78_soundness():
    started = time.perf_counter()
    rng = random.Random(0x17)
    failures = 0
    cases = [b"", b"Q", b"\x00" * 500, b"A" * 2048, b"xyz" * 700, bytes(range(256)) * 4]
    for _ in range(10_000):
        cases.append(rng.randbytes(int(2 ** rng.uniform(0.0, 8.5))))
    for data in cases:
        tokens = compress(data)
        if decompress(tokens) != data:
            failures += 1
            continue
        if decode_tokens(encode_tokens(tokens)) != tokens:
            failures += 1
    run_tokens = len(compress(b"A" * 10_000))
    elapsed = time.perf_counter() - started
    ok = failures == 0 and run_tokens == 141 and elapsed < 30.0
    _report(
        3,
        "lz78-soundness",
        ok,
        f"({failures} roundtrip failures over {len(cases)} cases, "
        f"run tokens {run_tokens} == 141, {elapsed:.1f}s < 30s)",
    )


def test_criterion_4_avalanche():
    rng = random.Random(0x50)
    round_keys = derive_key_material(b"avalanche fixture").round_keys
    trials = 1000

    total = 0
    for _ in range(trials):
        block = rng.randbytes(16)
        flipped = bytearray(block)
        bit = rng.randrange(128)
        flipped[bit // 8] ^= 1 << (bit % 8)
        total += _hamming(block_encrypt(block, round_keys), block_encrypt(bytes(flipped), round_keys))
    plaintext_mean = total / trials

    total = 0
    nonce = bytes(range(12))
    for _ in range(trials):
        master = bytearray(rng.randbytes(16))
        flipped = bytearray(master)
        bit = rng.randrange(128)
        flipped[bit // 8] ^= 1 << (bit % 8)
        plaintext = rng.randbytes(32)
        a = encrypt_message(bytes(master), nonce, plaintext, compress=False)
        b = encrypt_message(bytes(flipped), nonce, plaintext, compress=False)
        total += _hamming(a.payload[:16], b.payload[:16])
    key_mean = total / trials

    ok = 57.6 <= plaintext_mean <= 70.4 and 57.6 <= key_mean <= 70.4
    _report(
        4,
        "avalanche",
        ok,
        f"(plaintext-bit mean {plaintext_mean:.2f}, master-key-bit mean {key_mean:.2f}, "
        f"band 57.6..70.4)",
    )


def test_criterion_5_chaos_stream_quality():
    started = time.perf_counter()
    rng = random.Random(0x5C5)

    prefix = rng.randbytes(9)
    first = seed_from_key1(prefix, 0x00).take(1_000_000)
    second = seed_from_key1(prefix, 0x00).take(1_000_000)
    deterministic = first == second

    ones = sum(bin(b).count("1") for b in first)
    monobit_dev = abs(ones / 8_000_000 - 0.5)

    low, high = 1 / 256 - 0.01, 1 / 256 + 0.01
    out_of_band = 0
    for _ in range(100):
        base = bytearray(rng.randbytes(9))
        other = bytearray(base)
        bit = rng.randrange(72)
        other[bit // 8] ^= 1 << (bit % 8)
        stream_a = seed_from_key1(bytes(base), 0x00).take(100_000)
        stream_b = seed_from_key1(bytes(other), 0x00).take(100_000)
        agree = sum(x == y for x, y in zip(stream_a, stream_b)) / 100_000
        if not low <= agree <= high:
            out_of_band += 1
    elapsed = time.perf_counter() - started
    ok = deterministic and monobit_dev <= 0.01 and out_of_band == 0 and elapsed < 30.0
    _report(
        5,
        "chaos-stream-quality",
        ok,
        f"(deterministic={deterministic}, |monobit-0.5|={monobit_dev:.5f} <= 0.01, "
        f"{out_of_band}/100 sensitivity pairs out of band, {elapsed:.1f}s < 30s)",
    )


def test_criterion_6_timing_trend():
    started = time.perf_counter()
    records = run_bench(default_profiles(repetitions=10), METHODS, bytes(range(16)))
    problems = check_trends(records)
    fits = {
        method: fit_linear([r for r in records if r.method == method]) for method in METHODS
    }
    table = emit_table(records)
    renders_reference = all(
        f"| {ms} |" in table for ms in REFERENCE_MS["proposedChaos"].values()
    ) and all(f"| {ms} |" in table for ms in REFERENCE_MS["baseline3dkgm"].values())
    shape_ok = len(records) == 40 and len(table.splitlines()) == 42
    elapsed = time.perf_counter() - started
    ok = not problems and renders_reference and shape_ok and elapsed < 300.0
    detail = ", ".join(f"{m} r^2={f.r_squared:.5f}" for m, f in fits.items())
    # the first problems go into the report, so a failing run says why
    shown = "; ".join(problems[:3]) + ("; ..." if len(problems) > 3 else "")
    _report(
        6,
        "timing-trend",
        ok,
        f"({detail}; {len(problems)} trend problems: [{shown}]; "
        f"reference values rendered={renders_reference}; {elapsed:.0f}s < 300s)",
    )


def test_criterion_7_golden_vectors():
    bad = []
    for name, entry in vectors.GOLDEN_KEYS.items():
        master = bytes.fromhex(entry["master"])
        km = derive_key_material(master)
        checks = {
            "key1": km.key1[:64].hex(),
            "key2": km.key2[:64].hex(),
            "key3": km.key3[:64].hex(),
            "final_key": km.final_key[:64].hex(),
            "final_key_tail": km.final_key[255:].hex(),
            "keystream64": generate_keystream(keystream_seed(km.key1), km.final_key, 64).hex(),
            "round_keys64": b"".join(km.round_keys)[:64].hex(),
        }
        for field, got in checks.items():
            if got != entry[field]:
                bad.append(f"{name}.{field}")
    _report(7, "golden-vectors", not bad, f"({len(vectors.GOLDEN_KEYS)} masters, bad: {bad or 'none'})")


def test_criterion_8_error_paths():
    triggered = []

    with pytest.raises(BadMagic):
        Envelope.decode(b"XLAES" + bytes(30))
    triggered.append("BadMagic")

    with pytest.raises(BadVersion):
        Envelope.decode(b"CLAES\x02" + bytes(30))
    triggered.append("BadVersion")

    with pytest.raises(LengthMismatch):
        derive_final_key(b"\x00", b"\x00\x00", b"\x00")
    triggered.append("LengthMismatch")

    with pytest.raises(BadIndex):
        decompress([Token(5, 65)])
    triggered.append("BadIndex")

    with pytest.raises(Truncated):
        decode_tokens(b"\x80")
    triggered.append("Truncated")

    with pytest.raises(ZeroState):
        Lfsr8(0)
    triggered.append("ZeroState")

    with pytest.raises(EmptyKey):
        derive_key1(default_matrix(), b"")
    triggered.append("EmptyKey")

    _report(8, "error-paths", len(triggered) == 7, f"({', '.join(triggered)})")
