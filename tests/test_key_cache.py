"""The per-key `Cipher` and the last-key cache behind `encrypt_message` and
`decrypt_message`: cached and extended keystream gives the bytes of a
one-shot derivation and of the independent oracle, the cache holds one
cipher within its keystream cap, a shared cipher is safe across threads,
and `max_output` bounds what an envelope can make the opener allocate."""

import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import claes
from claes import _native, cipher, lz78
from claes.cipher import (
    FLAG_LZ78,
    Cipher,
    Envelope,
    clear_key_cache,
    decrypt_message,
    encrypt_message,
)
from claes.errors import ClaesError, LengthMismatch, OutputLimitExceeded
from claes.keymatrix import parse_matrix_config
from claes.keyschedule import derive_key_material, generate_keystream, keystream_seed
from claes.lz78 import Token, encode_tokens

import oracles

SRC = str(Path(claes.__file__).resolve().parent.parent)


def _one_shot_keystream(master, n):
    km = derive_key_material(master)
    return generate_keystream(keystream_seed(km.key1), km.final_key, n)


def _plaintext(rng, size, compress):
    # text-like input for LZ78, so it compresses; random bytes otherwise
    return bytes(rng.choices(b"ab\n0123", k=size)) if compress else rng.randbytes(size)


def _cached_bytes(c):
    return len(c._drawn[0])


def _held(key, matrix=None):
    """The cipher the cache holds for ``key``: asking for it must be a hit."""
    info = cipher._cached_cipher.cache_info()
    held = cipher._cached_cipher(key, matrix)
    assert cipher._cached_cipher.cache_info().hits == info.hits + 1
    return held


def _assert_within_bounds(key):
    assert cipher._cached_cipher.cache_info().currsize == 1
    assert _cached_bytes(_held(key)) <= cipher._CACHE_BYTES


@given(
    key=st.binary(min_size=1, max_size=40),
    messages=st.lists(st.tuples(st.integers(0, 3000), st.booleans()), min_size=1, max_size=6),
    seed=st.integers(0, 2**32),
)
# a 16-byte key (final key of 48 bytes) extends at offsets 50 and 100
@example(key=bytes(range(16)), messages=[(50, False), (100, False), (1025, False)], seed=0)
@settings(max_examples=25, deadline=None)
def test_cached_seals_match_the_oracle_and_a_fresh_seal(key, messages, seed):
    clear_key_cache()
    rng = random.Random(seed)
    sent = [(rng.randbytes(12), _plaintext(rng, size, compress), compress) for size, compress in messages]
    sealed = [encrypt_message(key, nonce, text, compress).encode() for nonce, text, compress in sent]
    for (nonce, text, compress), blob in zip(sent, sealed):
        assert blob == oracles.encrypt_message(key, nonce, text, compress)
        clear_key_cache()
        assert encrypt_message(key, nonce, text, compress).encode() == blob
    for (_, text, _), blob in zip(reversed(sent), reversed(sealed)):
        assert decrypt_message(Envelope.decode(blob), key) == text


# 16- and 5-byte keys (final keys of 48 and 15 bytes): every extension starts
# at an offset that the final key's length does not divide
@pytest.mark.parametrize("master, lengths", [
    (bytes(range(16)), (50, 100, 8193)),
    (b"\x07" * 16, (1, 47, 49, 8192, 8242)),
    (b"short", (7, 8, 31, 1000)),
])
def test_extended_keystream_is_the_one_shot_keystream(master, lengths):
    c = Cipher(master)
    for n in lengths:
        assert c._keystream(n)[:n] == _one_shot_keystream(master, n)
        assert _cached_bytes(c) == n
    n = min(lengths[-1], 1500)
    assert c._keystream(n)[:n] == oracles.keystream(master, n)


def test_the_cache_stays_within_its_bounds():
    rng = random.Random(16)
    keys = [rng.randbytes(16) for _ in range(40)]
    for round_ in range(3):
        for key in keys:
            text = rng.randbytes(rng.randrange(30000))
            env = encrypt_message(key, rng.randbytes(12), text, False)
            _assert_within_bounds(key)
            assert decrypt_message(env, key) == text
            _assert_within_bounds(key)
    # the last key used is the one kept
    _held(keys[-1])


def test_a_repeated_key_reuses_its_cipher_and_a_new_key_replaces_it():
    encrypt_message(b"first", bytes(12), b"reading")
    kept = _held(b"first")
    env = encrypt_message(b"first", bytes(12), b"another reading")
    assert decrypt_message(env, b"first") == b"another reading"
    assert _held(b"first") is kept
    assert cipher._cached_cipher.cache_info().misses == 1
    encrypt_message(b"second", bytes(12), b"reading")
    assert _held(b"second") is not kept
    assert cipher._cached_cipher.cache_info().currsize == 1
    # the first key's cipher is gone: asking for it again makes a new one
    assert cipher._cached_cipher(b"first", None) is not kept


def test_a_message_longer_than_the_cap_is_drawn_and_not_kept():
    master = b"over the cap"
    nonce = bytes(12)
    km = derive_key_material(master)
    rk = km.round_keys
    for n in (cipher._CACHE_BYTES + 4097, cipher._CACHE_BYTES + 1, 2 * cipher._CACHE_BYTES):
        text = random.Random(n).randbytes(n)
        env = encrypt_message(master, nonce, text, False)
        assert env.payload == cipher._ctr_xor(nonce, rk, text, _one_shot_keystream(master, n), n)
        _assert_within_bounds(master)
        assert _cached_bytes(_held(master)) == cipher._CACHE_BYTES
        assert decrypt_message(env, master) == text
        _assert_within_bounds(master)


def test_clear_key_cache_forgets_every_key():
    encrypt_message(b"a key", bytes(12), b"reading")
    assert cipher._cached_cipher.cache_info().currsize == 1
    clear_key_cache()
    assert cipher._cached_cipher.cache_info().currsize == 0


def test_failed_calls_leave_the_cache_within_its_cap():
    master = b"forged"
    encrypt_message(master, bytes(12), b"cached first")
    # a payload past the cap that is no LZ78 stream: the open draws its
    # keystream, then fails to decode
    forged = Envelope(flags=FLAG_LZ78, nonce=bytes(12), plain_len=5, payload=bytes(cipher._CACHE_BYTES + 100))
    with pytest.raises(ClaesError):
        decrypt_message(forged, master)
    _assert_within_bounds(master)
    # a bad nonce is refused before any keystream is drawn
    held = _cached_bytes(_held(master))
    with pytest.raises(LengthMismatch):
        encrypt_message(master, bytes(11), bytes(5000), False)
    assert _cached_bytes(_held(master)) == held


def test_the_cache_is_keyed_on_matrix_and_schedule():
    # the round-key schedule is the chaos one of the key under its matrix
    master = bytes(range(16))
    matrix = parse_matrix_config("0 0 0 5")
    a = encrypt_message(master, bytes(12), b"same", False)
    c = encrypt_message(master, bytes(12), b"same", False, matrix=matrix)
    assert a != c
    assert _held(master, matrix)._round_keys == derive_key_material(master, matrix).round_keys
    assert decrypt_message(c, master, matrix=matrix) == b"same"
    assert decrypt_message(a, master) == b"same"
    assert _held(master)._round_keys == derive_key_material(master).round_keys


@pytest.mark.parametrize("through", ["cache", "cipher"])
def test_threads_share_one_cipher(monkeypatch, kernel, through):
    # ctypes releases the GIL in kernel calls, so the threads really overlap
    monkeypatch.setattr(_native, "_kernel", kernel)
    master = b"shared by four threads"
    rng = random.Random(4)
    work = [
        [(rng.randbytes(12), rng.randbytes(size)) for size in sizes]
        for sizes in ((1500, 10, 700), (900, 1400, 5), (33, 1200, 600), (1100, 260, 1300))
    ]
    expected = {
        nonce: oracles.encrypt_message(master, nonce, text, False) for jobs in work for nonce, text in jobs
    }
    errors = []

    def run(jobs, barrier, seal, open_):
        barrier.wait()
        try:
            for nonce, text in jobs:
                blob = seal(nonce, text).encode()
                assert blob == expected[nonce]
                assert open_(Envelope.decode(blob)) == text
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    for _ in range(20):
        clear_key_cache()
        if through == "cache":
            # cached before the threads start, with no keystream drawn yet
            encrypt_message(master, bytes(12), b"", False)

            def seal(nonce, text):
                return encrypt_message(master, nonce, text, False)

            def open_(env):
                return decrypt_message(env, master)
        else:
            shared = Cipher(master)

            def seal(nonce, text):
                return shared.seal(nonce, text, False)

            open_ = shared.open
        barrier = threading.Barrier(len(work))
        threads = [threading.Thread(target=run, args=(jobs, barrier, seal, open_)) for jobs in work]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        if through == "cache":
            # every thread hit the one cipher cached before they started
            assert cipher._cached_cipher.cache_info().misses == 1
            _assert_within_bounds(master)
        else:
            assert _cached_bytes(shared) <= cipher._CACHE_BYTES


# Opens, under a 1 GiB address-space limit, an envelope of 60,000 chained
# tokens (about 283 KB) that decode to about 1.8 GB and that declares
# 2**64 - 1 bytes, and prints the name of what it raised.
_OPEN_UNDER_A_MEMORY_LIMIT = (
    "import resource, sys\n"
    "from claes import Envelope, decrypt_message\n"
    "blob = open(sys.argv[1], 'rb').read()\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "try:\n"
    "    decrypt_message(Envelope.decode(blob), b'bounded decode')\n"
    "except BaseException as exc:\n"
    "    print(type(exc).__name__)\n"
)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_a_huge_declared_length_raises_output_limit_not_memory_error(request, tmp_path, compiled):
    stream = encode_tokens([Token(t, 65) for t in range(60000)])
    carrier = encrypt_message(b"bounded decode", bytes(12), stream, compress=False)
    hostile = Envelope(flags=FLAG_LZ78, nonce=carrier.nonce, plain_len=2**64 - 1, payload=carrier.payload)
    blob = tmp_path / "hostile"
    blob.write_bytes(hostile.encode())
    env = {**os.environ, "PYTHONPATH": SRC}
    if compiled:
        env["XDG_CACHE_HOME"] = str(request.getfixturevalue("kernel_cache"))
        request.getfixturevalue("kernel")
    else:
        (tmp_path / "bin").mkdir()
        env.update(PATH=str(tmp_path / "bin"), XDG_CACHE_HOME=str(tmp_path / "cache"))
    done = subprocess.run(
        [sys.executable, "-c", _OPEN_UNDER_A_MEMORY_LIMIT, str(blob)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.stdout.split() == [OutputLimitExceeded.__name__], done.stderr


def test_max_output_caps_both_envelope_kinds():
    master = b"capped"
    text = b"abc" * 1000
    for compress in (True, False):
        env = encrypt_message(master, bytes(12), text, compress)
        with pytest.raises(OutputLimitExceeded):
            decrypt_message(env, master, max_output=len(text) - 1)
        assert decrypt_message(env, master, max_output=len(text)) == text
        assert Cipher(master).open(env, max_output=None) == text


@pytest.mark.parametrize(
    "kind", ["compressed envelope", "plain envelope", "lz78.unpack", "lz78.decompress"]
)
def test_a_negative_max_output_is_refused(kind):
    # each empty input would make no output at all, so only the check on
    # the cap itself can refuse it
    if kind == "lz78.unpack":
        def run():
            return lz78.unpack(b"", max_output=-1)
    elif kind == "lz78.decompress":
        def run():
            return lz78.decompress([], max_output=-1)
    else:
        env = encrypt_message(b"k", bytes(12), b"", kind == "compressed envelope")

        def run():
            return decrypt_message(env, b"k", max_output=-1)
    with pytest.raises(ValueError, match="must not be negative"):
        run()
