import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claes import _native, chaos, vectors
from claes.chaos import ChaoticState, _step_raw, seed_from_key1
from claes.keyschedule import (
    DOMAIN_KEY2,
    DOMAIN_KEYSTREAM,
    DOMAIN_ROUND_KEYS,
    derive_key_material,
    generate_keystream,
    keystream_seed,
)

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


def test_seed_folds_prefix_byte_0_into_byte_8():
    # the 72-bit prefix is folded to 64 bits by XORing its first byte into
    # its last, so a change XORed into both is invisible to every domain
    a = bytes(range(1, 10))
    b = bytes([a[0] ^ 0x2A]) + a[1:8] + bytes([a[8] ^ 0x2A])
    for tag in (DOMAIN_KEY2, DOMAIN_ROUND_KEYS, DOMAIN_KEYSTREAM):
        assert seed_from_key1(a, tag).m_raw == seed_from_key1(b, tag).m_raw


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


# --- compiled kernel against the Python reference ----------------------------


def _stream(kernel, prefix, tag, lengths):
    """Seed, then chained takes, on one path: the kernel, or Python when None."""
    saved = _native._kernel
    _native._kernel = kernel
    try:
        state = seed_from_key1(prefix, tag)
        seeded = state.m_raw
        chunks = [state.take(n) for n in lengths]
        return seeded, chunks, state.m_raw, state.iterations
    finally:
        _native._kernel = saved


@given(
    prefix=st.binary(max_size=9),
    tag=st.integers(0, 255),
    lengths=st.lists(st.integers(0, 4096), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
@example(prefix=bytes(9), tag=0, lengths=[0, 1, 4096])  # seed lands on the fixed point 0
@example(prefix=b"\x01\x02\x03", tag=DOMAIN_KEY2, lengths=[4, 4, 4])
@example(prefix=b"\x01\x02\x03", tag=DOMAIN_ROUND_KEYS, lengths=[176])
@example(prefix=b"\x01\x02\x03", tag=DOMAIN_KEYSTREAM, lengths=[4096, 17])
def test_compiled_kernel_matches_python_loop(kernel, prefix, tag, lengths):
    assert _stream(kernel, prefix, tag, lengths) == _stream(None, prefix, tag, lengths)


@pytest.mark.parametrize("n", [99_999, 100_000, 100_003])
def test_compiled_kernel_matches_python_loop_on_long_streams(kernel, n):
    assert _stream(kernel, b"long", 0x5A, [n]) == _stream(None, b"long", 0x5A, [n])


def test_burn_in_restarts_once_on_a_fixed_point(kernel):
    # the all-zero prefix with tag 0 scrambles to the state 1, which steps to
    # the fixed point 0; burn-in then restarts from 2**39
    assert chaos._scramble64(0) % chaos._SEED_SPAN + 1 == 1
    assert _step_raw(1) == 0
    expected = chaos._chaos_reference(1 << 39, 100, 0)[1]
    for run in (kernel.chaos, chaos._chaos_reference):
        assert run(1, 100, 0)[1] == expected
        assert run(0, 100, 0)[1] == expected
    assert seed_from_key1(bytes(9), 0).m_raw == expected == SEED_ZEROS_00


@given(
    m=st.integers(0, (1 << 63) - 1),
    steps=st.sampled_from([0, 1, 100]),
    n=st.integers(0, 300),
)
@settings(max_examples=150, deadline=None)
@example(m=1, steps=100, n=176)  # steps to the fixed point 0: the restart
@example(m=0, steps=100, n=176)  # the fixed point itself
def test_kernel_chaos_matches_the_reference(kernel, m, steps, n):
    assert kernel.chaos(m, steps, n) == chaos._chaos_reference(m, steps, n)


def test_a_kernel_that_differs_is_not_used(tmp_path, monkeypatch):
    # a library that folds the wrong bits into each byte must not change any byte
    wrong = tmp_path / "_kernel.c"
    wrong.write_text(_native._SOURCE.read_text().replace("(m >> 32)", "(m >> 31)"))
    monkeypatch.setattr(_native, "_SOURCE", wrong)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    built = _native.load()
    if built is None:
        pytest.skip("no C compiler could build the chaos kernel here")
    assert not chaos.kernel_matches_reference(built)
    monkeypatch.setattr(_native, "_kernel", _native._UNLOADED)
    assert _native.kernel() is None
    assert seed_from_key1(bytes(9), 0x00).take(1)[0] == FIRST_BYTE_ZEROS_00


def _take_state(m, n, constant=9999):
    # the kernel's step, with `constant` in place of its rounding constant
    for _ in range(4 * n):
        q = (m * (chaos._ONE - m)) >> 63
        m = 4 * q - (q + constant) // chaos.R_DEN
    return m


def test_kernel_step_identity():
    # floor(39999q / 10000) == 4q - ceil(q / 10000) for every q the map makes
    rng = random.Random(15)
    qs = [0, 1, 9999, 10000, 10001, 1 << 61] + [rng.randrange((1 << 61) + 1) for _ in range(100_000)]
    for q in qs:
        assert 4 * q - (q + 9999) // 10000 == 39999 * q // 10000
    for m in chaos._KERNEL_CHECK_STATES:
        assert _take_state(m, 64) == chaos._chaos_reference(m, 0, 64)[1]


def test_kernel_check_states_meet_the_rounding_edge():
    # a wrong rounding constant errs by one ulp at one residue of q mod
    # 10000 only: + 9998 at 1, + 10000 at 0.  Some check state must start on
    # that residue and carry the error to the end of the 64-byte check.
    for residue, constant in ((1, 9998), (0, 10000)):
        assert any(
            ((m * (chaos._ONE - m)) >> 63) % chaos.R_DEN == residue
            and m > 1
            and _take_state(m, 64, constant) != _take_state(m, 64)
            for m in chaos._KERNEL_CHECK_STATES
        )


def _golden_vectors_hold():
    for entry in vectors.GOLDEN_KEYS.values():
        km = derive_key_material(bytes.fromhex(entry["master"]))
        ks = generate_keystream(keystream_seed(km.key1), km.final_key, 64)
        assert ks.hex() == entry["keystream64"]
        assert b"".join(km.round_keys)[:64].hex() == entry["round_keys64"]
        assert km.key2[:64].hex() == entry["key2"]
        assert km.final_key[255:].hex() == entry["final_key_tail"]
        assert km.keystream_state == keystream_seed(km.key1).m_raw


def test_loader_falls_back_without_a_compiler(tmp_path, monkeypatch):
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert _native.load() is None
    assert list((tmp_path / "cache" / "claes").iterdir()) == []  # no temporary file left
    monkeypatch.setattr(_native, "_kernel", _native._UNLOADED)
    assert _native.kernel() is None
    assert _native.kernel_path() == "python"
    _golden_vectors_hold()


def test_loader_falls_back_when_the_cache_cannot_be_written(tmp_path, monkeypatch):
    # a cache directory below a regular file cannot be created, whatever the
    # process's privileges; a read-only directory would still be writable by root
    blocker = tmp_path / "not-a-directory"
    blocker.write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert _native.load() is None
    monkeypatch.setattr(_native, "_kernel", _native._UNLOADED)
    assert _native.kernel() is None
    _golden_vectors_hold()


def test_loader_falls_back_on_a_corrupt_library(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    library = _native.library_path(_native._SOURCE.read_bytes())
    library.parent.mkdir()
    library.write_bytes(b"not a shared library")
    assert _native.load() is None
