import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claes import _native, lz78
from claes.errors import BadIndex, ClaesError, MisplacedTerminal, OutputLimitExceeded, Truncated
from claes.lz78 import Token, compress, decode_tokens, decompress, encode_tokens

import oracles


def test_compress_empty():
    assert compress(b"") == []


def test_compress_abab():
    assert compress(b"ABAB") == [Token(0, 65), Token(0, 66), Token(1, 66)]


def test_compress_aaaa_has_terminal_token():
    assert compress(b"AAAA") == [Token(0, 65), Token(1, 65), Token(1, None)]


def test_decompress_empty():
    assert decompress([]) == b""


def test_decompress_traced_example():
    assert decompress([Token(0, 65), Token(1, 65), Token(1, None)]) == b"AAAA"


def test_decompress_bad_index():
    with pytest.raises(BadIndex):
        decompress([Token(5, 65)])


def test_decompress_misplaced_terminal():
    with pytest.raises(MisplacedTerminal):
        decompress([Token(0, None), Token(0, 65)])


def test_decompress_output_limit():
    tokens = compress(b"ABABABAB")
    assert decompress(tokens, max_output=8) == b"ABABABAB"
    with pytest.raises(OutputLimitExceeded):
        decompress(tokens, max_output=7)
    with pytest.raises(OutputLimitExceeded):
        decompress([Token(0, 65)], max_output=0)


def test_token_stream_validity_invariants():
    rng = random.Random(88)
    for _ in range(50):
        data = rng.randbytes(rng.randrange(400))
        tokens = compress(data)
        for t, token in enumerate(tokens):
            assert 0 <= token.index <= t
            if token.symbol is None:
                assert t == len(tokens) - 1


@given(st.binary(max_size=4096))
@settings(max_examples=150, deadline=None)
def test_roundtrip_on_arbitrary_bytes(data):
    tokens = compress(data)
    assert decompress(tokens) == data
    assert decode_tokens(encode_tokens(tokens)) == tokens


def test_roundtrip_matches_classic_dictionary_formulation():
    rng = random.Random(13)
    for _ in range(30):
        data = rng.randbytes(rng.randrange(600))
        assert [tuple(t) for t in compress(data)] == oracles.lz78_compress(data)


def test_run_token_counts_follow_triangular_bound():
    for n in (1, 2, 3, 10, 100, 1234, 10000):
        t = len(compress(b"A" * n))
        assert t * (t + 1) // 2 >= n > (t - 1) * t // 2
        assert t == len(oracles.lz78_compress(b"A" * n))
    assert len(compress(b"A" * 10000)) == 141


def test_encode_empty():
    assert encode_tokens([]) == b""
    assert decode_tokens(b"") == []


def test_encode_single_token_wire_bytes():
    assert encode_tokens([Token(0, 0x41)]) == bytes.fromhex("000141")
    assert decode_tokens(bytes.fromhex("000141")) == [Token(0, 0x41)]


def test_encode_terminal_flag():
    assert encode_tokens([Token(0, 65), Token(1, None)]) == bytes.fromhex("0001410100")


def test_varint_indices_roundtrip():
    tokens = [Token(0, 1)] + [Token(i, i % 256) for i in (1, 127, 128, 300, 16384, 99999)]
    # not a valid compression stream (indices exceed position), but the wire
    # codec itself is agnostic
    blob = encode_tokens(tokens)
    assert decode_tokens(blob) == tokens


def test_encode_rejects_misplaced_terminal():
    with pytest.raises(MisplacedTerminal):
        encode_tokens([Token(0, None), Token(0, 65)])


def test_decode_rejects_truncation():
    whole = encode_tokens(compress(b"hello hello hello"))
    with pytest.raises(Truncated):
        decode_tokens(whole[:-1])
    with pytest.raises(Truncated):
        decode_tokens(b"\x80")  # varint never ends
    with pytest.raises(Truncated):
        decode_tokens(b"\x00")  # flag missing
    with pytest.raises(Truncated):
        decode_tokens(b"\x00\x01")  # symbol missing


def test_decode_rejects_bad_flag():
    with pytest.raises(Truncated):
        decode_tokens(b"\x00\x02\x41")


def test_decode_rejects_terminal_not_last():
    with pytest.raises(MisplacedTerminal):
        decode_tokens(bytes.fromhex("0100000141"))


def test_largest_index_takes_nine_varint_bytes():
    tokens = [Token((1 << 63) - 1, 65)]
    blob = encode_tokens(tokens)
    assert len(blob) == 9 + 2
    assert decode_tokens(blob) == tokens


def test_index_of_2_to_the_63_or_more_is_refused():
    # a tenth varint byte would carry bit 63 or above
    with pytest.raises(BadIndex):
        decode_tokens(b"\xff" * 9 + b"\x7f\x01A")
    with pytest.raises(BadIndex):
        decode_tokens(b"\x80" * 9 + b"\x00\x01A")
    for index in (1 << 63, -1):
        with pytest.raises(BadIndex):
            encode_tokens([Token(index, 65)])


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_a_long_varint_run_is_refused_in_bounded_time(request, monkeypatch, compiled):
    # an index grown one shift per byte costs time quadratic in the run
    monkeypatch.setattr(_native, "_kernel", request.getfixturevalue("kernel") if compiled else None)
    started = time.perf_counter()
    with pytest.raises(BadIndex):
        lz78.unpack(b"\xff" * (1 << 20))
    assert time.perf_counter() - started < 1.0


# streams spliced from whole tokens, terminal tokens, tokens cut before their
# symbol and stray bytes reach every decoder check; arbitrary bytes alone
# rarely get past the first flag byte
_INDICES = st.integers(min_value=0, max_value=40)
_TOKEN_PIECES = st.one_of(
    st.builds(lambda i, s: encode_tokens([Token(i, s)]), _INDICES, st.integers(0, 255)),
    st.builds(lambda i: encode_tokens([Token(i, None)]), _INDICES),
    st.builds(lambda i: encode_tokens([Token(i, 0)])[:-1], _INDICES),
    st.binary(min_size=1, max_size=2),
)


@given(
    st.one_of(st.binary(max_size=512), st.lists(_TOKEN_PIECES, max_size=64).map(b"".join)),
    st.integers(min_value=0, max_value=1024),
)
@settings(max_examples=300, deadline=None)
def test_hostile_token_stream_raises_only_claes_errors(data, max_output):
    try:
        out = decompress(decode_tokens(data), max_output=max_output)
    except ClaesError:
        return
    assert len(out) <= max_output


def test_decompress_memory_stays_near_the_output_size():
    # token t extends entry t by one byte: 4000 tokens decode to 8,002,000
    # bytes, and whole-bytes dictionary entries would hold as much again
    tokens = [Token(t, 65) for t in range(4000)]
    size = 4000 * 4001 // 2
    tracemalloc.start()
    try:
        out = decompress(tokens, max_output=size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == size
    assert peak < 1.25 * size


# --- pack and unpack against the reference ------------------------------------


# what a call returns, or the class and message of what it raises
_outcome = lz78._outcome


def _reference_unpack(blob, max_output):
    """The streaming reference: tokens parsed one at a time as decoded."""
    return decompress(lz78._parse_tokens(blob), max_output)


_LOW_ENTROPY = st.lists(st.sampled_from(b"ab\n"), max_size=4096).map(bytes)


@given(st.one_of(st.binary(max_size=4096), _LOW_ENTROPY))
@settings(max_examples=200, deadline=None)
def test_pack_matches_the_reference(kernel, data):
    blob = encode_tokens(compress(data))
    assert kernel.pack(data) == blob
    assert kernel.unpack(blob, None) == data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_kernel", kernel)
        assert lz78.pack(data) == blob
        assert lz78.unpack(blob) == data


def test_pack_matches_the_reference_on_three_byte_varints(kernel):
    data = random.Random(7).randbytes(40_000)
    tokens = compress(data)
    assert max(t.index for t in tokens) >= 1 << 14
    blob = encode_tokens(tokens)
    assert kernel.pack(data) == blob
    assert kernel.unpack(blob, len(data)) == data
    expected = _outcome(_reference_unpack, blob, len(data) - 1)
    assert expected[0] is OutputLimitExceeded
    assert _outcome(kernel.unpack, blob, len(data) - 1) == expected


# 1-4 KiB of low-entropy text, packed, then broken once: a byte flipped, cut
# short, a byte appended, or a piece of it copied in elsewhere; the fault
# then mostly sits past token 128, behind two-byte varints
def _broken(data, how, at, other):
    blob = encode_tokens(compress(data))
    at %= len(blob)
    if how == "flip":
        return blob[:at] + bytes((blob[at] ^ (1 + other % 255),)) + blob[at + 1 :]
    if how == "truncate":
        return blob[:at]
    if how == "append":
        return blob + bytes((other % 256,))
    start = other % len(blob)
    return blob[:at] + blob[start : start + 1 + other % 16] + blob[at:]


# arbitrary bytes mapped onto the three letters of _LOW_ENTROPY, as lists of
# thousands of letters are slow to draw
_AB = bytes(b"ab\n"[i % 3] for i in range(256))
_BROKEN_PACKS = st.builds(
    _broken,
    st.binary(min_size=1024, max_size=4096).map(lambda data: data.translate(_AB)),
    st.sampled_from(("flip", "truncate", "append", "splice")),
    st.integers(min_value=0),
    st.integers(min_value=0),
)


@given(
    st.one_of(
        st.binary(max_size=512),
        st.lists(_TOKEN_PIECES, max_size=64).map(b"".join),
        _BROKEN_PACKS,
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=1024)),
)
@settings(max_examples=400, deadline=None)
@example(bytes.fromhex("8080800000"), None)  # a long varint of zeros is index 0
@example(bytes.fromhex("ffffffffffffffffffff0101"), None)  # an index past 2**64
@example(b"\x80" * 9 + b"\x00\x01A", None)  # index 0 in a ten-byte varint
@example(b"\x80" * 8 + b"\x00\x01A", None)  # index 0 in a nine-byte varint
@example(encode_tokens([Token(t, 65) for t in range(4000)]), 64)
@example(bytes.fromhex("00014105014201"), None)  # a bad index, then a cut token
def test_unpack_matches_the_reference_or_raises_as_it_does(kernel, blob, max_output):
    expected = _outcome(_reference_unpack, blob, max_output)
    assert _outcome(kernel.unpack, blob, max_output) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_kernel", kernel)
        assert _outcome(lz78.unpack, blob, max_output) == expected
        mp.setattr(_native, "_kernel", None)
        assert _outcome(lz78.unpack, blob, max_output) == expected


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_the_first_fault_in_stream_order_is_raised(request, monkeypatch, compiled):
    # token 1 has a bad index, and the stream is cut after it; the whole
    # blob is not parsed before the index is checked
    monkeypatch.setattr(_native, "_kernel", request.getfixturevalue("kernel") if compiled else None)
    blob = bytes.fromhex("00014105014201")
    with pytest.raises(BadIndex, match="token 1 references entry 5, dictionary has 1"):
        lz78.unpack(blob)
    with pytest.raises(Truncated):
        decode_tokens(blob)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "python"])
def test_a_failing_decode_stops_at_the_cap_in_bounded_memory(request, monkeypatch, compiled):
    monkeypatch.setattr(_native, "_kernel", request.getfixturevalue("kernel") if compiled else None)
    blob = b"\x00\x01A" * 1_000_000
    tracemalloc.start()
    try:
        with pytest.raises(OutputLimitExceeded, match="token 10 takes the output past 10 bytes"):
            lz78.unpack(blob, max_output=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _words(n):
    rng = random.Random(5)
    vocabulary = [bytes(rng.choices(b"abcdefghij", k=rng.randrange(2, 9))) for _ in range(2000)]
    return b" ".join(rng.choices(vocabulary, k=n // 5))[:n]


@pytest.mark.parametrize("fault", ["appended byte", "cap one short"])
def test_the_kernel_names_a_fault_from_one_python_token(kernel, monkeypatch, fault):
    data = _words(1 << 18)
    blob = kernel.pack(data)
    blob, cap = (blob + b"\x00", None) if fault == "appended byte" else (blob, len(data) - 1)
    expected = _outcome(_reference_unpack, blob, cap)
    parsed = []
    parse = lz78._parse_tokens

    def counted(data, pos=0):
        for token in parse(data, pos):
            parsed.append(token)
            yield token

    monkeypatch.setattr(lz78, "_parse_tokens", counted)
    monkeypatch.setattr(_native, "_kernel", kernel)
    assert _outcome(lz78.unpack, blob, cap) == expected
    assert len(parsed) <= 1
