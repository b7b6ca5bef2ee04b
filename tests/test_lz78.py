import random
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


def _reference_unpack(blob, max_output):
    """The reference's output, or the type and message of what it raises."""
    try:
        return decompress(decode_tokens(blob), max_output)
    except ClaesError as exc:
        return type(exc), str(exc)


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
    assert kernel.unpack(blob, len(data) - 1) is None


@given(
    st.one_of(st.binary(max_size=512), st.lists(_TOKEN_PIECES, max_size=64).map(b"".join)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=1024)),
)
@settings(max_examples=400, deadline=None)
@example(bytes.fromhex("8080800000"), None)  # a long varint of zeros is index 0
@example(bytes.fromhex("ffffffffffffffffffff0101"), None)  # an index past 2**64
@example(encode_tokens([Token(t, 65) for t in range(4000)]), 64)
def test_unpack_matches_the_reference_or_raises_as_it_does(kernel, blob, max_output):
    expected = _reference_unpack(blob, max_output)
    compiled = kernel.unpack(blob, max_output)
    # the kernel reports an error exactly where the reference raises
    assert compiled == (None if isinstance(expected, tuple) else expected)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_kernel", kernel)
        try:
            got = lz78.unpack(blob, max_output)
        except ClaesError as exc:
            got = type(exc), str(exc)
    assert got == expected
