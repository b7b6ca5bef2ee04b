"""LZ78 dictionary codec with a byte-exact wire format.

Greedy longest-match parsing over a trie that starts from the empty root
and grows by one entry per emitted token.  If the input ends in the middle
of a match, a terminal token without a symbol is emitted, which makes the
codec total and exactly invertible on every byte string.

`pack` and `unpack` run the parse and the wire format in one step, in the
compiled kernel (``_kernel.c``, see `_native`) when it is in use.
`compress`, `decompress`, `encode_tokens` and `decode_tokens` are the
Python reference they must match, and run in their place otherwise.
"""

from __future__ import annotations

import io
import sys
from typing import NamedTuple

from . import _native
from .errors import BadIndex, MisplacedTerminal, OutputLimitExceeded, Truncated


class Token(NamedTuple):
    index: int          # 0 = empty prefix, otherwise 1-based dictionary entry
    symbol: int | None  # None only in a terminal token


def compress(data: bytes) -> list[Token]:
    """Parse ``data`` into LZ78 tokens."""
    trie: dict[tuple[int, int], int] = {}
    next_entry = 1
    node = 0
    out: list[Token] = []
    for b in data:
        child = trie.get((node, b))
        if child is not None:
            node = child
            continue
        out.append(Token(node, b))
        trie[(node, b)] = next_entry
        next_entry += 1
        node = 0
    if node:
        out.append(Token(node, None))
    return out


_BYTES = tuple(bytes((b,)) for b in range(256))


def decompress(tokens, max_output: int | None = None) -> bytes:
    """Exact inverse of :func:`compress`.

    Raises :class:`OutputLimitExceeded` as soon as the output passes
    ``max_output`` bytes.  Every dictionary entry is kept as the (start,
    length) of a piece already written to the output (Ziv & Lempel, IEEE
    Trans. IT 1978), so memory grows with the output, and the limit bounds
    it.
    """
    limit = sys.maxsize if max_output is None else max_output
    # entry i is the piece out[starts[i]:starts[i] + lengths[i]]
    starts = [0]
    lengths = [0]
    # written in place and handed back without a copy, so the peak memory
    # stays near the output's size
    out = io.BytesIO()
    read, write, seek = out.read, out.write, out.seek
    size = 0
    last = len(tokens) - 1
    for t, (index, symbol) in enumerate(tokens):
        if symbol is None and t != last:
            raise MisplacedTerminal(f"symbol-less token at position {t} is not last")
        if not 0 <= index < len(starts):
            raise BadIndex(f"token {t} references entry {index}, dictionary has {len(starts) - 1}")
        length = lengths[index]
        piece = b""
        if length:
            seek(starts[index])
            piece = read(length)
            seek(size)
        if symbol is not None:
            piece += _BYTES[symbol]
            length += 1
        write(piece)
        if size + length > limit:
            raise OutputLimitExceeded(f"token {t} takes the output past {limit} bytes")
        starts.append(size)
        lengths.append(length)
        size += length
    return out.getvalue()


# an index takes at most 9 varint bytes, so it is below 2**63
_MAX_INDEX = (1 << 63) - 1


def encode_tokens(tokens) -> bytes:
    """Serialize tokens: base-128 varint index, then 0x01+symbol or 0x00 (terminal)."""
    out = bytearray()
    last = len(tokens) - 1
    for t, (index, symbol) in enumerate(tokens):
        if symbol is None and t != last:
            raise MisplacedTerminal(f"symbol-less token at position {t} is not last")
        if not 0 <= index <= _MAX_INDEX:
            raise BadIndex(f"token {t} has index {index}, outside 0..2**63 - 1")
        v = index
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        if symbol is None:
            out.append(0x00)
        else:
            out.append(0x01)
            out.append(symbol)
    return bytes(out)


def decode_tokens(data: bytes) -> list[Token]:
    """Exact inverse of :func:`encode_tokens`; rejects malformed input,
    including a varint of more than 9 bytes, so each index costs bounded
    time."""
    out: list[Token] = []
    pos = 0
    end = len(data)
    while pos < end:
        index = 0
        shift = 0
        while True:
            if pos >= end:
                raise Truncated("varint runs past end of stream")
            b = data[pos]
            pos += 1
            index |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
            if shift == 63:
                raise BadIndex(f"varint at byte {pos - 9} runs past 9 bytes")
        if pos >= end:
            raise Truncated("token flag missing")
        flag = data[pos]
        pos += 1
        if flag == 0x00:
            if pos != end:
                raise MisplacedTerminal("terminal token is not last")
            out.append(Token(index, None))
        elif flag == 0x01:
            if pos >= end:
                raise Truncated("token symbol missing")
            out.append(Token(index, data[pos]))
            pos += 1
        else:
            raise Truncated(f"invalid token flag {flag:#04x}")
    return out


def pack(data: bytes) -> bytes:
    """``encode_tokens(compress(data))`` in one step."""
    data = bytes(data)
    kernel = _native.kernel()
    if kernel is not None:
        packed = kernel.pack(data)
        if packed is not None:
            return packed
    return encode_tokens(compress(data))


def unpack(blob: bytes, max_output: int | None = None) -> bytes:
    """``decompress(decode_tokens(blob), max_output)`` in one step, raising
    the same errors."""
    blob = bytes(blob)
    kernel = _native.kernel()
    if kernel is not None and (max_output is None or max_output >= 0):
        data = kernel.unpack(blob, max_output)
        if data is not None:
            return data
    # the kernel found an error (or had no memory): the reference raises it
    # with its own message, and stops at max_output like the kernel
    return decompress(decode_tokens(blob), max_output)


# Inputs the loaded kernel must pack and unpack as the reference does: text
# whose dictionary passes 128 entries, so indices take two varint bytes, and
# a run that ends in a terminal token.
_KERNEL_CHECK_INPUTS = (b"".join(b"%d," % (i * i % 1009) for i in range(256)), b"AAAA")
# index 0 in the longest varint the reference reads, and in one byte more
_NINE_BYTE_VARINT = b"\x80" * 8 + b"\x00\x01A"
_TEN_BYTE_VARINT = b"\x80" * 9 + b"\x00\x01A"


def kernel_matches_reference(kernel: _native.Kernel) -> bool:
    """Whether ``kernel``'s codec gives the Python codec's bytes, and
    reports an error where the Python codec raises one."""
    for data in _KERNEL_CHECK_INPUTS:
        blob = encode_tokens(compress(data))
        if (
            kernel.pack(data) != blob
            or kernel.unpack(blob, None) != data
            or kernel.unpack(blob, len(data)) != data
            or kernel.unpack(blob, len(data) - 1) is not None
            or kernel.unpack(blob[:-1], None) is not None
        ):
            return False
    return kernel.unpack(_NINE_BYTE_VARINT, None) == b"A" and kernel.unpack(_TEN_BYTE_VARINT, None) is None
