"""LZ78 dictionary codec with a byte-exact wire format.

Greedy longest-match parsing over a trie that starts from the empty root
and grows by one entry per emitted token.  If the input ends in the middle
of a match, a terminal token without a symbol is emitted, which makes the
codec total and exactly invertible on every byte string.

`pack` and `unpack` run the parse and the wire format in one step, in the
compiled kernel (``_kernel.c``, see `_native`) when it is in use, else in
the Python reference they must match: `compress` and `encode_tokens`, and
`decompress` over tokens parsed one at a time.  Where the kernel stops on
a fault, the reference's checks run on that one token to name the error.
"""

from __future__ import annotations

import io
import sys
from typing import NamedTuple, NoReturn

from . import _native
from .errors import BadIndex, ClaesError, MisplacedTerminal, OutputLimitExceeded, Truncated


class Token(NamedTuple):
    index: int          # 0 = empty prefix, otherwise 1-based dictionary entry
    symbol: int | None  # None only in a terminal token


def compress(data: bytes) -> list[Token]:
    """Parse ``data`` into LZ78 tokens."""
    trie: dict[tuple[int, int], int] = {}
    node = 0
    out: list[Token] = []
    for b in data:
        child = trie.get((node, b))
        if child is not None:
            node = child
            continue
        out.append(Token(node, b))
        trie[(node, b)] = len(trie) + 1
        node = 0
    if node:
        out.append(Token(node, None))
    return out


_BYTES = tuple(bytes((b,)) for b in range(256))


def decompress(tokens, max_output: int | None = None) -> bytes:
    """Exact inverse of :func:`compress`, over any iterable of tokens.

    Checks each token as it arrives, so the error raised is the first in
    stream order; raises :class:`OutputLimitExceeded` as soon as the output
    passes ``max_output`` bytes, and ValueError for a negative
    ``max_output``.  Every dictionary entry is a piece already written to
    the output (Ziv & Lempel, IEEE Trans. IT 1978), so memory grows with
    the output, and the limit bounds it.
    """
    if max_output is not None and max_output < 0:
        raise ValueError(f"max_output must not be negative, got {max_output}")
    limit = sys.maxsize if max_output is None else max_output
    # entry k is the piece out[bounds[k]:bounds[k + 1]], as in _kernel.c;
    # entry 0 is empty, and each token appends the output size after it
    bounds = [0, 0]
    # written in place and handed back without a copy, so the peak memory
    # stays near the output's size
    out = io.BytesIO()
    read, write, seek = out.read, out.write, out.seek
    size = 0
    tokens = iter(tokens)
    for t, (index, symbol) in enumerate(tokens):
        if symbol is None and next(tokens, None) is not None:
            raise MisplacedTerminal(f"symbol-less token at position {t} is not last")
        if not 0 <= index <= t:
            raise BadIndex(f"token {t} references entry {index}, dictionary has {t}")
        seek(bounds[index])
        piece = read(bounds[index + 1] - bounds[index])
        seek(size)
        if symbol is not None:
            piece += _BYTES[symbol]
        size += len(piece)
        if size > limit:
            raise OutputLimitExceeded(f"token {t} takes the output past {limit} bytes")
        write(piece)
        bounds.append(size)
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


def _parse_tokens(data: bytes, pos: int = 0):
    """The tokens of ``data`` from byte ``pos`` on, each parsed only when
    the next is asked for; raises where the wire format breaks, including
    at a varint of more than 9 bytes, so each index costs bounded time."""
    end = len(data)
    while pos < end:
        index = 0
        for shift in range(0, 63, 7):
            if pos >= end:
                raise Truncated("varint runs past end of stream")
            b = data[pos]
            pos += 1
            index |= (b & 0x7F) << shift
            if not b & 0x80:
                break
        else:
            raise BadIndex(f"varint at byte {pos - 9} runs past 9 bytes")
        if pos >= end:
            raise Truncated("token flag missing")
        flag = data[pos]
        pos += 1
        if flag == 0x00:
            if pos != end:
                raise MisplacedTerminal("terminal token is not last")
            yield Token(index, None)
        elif flag == 0x01:
            if pos >= end:
                raise Truncated("token symbol missing")
            yield Token(index, data[pos])
            pos += 1
        else:
            raise Truncated(f"invalid token flag {flag:#04x}")


def decode_tokens(data: bytes) -> list[Token]:
    """Exact inverse of :func:`encode_tokens`; rejects malformed input."""
    return list(_parse_tokens(data))


def pack(data: bytes) -> bytes:
    """``encode_tokens(compress(data))`` in one step."""
    data = bytes(data)
    kernel = _native.kernel()
    if kernel is not None:
        return kernel.pack(data)
    return encode_tokens(compress(data))


def unpack(blob: bytes, max_output: int | None = None) -> bytes:
    """``decompress(decode_tokens(blob), max_output)`` in one step, each
    token parsed as it is decoded, so the error raised is the first in
    stream order; a negative ``max_output`` raises ValueError."""
    if max_output is not None and max_output < 0:
        raise ValueError(f"max_output must not be negative, got {max_output}")
    blob = bytes(blob)
    kernel = _native.kernel()
    if kernel is not None:
        return kernel.unpack(blob, max_output)
    return decompress(_parse_tokens(blob), max_output)


def _raise_fault(blob: bytes, token: int, start: int, max_output: int | None) -> NoReturn:
    """Raise the reference's error at token number ``token``, which starts
    at byte ``start`` of ``blob``, where the kernel stopped: the token's
    parse error, else its bad index, else the output limit."""
    index, _ = next(_parse_tokens(blob, start), (0, None))
    if index > token:
        raise BadIndex(f"token {token} references entry {index}, dictionary has {token}")
    raise OutputLimitExceeded(f"token {token} takes the output past {max_output} bytes")


# Inputs the loaded kernel must pack and unpack as the reference does: text
# whose dictionary passes 128 entries, so indices take two varint bytes, and
# whose trie outgrows the kernel's first edge table, so it is rehashed once,
# and a run that ends in a terminal token.
_KERNEL_CHECK_INPUTS = (b"".join(b"%d," % (i * i % 1009) for i in range(256)), b"AAAA")
# (blob, max_output) on which the kernel must return or raise what the
# reference does: each fault follows a whole token, so a stop at the wrong
# token or byte names another error
_KERNEL_CHECK_BLOBS = (
    (b"\x80" * 8 + b"\x00\x01A", None),  # index 0 in the longest varint read
    (b"\x00\x01A\x01\x01", None),  # truncated in its symbol
    (b"\x00\x01A\x80\x01\x01B", None),  # index 128 in a two-byte varint
    (b"\x00\x01A\x01\x00\x00\x01A", None),  # a terminal token, then another
    (b"\x00\x01A" + b"\x80" * 9 + b"\x00\x01A", None),  # index 0 in a ten-byte varint
    (bytes.fromhex("0001410101410100"), 3),  # b"AAAA" over a cap of 3
)


def _outcome(function, *args):
    """What ``function(*args)`` returns, or the class and message it raises."""
    try:
        return function(*args)
    except (ClaesError, MemoryError) as exc:
        return type(exc), str(exc)


def kernel_matches_reference(kernel: _native.Kernel) -> bool:
    """Whether ``kernel``'s codec gives the Python codec's bytes, and raises
    the Python codec's error where it raises one."""
    cases = [(blob, cap, _outcome(decompress, _parse_tokens(blob), cap)) for blob, cap in _KERNEL_CHECK_BLOBS]
    # token t extends entry t by an "A": 136 bytes from 48, past the
    # kernel's first guess of the output size, so a second parse writes them
    cases.append((b"".join(bytes((t, 1, 65)) for t in range(16)), None, b"A" * 136))
    for data in _KERNEL_CHECK_INPUTS:
        blob = encode_tokens(compress(data))
        if kernel.pack(data) != blob:
            return False
        cases += [(blob, None, data), (blob, len(data), data)]
    return all(_outcome(kernel.unpack, blob, cap) == expected for blob, cap, expected in cases)
