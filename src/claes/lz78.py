"""LZ78 dictionary codec with a byte-exact wire format.

Greedy longest-match parsing over a trie that starts from the empty root
and grows by one entry per emitted token.  If the input ends in the middle
of a match, a terminal token without a symbol is emitted, which makes the
codec total and exactly invertible on every byte string.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

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


def decompress(tokens, max_output: int | None = None) -> bytes:
    """Exact inverse of :func:`compress`.

    Raises :class:`OutputLimitExceeded` as soon as the output passes
    ``max_output`` bytes.  Every dictionary entry is a piece already written
    to the output, so the limit bounds the dictionary's memory as well.
    """
    limit = sys.maxsize if max_output is None else max_output
    entries: list[bytes] = [b""]
    out = bytearray()
    last = len(tokens) - 1
    for t, (index, symbol) in enumerate(tokens):
        if symbol is None and t != last:
            raise MisplacedTerminal(f"symbol-less token at position {t} is not last")
        if not 0 <= index < len(entries):
            raise BadIndex(f"token {t} references entry {index}, dictionary has {len(entries) - 1}")
        piece = entries[index] if symbol is None else entries[index] + bytes([symbol])
        out.extend(piece)
        if len(out) > limit:
            raise OutputLimitExceeded(f"token {t} takes the output past {limit} bytes")
        entries.append(piece)
    return bytes(out)


def encode_tokens(tokens) -> bytes:
    """Serialize tokens: base-128 varint index, then 0x01+symbol or 0x00 (terminal)."""
    out = bytearray()
    last = len(tokens) - 1
    for t, (index, symbol) in enumerate(tokens):
        if symbol is None and t != last:
            raise MisplacedTerminal(f"symbol-less token at position {t} is not last")
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
    """Exact inverse of :func:`encode_tokens`; rejects malformed input."""
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
            shift += 7
            if not b & 0x80:
                break
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
