"""Correctness checks run on every message, outside the timed region.

Outputs are checked against properties and against the independent
implementation in ``tests/oracles.py``, never against stored output.
Each function returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

HEADER = b"CLAES\x01"
HEADER_LEN = 27
# Uncompressed frames are checked against the oracle on a prefix: the first
# n payload bytes of a sealed frame equal the payload of its sealed n-byte
# prefix, and the oracle costs about 10 ms per 256 bytes.
ORACLE_PREFIX = 256


def check_roundtrip(msg, blob: bytes, env, opened: bytes) -> list[str]:
    """Round trip, header fields, and the payload length of uncompressed data."""
    problems = []
    if opened != msg.plaintext:
        problems.append("opened message differs from its plaintext")
    if blob[: len(HEADER)] != HEADER:
        problems.append(f"header starts {blob[:len(HEADER)]!r}")
    if env.flags != (0x01 if msg.compress else 0x00):
        problems.append(f"flags {env.flags:#04x} for compress={msg.compress}")
    if env.nonce != msg.nonce:
        problems.append("nonce differs from the one asked for")
    if env.plain_len != len(msg.plaintext):
        problems.append(f"plain_len {env.plain_len} for {len(msg.plaintext)} bytes")
    if not msg.compress and len(env.payload) != len(msg.plaintext):
        problems.append(f"payload {len(env.payload)} bytes for a {len(msg.plaintext)}-byte frame")
    return problems


def check_oracle(msg, blob: bytes, oracle_encrypt) -> list[str]:
    """Byte-for-byte agreement with the oracle's ``encrypt_message``."""
    if msg.compress:
        expected = oracle_encrypt(msg.key, msg.nonce, msg.plaintext, True)
        if blob != expected:
            return ["envelope differs from the oracle's"]
        return []
    n = min(ORACLE_PREFIX, len(msg.plaintext))
    expected = oracle_encrypt(msg.key, msg.nonce, msg.plaintext[:n], False)
    if blob[:19] != expected[:19] or blob[HEADER_LEN:HEADER_LEN + n] != expected[HEADER_LEN:]:
        return [f"first {n} payload bytes differ from the oracle's"]
    return []
