"""AES-128 block core driven by externally supplied round keys, a counter
mode around it, and the full message pipeline with a binary envelope.

The block core is the standard round structure (SubBytes, ShiftRows,
MixColumns, AddRoundKey) with the published S-box; what varies is where the
round keys come from.  Round keys are 176 bytes: eleven 16-byte blocks end
to end.
The pipeline feeds the core chaos-derived round keys;
`rijndael_round_keys` provides the classic expansion so the core can be
checked against standard vectors.
Counter mode runs the forward cipher for encryption and decryption alike,
so there is no inverse cipher.

The Python core runs each step over all blocks at once, with the standard
library only; it runs `block_encrypt`, and counter mode when the compiled
kernel (``_kernel.c``, see `_native`) is not in use.  The kernel runs the
same cipher on the CPU's AES instructions where it has them, else in its
32-bit T-table form, and gives the same bytes.

Messages are processed as: optional LZ78 compression, XOR with the
message-length chaotic keystream, then counter-mode block encryption; the
two XORs are one pass (`_ctr_xor`), which makes each counter block as it
goes.  A `Cipher` holds one master key's derived material and the
keystream drawn for it so far, which depends on the key alone;
`encrypt_message` and `decrypt_message` keep the cipher of the last key
they used, in a one-entry `functools.lru_cache` on `_cached_cipher`
(`clear_key_cache` drops it).
There is no authentication tag; corruption is surfaced only through the
declared-length check and LZ78 decode failures, so a same-length wrong
plaintext cannot be detected.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

from . import _native, lz78, vectors
from .chaos import ChaoticState
from .errors import (
    BadMagic,
    BadVersion,
    LengthMismatch,
    MessageTooLong,
    OutputLimitExceeded,
    Truncated,
    UnknownFlags,
)
from .keymatrix import Matrix3D
from .keyschedule import derive_key_material, generate_keystream

SBOX = (
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
)


def _xtime(a: int) -> int:
    return ((a << 1) ^ 0x1B) & 0xFF if a & 0x80 else a << 1


# flat states are column-major (index r + 4c); row r rotates left by r
SHIFT = tuple((i % 4) + 4 * (((i // 4) + (i % 4)) % 4) for i in range(16))

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def rijndael_round_keys(key: bytes) -> bytes:
    """Classic AES-128 key expansion, the reference the block core is
    checked against."""
    if len(key) != 16:
        raise LengthMismatch(f"AES-128 key must be 16 bytes, got {len(key)}")
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        t = words[i - 1]
        if i % 4 == 0:
            t = [
                SBOX[t[1]] ^ RCON[i // 4 - 1],
                SBOX[t[2]],
                SBOX[t[3]],
                SBOX[t[0]],
            ]
        words.append([a ^ b for a, b in zip(words[i - 4], t)])
    return bytes(b for w in words for b in w)


# --- block core and counter mode ---------------------------------------------

_SBOX_BYTES = bytes(SBOX)


def _encrypt_blocks(blocks: bytes, round_keys: bytes) -> bytes:
    """AES-128 of every 16-byte block of ``blocks`` under the 176
    ``round_keys`` bytes, each step of FIPS-197 section 5.1 as one operation
    over all blocks: SubBytes is one `bytes.translate`, ShiftRows sixteen
    strided slices, and MixColumns and AddRoundKey act on one integer whose
    little-endian 32-bit words are the state columns (column c is bytes
    4c..4c+3, row r in bits 8r)."""
    n = len(blocks)
    # k * per_column repeats the 32-bit k in every column, k * per_block the
    # 128-bit k in every block
    per_column = int.from_bytes(b"\x01\x00\x00\x00" * (n // 4), "little")
    per_block = int.from_bytes((b"\x01" + bytes(15)) * (n // 16), "little")
    ones, low7, rows012, row0 = (k * per_column for k in (0x01010101, 0x7F7F7F7F, 0x00FFFFFF, 0xFF))

    def up(x: int) -> int:
        # row r + 1 of every column moves into row r, row 0 into row 3
        return (x >> 8) & rows012 | (x & row0) << 24

    keys = [int.from_bytes(round_keys[i:i + 16], "little") * per_block for i in range(0, 176, 16)]
    state = int.from_bytes(blocks, "little") ^ keys[0]
    shifted = bytearray(n)
    for rnd in range(1, 11):
        subbed = state.to_bytes(n, "little").translate(_SBOX_BYTES)
        for i, j in enumerate(SHIFT):
            shifted[i::16] = subbed[j::16]
        a0 = int.from_bytes(shifted, "little")
        if rnd < 10:
            # row r becomes 2a(r) ^ 3a(r+1) ^ a(r+2) ^ a(r+3)
            #             = xtime(a(r) ^ a(r+1)) ^ a(r+1) ^ a(r+2) ^ a(r+3)
            a1 = up(a0)
            a2 = up(a1)
            v = a0 ^ a1
            a0 = ((v & low7) << 1) ^ ((v >> 7) & ones) * 0x1B ^ a1 ^ a2 ^ up(a2)
        state = a0 ^ keys[rnd]
    return state.to_bytes(n, "little")


# The compiled kernel's 32-bit T-tables (Daemen & Rijmen, "AES Proposal:
# Rijndael", section 5.2), built here so the constants are defined once; only
# the C code reads them.  SubBytes and MixColumns fold into four tables, so a
# state column is four table lookups XORed with a round-key word.  Table r,
# entry a, is the MixColumns column (rows 0-3, low byte first) of S(a) in
# row r, as a little-endian word: (2, 1, 1, 3) * S(a) rotated down by r.
_COLUMNS = tuple((_xtime(s), s, s, _xtime(s) ^ s) for s in SBOX)
_T_TABLES = bytes(b for r in range(4) for col in _COLUMNS for b in col[4 - r:] + col[:4 - r])


def _check_round_keys(round_keys: bytes) -> None:
    if len(round_keys) != 176:
        raise LengthMismatch(f"round keys must be 176 bytes, got {len(round_keys)}")


def block_encrypt(block: bytes, round_keys: bytes) -> bytes:
    """One AES-128 block with the 176 supplied round-key bytes used verbatim."""
    if len(block) != 16:
        raise ValueError("block must be 16 bytes")
    _check_round_keys(round_keys)
    return _encrypt_blocks(bytes(block), bytes(round_keys))


# counters are 32-bit, so one nonce covers at most this many blocks
MAX_CTR_BLOCKS = 1 << 32
# the Python core encrypts this many counter blocks per call, which bounds
# its working integers at 16 KiB each
_CTR_CHUNK_BLOCKS = 1024


def _python_ctr_xor(nonce: bytes, round_keys: bytes, a: bytes, b: bytes, n: int) -> bytes:
    """`_ctr_xor` in Python, one chunk of `_CTR_CHUNK_BLOCKS` counter blocks
    at a time: the chunk's blocks are built, encrypted, and XORed into its
    stretch of ``a`` and ``b`` as one integer."""
    out = []
    step = 16 * _CTR_CHUNK_BLOCKS
    for start in range(0, n, step):
        size = min(step, n - start)
        count, first = -(-size // 16), start // 16
        # every block is the nonce, then its counter's four bytes laid in
        # by four strided slices
        blocks = bytearray((nonce + bytes(4)) * count)
        counters = struct.pack(f">{count}I", *range(first, first + count))
        for j in range(4):
            blocks[12 + j::16] = counters[j::4]
        x = (
            int.from_bytes(a[start:start + size], "little")
            ^ int.from_bytes(b[start:start + size], "little")
            ^ int.from_bytes(_encrypt_blocks(blocks, round_keys)[:size], "little")
        )
        out.append(x.to_bytes(size, "little"))
    return b"".join(out)


def _check_nonce(nonce: bytes) -> None:
    if len(nonce) != 12:
        raise LengthMismatch(f"nonce must be 12 bytes, got {len(nonce)}")


def _ctr_xor(nonce: bytes, round_keys: bytes, a: bytes, b: bytes, n: int) -> bytes:
    """The first ``n`` bytes of ``a`` XOR ``b`` XOR the AES-128 counter-mode
    stream of ``nonce`` (counters 0, 1, ...) under the 176 ``round_keys``
    bytes, in one pass: no stream of ``n`` bytes is built."""
    if n > 16 * MAX_CTR_BLOCKS:
        raise MessageTooLong(
            f"{-(-n // 16)} blocks exceed the {MAX_CTR_BLOCKS} a 32-bit counter can number"
        )
    _check_nonce(nonce)
    _check_round_keys(round_keys)
    if len(a) < n or len(b) < n:
        raise LengthMismatch(f"cannot XOR {n} bytes of {len(a)} and {len(b)}")
    kernel = _native.kernel()
    if kernel is None:
        return _python_ctr_xor(bytes(nonce), round_keys, a, b, n)
    return kernel.ctr_xor(bytes(nonce), round_keys, a, b, n)


# non-zero operands for the kernel check: bytes 1, 15 and 17 end inside a
# block, 48 is the pinned keystreams' length, and 16 * 17 + 5 runs past two
# batches of eight blocks into a third; b runs past each of them
_CHECK_LENGTHS = (1, 15, 17, 48, 16 * 17 + 5)
_CHECK_A = bytes(i % 255 + 1 for i in range(_CHECK_LENGTHS[-1]))
_CHECK_B = bytes(255 - 2 * i % 256 for i in range(_CHECK_LENGTHS[-1] + 1))


def kernel_matches_reference(kernel: _native.Kernel) -> bool:
    """Whether each of ``kernel``'s counter-mode loops gives the Python
    core's bytes, with two non-zero operands, under both pinned round keys
    at each of `_CHECK_LENGTHS`; the core's first 48 bytes must be the
    pinned keystreams XORed with the operands."""
    nonce = bytes.fromhex(vectors.CTR_NONCE)
    for flat, expected in vectors.CTR_KEYSTREAMS:
        rk = bytes.fromhex(flat)
        reference = _python_ctr_xor(nonce, rk, _CHECK_A, _CHECK_B, len(_CHECK_A))
        pinned = bytes(x ^ y ^ z for x, y, z in zip(bytes.fromhex(expected), _CHECK_A, _CHECK_B))
        if reference[:48] != pinned:
            return False
        for loop in kernel.ctr_loops.values():
            if any(loop(nonce, rk, _CHECK_A, _CHECK_B, n) != reference[:n] for n in _CHECK_LENGTHS):
                return False
    return True


# --- envelope --------------------------------------------------------------

MAGIC = b"CLAES"
VERSION = 0x01
FLAG_LZ78 = 0x01
_HEADER_LEN = 27


@dataclass(frozen=True)
class Envelope:
    """Binary message container; all integers big-endian.

    Layout: magic "CLAES", version byte, flags byte (bit 0 = LZ78 applied,
    every other bit must be clear), 12-byte nonce, 8-byte pre-compression
    plaintext length, payload.
    """

    flags: int
    nonce: bytes
    plain_len: int
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.flags <= 0xFF:
            raise ValueError("flags must be a single byte")
        if self.flags & ~FLAG_LZ78:
            raise UnknownFlags(f"flags {self.flags:#04x} set bits other than LZ78 ({FLAG_LZ78:#04x})")
        if len(self.nonce) != 12:
            raise LengthMismatch("nonce must be exactly 12 bytes")
        if not 0 <= self.plain_len < 1 << 64:
            raise ValueError("plain_len must fit in 8 unsigned bytes")

    def encode(self) -> bytes:
        return b"".join(
            (
                MAGIC,
                bytes((VERSION, self.flags)),
                self.nonce,
                self.plain_len.to_bytes(8, "big"),
                self.payload,
            )
        )

    @classmethod
    def decode(cls, blob: bytes) -> "Envelope":
        if len(blob) < _HEADER_LEN:
            raise Truncated(f"envelope is {len(blob)} bytes, header needs {_HEADER_LEN}")
        if blob[:5] != MAGIC:
            raise BadMagic(f"bad magic {bytes(blob[:5])!r}")
        if blob[5] != VERSION:
            raise BadVersion(f"unsupported envelope version {blob[5]:#04x}")
        return cls(
            flags=blob[6],
            nonce=bytes(blob[7:19]),
            plain_len=int.from_bytes(blob[19:27], "big"),
            payload=bytes(blob[27:]),
        )


# --- message pipeline -------------------------------------------------------

# decrypt_message and Cipher.open refuse output past this many bytes unless
# the caller raises or lifts the cap: chained LZ78 tokens grow the output
# quadratically in the input, so a few kilobytes could otherwise ask for
# gigabytes, and the declared plaintext length is the sender's to choose.
DEFAULT_MAX_OUTPUT = 64 << 20


# a cipher keeps at most this many keystream bytes
_CACHE_BYTES = 256 << 10


class Cipher:
    """Seals and opens messages under one master key.

    The key material and the round keys are derived once, when the cipher
    is made.  The whitening keystream depends on the key alone, so the
    cipher keeps the bytes of it drawn so far, with the chaos state after
    them; a shorter message uses a prefix of them, a longer one draws the
    missing bytes and keeps them, up to 256 KiB (`_CACHE_BYTES`).  Bytes
    past that are drawn for the message and then dropped.

    The drawn bytes and their state are one immutable pair, replaced whole
    after an extension and never advanced in place, so one cipher may seal
    and open from several threads at once; a race at worst draws the same
    bytes twice.
    """

    def __init__(self, master_key: bytes, matrix: Matrix3D | None = None):
        km = derive_key_material(master_key, matrix)
        self._round_keys = km.round_keys
        self._final_key = km.final_key
        # (keystream bytes drawn so far, Q0.63 chaos state after them)
        self._drawn = (b"", km.keystream_state)

    def _draw(self, state: ChaoticState, offset: int, n: int) -> bytes:
        # keystream bytes offset .. offset + n - 1: the cycled final key
        # restarts where the bytes before them left it
        fk = self._final_key
        i = offset % len(fk)
        return generate_keystream(state, fk[i:] + fk[:i], n)

    def _keystream(self, n: int) -> bytes:
        """At least ``n`` bytes of the whitening keystream."""
        drawn, m_raw = self._drawn
        if n <= len(drawn):
            return drawn
        state = ChaoticState(m_raw)
        keep = min(n, _CACHE_BYTES)
        if keep > len(drawn):
            drawn += self._draw(state, len(drawn), keep - len(drawn))
            self._drawn = (drawn, state.m_raw)
        if n > len(drawn):
            drawn += self._draw(state, len(drawn), n - len(drawn))
        return drawn

    def seal(self, nonce: bytes, plaintext: bytes, compress: bool = True) -> Envelope:
        """Compress (optionally), whiten with the chaotic keystream, then
        counter-mode encrypt, in one pass after compression."""
        _check_nonce(nonce)
        data = lz78.pack(plaintext) if compress else bytes(plaintext)
        payload = _ctr_xor(nonce, self._round_keys, data, self._keystream(len(data)), len(data))
        return Envelope(
            flags=FLAG_LZ78 if compress else 0,
            nonce=bytes(nonce),
            plain_len=len(plaintext),
            payload=payload,
        )

    def open(self, env: Envelope, *, max_output: int | None = DEFAULT_MAX_OUTPUT) -> bytes:
        """Invert `seal`; verifies the declared plaintext length.

        Raises `OutputLimitExceeded` before any output past ``max_output``
        bytes is made; None lifts the cap, and a negative cap raises
        ValueError.
        """
        if max_output is not None and max_output < 0:
            raise ValueError(f"max_output must not be negative, got {max_output}")
        payload = bytes(env.payload)
        compressed = env.flags & FLAG_LZ78
        if not compressed:
            # the output is the payload's length, so both checks come before
            # any keystream is drawn
            if max_output is not None and len(payload) > max_output:
                raise OutputLimitExceeded(f"{len(payload)} bytes exceed the {max_output}-byte output limit")
            if len(payload) != env.plain_len:
                raise LengthMismatch(f"payload is {len(payload)} bytes, envelope declares {env.plain_len}")
        data = _ctr_xor(env.nonce, self._round_keys, payload, self._keystream(len(payload)), len(payload))
        if not compressed:
            return data
        limit = env.plain_len if max_output is None else min(env.plain_len, max_output)
        plaintext = lz78.unpack(data, max_output=limit)
        if len(plaintext) != env.plain_len:
            raise LengthMismatch(
                f"decoded {len(plaintext)} bytes, envelope declares {env.plain_len}"
            )
        return plaintext


# encrypt_message and decrypt_message keep the cipher of the last key they
# used: a sender seals a run of messages under one key, and an open in the
# sealing process reuses the seal's key.  A matrix is keyed by identity.
@functools.lru_cache(maxsize=1)
def _cached_cipher(master_key: bytes, matrix: Matrix3D | None) -> Cipher:
    return Cipher(master_key, matrix)


def clear_key_cache() -> None:
    """Drop the cipher kept by `encrypt_message` and `decrypt_message`, with
    its key material and keystream."""
    _cached_cipher.cache_clear()


def encrypt_message(
    master_key: bytes,
    nonce: bytes,
    plaintext: bytes,
    compress: bool = True,
    *,
    matrix: Matrix3D | None = None,
) -> Envelope:
    """`Cipher.seal` under ``master_key``, with the key's cached cipher."""
    return _cached_cipher(bytes(master_key), matrix).seal(nonce, plaintext, compress)


def decrypt_message(
    env: Envelope,
    master_key: bytes,
    *,
    matrix: Matrix3D | None = None,
    max_output: int | None = DEFAULT_MAX_OUTPUT,
) -> bytes:
    """`Cipher.open` under ``master_key``, with the key's cached cipher."""
    return _cached_cipher(bytes(master_key), matrix).open(env, max_output=max_output)
