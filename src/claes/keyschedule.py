"""Four-stage key derivation and the two benchmarkable keystream paths.

Key1 comes from the lookup cube, Key2 from chaotic cycles XORed onto Key1,
and Key3 from a rotate/XOR pass driven by an 8-bit LFSR.  The pass maps each
byte b to rotr1(rotl1(b) ^ l) = b ^ rotr1(l), so Key3 is Key2 XOR a fixed
period-255 pad, and the final key, Key1 ^ Key2 ^ Key3, is Key1 ^ pad: Key2
cancels out.  `derive_key_material` therefore computes the final key from
Key1 and the pad alone, as one integer XOR, and Key2 and Key3 are built only
when read.  It folds Key1 into a 72-bit seed once and makes one chaos call
per stream from it (`chaos.stream`): the 176 round-key bytes, then the
keystream's seeded state.

A message-length keystream is then produced by running the chaotic
generator on, one byte of final key folded into each output byte; that call
is the size-dependent cost the benchmark measures.

Chaos streams for different purposes are separated by domain tags mixed
into the seed, so Key2 bytes, keystream bytes, and round-key bytes never
reuse one orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

# seed_from_key1 is the byte-form entry to `stream`; it stays reachable as
# keyschedule.seed_from_key1, where perfbench's tracer looks it up
from .chaos import ChaoticState, seed_from_key1, stream
from .errors import EmptyKey, LengthMismatch, ZeroState
from .keymatrix import Matrix3D, default_matrix, derive_key1, encode_byte

DOMAIN_KEY2 = 0x01
DOMAIN_KEYSTREAM = 0x5A
DOMAIN_ROUND_KEYS = 0xA5

DEFAULT_LFSR_SEED = 0x5C

# Chaotic iterations spent per Key2 byte: four byte extractions of four
# steps each, keeping only the last byte.
KEY2_CYCLES = 4


def _rotl8(b: int, k: int) -> int:
    return ((b << k) | (b >> (8 - k))) & 0xFF


def _rotr8(b: int, k: int) -> int:
    return ((b >> k) | (b << (8 - k))) & 0xFF


class Lfsr8:
    """8-bit Fibonacci LFSR with taps at bits 7, 5, 4, 3 (x^8 + x^6 + x^5 +
    x^4 + 1, maximal length: period 255)."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        if state == 0:
            raise ZeroState("LFSR state must never be zero")
        if not 0 < state <= 0xFF:
            raise ValueError("LFSR state must be a nonzero byte")
        self.state = state

    def __repr__(self) -> str:
        return f"Lfsr8(state={self.state:#04x})"


def lfsr_next(l: Lfsr8) -> tuple[int, Lfsr8]:
    """Eight single-bit shifts; output is the resulting state byte. Pure."""
    s = l.state
    for _ in range(8):
        feedback = ((s >> 7) ^ (s >> 5) ^ (s >> 4) ^ (s >> 3)) & 1
        s = ((s << 1) & 0xFF) | feedback
    return s, Lfsr8(s)


def _fold(key1: bytes) -> int:
    """The XOR of Key1's 9-byte pieces read as big-endian integers, the last
    piece zero-padded: the 72-bit seed of every chaos stream of the key."""
    key1 = bytes(key1) + bytes(-len(key1) % 9)
    prefix = 0
    for i in range(0, len(key1), 9):
        prefix ^= int.from_bytes(key1[i:i + 9], "big")
    return prefix


def fold_seed_prefix(key1: bytes) -> bytes:
    """Compress Key1 into the 9 bytes of chaos seed material.

    Key1 is XOR-folded with stride 9 (`_fold`), so every master-key byte
    reaches the seed.  For keys of at most 9 bytes this is exactly the
    zero-padded prefix; taking only the literal first 9 bytes would leave
    the chaos streams blind to later master-key bytes and destroy key
    avalanche.
    """
    return _fold(key1).to_bytes(9, "big")


def _seed(key1: bytes, domain_tag: int) -> ChaoticState:
    """``seed_from_key1(fold_seed_prefix(key1), domain_tag)``, with the
    fold kept an integer."""
    return ChaoticState(stream(_fold(key1), domain_tag, 0)[1])


def derive_key2(seed: ChaoticState, key1: bytes) -> bytes:
    """Second key: 16 chaotic iterations per byte, XORed onto Key1.
    Advances ``seed``."""
    out = bytearray()
    for b in key1:
        out.append(seed.take(KEY2_CYCLES)[-1] ^ b)
    return bytes(out)


def derive_key3(key2: bytes) -> bytes:
    """Third key: rotate-left 1, XOR the LFSR byte, rotate-right 1, with the
    LFSR started from `DEFAULT_LFSR_SEED`."""
    register = Lfsr8(DEFAULT_LFSR_SEED)
    out = bytearray()
    for b in key2:
        lj, register = lfsr_next(register)
        out.append(_rotr8(_rotl8(b, 1) ^ lj, 1))
    return bytes(out)


def derive_final_key(key1: bytes, key2: bytes, key3: bytes) -> bytes:
    if not len(key1) == len(key2) == len(key3):
        raise LengthMismatch(
            f"key lengths differ: {len(key1)}, {len(key2)}, {len(key3)}"
        )
    return bytes(a ^ b ^ c for a, b, c in zip(key1, key2, key3))


def generate_keystream(seed: ChaoticState, final_key: bytes, n: int) -> bytes:
    """Message-length keystream: chaos byte XOR cycled final-key byte.

    Cost is linear in ``n`` (4 map steps per byte); this is the call the
    benchmark times.  Advances ``seed``.  An empty ``final_key`` raises
    `EmptyKey`.
    """
    if not final_key:
        raise EmptyKey("final key must not be empty")
    raw = seed.take(n)
    pad = (final_key * -(-n // len(final_key)))[:n]
    return (int.from_bytes(raw, "little") ^ int.from_bytes(pad, "little")).to_bytes(n, "little")


def derive_round_keys(seed: ChaoticState) -> bytes:
    """176 chaotic bytes: eleven 16-byte round keys end to end.  Advances
    ``seed``."""
    return seed.take(176)


# Matrix3D is immutable, so the default cube is built and checked once
_DEFAULT_MATRIX = default_matrix()

# derive_key3 of an all-zero Key2 is the pad itself: rotr1 of each LFSR
# output byte.  The LFSR has period 255, so the pad repeats after 255 bytes.
_PAD = derive_key3(bytes(255))


@dataclass(frozen=True)
class KeyMaterial:
    """Everything derived from one master key, immutable once built.

    ``round_keys`` holds the 176 chaos round-key bytes and
    ``keystream_state`` the Q0.63 state the whitening keystream starts
    from, ``keystream_seed(key1).m_raw``.  Key2 and Key3 do not reach the
    final key (see the module docstring); they are derived on first access
    and then cached.
    """

    key1: bytes
    final_key: bytes
    round_keys: bytes
    keystream_state: int

    @cached_property
    def key2(self) -> bytes:
        return derive_key2(_seed(self.key1, DOMAIN_KEY2), self.key1)

    @cached_property
    def key3(self) -> bytes:
        return derive_key3(self.key2)


def derive_key_material(master_key: bytes, matrix: Matrix3D | None = None) -> KeyMaterial:
    """Run the derivation chain for one master key."""
    if not master_key:
        raise EmptyKey("master key must not be empty")
    key1 = derive_key1(matrix if matrix is not None else _DEFAULT_MATRIX, master_key)
    n = len(key1)
    pad = _PAD if n <= 255 else _PAD * -(-n // 255)
    final_key = (int.from_bytes(key1, "little") ^ int.from_bytes(pad[:n], "little")).to_bytes(n, "little")
    prefix = _fold(key1)
    return KeyMaterial(
        key1, final_key, stream(prefix, DOMAIN_ROUND_KEYS, 176)[0], stream(prefix, DOMAIN_KEYSTREAM, 0)[1]
    )


def keystream_seed(key1: bytes) -> ChaoticState:
    """Fresh chaos state for the message keystream domain."""
    return _seed(key1, DOMAIN_KEYSTREAM)


def baseline_keystream(matrix: Matrix3D, key1: bytes, n: int) -> bytes:
    """Chaos-free reference path: one cube lookup chained per output byte.

    Used only for relative benchmarking against `generate_keystream`; both
    are linear in ``n`` per byte of output.
    """
    out = bytearray(n)
    s = 0
    kl = len(key1)
    for t in range(n):
        c0, c1, c2 = encode_byte(matrix, key1[t % kl] ^ s)
        s = c0 ^ _ROTL3[c1] ^ _ROTR2[c2]
        out[t] = s
    return bytes(out)


# rotation lookup tables keep the per-byte baseline loop free of calls
# other than the cube lookup itself
_ROTL3 = tuple(_rotl8(x, 3) for x in range(256))
_ROTR2 = tuple(_rotr8(x, 2) for x in range(256))
