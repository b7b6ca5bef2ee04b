"""Deterministic fixed-point logistic-map byte generator.

The recurrence M' = i * M * (1 - M) with i = 3.9999 is evaluated in Q0.63
fixed point (63 fraction bits) using truncating integer arithmetic with
128-bit intermediates.  Floating point is deliberately avoided: chaotic
iteration amplifies the last ulp, so any rounding difference between
platforms would diverge into completely different streams within a few
dozen steps.  With pure integers, identical seeds produce bit-identical
output everywhere.

i is carried as the exact rational 39999/10000 rather than a binary
fraction, so the constant is represented without approximation.

Seeding and drawing are one operation, burn in then take
(`_chaos_reference(m, steps, n)`): `seed_from_key1` runs it with no bytes,
`ChaoticState.take` with no burn-in, and `stream` with both.  The Python
loops are the reference; the same arithmetic runs compiled as
``claes_chaos(m, steps, out, n)`` (``_kernel.c``, see `_native`), with the
restart nudge `_PERTURBATION` a constant there too, when that kernel can be
built and gives the reference's bytes on known streams.
"""

from __future__ import annotations

from . import _native

R_NUM = 39999
R_DEN = 10000
FRACTION_BITS = 63

_ONE = 1 << FRACTION_BITS     # fixed-point 1.0
_SEED_SPAN = _ONE - 2         # seeds land in [1, 2**63 - 2]
_BURN_IN_STEPS = 100
_PERTURBATION = 1 << 39       # burn-in restart nudge; PERTURBATION in _kernel.c
_TAG_SPREAD = 0x01010101_01010101  # replicates a tag byte across 8 bytes
_MASK64 = (1 << 64) - 1


def _scramble64(z: int) -> int:
    """Bijective 64-bit finalizer (xorshift-multiply chain).

    Seeds must be scrambled before use: the truncating map merges orbits
    whose raw values sit within a few ulps of each other, and without this
    step single-bit differences in the seed bytes can reduce, via the
    modular fold below, to exactly such near-collisions.
    """
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


class ChaoticState:
    """Iterator state of the chaotic generator: ``m_raw`` holds the Q0.63
    value (M = m_raw / 2**63).

    Distinct instances are safe to use from different threads; a single
    instance must not be advanced concurrently.
    """

    __slots__ = ("m_raw",)

    def __init__(self, m_raw: int):
        if not 0 <= m_raw < _ONE:
            raise ValueError("m_raw must be a Q0.63 fraction in [0, 2**63)")
        self.m_raw = m_raw

    def __repr__(self) -> str:
        return f"ChaoticState(m_raw={self.m_raw:#018x})"

    def take(self, n: int) -> bytes:
        """Produce ``n`` bytes, advancing this state by exactly 4 steps per byte.

        Each output byte XOR-folds fraction bits 8..39 of the current value
        into four 8-bit lanes.  The low bits are used because the map's
        arcsine-shaped invariant density crowds the high bits toward 0 and 1.
        """
        out, self.m_raw = _chaos(self.m_raw, 0, n)
        return out


def _step_raw(m: int) -> int:
    return R_NUM * ((m * (_ONE - m)) >> 63) // R_DEN


def _chaos_reference(m: int, steps: int, n: int) -> tuple[bytes, int]:
    """Burn in, then take, in Python: ``steps`` map steps from ``m``,
    restarted once from ``m + _PERTURBATION`` should the orbit reach a fixed
    point, then ``n`` bytes at 4 steps each.  Returns the bytes and the
    final state."""
    restarted = False
    done = 0
    while done < steps:
        successor = _step_raw(m)
        if successor == m and not restarted:
            m = (m + _PERTURBATION) % _ONE
            restarted = True
            done = 0
            continue
        m = successor
        done += 1
    out = bytearray(n)
    for t in range(n):
        m = R_NUM * ((m * (_ONE - m)) >> 63) // R_DEN
        m = R_NUM * ((m * (_ONE - m)) >> 63) // R_DEN
        m = R_NUM * ((m * (_ONE - m)) >> 63) // R_DEN
        m = R_NUM * ((m * (_ONE - m)) >> 63) // R_DEN
        out[t] = ((m >> 8) ^ (m >> 16) ^ (m >> 24) ^ (m >> 32)) & 0xFF
    return bytes(out), m


def _chaos(m: int, steps: int, n: int) -> tuple[bytes, int]:
    """`_chaos_reference`, on the kernel when it is in use."""
    kernel = _native.kernel()
    run = kernel.chaos if kernel is not None else _chaos_reference
    return run(m, steps, n)


# States the loaded kernel must reproduce before it is used: an ordinary
# orbit; two whose first step meets the edge of the kernel's rounding
# (q = (m * (2**63 - m)) >> 63 is 0 and 1 mod R_DEN), where a one-ulp error
# does not merge back into the orbit within 64 bytes, as it does from most
# states; one next to 1.0; and 1, whose orbit reaches the fixed point 0 and
# so takes the burn-in restart.
_KERNEL_CHECK_STATES = (0x0FEDCBA987654321, 0x0FEDCBA98766674E, 0x0FEDCBA98765CB4B, _ONE - 3, 1)


def kernel_matches_reference(kernel: _native.Kernel, n: int = 64) -> bool:
    """Whether ``kernel``'s chaos function gives the Python loops' bytes and
    states from every check state: ``n`` bytes with no burn-in, which pins
    the byte loop, and 8 bytes after a full burn-in, which pins the burn-in,
    its restart and where the bytes start."""
    return all(
        kernel.chaos(m, steps, k) == _chaos_reference(m, steps, k)
        for m in _KERNEL_CHECK_STATES
        for steps, k in ((0, n), (_BURN_IN_STEPS, 8))
    )


def seed_from_key1(key1_prefix: bytes, domain_tag: int) -> ChaoticState:
    """Seed a stream from up to 9 index bytes of the first key: the prefix,
    right-padded with zeros, read as a big-endian 72-bit integer, seeds
    `stream`."""
    if len(key1_prefix) > 9:
        raise ValueError("seed material is at most 9 bytes; fold longer keys first")
    if not 0 <= domain_tag <= 0xFF:
        raise ValueError("domain_tag must be a single byte")
    prefix = int.from_bytes(key1_prefix, "big") << 8 * (9 - len(key1_prefix))
    return ChaoticState(stream(prefix, domain_tag, 0)[1])


def stream(prefix: int, domain_tag: int, n: int) -> tuple[bytes, int]:
    """Seed a stream from the 72-bit ``prefix`` and a one-byte
    ``domain_tag``, and draw its first ``n`` bytes; returns them and the
    ``m_raw`` after them.

    The tag, replicated across the prefix's low 8 bytes, is XORed in, the
    72 bits are folded to 64 by XORing the top byte into the bottom one,
    scrambled, and reduced to an m_raw in (0, 2**63 - 1).  100 burn-in steps
    then decorrelate the orbit from the raw seed.  Should the orbit land on
    a fixed point during burn-in (0 and 1 - 1/i are both fixed), the seed is
    nudged by 2**39 and burn-in restarts, once.
    """
    u = prefix ^ domain_tag * _TAG_SPREAD
    return _chaos(_scramble64((u & _MASK64) ^ (u >> 64)) % _SEED_SPAN + 1, _BURN_IN_STEPS, n)
