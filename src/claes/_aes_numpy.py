"""The AES-128 encrypt core in numpy, one vectorized pass over all blocks.

It runs `cipher.block_encrypt`, and counter mode when the compiled kernel is
not in use.  `cipher` imports this module on first use, so importing claes
does not load numpy.  The S-box and T-tables are `cipher`'s bytes, read in
place.
"""

from __future__ import annotations

import numpy as np

from .cipher import _SBOX_BYTES, _T_TABLES, SHIFT

_SBOX = np.frombuffer(_SBOX_BYTES, dtype=np.uint8)
_SHIFT = np.array(SHIFT, dtype=np.intp)
_T0, _T1, _T2, _T3 = np.frombuffer(_T_TABLES, dtype="<u4").reshape(4, 256)


def _encrypt_blocks(states: np.ndarray, round_keys: bytes) -> np.ndarray:
    rk = np.frombuffer(round_keys, dtype=np.uint8).reshape(11, 16)
    rk_words = rk.view("<u4")
    s = states ^ rk[0]
    for rnd in range(1, 10):
        # t[:, c, r] is the byte ShiftRows moves to row r of column c
        t = s[:, _SHIFT].reshape(-1, 4, 4)
        w = _T0[t[:, :, 0]] ^ _T1[t[:, :, 1]] ^ _T2[t[:, :, 2]] ^ _T3[t[:, :, 3]] ^ rk_words[rnd]
        # gathers over strided columns need not come out C-contiguous
        s = np.ascontiguousarray(w, dtype="<u4").view(np.uint8)
    return _SBOX[s[:, _SHIFT]] ^ rk[10]


def encrypt_block(block: bytes, round_keys: bytes) -> bytes:
    """One 16-byte block under the 176 ``round_keys`` bytes."""
    return _encrypt_blocks(np.frombuffer(block, dtype=np.uint8).reshape(1, 16), round_keys).tobytes()


def ctr_keystream(nonce: bytes, nblocks: int, round_keys: bytes) -> bytes:
    """AES-128(``nonce`` || counter) for counters 0 .. ``nblocks`` - 1."""
    if nblocks == 0:
        return b""
    blocks = np.empty((nblocks, 16), dtype=np.uint8)
    blocks[:, :12] = np.frombuffer(nonce, dtype=np.uint8)
    counters = np.arange(nblocks, dtype=np.uint32).astype(">u4")
    blocks[:, 12:] = counters.view(np.uint8).reshape(-1, 4)
    return _encrypt_blocks(blocks, round_keys).tobytes()
