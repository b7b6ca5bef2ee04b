"""Build, load and check the compiled kernel, ``_kernel.c``, through ctypes.

The kernel runs the three per-byte loops of the pipeline: the logistic map
(`chaos`, one function for burn-in then byte draw), AES-128 counter mode
(`cipher`) and the LZ78 codec (`lz78`).  Counter mode runs on the CPU's AES
instructions when CPUID reports them (x86-64 AES-NI), else on T-tables.
It is compiled on first use with the system ``cc`` into the user's cache
directory (``$XDG_CACHE_HOME/claes``, else ``~/.cache/claes``), under a file
name that carries a CRC-32 of the source and the compiler flags, so an
edited source never loads an old build.  The library is written to a
temporary file and renamed into place, so a concurrent process sees either
no library or a whole one.  Later imports load the cached file.

`kernel` loads it once and uses it only if every function reproduces its
Python reference (`kernel_matches_reference`).  When there is no compiler,
the build fails, the cache directory cannot be written, the library does
not load or any function gives other bytes, it returns None and callers run
the Python code, which gives the same bytes more slowly.

Every binding calls the kernel one way: Python sizes each output as a
``bytearray`` that the C side writes into (`_out`), constants live in the C
source, and a call that can fail returns the output size or ``SIZE_MAX``,
on which the binding raises MemoryError, or for an LZ78 fault the error
the Python reference raises there.  LZ78 unpack alone is given a buffer
that may be short, as only the whole stream tells its output size.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from pathlib import Path

_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")
_SIZE_MAX = ctypes.c_size_t(-1).value
# `Kernel.unpack`'s first output buffer is at most this many times the
# blob's size.  Text and random bytes unpack to less (1.3 and 0.6 times
# over 1 MiB), and a larger guess zero-fills bytes no output reaches.
_UNPACK_GUESS = 2


def _out(buf: bytearray):
    """``buf`` as an output argument: its first byte, or NULL when empty."""
    return ctypes.c_ubyte.from_buffer(buf) if buf else None


def _bind(function, restype, *argtypes):
    function.restype, function.argtypes = restype, argtypes
    return function


def _ctr_loop(function, *tables: bytes):
    """A binding of one C counter-mode loop, given the tables it reads."""

    def ctr_xor(nonce: bytes, round_keys: bytes, a: bytes, b: bytes, n: int) -> bytes:
        """The first ``n`` bytes of ``a`` XOR ``b`` XOR the AES-128
        counter-mode stream of ``nonce`` under the 176 ``round_keys`` bytes,
        in one pass (`cipher._python_ctr_xor`).  The caller checks every
        length."""
        buf = bytearray(n)
        function(nonce, round_keys, *tables, a, b, n, _out(buf))
        return bytes(buf)

    return ctr_xor


class Kernel:
    """ctypes bindings of the functions in ``_kernel.c``.  Each output is a
    ``bytearray`` the C side fills, returned as ``bytes``."""

    def __init__(self, lib: ctypes.CDLL):
        from .cipher import _SBOX_BYTES, _T_TABLES

        out, size, data = ctypes.POINTER(ctypes.c_ubyte), ctypes.c_size_t, ctypes.c_char_p
        self._chaos = _bind(lib.claes_chaos, ctypes.c_uint64, ctypes.c_uint64, ctypes.c_uint, out, size)
        self._pack = _bind(lib.claes_lz78_pack, size, data, size, out)
        self._unpack = _bind(lib.claes_lz78_unpack, size, data, size, size, out, size, ctypes.POINTER(size))
        # every counter-mode loop this CPU can run, by the AES it runs on,
        # fastest first; ctr_xor is the first, and the load check checks all
        self.ctr_loops = {}
        if _bind(lib.claes_has_aes_hw, ctypes.c_int)():
            aes_ni = _bind(lib.claes_ctr_xor_aesni, None, *(data,) * 4, size, out)
            self.ctr_loops["AES-NI"] = _ctr_loop(aes_ni)
        t_tables = _bind(lib.claes_ctr_xor, None, *(data,) * 6, size, out)
        self.ctr_loops["T-tables"] = _ctr_loop(t_tables, _T_TABLES, _SBOX_BYTES)
        self.aes, self.ctr_xor = next(iter(self.ctr_loops.items()))

    def chaos(self, m: int, steps: int, n: int) -> tuple[bytes, int]:
        """``n`` stream bytes from state ``m`` after ``steps`` steps of
        burn-in, and the state after them (see `chaos._chaos_reference`)."""
        buf = bytearray(n)
        m = self._chaos(m, steps, _out(buf), n)
        return bytes(buf), m

    def pack(self, data: bytes) -> bytes:
        """``encode_tokens(compress(data))``."""
        n = len(data)
        buf = bytearray(pack_capacity(n))
        size = self._pack(data, n, _out(buf))
        if size == _SIZE_MAX:
            raise MemoryError("no memory for the LZ78 trie")
        return bytes(memoryview(buf)[:size])

    def unpack(self, blob: bytes, max_output: int | None) -> bytes:
        """`lz78.unpack` for ``max_output`` None or non-negative: the output,
        or the error the Python reference raises."""
        limit = _SIZE_MAX - 1 if max_output is None else min(max_output, _SIZE_MAX - 1)
        n = len(blob)
        # the parse that checks the stream writes its output when it fits a
        # first guess, bounded by the blob and never by a length the input
        # claims alone; a second parse runs only when the guess was short
        buf = bytearray(min(limit, _UNPACK_GUESS * n))
        size = self._unpack(blob, n, limit, _out(buf), len(buf), None)
        if size == _SIZE_MAX:
            # again, to learn where it stopped; a clean decode passes NULL
            # and so builds no ctypes array
            stop = (ctypes.c_size_t * 2)(_SIZE_MAX, _SIZE_MAX)
            self._unpack(blob, n, limit, None, 0, stop)
            if stop[1] == _SIZE_MAX:
                raise MemoryError("no memory for the LZ78 entry table")
            from .lz78 import _raise_fault

            _raise_fault(blob, *stop, max_output)
        if size > len(buf):
            buf = bytearray(size)
            if self._unpack(blob, n, limit, _out(buf), size, None) == _SIZE_MAX:
                raise MemoryError("no memory for the LZ78 entry table")
        del buf[size:]
        return bytes(buf)


def pack_capacity(n: int) -> int:
    """The output buffer `Kernel.pack` gives ``n`` input bytes: room for the
    most tokens n bytes can parse into, t = min(n, (n + 256) // 2 + 1), each
    a varint index below t and at most two bytes more.  At most 256 phrases
    are one byte long, every other phrase is two bytes or more, and a
    terminal token may end the stream."""
    t = n if n < 258 else (n + 256) // 2 + 1
    return t * ((t.bit_length() + 6) // 7 + 2)


def library_path(source: bytes) -> Path | None:
    """Where the build of ``source`` is cached; None when neither
    ``XDG_CACHE_HOME`` nor the home directory gives an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    tag = zlib.crc32(" ".join(_CFLAGS).encode(), zlib.crc32(source))
    return Path(base, "claes", f"kernel-{tag:08x}.so")


def _build(source: bytes, lib_path: Path) -> bool:
    import subprocess
    import tempfile

    try:
        lib_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=lib_path.name, suffix=".tmp", dir=lib_path.parent)
    except OSError:
        return False
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *_CFLAGS, "-x", "c", "-o", tmp, "-"],
            input=source,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            check=True,
            timeout=120,
        )
        os.replace(tmp, lib_path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> Kernel | None:
    """The compiled kernel, built first if no cached build exists; None on
    failure.  What it computes is not checked here."""
    try:
        source = _SOURCE.read_bytes()
    except OSError:
        return None
    lib_path = library_path(source)
    if lib_path is None:
        return None
    try:
        if not lib_path.is_file() and not _build(source, lib_path):
            return None
        return Kernel(ctypes.CDLL(str(lib_path)))
    except (OSError, AttributeError):
        return None


def kernel_matches_reference(kernel: Kernel, chaos_bytes: int = 64) -> bool:
    """Whether every function of ``kernel`` gives its Python reference's
    bytes: the chaos function on ``chaos_bytes``-byte streams, every
    counter-mode loop on pinned vectors and the Python core, and the LZ78
    codec on fixed inputs."""
    from . import chaos, cipher, lz78

    return (
        chaos.kernel_matches_reference(kernel, chaos_bytes)
        and cipher.kernel_matches_reference(kernel)
        and lz78.kernel_matches_reference(kernel)
    )


_UNLOADED = object()
# The kernel in use, loaded and checked on first use: a `Kernel`, or None to
# run the Python code.  Tests set it to None to force that code.
_kernel = _UNLOADED


def kernel() -> Kernel | None:
    """The checked kernel, loading it on first call; None when the Python
    code runs."""
    global _kernel
    if _kernel is _UNLOADED:
        built = load()
        _kernel = built if built is not None and kernel_matches_reference(built) else None
    return _kernel


def kernel_path() -> str:
    """Which code runs the per-byte loops, and on which AES, for reports
    beside timings."""
    checked = kernel()
    return "python" if checked is None else f"compiled (_kernel.c, {checked.aes})"
