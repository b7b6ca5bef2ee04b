"""Build and load the compiled chaos kernel, ``_chaos.c``, through ctypes.

The kernel is compiled on first use with the system ``cc`` into the user's
cache directory (``$XDG_CACHE_HOME/claes``, else ``~/.cache/claes``), under
a file name that carries a CRC-32 of the source and the compiler flags, so
an edited source never loads an old build.  The library is written to a
temporary file and renamed into place, so a concurrent process sees either
no library or a whole one.  Later imports load the cached file.

`load` returns None when there is no compiler, the build fails, the cache
directory cannot be written or the library does not load; callers then run
the Python loops.  It does not check what the library computes: `chaos`
compares it with the Python reference before using it.
"""

from __future__ import annotations

import ctypes
import os
import zlib
from pathlib import Path

_SOURCE = Path(__file__).with_name("_chaos.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")


class Kernel:
    """ctypes bindings of the functions in ``_chaos.c``."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        self._take = lib.claes_chaos_take
        self._take.argtypes = (ctypes.c_uint64, ctypes.c_char_p, ctypes.c_size_t)
        self._take.restype = ctypes.c_uint64
        # burn_in(m, steps, perturbation) -> m
        self.burn_in = lib.claes_chaos_burn_in
        self.burn_in.argtypes = (ctypes.c_uint64, ctypes.c_uint, ctypes.c_uint64)
        self.burn_in.restype = ctypes.c_uint64

    def take(self, m: int, n: int) -> tuple[bytes, int]:
        """``n`` stream bytes from state ``m``, and the state after them."""
        buf = ctypes.create_string_buffer(n)
        m = self._take(m, buf, n)
        return buf.raw, m


def library_path(source: bytes) -> Path | None:
    """Where the build of ``source`` is cached; None when neither
    ``XDG_CACHE_HOME`` nor the home directory gives an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        return None
    tag = zlib.crc32(" ".join(_CFLAGS).encode(), zlib.crc32(source))
    return Path(base, "claes", f"chaos-{tag:08x}.so")


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
    """The compiled kernel, built first if no cached build exists; None on failure."""
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
