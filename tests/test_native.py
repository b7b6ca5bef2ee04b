"""The compiled kernel's loader: builds that compute something else are
refused, nothing needs numpy, and a process with no compiler gives the same
bytes."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import claes
from claes import _native, chaos, cipher, lz78, vectors
from claes.cipher import Envelope, decrypt_message, encrypt_message

SRC = str(Path(claes.__file__).resolve().parent.parent)


def _envelopes_hold():
    master = bytes.fromhex(vectors.ENVELOPE_MASTER)
    nonce = bytes.fromhex(vectors.ENVELOPE_NONCE)
    plaintext = bytes.fromhex(vectors.ENVELOPE_PLAINTEXT)
    for compress, expected in ((False, vectors.ENVELOPE_PLAIN), (True, vectors.ENVELOPE_COMPRESSED)):
        blob = encrypt_message(master, nonce, plaintext, compress).encode()
        assert blob.hex() == expected
        assert decrypt_message(Envelope.decode(blob), master) == plaintext


# (text in _kernel.c, its replacement, the family check that must fail)
_WRONG_SOURCES = {
    # each errs by one ulp at one residue of q mod 10000 only; see
    # test_chaos.test_kernel_check_states_meet_the_rounding_edge
    "step-rounding-9998": ("(q + 9999)", "(q + 9998)", chaos),
    "step-rounding-10000": ("(q + 9999)", "(q + 10000)", chaos),
    # the bytes drawn from the state before burn-in (seeding alone and
    # drawing alone are still right), and no restart at a fixed point
    "chaos-take-unburned": ("while (done < steps) {", "while (done < steps && !n) {", chaos),
    "chaos-no-restart": ("if (successor == m && !restarted) {", "if (successor == m && restarted) {", chaos),
    "chaos-restart-nudge": ("<< 39", "<< 38", chaos),
    "t-table-index": (
        "mixed_column(tables, s2, s3, s0, s1)",
        "mixed_column(tables, s2, s3, s1, s0)",
        cipher,
    ),
    "ctr-xor-operand": (
        "out[at + j] = a[at + j] ^ b[at + j] ^ block[j];",
        "out[at + j] = a[at + j] ^ b[j] ^ block[j];",
        cipher,
    ),
    # the AES-NI loop (skipped where the CPU has none): the eighth lane's
    # counter one too high, which the 48-byte vectors never reach, and the
    # last round under the ninth round's key
    "aes-ni-lane-counter": ("__builtin_bswap32(ctr + l)", "__builtin_bswap32(ctr + l + (l == 7))", cipher),
    "aes-ni-last-round-key": ("k[10])", "k[9])", cipher),
    "pack-varint-shift": ("v >>= 7;", "v >>= 6;", lz78),
    # the edges reinserted under the old mask when the table grows
    "pack-grow-rehash": (
        "grown[slot_of(grown, wider, table[j].key)]",
        "grown[slot_of(grown, mask, table[j].key)]",
        lz78,
    ),
    # a piece that exactly fills the output buffer left out of it
    "unpack-capacity": ("if (piece > room) {", "if (piece >= room) {", lz78),
    "unpack-varint-shift": ("shift += 7;", "shift += 6;", lz78),
    # a tenth varint byte read, or a ninth refused
    "unpack-varint-too-long": ("shift >= 63)", "shift >= 70)", lz78),
    "unpack-varint-too-short": ("shift >= 63)", "shift >= 56)", lz78),
    "unpack-limit": ("if (piece > limit - total)", "if (piece > limit - total + 1)", lz78),
    # an error reported as the output size reached before it
    "unpack-failure-return": (
        "    free(start);\n    return SIZE_MAX;\n}",
        "    free(start);\n    return total;\n}",
        lz78,
    ),
    # the stop that names the error: one token late, or at the byte after
    # the token's varint
    "unpack-stop-token": ("stop[0] = entries - 1;", "stop[0] = entries;", lz78),
    "unpack-stop-start": ("} while (b & 0x80);\n", "} while (b & 0x80);\n        at = pos;\n", lz78),
}


@pytest.mark.parametrize("mutation", sorted(_WRONG_SOURCES))
def test_a_kernel_built_from_a_wrong_source_is_refused(tmp_path, monkeypatch, mutation):
    old, new, family = _WRONG_SOURCES[mutation]
    source = _native._SOURCE.read_text()
    assert source.count(old) == 1
    wrong = tmp_path / "_kernel.c"
    wrong.write_text(source.replace(old, new))
    monkeypatch.setattr(_native, "_SOURCE", wrong)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    built = _native.load()
    if built is None:
        pytest.skip("no C compiler could build the kernel here")
    if mutation.startswith("aes-ni-") and "AES-NI" not in built.ctr_loops:
        pytest.skip("this CPU has no AES-NI")
    for other in {chaos, cipher, lz78} - {family}:
        assert other.kernel_matches_reference(built)
    assert not family.kernel_matches_reference(built)
    monkeypatch.setattr(_native, "_kernel", _native._UNLOADED)
    assert _native.kernel() is None
    _envelopes_hold()


def test_a_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch):
    # the XDG Base Directory spec says a relative path is to be ignored
    monkeypatch.setenv("XDG_CACHE_HOME", "rel")
    monkeypatch.setenv("HOME", str(tmp_path))
    path = _native.library_path(b"source")
    assert path is not None and path.parent == tmp_path / ".cache" / "claes"


def test_the_kernel_path_names_the_aes_that_runs(kernel, monkeypatch):
    # the T-table loop is bound on every CPU, and last, so it serves only
    # where the CPU has no AES instructions
    assert list(kernel.ctr_loops)[-1] == "T-tables"
    assert kernel.ctr_xor is kernel.ctr_loops[kernel.aes] is next(iter(kernel.ctr_loops.values()))
    monkeypatch.setattr(_native, "_kernel", kernel)
    assert _native.kernel_path() == f"compiled (_kernel.c, {kernel.aes})"


def test_the_kernel_path_makes_no_ctypes_buffer_type(kernel, monkeypatch):
    # create_string_buffer makes a new ctypes array type for each length
    # not in use; every output is a bytearray instead
    master = bytes(range(16))
    nonce = bytes(range(12))
    messages = [((b"reading %d;" % n) * n)[:n] for n in (0, 1, 17, 300, 5000)]
    monkeypatch.setattr(_native, "_kernel", None)
    expected = [encrypt_message(master, nonce, m, c).encode() for m in messages for c in (False, True)]
    cipher.clear_key_cache()
    monkeypatch.setattr(_native, "_kernel", kernel)

    def refuse(*args, **kwargs):
        raise AssertionError("ctypes.create_string_buffer called")

    monkeypatch.setattr(ctypes, "create_string_buffer", refuse)
    sealed = [encrypt_message(master, nonce, m, c).encode() for m in messages for c in (False, True)]
    assert sealed == expected
    opened = [decrypt_message(Envelope.decode(blob), master) for blob in sealed]
    assert opened == [m for m in messages for _ in (False, True)]


def _run(script, **env):
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


# numpy made unimportable: every path runs on the standard library alone
_WITHOUT_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "import test_native\n"
    "from claes import _native, selftest\n"
    "test_native._envelopes_hold()\n"
    "results = selftest.run()\n"
    "assert all(reason is None for _, reason in results), results\n"
    "print(_native.kernel_path().split()[0])\n"
)


def test_everything_runs_without_numpy(kernel, kernel_cache, tmp_path):
    tests = str(Path(__file__).parent)
    env = {"PYTHONPATH": os.pathsep.join((SRC, tests))}
    assert _run(_WITHOUT_NUMPY, XDG_CACHE_HOME=str(kernel_cache), **env) == ["compiled"]
    empty = tmp_path / "bin"
    empty.mkdir()
    out = _run(_WITHOUT_NUMPY, PATH=str(empty), XDG_CACHE_HOME=str(tmp_path / "cache"), **env)
    assert out == ["python"]


def test_pinned_bytes_hold_in_a_process_without_a_compiler(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    script = (
        "import test_native\n"
        "from claes import _native\n"
        "assert _native.kernel() is None\n"
        "test_native._envelopes_hold()\n"
        "print(_native.kernel_path())\n"
    )
    out = _run(
        script,
        PATH=str(empty),
        XDG_CACHE_HOME=str(tmp_path / "cache"),
        PYTHONPATH=os.pathsep.join((SRC, str(Path(__file__).parent))),
    )
    assert out == ["python"]
