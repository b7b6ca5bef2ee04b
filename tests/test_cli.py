import os

import pytest

from claes import _native, cli, lz78
from claes.cipher import Envelope, encrypt_message
from claes.cli import EXIT_DATA, EXIT_OK, EXIT_SELFTEST, EXIT_USAGE, main
from claes.keyschedule import derive_key_material

KEY_HEX = "00112233445566778899aabbccddeeff"
NONCE_HEX = "0102030405060708090a0b0c"


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "COMMAND" in capsys.readouterr().out


def test_bad_hex_key_is_usage_error(capsys):
    assert main(["keygen", "--key", "zz"]) == EXIT_USAGE


def test_conflicting_key_sources_usage_error(tmp_path):
    keyfile = tmp_path / "k"
    keyfile.write_bytes(b"\x01\x02")
    assert main(["keygen", "--key", "00", "--key-file", str(keyfile)]) == EXIT_USAGE


def test_keygen_matches_library(capsys):
    assert main(["keygen", "--key", KEY_HEX]) == EXIT_OK
    out = capsys.readouterr().out
    km = derive_key_material(bytes.fromhex(KEY_HEX))
    assert f"key1      = {km.key1.hex()}" in out
    assert f"key2      = {km.key2.hex()}" in out
    assert f"key3      = {km.key3.hex()}" in out
    assert f"final_key = {km.final_key.hex()}" in out


def test_keygen_reads_key_file(tmp_path, capsys):
    keyfile = tmp_path / "master.bin"
    keyfile.write_bytes(bytes.fromhex(KEY_HEX))
    assert main(["keygen", "--key-file", str(keyfile)]) == EXIT_OK
    out = capsys.readouterr().out
    assert derive_key_material(bytes.fromhex(KEY_HEX)).key1.hex() in out


def test_encrypt_decrypt_roundtrip(tmp_path):
    src = tmp_path / "plain.bin"
    enc = tmp_path / "cipher.claes"
    dst = tmp_path / "plain.out"
    payload = os.urandom(5000)
    src.write_bytes(payload)
    assert main(["encrypt", str(src), str(enc), "--key", KEY_HEX, "--nonce", NONCE_HEX]) == EXIT_OK
    assert main(["decrypt", str(enc), str(dst), "--key", KEY_HEX]) == EXIT_OK
    assert dst.read_bytes() == payload


def test_encrypt_with_fixed_nonce_matches_library(tmp_path):
    src = tmp_path / "in"
    out = tmp_path / "out"
    src.write_bytes(b"deterministic fixture")
    assert main(["encrypt", str(src), str(out), "--key", KEY_HEX, "--nonce", NONCE_HEX]) == EXIT_OK
    expected = encrypt_message(
        bytes.fromhex(KEY_HEX), bytes.fromhex(NONCE_HEX), b"deterministic fixture", compress=True
    ).encode()
    assert out.read_bytes() == expected


def test_encrypt_generates_and_prints_nonce(tmp_path, capsys):
    src = tmp_path / "in"
    out = tmp_path / "out"
    src.write_bytes(b"x")
    assert main(["encrypt", str(src), str(out), "--key", KEY_HEX]) == EXIT_OK
    err = capsys.readouterr().err
    assert "nonce:" in err
    nonce = bytes.fromhex(err.split("nonce:")[1].strip())
    assert Envelope.decode(out.read_bytes()).nonce == nonce


def test_no_compress_flag(tmp_path):
    src = tmp_path / "in"
    out = tmp_path / "out"
    src.write_bytes(b"A" * 100)
    assert main(
        ["encrypt", str(src), str(out), "--key", KEY_HEX, "--nonce", NONCE_HEX, "--no-compress"]
    ) == EXIT_OK
    env = Envelope.decode(out.read_bytes())
    assert env.flags == 0
    assert len(env.payload) == 100


def test_decrypt_corrupted_magic(tmp_path, capsys):
    src = tmp_path / "in"
    enc = tmp_path / "enc"
    dst = tmp_path / "dst"
    src.write_bytes(b"payload")
    assert main(["encrypt", str(src), str(enc), "--key", KEY_HEX, "--nonce", NONCE_HEX]) == EXIT_OK
    blob = bytearray(enc.read_bytes())
    blob[0] = ord("X")
    enc.write_bytes(bytes(blob))
    assert main(["decrypt", str(enc), str(dst), "--key", KEY_HEX]) == EXIT_DATA
    assert "BadMagic" in capsys.readouterr().err


def test_decrypt_cap_applies_and_the_flag_raises_it(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"abc" * 1000)
    enc, dst = tmp_path / "in.claes", tmp_path / "out.txt"
    assert main(["encrypt", str(src), str(enc), "--key", KEY_HEX, "--nonce", NONCE_HEX]) == EXIT_OK
    decrypt = ["decrypt", str(enc), str(dst), "--key", KEY_HEX]
    assert main(decrypt + ["--max-output", "2999"]) == EXIT_DATA
    assert "OutputLimitExceeded" in capsys.readouterr().err
    assert not dst.exists()
    assert main(decrypt + ["--max-output", "3000"]) == EXIT_OK
    assert dst.read_bytes() == b"abc" * 1000


def test_decrypt_missing_file_is_data_error(tmp_path, capsys):
    assert main(["decrypt", str(tmp_path / "nope"), str(tmp_path / "o"), "--key", KEY_HEX]) == EXIT_DATA


def test_compress_decompress_roundtrip(tmp_path):
    src = tmp_path / "raw"
    packed = tmp_path / "packed"
    restored = tmp_path / "restored"
    data = b"abcabcabc" * 200 + os.urandom(256)
    src.write_bytes(data)
    assert main(["compress", str(src), str(packed)]) == EXIT_OK
    assert packed.read_bytes() == lz78.encode_tokens(lz78.compress(data))
    assert main(["decompress", str(packed), str(restored)]) == EXIT_OK
    assert restored.read_bytes() == data


def test_decompress_rejects_corrupt_stream(tmp_path, capsys):
    packed = tmp_path / "packed"
    packed.write_bytes(b"\x05\x01A")  # references dictionary entry 5 of 0
    out = tmp_path / "out"
    assert main(["decompress", str(packed), str(out)]) == EXIT_DATA
    assert "BadIndex" in capsys.readouterr().err


def _chained_token_file(tmp_path):
    # token t extends entry t by one byte: 15.9 KB that decode to 8,002,000 bytes
    packed = tmp_path / "packed"
    packed.write_bytes(lz78.encode_tokens([lz78.Token(t, 65) for t in range(4000)]))
    return packed


def test_decompress_refuses_output_past_the_cap(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["decompress", str(_chained_token_file(tmp_path)), str(out)]
    assert main(args + ["--max-output", "1000"]) == EXIT_DATA
    assert "OutputLimitExceeded" in capsys.readouterr().err
    assert not out.exists()


def test_decompress_cap_applies_by_default_and_the_flag_raises_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "DEFAULT_MAX_OUTPUT", 8_001_999)
    packed = _chained_token_file(tmp_path)
    out = tmp_path / "out"
    assert main(["decompress", str(packed), str(out)]) == EXIT_DATA
    assert "OutputLimitExceeded" in capsys.readouterr().err
    assert not out.exists()
    assert main(["decompress", str(packed), str(out), "--max-output", "8002000"]) == EXIT_OK
    assert out.stat().st_size == 8_002_000


def test_decompress_rejects_a_negative_cap(tmp_path):
    args = ["decompress", str(_chained_token_file(tmp_path)), str(tmp_path / "out")]
    assert main(args + ["--max-output", "-1"]) == EXIT_USAGE


def test_bench_tiny_run_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code = main(
        ["bench", "--key", KEY_HEX, "--reps", "3", "--sizes", "2,4", "--csv", str(csv_path)]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("kernel: ")
    assert "| Method | Sensor |" in out
    assert "slope" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "method,sensor,size_kb,elapsed_ms,throughput"
    assert len(lines) == 1 + 2 * 4 * 2  # methods x sensors x sizes


def test_bench_refuses_an_empty_key(capsys):
    # an explicit empty key is the user's key, not a request for the default
    assert main(["bench", "--key", "", "--reps", "3", "--sizes", "2,4"]) == EXIT_DATA
    assert "EmptyKey" in capsys.readouterr().err


def test_bench_reps_below_three_usage_error():
    assert main(["bench", "--reps", "2", "--sizes", "2"]) == EXIT_USAGE


def test_bench_bad_sizes_usage_error():
    assert main(["bench", "--sizes", "2,zebra"]) == EXIT_USAGE


@pytest.mark.parametrize("sizes", ["2", "2,2"])
def test_bench_needs_two_distinct_sizes(sizes, capsys):
    # the least-squares fit of time against size needs two distinct sizes
    assert main(["bench", "--reps", "3", "--sizes", sizes]) == EXIT_USAGE
    assert "two or more distinct" in capsys.readouterr().err


def test_encrypt_with_custom_matrix(tmp_path):
    cfg = tmp_path / "matrix.cfg"
    # byte 0x00 appears in the master key, so the absent-byte rule changes key1
    cfg.write_text("absent 00\n", encoding="utf-8")
    src = tmp_path / "in"
    enc = tmp_path / "enc"
    dst = tmp_path / "dst"
    src.write_bytes(b"AAAA custom matrix")
    args = ["--key", KEY_HEX, "--nonce", NONCE_HEX, "--matrix", str(cfg)]
    assert main(["encrypt", str(src), str(enc)] + args) == EXIT_OK
    # wrong matrix (default) must not decrypt to the original
    assert main(["decrypt", str(enc), str(dst), "--key", KEY_HEX]) in (EXIT_OK, EXIT_DATA)
    if dst.exists():
        assert dst.read_bytes() != b"AAAA custom matrix"
    assert main(["decrypt", str(enc), str(dst), "--key", KEY_HEX, "--matrix", str(cfg)]) == EXIT_OK
    assert dst.read_bytes() == b"AAAA custom matrix"


def test_a_matrix_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    cfg = tmp_path / "matrix.bin"
    cfg.write_bytes(b"\x7fELF\x02\x01\x01" + bytes(range(256)))
    assert main(["keygen", "--key", "00", "--matrix", str(cfg)]) == EXIT_DATA
    assert "claes: error: MatrixConfigError" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok   aes-standard-vector" in out
    assert "ok   kernel: " in out
    assert "FAIL" not in out


def test_selftest_passes_on_the_python_loop(monkeypatch, capsys):
    monkeypatch.setattr(_native, "_kernel", None)
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok   kernel: python" in out
    assert "FAIL" not in out
