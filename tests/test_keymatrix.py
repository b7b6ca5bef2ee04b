import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claes.errors import EmptyKey, MatrixConfigError
from claes.keymatrix import (
    ALPHABET,
    MISSING_CODE,
    Matrix3D,
    byte_coords,
    code_glyphs,
    default_matrix,
    derive_key1,
    encode_byte,
    load_matrix,
    parse_matrix_config,
)


def test_alphabet_layout():
    assert len(ALPHABET) == 60
    assert ALPHABET[0] == "A" and ALPHABET[25] == "Z"
    assert ALPHABET[26] == "0" and ALPHABET[35] == "9"
    assert ALPHABET[36] == "α" and ALPHABET[59] == "ω"
    assert len(set(ALPHABET)) == 60  # index -> glyph is a bijection


def test_byte_coords_bijection():
    assert byte_coords(0) == (0, 0, 0)
    assert byte_coords(0xFF) == (3, 7, 7)
    assert len({byte_coords(b) for b in range(256)}) == 256


def test_default_fill():
    m = default_matrix()
    assert m.cells[0][0][0] == 0  # glyph 'A'
    assert m.cells[3][7][7] == (21 + 91 + 217) % 60 == 29  # glyph '3'
    assert ALPHABET[29] == "3"
    assert all(0 <= m.cells[p][r][c] < 60 for p in range(4) for r in range(8) for c in range(8))
    assert all(m.presence)


def test_encode_byte_zero():
    assert encode_byte(default_matrix(), 0x00) == (0, 0, 7)


def test_encode_byte_deterministic():
    m = default_matrix()
    for b in (0, 17, 128, 255):
        assert encode_byte(m, b) == encode_byte(m, b)


def test_encode_absent_byte_yields_sentinel():
    m = parse_matrix_config("absent 2a")
    assert encode_byte(m, 0x2A) == MISSING_CODE == (26, 26, 26)
    assert code_glyphs(encode_byte(m, 0x2A)) == "000"
    # other bytes unaffected
    assert encode_byte(m, 0x2B) == encode_byte(default_matrix(), 0x2B)


def test_derive_key1_lengths_and_range():
    m = default_matrix()
    rng = random.Random(5)
    for n in (1, 2, 16, 33):
        master = rng.randbytes(n)
        key1 = derive_key1(m, master)
        assert len(key1) == 3 * n
        assert max(key1) <= 59


def test_derive_key1_known_bytes():
    assert derive_key1(default_matrix(), bytes([0x00, 0x01])) == bytes.fromhex("0000071f0d26")


def test_derive_key1_empty_master():
    with pytest.raises(EmptyKey):
        derive_key1(default_matrix(), b"")


def test_derive_key1_absent_byte_sentinel():
    m = parse_matrix_config("absent 00")
    assert derive_key1(m, b"\x00") == bytes([26, 26, 26])


def test_single_byte_change_is_local():
    m = default_matrix()
    rng = random.Random(6)
    for _ in range(50):
        master = bytearray(rng.randbytes(12))
        j = rng.randrange(12)
        other = bytearray(master)
        other[j] = (other[j] + 1 + rng.randrange(255)) % 256
        a = derive_key1(m, bytes(master))
        b = derive_key1(m, bytes(other))
        for group in range(12):
            chunk_a = a[3 * group:3 * group + 3]
            chunk_b = b[3 * group:3 * group + 3]
            if group == j:
                assert chunk_a != chunk_b
            else:
                assert chunk_a == chunk_b


_CELLS = st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(0, 7))


@given(
    master=st.binary(min_size=1, max_size=64),
    overrides=st.dictionaries(_CELLS, st.integers(0, len(ALPHABET) - 1), max_size=24),
    absent=st.sets(st.integers(0, 255), max_size=24),
)
@example(master=bytes(range(256)), overrides={}, absent=set())
@example(master=b"\x00\xff", overrides={(0, 0, 0): 59, (3, 7, 7): 0}, absent={0x00, 0x80, 0xFF})
@settings(max_examples=100, deadline=None)
def test_code_tables_match_encode_byte(master, overrides, absent):
    text = "\n".join(
        [f"{p} {r} {c} {index}" for (p, r, c), index in overrides.items()]
        + [f"absent {b:02x}" for b in absent]
    )
    # the master key also holds every absent byte
    master += bytes(sorted(absent))
    for m in (default_matrix(), parse_matrix_config(text)):
        assert all(tuple(t[b] for t in m.tables) == encode_byte(m, b) for b in range(256))
        assert derive_key1(m, master) == bytes(s for b in master for s in encode_byte(m, b))


# pairs of byte values that share a code under the default cube: each pair
# is one master-key byte to an attacker
DEFAULT_COLLISIONS = [
    (0x06, 0xA0), (0x07, 0xA1), (0x0E, 0xA8), (0x0F, 0xA9),
    (0x16, 0xB0), (0x17, 0xB1), (0x1E, 0xB8), (0x1F, 0xB9),
    (0x30, 0x84), (0x31, 0x85), (0x32, 0x86), (0x33, 0x87),
    (0x38, 0x8C), (0x39, 0x8D), (0x3A, 0x8E), (0x3B, 0x8F),
]


def test_default_cube_gives_240_codes_and_16_colliding_pairs():
    codes = list(zip(*default_matrix().tables))
    assert len(set(codes)) == 240
    pairs = [(a, b) for a in range(256) for b in range(a + 1, 256) if codes[a] == codes[b]]
    assert pairs == DEFAULT_COLLISIONS


def test_config_override_and_comments():
    m = parse_matrix_config(
        """
        # override one cell, drop one byte
        0 0 0 59
        absent ff
        """
    )
    assert m.cells[0][0][0] == 59
    assert encode_byte(m, 0xFF) == MISSING_CODE
    assert m.cells[1][2][3] == default_matrix().cells[1][2][3]


def test_config_rejects_out_of_range_index():
    with pytest.raises(MatrixConfigError):
        parse_matrix_config("0 0 0 60")


def test_config_rejects_duplicate_cell():
    with pytest.raises(MatrixConfigError):
        parse_matrix_config("0 0 0 1\n0 0 0 2")


def test_config_rejects_bad_syntax():
    with pytest.raises(MatrixConfigError):
        parse_matrix_config("0 0 0")
    with pytest.raises(MatrixConfigError):
        parse_matrix_config("absent zz")
    with pytest.raises(MatrixConfigError):
        parse_matrix_config("5 0 0 1")
    with pytest.raises(MatrixConfigError):
        parse_matrix_config("absent ff\nabsent ff")


def test_load_matrix_from_file(tmp_path):
    path = tmp_path / "matrix.cfg"
    path.write_text("absent 0a\n1 2 3 4\n", encoding="utf-8")
    m = load_matrix(path)
    assert not m.presence[0x0A]
    assert m.cells[1][2][3] == 4


def test_matrix_validates_shape_and_values():
    with pytest.raises(ValueError):
        Matrix3D([[[0] * 8] * 8] * 3)
    bad = [[[0] * 8 for _ in range(8)] for _ in range(4)]
    bad[0][0][0] = 60
    with pytest.raises(ValueError):
        Matrix3D(bad)
    with pytest.raises(ValueError):
        Matrix3D([[[0] * 8 for _ in range(8)] for _ in range(4)], presence=[True] * 255)
