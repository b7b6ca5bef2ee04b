"""Byte-to-symbol-code lookup cube used to derive the first key.

Every byte value owns one cell of a 4x8x8 cube whose entries index a
60-glyph alphabet (Latin capitals, decimal digits, Greek minuscules).
Encoding a byte reads three cells at rotated coordinates, so the code
depends on all three axes.  Bytes declared absent encode as "000": three
zero-digit glyphs, i.e. alphabet index 26 three times.  A matrix keeps its
codes as three 256-byte tables, so the first key of a master key is three
`bytes.translate` calls; `encode_byte` is the reference they are tested
against.
"""

from __future__ import annotations

from .errors import EmptyKey, MatrixConfigError

LATIN = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
DIGITS = "0123456789"
GREEK = "αβγδεζηθικλμνξοπρστυφχψω"

ALPHABET = tuple(LATIN + DIGITS + GREEK)  # 60 glyphs; a glyph's identity is its index
ZERO_DIGIT_INDEX = 26                     # ALPHABET[26] == "0"
MISSING_CODE = (ZERO_DIGIT_INDEX,) * 3    # the "000" sentinel for absent bytes

SymbolCode = tuple[int, int, int]


def code_glyphs(code: SymbolCode) -> str:
    """Render a code as its three glyphs, e.g. (0, 26, 36) -> 'A0α'."""
    return "".join(ALPHABET[i] for i in code)


def byte_coords(b: int) -> tuple[int, int, int]:
    """Bijection byte -> (plane, row, column) in the 4x8x8 cube."""
    return b >> 6, (b >> 3) & 7, b & 7


class Matrix3D:
    """Immutable 4x8x8 cube of alphabet indices plus per-byte presence flags.

    ``tables`` holds the three 256-byte code tables: byte b encodes as
    ``(tables[0][b], tables[1][b], tables[2][b])``, as `encode_byte` gives.
    """

    __slots__ = ("cells", "presence", "tables")

    def __init__(self, cells, presence=None):
        cells = tuple(tuple(tuple(row) for row in plane) for plane in cells)
        if len(cells) != 4 or any(len(p) != 8 for p in cells) or any(
            len(r) != 8 for p in cells for r in p
        ):
            raise ValueError("cells must be a 4x8x8 array")
        for plane in cells:
            for row in plane:
                for value in row:
                    if not 0 <= value < len(ALPHABET):
                        raise ValueError(f"cell index {value} outside alphabet")
        if presence is None:
            presence = (True,) * 256
        else:
            presence = tuple(bool(x) for x in presence)
            if len(presence) != 256:
                raise ValueError("presence must cover all 256 byte values")
        self.cells = cells
        self.presence = presence
        # byte b is cell b of the flattened cube, so its first code symbol
        # is flat[b]; the second reads the plane transposed (row r of the
        # transpose is flat[64p + r::8]), the third the next plane
        flat = bytes(v for plane in cells for row in plane for v in row)
        tables = (
            bytearray(flat),
            bytearray(b"".join(flat[p + r:p + 64:8] for p in range(0, 256, 64) for r in range(8))),
            bytearray(flat[64:] + flat[:64]),
        )
        for b, present in enumerate(presence):
            if not present:
                for t in tables:
                    t[b] = ZERO_DIGIT_INDEX
        self.tables = tuple(bytes(t) for t in tables)

    def __repr__(self) -> str:
        absent = 256 - sum(self.presence)
        return f"Matrix3D(absent_bytes={absent})"


def _default_cells() -> list[list[list[int]]]:
    """The canonical deterministic fill: cell(p, r, c) = (7p + 13r + 31c) mod 60."""
    return [[[(7 * p + 13 * r + 31 * c) % 60 for c in range(8)] for r in range(8)] for p in range(4)]


def default_matrix() -> Matrix3D:
    """The canonical fill with every byte present."""
    return Matrix3D(_default_cells())


def encode_byte(m: Matrix3D, b: int) -> SymbolCode:
    """Three-symbol code for one byte; the "000" sentinel if the byte is absent."""
    if not m.presence[b]:
        return MISSING_CODE
    p, r, c = b >> 6, (b >> 3) & 7, b & 7
    return (m.cells[p][r][c], m.cells[p][c][r], m.cells[(p + 1) & 3][r][c])


def derive_key1(m: Matrix3D, master_key: bytes) -> bytes:
    """First key: the concatenated 3-byte codes of every master-key byte,
    symbol k of each code from code table k."""
    if not master_key:
        raise EmptyKey("master key must not be empty")
    master_key = bytes(master_key)
    out = bytearray(3 * len(master_key))
    for k, table in enumerate(m.tables):
        out[k::3] = master_key.translate(table)
    return bytes(out)


def parse_matrix_config(text: str) -> Matrix3D:
    """Build a matrix from config text.

    One directive per line: ``p r c index`` overrides a cell, ``absent XX``
    (hex byte) marks a byte missing.  Blank lines and ``#`` comments are
    ignored.  Cells not mentioned keep the canonical default fill.  Indices
    outside the alphabet and duplicate coordinates are rejected.
    """
    cells = _default_cells()
    presence = [True] * 256
    seen_cells: set[tuple[int, int, int]] = set()
    seen_absent: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "absent":
            if len(fields) != 2:
                raise MatrixConfigError(f"line {lineno}: expected 'absent XX'")
            try:
                b = int(fields[1], 16)
            except ValueError:
                raise MatrixConfigError(f"line {lineno}: bad hex byte {fields[1]!r}") from None
            if not 0 <= b <= 0xFF:
                raise MatrixConfigError(f"line {lineno}: byte {fields[1]!r} out of range")
            if b in seen_absent:
                raise MatrixConfigError(f"line {lineno}: duplicate absent byte {b:#04x}")
            seen_absent.add(b)
            presence[b] = False
            continue
        if len(fields) != 4:
            raise MatrixConfigError(f"line {lineno}: expected 'p r c index' or 'absent XX'")
        try:
            p, r, c, index = (int(f) for f in fields)
        except ValueError:
            raise MatrixConfigError(f"line {lineno}: non-integer field") from None
        if not (0 <= p < 4 and 0 <= r < 8 and 0 <= c < 8):
            raise MatrixConfigError(f"line {lineno}: coordinates ({p},{r},{c}) out of range")
        if not 0 <= index < len(ALPHABET):
            raise MatrixConfigError(f"line {lineno}: index {index} outside alphabet (0..59)")
        if (p, r, c) in seen_cells:
            raise MatrixConfigError(f"line {lineno}: duplicate cell ({p},{r},{c})")
        seen_cells.add((p, r, c))
        cells[p][r][c] = index

    return Matrix3D(cells, presence)


def load_matrix(path) -> Matrix3D:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse_matrix_config(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise MatrixConfigError(f"byte {exc.start}: the matrix file is not UTF-8 text") from None
