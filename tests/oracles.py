"""Independent reference implementations used to derive frozen expected values.

Everything here is written from first principles, separately from the library:
the AES oracle builds its S-box from GF(2^8) inversion instead of a hardcoded
table, the logistic-map oracle evaluates the truncating recurrence with plain
big-integer division, and the LZ78 oracle uses the classic string-dictionary
formulation.  Tests compare library output against these, or against constants
frozen from a one-time oracle run.
"""

FIXED_ONE = 1 << 63  # Q0.63 fixed-point scale


# ----------------------------------------------------------------------
# Logistic map (truncating fixed-point recurrence)

def logistic_step(m):
    inner = (m * (FIXED_ONE - m)) // FIXED_ONE
    return (39999 * inner) // 10000


def scramble64(z):
    mask = 2**64 - 1
    z = z & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def logistic_seed(prefix9, tag):
    assert len(prefix9) == 9
    u = int.from_bytes(prefix9, "big") ^ int.from_bytes(bytes([tag]) * 8, "big")
    m = scramble64((u % 2**64) ^ (u >> 64)) % (FIXED_ONE - 2) + 1
    restarted = False
    done = 0
    while done < 100:
        nxt = logistic_step(m)
        if nxt == m and not restarted:
            m = (m + (1 << 39)) % FIXED_ONE
            restarted = True
            done = 0
            continue
        m = nxt
        done += 1
    return m


def logistic_byte(m):
    for _ in range(4):
        m = logistic_step(m)
    return ((m >> 8) ^ (m >> 16) ^ (m >> 24) ^ (m >> 32)) & 0xFF, m


def logistic_stream(m, n):
    out = bytearray()
    for _ in range(n):
        b, m = logistic_byte(m)
        out.append(b)
    return bytes(out), m


# ----------------------------------------------------------------------
# Key-generation matrix

def matrix_cell(p, r, c):
    return (7 * p + 13 * r + 31 * c) % 60


def code_for_byte(b):
    p, r, c = b >> 6, (b >> 3) & 7, b & 7
    return (matrix_cell(p, r, c), matrix_cell(p, c, r % 8), matrix_cell((p + 1) % 4, r, c))


def key1_of(master):
    return bytes(x for b in master for x in code_for_byte(b))


# ----------------------------------------------------------------------
# Key schedule chain

def rotl8(b, k):
    return ((b << k) | (b >> (8 - k))) & 0xFF


def rotr8(b, k):
    return ((b >> k) | (b << (8 - k))) & 0xFF


def lfsr_outputs(seed, n):
    s = seed
    out = []
    for _ in range(n):
        for _ in range(8):
            fb = ((s >> 7) ^ (s >> 5) ^ (s >> 4) ^ (s >> 3)) & 1
            s = ((s << 1) & 0xFF) | fb
        out.append(s)
    return out


def fold_prefix(key1):
    p = bytearray(9)
    for i, b in enumerate(key1):
        p[i % 9] ^= b
    return bytes(p)


def key_material(master):
    k1 = key1_of(master)
    m = logistic_seed(fold_prefix(k1), 0x01)
    k2 = bytearray()
    for b in k1:
        byte = 0
        for _ in range(4):
            byte, m = logistic_byte(m)
        k2.append(byte ^ b)
    lfsr = lfsr_outputs(0x5C, len(k1))
    k3 = bytes(rotr8(rotl8(b, 1) ^ lfsr[j], 1) for j, b in enumerate(k2))
    fk = bytes(a ^ b ^ c for a, b, c in zip(k1, bytes(k2), k3))
    return k1, bytes(k2), k3, fk


def keystream(master, n):
    k1, _, _, fk = key_material(master)
    m = logistic_seed(fold_prefix(k1), 0x5A)
    raw, _ = logistic_stream(m, n)
    return bytes(raw[t] ^ fk[t % len(fk)] for t in range(n))


def round_keys(master):
    k1 = key1_of(master)
    m = logistic_seed(fold_prefix(k1), 0xA5)
    raw, _ = logistic_stream(m, 176)
    return [raw[i * 16:(i + 1) * 16] for i in range(11)]


def baseline_stream(key1, n):
    s = 0
    out = bytearray()
    for t in range(n):
        c0, c1, c2 = code_for_byte(key1[t % len(key1)] ^ s)
        s = c0 ^ rotl8(c1, 3) ^ rotr8(c2, 2)
        out.append(s)
    return bytes(out)


# ----------------------------------------------------------------------
# AES-128 built from first principles (S-box from GF(2^8) inversion)

def gf_mul(a, b):
    p = 0
    for _ in range(8):
        if b & 1:
            p ^= a
        hi = a & 0x80
        a = (a << 1) & 0xFF
        if hi:
            a ^= 0x1B
        b >>= 1
    return p


def gf_inv(a):
    if a == 0:
        return 0
    for x in range(1, 256):
        if gf_mul(a, x) == 1:
            return x
    raise AssertionError("GF(2^8) element without inverse")


def _sbox_entry(a):
    x = gf_inv(a)
    r = 0
    for i in range(8):
        bit = (
            (x >> i) ^ (x >> ((i + 4) % 8)) ^ (x >> ((i + 5) % 8))
            ^ (x >> ((i + 6) % 8)) ^ (x >> ((i + 7) % 8)) ^ (0x63 >> i)
        ) & 1
        r |= bit << i
    return r


ORACLE_SBOX = [_sbox_entry(a) for a in range(256)]


def expand_key(key):
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    rcon = 1
    for i in range(4, 44):
        t = list(words[i - 1])
        if i % 4 == 0:
            t = t[1:] + t[:1]
            t = [ORACLE_SBOX[b] for b in t]
            t[0] ^= rcon
            rcon = gf_mul(rcon, 2)
        words.append([a ^ b for a, b in zip(words[i - 4], t)])
    flat = [b for w in words for b in w]
    return [bytes(flat[16 * i:16 * (i + 1)]) for i in range(11)]


def _to_state(block):
    return [[block[r + 4 * c] for c in range(4)] for r in range(4)]


def _from_state(st):
    return bytes(st[i % 4][i // 4] for i in range(16))


def aes_encrypt(block, rkeys):
    st = _to_state(block)

    def addk(k):
        for r in range(4):
            for c in range(4):
                st[r][c] ^= k[r + 4 * c]

    addk(rkeys[0])
    for rnd in range(1, 11):
        for r in range(4):
            for c in range(4):
                st[r][c] = ORACLE_SBOX[st[r][c]]
        for r in range(4):
            st[r] = st[r][r:] + st[r][:r]
        if rnd < 10:
            for c in range(4):
                col = [st[r][c] for r in range(4)]
                st[0][c] = gf_mul(2, col[0]) ^ gf_mul(3, col[1]) ^ col[2] ^ col[3]
                st[1][c] = col[0] ^ gf_mul(2, col[1]) ^ gf_mul(3, col[2]) ^ col[3]
                st[2][c] = col[0] ^ col[1] ^ gf_mul(2, col[2]) ^ gf_mul(3, col[3])
                st[3][c] = gf_mul(3, col[0]) ^ col[1] ^ col[2] ^ gf_mul(2, col[3])
        addk(rkeys[rnd])
    return _from_state(st)


def ctr_keystream(nonce, nblocks, rkeys, first=0):
    out = bytearray()
    for i in range(first, first + nblocks):
        out.extend(aes_encrypt(nonce + ((i & 0xFFFFFFFF).to_bytes(4, "big")), rkeys))
    return bytes(out)


# ----------------------------------------------------------------------
# LZ78 (classic string-dictionary formulation)

def lz78_compress(data):
    dictionary = {b"": 0}
    w = b""
    out = []
    for i in range(len(data)):
        c = data[i:i + 1]
        wc = w + c
        if wc in dictionary:
            w = wc
        else:
            out.append((dictionary[w], c[0]))
            dictionary[wc] = len(dictionary)
            w = b""
    if w:
        out.append((dictionary[w], None))
    return out


def lz78_decompress(tokens):
    entries = [b""]
    out = bytearray()
    for idx, sym in tokens:
        s = entries[idx] + (bytes([sym]) if sym is not None else b"")
        out.extend(s)
        entries.append(s)
    return bytes(out)


def lz78_encode(tokens):
    out = bytearray()
    for idx, sym in tokens:
        v = idx
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
        if sym is None:
            out.append(0x00)
        else:
            out.append(0x01)
            out.append(sym)
    return bytes(out)


# ----------------------------------------------------------------------
# Full message pipeline

def encrypt_message(master, nonce, plaintext, compress):
    data = lz78_encode(lz78_compress(plaintext)) if compress else plaintext
    ks = keystream(master, len(data))
    whitened = bytes(a ^ b for a, b in zip(data, ks))
    rkeys = round_keys(master)
    nblocks = (len(whitened) + 15) // 16
    stream = ctr_keystream(nonce, nblocks, rkeys)
    payload = bytes(a ^ b for a, b in zip(whitened, stream))
    flags = 0x01 if compress else 0x00
    header = b"CLAES" + bytes([0x01, flags]) + nonce + len(plaintext).to_bytes(8, "big")
    return header + payload


# ----------------------------------------------------------------------
# Ordinary least squares (normal equations, written out)

def ols_fit(xs, ys):
    n = len(xs)
    sx = sum(xs)
    sy = sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    mean_y = sy / n
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    return slope, intercept, 1.0 - ss_res / ss_tot
