/* Compiled twins of the three per-byte loops of the pipeline: the Q0.63
 * logistic map's burn-in and byte draw, one function (chaos.py), AES-128
 * counter mode (cipher.py), on T-tables and, where an x86-64 CPU has them,
 * on the AES instructions, and the LZ78 codec with its token wire format
 * (lz78.py).
 *
 * Built on first use with the system C compiler and loaded through ctypes
 * (see _native.py).  Every function must give exactly the bytes of the
 * Python reference; the loader checks each of them on every load and runs
 * the Python code instead on any difference.
 *
 * One calling convention: each function writes into an output buffer the
 * caller owns and has sized (NULL when empty), a scalar constant is defined
 * here, not passed, and a function that can fail returns the output size or
 * SIZE_MAX.  LZ78 unpack, whose output size only the whole stream tells, is
 * also given the buffer's capacity: it writes while the output fits and
 * returns the size the output needs.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

/* --- logistic map ---------------------------------------------------------- */

#define ONE (UINT64_C(1) << 63)
#define PERTURBATION (UINT64_C(1) << 39) /* chaos._PERTURBATION */

/* m' = 39999q // 10000 with q = (m * (2**63 - m)) >> 63, truncating.
 * m < 2**63, so 2m fits in 64 bits and q is the high word of the 64 x 64-bit
 * product 2m * (2**63 - m) < 2**127: one multiply and no shift.  Then
 * floor(39999q / 10000) = 4q - ceil(q / 10000) exactly, and q <= 2**61, so
 * 4q fits in 64 bits: the high word is the only wide operation. */
static inline uint64_t step(uint64_t m)
{
    uint64_t q = (uint64_t)(((unsigned __int128)(2 * m) * (ONE - m)) >> 64);
    return 4 * q - (q + 9999) / 10000;
}

/* The one chaos entry point: `steps` steps of burn-in, restarted once from
 * m + PERTURBATION (mod 2**63) should the orbit reach a fixed point, then n
 * bytes at 4 steps each.  Returns the final state.  seed_from_key1 runs it
 * with n = 0 and ChaoticState.take with steps = 0. */
uint64_t claes_chaos(uint64_t m, unsigned steps, unsigned char *out, size_t n)
{
    int restarted = 0;
    unsigned done = 0;
    while (done < steps) {
        uint64_t successor = step(m);
        if (successor == m && !restarted) {
            m = (m + PERTURBATION) % ONE;
            restarted = 1;
            done = 0;
            continue;
        }
        m = successor;
        done++;
    }
    for (size_t t = 0; t < n; t++) {
        m = step(step(step(step(m))));
        out[t] = (unsigned char)((m >> 8) ^ (m >> 16) ^ (m >> 24) ^ (m >> 32));
    }
    return m;
}

/* --- AES-128 counter mode ---------------------------------------------------- */

static inline uint32_t le32(const unsigned char *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
}

static inline void put_le32(unsigned char *p, uint32_t w)
{
    p[0] = (unsigned char)w;
    p[1] = (unsigned char)(w >> 8);
    p[2] = (unsigned char)(w >> 16);
    p[3] = (unsigned char)(w >> 24);
}

/* One state column after SubBytes, ShiftRows and MixColumns: row r comes
 * from row r of the r-th word of (a, b, c, d), through T-table r. */
static inline uint32_t mixed_column(const unsigned char *tables, uint32_t a, uint32_t b, uint32_t c, uint32_t d)
{
    return le32(tables + 4 * (a & 0xFF))
         ^ le32(tables + 1024 + 4 * (b >> 8 & 0xFF))
         ^ le32(tables + 2048 + 4 * (c >> 16 & 0xFF))
         ^ le32(tables + 3072 + 4 * (d >> 24));
}

/* The same column after SubBytes and ShiftRows only (the last round). */
static inline uint32_t last_column(const unsigned char *sbox, uint32_t a, uint32_t b, uint32_t c, uint32_t d)
{
    return (uint32_t)sbox[a & 0xFF]
         | (uint32_t)sbox[b >> 8 & 0xFF] << 8
         | (uint32_t)sbox[c >> 16 & 0xFF] << 16
         | (uint32_t)sbox[d >> 24] << 24;
}

/* out[i] = a[i] ^ b[i] ^ AES-128 counter-mode stream byte i, for i < n: the
 * stream is AES-128(nonce || counter) for counters 0, 1, ... (32-bit
 * big-endian), with the 176 round-key bytes used verbatim.  Each counter
 * block is made and used inside the loop, so no stream buffer exists; on a
 * seal `a` is the data and `b` the whitening keystream.
 *
 * `tables` holds cipher._T_TABLES: the four 256-entry T-tables of Daemen &
 * Rijmen, "AES Proposal: Rijndael", section 5.2, as little-endian words.  A
 * state column c is bytes 4c..4c+3 read as one little-endian word, row r in
 * bits 8r, so ShiftRows takes row r of new column c from column c + r. */
void claes_ctr_xor(const unsigned char *nonce, const unsigned char *round_keys,
                   const unsigned char *tables, const unsigned char *sbox,
                   const unsigned char *a, const unsigned char *b, size_t n, unsigned char *out)
{
    uint32_t rk[44];
    for (int i = 0; i < 44; i++)
        rk[i] = le32(round_keys + 4 * i);
    uint32_t n0 = le32(nonce) ^ rk[0], n1 = le32(nonce + 4) ^ rk[1], n2 = le32(nonce + 8) ^ rk[2];

    for (size_t at = 0; at < n; at += 16) {
        uint32_t ctr = (uint32_t)(at / 16);
        /* the counter's bytes, most significant first, as a little-endian word */
        uint32_t s0 = n0, s1 = n1, s2 = n2,
                 s3 = ((ctr >> 24) | (ctr >> 8 & 0xFF00) | (ctr << 8 & 0xFF0000) | ctr << 24) ^ rk[3];
        for (int rnd = 1; rnd < 10; rnd++) {
            const uint32_t *k = rk + 4 * rnd;
            uint32_t w0 = mixed_column(tables, s0, s1, s2, s3) ^ k[0];
            uint32_t w1 = mixed_column(tables, s1, s2, s3, s0) ^ k[1];
            uint32_t w2 = mixed_column(tables, s2, s3, s0, s1) ^ k[2];
            uint32_t w3 = mixed_column(tables, s3, s0, s1, s2) ^ k[3];
            s0 = w0, s1 = w1, s2 = w2, s3 = w3;
        }
        unsigned char block[16];
        put_le32(block, last_column(sbox, s0, s1, s2, s3) ^ rk[40]);
        put_le32(block + 4, last_column(sbox, s1, s2, s3, s0) ^ rk[41]);
        put_le32(block + 8, last_column(sbox, s2, s3, s0, s1) ^ rk[42]);
        put_le32(block + 12, last_column(sbox, s3, s0, s1, s2) ^ rk[43]);
        size_t len = n - at < 16 ? n - at : 16;
        for (size_t j = 0; j < len; j++)
            out[at + j] = a[at + j] ^ b[at + j] ^ block[j];
    }
}

/* Whether claes_ctr_xor_aesni can run: the CPU reports AES-NI and SSE4.1.
 * The loop is compiled for them on every x86-64 build, whatever the build
 * machine, so only this probe decides whether it is called; elsewhere it
 * does not exist and the probe says no. */
#if defined(__x86_64__)
int claes_has_aes_hw(void)
{
    unsigned eax, ebx, ecx, edx;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_AES) && (ecx & bit_SSE4_1);
}

#define LANES 8 /* counter blocks in flight */

/* claes_ctr_xor on the AES instructions (Gueron, "Intel Advanced Encryption
 * Standard (AES) New Instructions Set", Intel, 2010): aesenc is one whole
 * round and aesenclast the last, each with any 16 round-key bytes in the
 * flat state's byte order, so the 176 bytes load as they are.  LANES counter
 * blocks go through each round together, so their rounds overlap in the
 * pipeline, and a batch past the end computes blocks it does not use.  No
 * table is indexed by a secret byte. */
__attribute__((target("aes,sse4.1")))
void claes_ctr_xor_aesni(const unsigned char *nonce, const unsigned char *round_keys,
                         const unsigned char *a, const unsigned char *b, size_t n, unsigned char *out)
{
    __m128i k[11];
    for (int i = 0; i < 11; i++)
        k[i] = _mm_loadu_si128((const __m128i *)(round_keys + 16 * i));
    unsigned char padded[16] = {0};
    memcpy(padded, nonce, 12);
    __m128i base = _mm_loadu_si128((const __m128i *)padded);

    for (size_t at = 0; at < n; at += 16 * LANES) {
        uint32_t ctr = (uint32_t)(at / 16);
        __m128i s[LANES];
        /* the counter's bytes, most significant first, in the last word */
        for (int l = 0; l < LANES; l++)
            s[l] = _mm_xor_si128(_mm_insert_epi32(base, (int)__builtin_bswap32(ctr + l), 3), k[0]);
        for (int rnd = 1; rnd < 10; rnd++)
            for (int l = 0; l < LANES; l++)
                s[l] = _mm_aesenc_si128(s[l], k[rnd]);
        for (size_t o = at; o < n && o < at + 16 * LANES; o += 16) {
            __m128i block = _mm_aesenclast_si128(s[(o - at) / 16], k[10]);
            if (n - o >= 16) {
                __m128i ab = _mm_xor_si128(_mm_loadu_si128((const __m128i *)(a + o)),
                                           _mm_loadu_si128((const __m128i *)(b + o)));
                _mm_storeu_si128((__m128i *)(out + o), _mm_xor_si128(ab, block));
            } else {
                unsigned char last[16];
                _mm_storeu_si128((__m128i *)last, block);
                for (size_t j = 0; o + j < n; j++)
                    out[o + j] = a[o + j] ^ b[o + j] ^ last[j];
            }
        }
    }
}
#else
int claes_has_aes_hw(void)
{
    return 0;
}
#endif

/* --- LZ78 ------------------------------------------------------------------ */

/* Trie edges below the root in an open-addressing table keyed by
 * (node << 8) | byte; a child of 0 marks an empty slot (entries are numbered
 * from 1).  The root's children are indexed by their byte. */
struct edge {
    uint64_t key;
    uint64_t child;
};

static size_t slot_of(const struct edge *table, size_t mask, uint64_t key)
{
    size_t i = (size_t)((key * UINT64_C(0x9E3779B97F4A7C15)) >> 32) & mask;
    while (table[i].child && table[i].key != key)
        i = (i + 1) & mask;
    return i;
}

static size_t put_varint(unsigned char *out, size_t o, uint64_t v)
{
    while (v >= 0x80) {
        out[o++] = (unsigned char)((v & 0x7F) | 0x80);
        v >>= 7;
    }
    out[o++] = (unsigned char)v;
    return o;
}

/* The edge table opens with a mask of 255 or, for a longer input, the
 * smallest 2**k - 1 at least n / 2, up to this cap, so that text of up to
 * 32 KiB, which parses into fewer than n / 4 phrases, never grows it; a
 * larger input grows it as it fills. */
#define START_MASK_CAP 16383

/* lz78.pack: encode_tokens(compress(in[0..n))) into out, which must hold
 * t * (varint length of t + 2) bytes for t = min(n, (n + 256) / 2 + 1), the
 * most tokens n bytes parse into: at most 256 phrases of one byte, every
 * other phrase of two bytes or more, and one terminal token.  Returns the
 * bytes written, or SIZE_MAX when the table's memory cannot be had. */
size_t claes_lz78_pack(const unsigned char *in, size_t n, unsigned char *out)
{
    size_t mask = 255, used = 0, o = 0;
    while (mask < n / 2 && mask < START_MASK_CAP)
        mask = 2 * mask + 1;
    struct edge *table = calloc(mask + 1, sizeof *table);
    if (!table)
        return SIZE_MAX;
    uint64_t node = 0, next = 1, root[256] = {0};
    for (size_t i = 0; i < n; i++) {
        uint64_t key = node << 8 | in[i], *child = &root[in[i]];
        size_t slot = 0;
        if (node) {
            slot = slot_of(table, mask, key);
            child = &table[slot].child;
        }
        if (*child) {
            node = *child;
            continue;
        }
        o = put_varint(out, o, node);
        out[o++] = 0x01;
        out[o++] = in[i];
        *child = next++;
        if (!node)
            continue;
        table[slot].key = key;
        node = 0;
        if (++used * 2 > mask) {
            /* keep the load at most one half: double and reinsert */
            size_t wider = 2 * mask + 1;
            struct edge *grown = calloc(wider + 1, sizeof *grown);
            if (!grown) {
                free(table);
                return SIZE_MAX;
            }
            for (size_t j = 0; j <= mask; j++)
                if (table[j].child)
                    grown[slot_of(grown, wider, table[j].key)] = table[j];
            free(table);
            table = grown;
            mask = wider;
        }
    }
    if (node) {
        o = put_varint(out, o, node);
        out[o++] = 0x00;
    }
    free(table);
    return o;
}

/* lz78.unpack: decompress(decode_tokens(in[0..n)), limit), in one parse.
 *
 * Writes the output into out, which holds `capacity` bytes, while it fits,
 * then only counts it, and returns the output size either way: a size above
 * `capacity` means out is short and holds a prefix only, and capacity 0
 * with out NULL checks and sizes the stream.  Entry k of the dictionary is
 * the piece out[start[k] .. start[k + 1]) of the output, and start[entries]
 * is the output size so far.  Returns SIZE_MAX at the first token the
 * Python reference refuses, and then writes to stop, unless it is NULL,
 * that token's number and the byte it starts at; returns SIZE_MAX with stop
 * untouched when scratch memory cannot be had.  The caller keeps `limit`
 * below SIZE_MAX, so no output size is mistaken for a failure. */
size_t claes_lz78_unpack(const unsigned char *in, size_t n, size_t limit, unsigned char *out, size_t capacity,
                         size_t *stop)
{
    /* every token takes at least two bytes and adds one entry to the empty
     * entry 0, and the sentinel takes one slot more */
    size_t *start = malloc((n / 2 + 2) * sizeof *start);
    size_t entries = 1, pos = 0, at = 0, total = 0, room = capacity;
    if (!start)
        return SIZE_MAX;
    start[0] = start[1] = 0;
    while (pos < n) {
        uint64_t index = 0;
        unsigned shift = 0;
        at = pos;
        unsigned char b;
        do {
            /* a tenth varint byte would carry bit 63 or above, and the
             * reference refuses it, whatever its value */
            if (pos >= n || shift >= 63)
                goto fail;
            b = in[pos++];
            index |= (uint64_t)(b & 0x7F) << shift;
            shift += 7;
        } while (b & 0x80);
        if (pos >= n || index >= entries)
            goto fail;
        unsigned char flag = in[pos++];
        size_t from = start[index], copied = start[index + 1] - from, piece = copied;
        if (flag == 0x00) {
            if (pos != n)
                goto fail;
        } else if (flag == 0x01) {
            if (pos >= n)
                goto fail;
            piece++;
        } else {
            goto fail;
        }
        if (piece > limit - total)
            goto fail;
        /* a piece copies only bytes before it, so all of them are in out
         * until the first piece that does not fit; from there on nothing is */
        if (piece > room) {
            room = 0;
        } else if (piece) {
            memcpy(out + total, out + from, copied);
            if (flag)
                out[total + copied] = in[pos];
            room -= piece;
        }
        pos += flag;
        total += piece;
        start[++entries] = total;
    }
    free(start);
    return total;
fail:
    if (stop) {
        stop[0] = entries - 1;
        stop[1] = at;
    }
    free(start);
    return SIZE_MAX;
}
