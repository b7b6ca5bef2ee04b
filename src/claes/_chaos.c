/* Compiled twin of the Q0.63 logistic-map loops in chaos.py.
 *
 * Built on first use with the system C compiler and loaded through ctypes
 * (see _native.py).  Every function must give exactly the bytes and states
 * of the Python reference; the loader checks a known stream on each load
 * and falls back to Python on any difference.
 */
#include <stddef.h>
#include <stdint.h>

#define ONE (UINT64_C(1) << 63)

/* m' = 39999 * ((m * (2**63 - m)) >> 63) // 10000, truncating.
 * q < 2**61, so 39999 * q needs more than 64 bits; with q = 10000a + b,
 * 39999q // 10000 = 39999a + 39999b // 10000 exactly, and every division
 * stays 64-bit. */
static inline uint64_t step(uint64_t m)
{
    uint64_t q = (uint64_t)(((unsigned __int128)m * (ONE - m)) >> 63);
    return 39999 * (q / 10000) + 39999 * (q % 10000) / 10000;
}

/* ChaoticState.take: n bytes at 4 steps each; returns the final state. */
uint64_t claes_chaos_take(uint64_t m, unsigned char *out, size_t n)
{
    for (size_t t = 0; t < n; t++) {
        m = step(step(step(step(m))));
        out[t] = (unsigned char)((m >> 8) ^ (m >> 16) ^ (m >> 24) ^ (m >> 32));
    }
    return m;
}

/* seed_from_key1's burn-in: `steps` steps, restarted once from
 * m + perturbation (mod 2**63) should the orbit reach a fixed point. */
uint64_t claes_chaos_burn_in(uint64_t m, unsigned steps, uint64_t perturbation)
{
    int restarted = 0;
    unsigned done = 0;
    while (done < steps) {
        uint64_t successor = step(m);
        if (successor == m && !restarted) {
            m = (m + perturbation) % ONE;
            restarted = 1;
            done = 0;
            continue;
        }
        m = successor;
        done++;
    }
    return m;
}
