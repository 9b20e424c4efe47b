/* Compiled twin of pathpower._kernels_py.scan_min_induced_degree.
 *
 * Same algorithm, visit order, node accounting, shared-state, node-cap and
 * stop-at rules as the pure kernel, whose docstring is the contract; that
 * includes the matching bound, whose table free_blocks is built at scan
 * start from adj alone and kept in the same allocation as the scan's state.
 * pathpower._kernels compiles this file into a shared library and calls it
 * through ctypes, which releases the interpreter lock, so threads sharing one
 * state scan in parallel.  A row or mask is `words` 64-bit words, least
 * significant first: vertex v is bit v % 64 of word v / 64.  The scan's
 * state is sized from n and target on the heap, so any graph size works.
 *
 * Where the pure kernel walks a candidate's chosen neighbours to find the
 * degree each would reach, this scan keeps the mask sat: the chosen members
 * of degree at least best - 1, which one more chosen neighbour lifts to the
 * incumbent.  So a candidate v is pruned, exactly when the pure kernel
 * prunes it, iff the level's maximum degree is at least best, v is adjacent
 * to a member of sat, or v has at least best chosen neighbours: a compare,
 * then per word an AND of the row with chosen and sat, then a popcount.
 * sat follows deg as members are placed and removed, and is rebuilt from
 * deg whenever best falls: at a completion, and when a lower shared best is
 * adopted.  A candidate that passes below the last level is placed in the
 * one pass over its chosen neighbours that raises their degrees and reads
 * its maximum degree.  The body is written once and inlined twice: for
 * n <= 64, with words fixed at 1, chosen and sat are single words that the
 * compiler keeps in registers; larger graphs scan arrays of words.
 */
#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define CHECK_MASK 2047 /* consult the clock every 2048 nodes */
#define INLINE static inline __attribute__((always_inline))
#define BIT(v) ((uint64_t)1 << ((v) & 63))

static double monotonic_now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* The word of a `words`-word mask that holds vertex v; a constant 0 once
 * words is the constant 1. */
INLINE int word_of(int v, int words)
{
    return words == 1 ? 0 : v >> 6;
}

/* The number of set bits of x, without the library call that
 * __builtin_popcountll makes where the target has no popcount instruction */
INLINE int popcount(uint64_t x)
{
    x -= x >> 1 & 0x5555555555555555;
    x = (x & 0x3333333333333333) + (x >> 2 & 0x3333333333333333);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f;
    return (int)(x * 0x0101010101010101 >> 56);
}

/* sat = the members path[0..level) of degree at least best - 1 */
INLINE void mark_saturated(uint64_t *sat, int words, const int *path, int level, const int *deg, int best)
{
    memset(sat, 0, sizeof *sat * (size_t)words);
    for (int l = 0; l < level; l++)
        if (deg[path[l]] >= best - 1)
            sat[word_of(path[l], words)] |= BIT(path[l]);
}

/* The scan of pp_scan, on its checked arguments and allocated state:
 * deg[n], path[target], maxes[target] and free_blocks[n + 1]; chosen[words]
 * and sat[words], all zero. */
INLINE void scan(const uint64_t *adj, int n, int words, int target, int stop_at, long long max_nodes,
                 double time_limit, long long *shared, long long *out, uint64_t *best_mask, int *deg,
                 int *path, int *maxes, const int *free_blocks, uint64_t *chosen, uint64_t *sat)
{
    int has_deadline = time_limit > 0;
    double deadline = has_deadline ? monotonic_now() + time_limit : 0.0;
    int best = target + 1; /* exceeds any induced degree on target vertices */
    long long nodes = 0;
    int truncated = 0, early = 0;
    int last_level = target - 1;
    int level = 0, v = 0;
    memset(best_mask, 0, sizeof *best_mask * (size_t)words);

    for (;;) {
        int hi = n - target + level;
        int placed = 0;
        for (;;) {
            if (level == 0) {
                long long lead = __atomic_fetch_add(&shared[0], 1, __ATOMIC_RELAXED);
                v = lead <= hi ? (int)lead : hi + 1;
            }
            if (v > hi)
                break;
            if (best == 1 && level + free_blocks[v] < target) /* no independent completion from v on */
                break;
            if (max_nodes >= 0 && nodes >= max_nodes) {
                truncated = 1;
                break;
            }
            if ((nodes & CHECK_MASK) == 0) {
                long long seen = __atomic_load_n(&shared[1], __ATOMIC_RELAXED);
                if (seen < best) { /* another thread completed a better subset */
                    best = (int)seen;
                    memset(best_mask, 0, sizeof *best_mask * (size_t)words);
                    mark_saturated(sat, words, path, level, deg, best);
                    truncated = best <= stop_at;
                }
                if (truncated || (has_deadline && monotonic_now() > deadline)) {
                    truncated = 1;
                    break;
                }
            }
            nodes++;
            const uint64_t *row = adj + (size_t)v * words;
            /* pruned when the level's maximum degree reaches best, or v
             * would lift a member of sat to best, or v has best chosen
             * neighbours: tested in that order, cheapest first */
            int cm = level ? maxes[level - 1] : 0;
            if (cm >= best) {
                v++;
                continue;
            }
            uint64_t hit = 0;
            for (int w = 0; w < words; w++)
                hit |= row[w] & chosen[w] & sat[w];
            if (hit) {
                v++;
                continue;
            }
            int dv = 0;
            for (int w = 0; w < words; w++)
                dv += popcount(row[w] & chosen[w]);
            if (dv >= best) {
                v++;
                continue;
            }
            if (dv > cm)
                cm = dv;
            if (level == last_level) {
                for (int w = 0; w < words; w++)
                    for (uint64_t mm = row[w] & chosen[w]; mm; mm &= mm - 1) {
                        int du = deg[64 * w + __builtin_ctzll(mm)] + 1;
                        if (du > cm)
                            cm = du;
                    }
                best = cm;
                memcpy(best_mask, chosen, sizeof *best_mask * (size_t)words);
                best_mask[word_of(v, words)] |= BIT(v);
                long long seen = __atomic_load_n(&shared[1], __ATOMIC_RELAXED);
                while (best < seen && !__atomic_compare_exchange_n(&shared[1], &seen, best, 1,
                                                                   __ATOMIC_RELAXED, __ATOMIC_RELAXED))
                    ;
                if (stop_at >= 0 && best <= stop_at) {
                    early = 1;
                    break;
                }
                mark_saturated(sat, words, path, level, deg, best);
                v++;
                continue;
            }
            /* place v: raise its chosen neighbours' degrees and read them */
            for (int w = 0; w < words; w++)
                for (uint64_t mm = row[w] & chosen[w]; mm; mm &= mm - 1) {
                    int x = __builtin_ctzll(mm);
                    int du = ++deg[64 * w + x];
                    if (du > cm)
                        cm = du;
                    if (du >= best - 1)
                        sat[w] |= BIT(x);
                }
            deg[v] = dv;
            if (dv >= best - 1)
                sat[word_of(v, words)] |= BIT(v);
            chosen[word_of(v, words)] |= BIT(v);
            path[level] = v;
            maxes[level] = cm;
            placed = 1;
            break;
        }
        if (truncated || early)
            break;
        if (placed) {
            level++;
            v++;
            continue;
        }
        /* level exhausted: backtrack */
        if (level == 0)
            break;
        level--;
        int u = path[level];
        chosen[word_of(u, words)] ^= BIT(u);
        sat[word_of(u, words)] &= ~BIT(u);
        const uint64_t *row = adj + (size_t)u * words;
        for (int w = 0; w < words; w++)
            for (uint64_t mm = row[w] & chosen[w]; mm; mm &= mm - 1) {
                int x = __builtin_ctzll(mm);
                if (--deg[64 * w + x] < best - 1)
                    sat[w] &= ~BIT(x);
            }
        v = u + 1;
    }

    out[0] = best;
    out[1] = nodes;
    out[2] = truncated;
    out[3] = early;
}

/* Scan the target-subsets of the n-vertex graph adj (n rows of `words`
 * words) with the search state shared = [next lead, best of any thread].
 * Writes best, nodes, truncated and early to out[0..3], and the witness
 * (zero when this scan holds none) to best_mask.  Returns 0; -1 when a
 * size or the next lead is out of range (the caller checks sizes first);
 * -2 when the scan's state cannot be allocated. */
int pp_scan(const uint64_t *adj, int n, int words, int target, int stop_at,
            long long max_nodes, double time_limit, long long *shared,
            long long *out, uint64_t *best_mask)
{
    if (n < 1 || words != ((long long)n + 63) / 64 || target < 1 || target > n
        || __atomic_load_n(&shared[0], __ATOMIC_RELAXED) < 0)
        return -1;

    /* deg[n], path[target], maxes[target] and free_blocks[n + 1];
     * chosen[words] and sat[words] */
    int *deg = calloc(2 * (size_t)n + 1 + 2 * (size_t)target, sizeof *deg);
    uint64_t *chosen = calloc(2 * (size_t)words, sizeof *chosen);
    if (deg == NULL || chosen == NULL) {
        free(deg);
        free(chosen);
        return -2;
    }
    int *path = deg + n;
    int *maxes = path + target;
    int *free_blocks = maxes + target;

    /* free_blocks[v]: the blocks of the greedy consecutive-rank matching
     * that meet [v, n), as in the pure kernel's free_blocks */
    for (int u = 0; u < n;) {
        int pair = u + 1 < n && (adj[(size_t)u * words + ((u + 1) >> 6)] >> ((u + 1) & 63) & 1);
        u += 1 + pair;
        free_blocks[u - 1] = 1; /* the block's last member */
    }
    for (int u = n - 1; u >= 0; u--)
        free_blocks[u] += free_blocks[u + 1];

    if (n <= 64) { /* one word: chosen and sat live in registers */
        uint64_t chosen1 = 0, sat1 = 0;
        scan(adj, n, 1, target, stop_at, max_nodes, time_limit, shared, out, best_mask, deg, path, maxes,
             free_blocks, &chosen1, &sat1);
    } else
        scan(adj, n, words, target, stop_at, max_nodes, time_limit, shared, out, best_mask, deg, path, maxes,
             free_blocks, chosen, chosen + words);

    free(deg);
    free(chosen);
    return 0;
}
