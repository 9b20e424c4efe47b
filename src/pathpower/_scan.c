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
 */
#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define CHECK_MASK 2047 /* consult the clock every 2048 nodes */

static double monotonic_now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
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
     * chosen[words] and nb[words] */
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
    uint64_t *nb = chosen + words;

    /* free_blocks[v]: the blocks of the greedy consecutive-rank matching
     * that meet [v, n), as in the pure kernel's free_blocks */
    for (int u = 0; u < n;) {
        int pair = u + 1 < n && (adj[(size_t)u * words + ((u + 1) >> 6)] >> ((u + 1) & 63) & 1);
        u += 1 + pair;
        free_blocks[u - 1] = 1; /* the block's last member */
    }
    for (int u = n - 1; u >= 0; u--)
        free_blocks[u] += free_blocks[u + 1];

    int has_deadline = time_limit > 0;
    double deadline = has_deadline ? monotonic_now() + time_limit : 0.0;
    int best = target + 1; /* exceeds any induced degree on target vertices */
    long long nodes = 0;
    int truncated = 0, early = 0;
    int last_level = target - 1;
    int level = 0, v = 0;
    int dv = 0, cm = 0;
    memset(best_mask, 0, sizeof(uint64_t) * (size_t)words);

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
                    memset(best_mask, 0, sizeof(uint64_t) * (size_t)words);
                    truncated = best <= stop_at;
                }
                if (truncated || (has_deadline && monotonic_now() > deadline)) {
                    truncated = 1;
                    break;
                }
            }
            nodes++;
            const uint64_t *row = adj + (size_t)v * words;
            cm = level ? maxes[level - 1] : 0;
            dv = 0;
            for (int w = 0; w < words; w++) {
                nb[w] = row[w] & chosen[w];
                dv += __builtin_popcountll(nb[w]);
            }
            if (dv > cm)
                cm = dv;
            for (int w = 0; w < words; w++)
                for (uint64_t mm = nb[w]; mm; mm &= mm - 1) {
                    int du = deg[64 * w + __builtin_ctzll(mm)] + 1;
                    if (du > cm)
                        cm = du;
                }
            if (cm >= best) {
                v++;
                continue;
            }
            if (level == last_level) {
                best = cm;
                memcpy(best_mask, chosen, sizeof(uint64_t) * (size_t)words);
                best_mask[v >> 6] |= (uint64_t)1 << (v & 63);
                long long seen = __atomic_load_n(&shared[1], __ATOMIC_RELAXED);
                while (best < seen && !__atomic_compare_exchange_n(&shared[1], &seen, best, 1,
                                                                   __ATOMIC_RELAXED, __ATOMIC_RELAXED))
                    ;
                if (stop_at >= 0 && best <= stop_at) {
                    early = 1;
                    break;
                }
                v++;
                continue;
            }
            placed = 1;
            break;
        }
        if (truncated || early)
            break;
        if (placed) {
            deg[v] = dv;
            for (int w = 0; w < words; w++)
                for (uint64_t mm = nb[w]; mm; mm &= mm - 1)
                    deg[64 * w + __builtin_ctzll(mm)]++;
            path[level] = v;
            maxes[level] = cm;
            chosen[v >> 6] |= (uint64_t)1 << (v & 63);
            level++;
            v++;
            continue;
        }
        /* level exhausted: backtrack */
        if (level == 0)
            break;
        level--;
        int u = path[level];
        chosen[u >> 6] ^= (uint64_t)1 << (u & 63);
        const uint64_t *row = adj + (size_t)u * words;
        for (int w = 0; w < words; w++)
            for (uint64_t mm = row[w] & chosen[w]; mm; mm &= mm - 1)
                deg[64 * w + __builtin_ctzll(mm)]--;
        deg[u] = 0;
        v = u + 1;
    }

    free(deg);
    free(chosen);
    out[0] = best;
    out[1] = nodes;
    out[2] = truncated;
    out[3] = early;
    return 0;
}
