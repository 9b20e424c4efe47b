/* Compiled twin of pathpower._kernels_py.scan_min_induced_degree for graphs
 * of at most 256 vertices.
 *
 * Same algorithm, visit order, node accounting, lead, node-cap and stop-at
 * rules as the pure kernel, whose docstring is the contract.
 * pathpower._kernels compiles this file into a shared library and calls it
 * through ctypes.  A row or mask is `words` 64-bit words, least significant
 * first: vertex v is bit v % 64 of word v / 64.
 */
#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <string.h>
#include <time.h>

#define MAX_WORDS 4
#define MAX_VERTICES (64 * MAX_WORDS)
#define CHECK_MASK 2047 /* consult the clock every 2048 nodes */

static double monotonic_now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Scan the target-subsets of the n-vertex graph adj (n rows of `words`
 * words).  Writes best (target + 1 when no subset was completed), nodes,
 * truncated and early to out[0..3], and the witness to best_mask.  Returns
 * 0, or -1 when a size is out of range (the caller checks them first). */
int pp_scan(const uint64_t *adj, int n, int words, int target, int stop_at,
            long long max_nodes, double time_limit, int lead,
            long long *out, uint64_t *best_mask)
{
    if (n < 1 || n > MAX_VERTICES || words != (n + 63) / 64 || target < 1 || target > n
        || lead > n - target)
        return -1;

    int deg[MAX_VERTICES] = {0};
    int path[MAX_VERTICES];
    int maxes[MAX_VERTICES];
    uint64_t chosen[MAX_WORDS] = {0};
    uint64_t nb[MAX_WORDS] = {0};

    int has_deadline = time_limit > 0;
    double deadline = has_deadline ? monotonic_now() + time_limit : 0.0;
    int best = target + 1; /* exceeds any induced degree on target vertices */
    long long nodes = 0;
    int truncated = 0, early = 0;
    int last_level = target - 1;
    int level = 0, v = lead >= 0 ? lead : 0;
    int dv = 0, cm = 0;
    memset(best_mask, 0, sizeof(uint64_t) * (size_t)words);

    for (;;) {
        int hi = (lead >= 0 && level == 0) ? lead : n - target + level;
        int placed = 0;
        while (v <= hi) {
            if (max_nodes >= 0 && nodes >= max_nodes) {
                truncated = 1;
                break;
            }
            if (has_deadline && (nodes & CHECK_MASK) == 0 && monotonic_now() > deadline) {
                truncated = 1;
                break;
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

    out[0] = best;
    out[1] = nodes;
    out[2] = truncated;
    out[3] = early;
    return 0;
}
