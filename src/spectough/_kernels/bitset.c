/* Compiled bitset kernels, loaded with ctypes by spectough._kernels.
 *
 * The same enumeration order and pruning as _ref.py, hence the same
 * tie-break, so both backends return identical results.  Vertex sets
 * are uint64_t bitsets; the Python binding checks n <= 62 and passes
 * exactly n adjacency rows.  reach is the one frontier walk; the
 * component count and Hamilton prune call it.
 */

#include <stdint.h>

#define POPCOUNT(x) __builtin_popcountll(x)
#define CTZ(x) __builtin_ctzll(x)

/* The vertices of allowed that paths inside allowed connect to seed (a
 * one-vertex bitset), seed included, as _ref.reach. */
static uint64_t reach(const uint64_t *adj, uint64_t seed, uint64_t allowed)
{
    uint64_t comp = seed, frontier = seed;
    while (frontier) {
        uint64_t low = frontier & -frontier;
        uint64_t new_ = adj[CTZ(low)] & allowed & ~comp;
        comp |= new_;
        frontier = (frontier ^ low) | new_;
    }
    return comp;
}

static int component_count(int n, const uint64_t *adj, uint64_t removed)
{
    uint64_t rest = (((uint64_t)1 << n) - 1) & ~removed;
    int count = 0;
    for (; rest; count++)
        rest &= ~reach(adj, rest & -rest, rest);
    return count;
}

/* Minimize |S| / c(G-S) over cuts S with c >= 2, as _ref.toughness_search.
 * Writes |S|, c and S to out[0], out[1], out[2]; c is 0 if no cut was found. */
void st_toughness_search(int n, const uint64_t *adj, uint64_t *out)
{
    int64_t best_num = 0, best_den = 0; /* den 0 encodes "nothing found yet" */
    uint64_t best_mask = 0;
    int idx[64];
    for (int k = 1; k < n - 1; k++) {
        if (best_den && k * best_den >= best_num * (n - k))
            break;
        /* iterative lexicographic k-combinations of 0..n-1 */
        for (int i = 0; i < k; i++)
            idx[i] = i;
        for (;;) {
            uint64_t mask = 0;
            for (int i = 0; i < k; i++)
                mask |= (uint64_t)1 << idx[i];
            int c = component_count(n, adj, mask);
            if (c >= 2 && (best_den == 0 || k * best_den < best_num * c)) {
                best_num = k;
                best_den = c;
                best_mask = mask;
            }
            int i = k - 1;
            while (i >= 0 && idx[i] == n - k + i)
                i--;
            if (i < 0)
                break;
            idx[i]++;
            for (int j = i + 1; j < k; j++)
                idx[j] = idx[j - 1] + 1;
        }
    }
    out[0] = (uint64_t)best_num;
    out[1] = (uint64_t)best_den;
    out[2] = best_mask;
}

static int feasible(const uint64_t *adj, uint64_t full, int current,
                    uint64_t visited)
{
    uint64_t rest = full & ~visited;
    /* every unvisited vertex still needs two usable incidences */
    for (uint64_t scan = rest; scan; scan &= scan - 1) {
        uint64_t avail = adj[CTZ(scan)] & (rest | (uint64_t)1 << current | 1);
        if (POPCOUNT(avail) < 2)
            return 0;
    }
    /* unvisited region plus the path head must be connected */
    uint64_t head = (uint64_t)1 << current;
    return (reach(adj, head, rest | head) & rest) == rest;
}

static int extend(const uint64_t *adj, uint64_t full, int v, uint64_t visited)
{
    if (visited == full)
        return (adj[v] & 1) != 0;
    if (!feasible(adj, full, v, visited))
        return 0;
    for (uint64_t cand = adj[v] & ~visited; cand; cand &= cand - 1) {
        uint64_t low = cand & -cand;
        if (extend(adj, full, CTZ(low), visited | low))
            return 1;
    }
    return 0;
}

/* Backtracking Hamilton-cycle search, as _ref.hamilton_cycle; 1 if found. */
int st_hamilton_cycle(int n, const uint64_t *adj)
{
    if (n < 3)
        return 0;
    for (int v = 0; v < n; v++)
        if (POPCOUNT(adj[v]) < 2)
            return 0;
    return extend(adj, ((uint64_t)1 << n) - 1, 0, 1);
}

static uint64_t splitmix64_next(uint64_t *state)
{
    uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* G(n, p) adjacency rows, as _ref.gnp_rows: one SplitMix64 word per pair
 * (i, j), i < j, in row-major order; the edge is present iff the word is
 * below the threshold floor(p * 2^64).  That threshold is 2^64 at p = 1,
 * one more than a uint64_t holds, so the caller passes its low 64 bits and
 * every_pair = 1 for it.  Writes n rows. */
void st_gnp(int n, uint64_t seed, uint64_t threshold, int every_pair,
            uint64_t *rows)
{
    uint64_t state = seed;
    for (int i = 0; i < n; i++)
        rows[i] = 0;
    for (int i = 0; i < n; i++)
        for (int j = i + 1; j < n; j++) {
            uint64_t word = splitmix64_next(&state);
            if (word < threshold || every_pair) {
                rows[i] |= (uint64_t)1 << j;
                rows[j] |= (uint64_t)1 << i;
            }
        }
}
