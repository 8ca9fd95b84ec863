/* Native kernels of gosp, loaded by gosp._openness: chain_step takes one
   step of the slab chain or its dual for a batch of replicas, and torus_run
   runs the torus quotient chain of gosp.dynamics one replica at a time.
   mix is the splitmix64 finalizer of gosp.field._mix64 and a site is open
   at time t iff mix(prefix ^ (u64(t) * C + G)) < threshold. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXDIM 64

static inline uint64_t mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Prefix hashes of B replicas over an nd-axis grid of shape n, the chain of
   gosp.field.site_hash: out[b, i_0, ..., i_{nd-1}] is heads[b] mixed with
   keys[0][i_0], then keys[1][i_1] and so on, one mix(h ^ key) per axis,
   where keys holds the n[0] keys of axis 0, then the n[1] keys of axis 1,
   and so on.  Partial hashes are kept per axis, so each site costs one mix
   and each line of the last axis about one more. */
#if defined(__x86_64__)
__attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
void prefix_hash(const uint64_t *heads, int64_t B, int64_t nd,
                 const int64_t *n, const uint64_t *keys, uint64_t *out)
{
    const uint64_t *k[MAXDIM];
    uint64_t h[MAXDIM + 1];
    int64_t at[MAXDIM], lines = 1;
    for (int64_t a = 0; a < nd; a++) {
        k[a] = a ? k[a - 1] + n[a - 1] : keys;
        lines *= a < nd - 1 ? n[a] : 1;
        if (!n[a])
            return;
    }
    const int64_t len = n[nd - 1];
    const uint64_t *restrict last = k[nd - 1];
    for (int64_t b = 0; b < B; b++) {
        h[0] = heads[b];
        for (int64_t a = 0; a < nd - 1; a++) {
            at[a] = 0;
            h[a + 1] = mix(h[a] ^ k[a][0]);
        }
        for (int64_t o = 0; o < lines; o++, out += len) {
            const uint64_t p = h[nd - 1];
            uint64_t *restrict d = out;
            for (int64_t i = 0; i < len; i++)
                d[i] = mix(p ^ last[i]);
            /* the next line: step the lowest axis that has not run out */
            int64_t a = nd - 2;
            while (a >= 0 && ++at[a] == n[a])
                at[a--] = 0;
            for (a = a < 0 ? 0 : a; a < nd - 1; a++)
                h[a + 1] = mix(h[a] ^ k[a][at[a]]);
        }
    }
}

/* Row-major element strides s of an nd-axis box of shape n. */
static void strides_of(int64_t nd, const int64_t *n, int64_t *s)
{
    s[nd - 1] = 1;
    for (int64_t a = nd - 2; a >= 0; a--)
        s[a] = s[a + 1] * n[a + 1];
}

/* Offset of the point x under element strides s. */
static int64_t flat(int64_t nd, const int64_t *x, const int64_t *s)
{
    int64_t off = 0;
    for (int64_t a = 0; a < nd; a++)
        off += x[a] * s[a];
    return off;
}

/* Offset, under element strides s, of line o of an nd-axis box of shape n:
   the lines run along the last axis and are counted in row-major order. */
static inline int64_t line_at(int64_t o, int64_t nd, const int64_t *n,
                              const int64_t *s)
{
    int64_t off = 0;
    for (int64_t a = nd - 2; a >= 0; a--) {
        off += o % n[a] * s[a];
        o /= n[a];
    }
    return off;
}

/* Line o, of n[nd - 1] cells at d, of an nd-axis box of shape n (see
   line_at): each cell inside the box [lo, hi) of the same axes is ANDed
   with whether the site of its prefix hash h[i] is open at the time of
   key, and every other cell is cleared. */
static inline void mask_line(uint8_t *restrict d, const uint64_t *restrict h,
                             int64_t o, int64_t nd, const int64_t *n,
                             const int64_t *lo, const int64_t *hi,
                             uint64_t key, uint64_t threshold, int all_open)
{
    int64_t a = lo[nd - 1], b = hi[nd - 1];
    for (int64_t k = nd - 2; k >= 0; o /= n[k--])
        if (o % n[k] < lo[k] || o % n[k] >= hi[k])
            a = b = 0;
    if (a > 0)
        memset(d, 0, (size_t)a);
    if (!all_open)
        for (int64_t i = a; i < b; i++)
            d[i] &= mix(h[i] ^ key) < threshold;
    if (b < n[nd - 1])
        memset(d + b, 0, (size_t)(n[nd - 1] - b));
}

/* c[i] |= d[i]; whether any d[i] is set. */
static inline uint8_t occupy_span(const uint8_t *restrict d,
                                  uint8_t *restrict c, int64_t n)
{
    uint8_t any = 0;
    for (int64_t i = 0; i < n; i++) {
        c[i] |= d[i];
        any |= d[i];
    }
    return any;
}

/* What chain_step keeps through a whole run of gosp.dynamics.batch_evolve,
   bound once by gosp._openness.chain_step: R, nd, whether the chain is the
   dual, the G sources (per offset, the source row and the place of its
   window in win), the threshold of the open test (all_open: p = 1, which
   skips it), the frame and bounds buffers, and the bookkeeping that moves
   with the replicas a step keeps: the prefix table of cells entries per
   replica, the replicas' seeds and original indices, and the whole
   batch's extinction steps.

   The frame holds one step: the addresses of rows and of out, B, the step
   t, and the offset of the prefix window in the table; then ext, win and
   uni, nd values each; the element strides of rows (2 + nd), its last axis
   contiguous; the domain's box in the masked window, its nd lower then its
   nd upper bounds (the dual: one box per source row, in the old window);
   and the time keys (R for the dual, else 1).  What follows is bound with
   the run: old_at and win_at, nd values each, which are the same at every
   step, and the element strides of the contiguous table (1 + nd), bound
   with it. */
struct step {
    int64_t R, nd, dual, all_open;
    uint64_t threshold;
    const int64_t *sources;
    int64_t G;
    int64_t *frame, *bounds;
    int64_t cells;
    uint64_t *table, *seeds;
    int64_t *index, *extinction;
};

/* One step of the slab chain (dual: of its dual) for B replicas, the step
   of gosp.dynamics.batch_evolve, as the frame of run gives it.  rows is the
   (B, R, *ext) state and out the contiguous (B, R, *uni) next state over
   the union window uni of the old window, at old_at in it, and the new
   row's window win, at win_at.

   The new row (row R-1; dual: row 0) is the OR of the G source rows
   through the offsets; the other rows move one row away from it.  The
   primal new row is then ANDed with the open mask of its time key inside
   the domain's box in win and cleared outside it; the dual instead masks
   each source row r so, with key r and its own box in ext, in a scratch
   copy.  The prefix hashes are the (B, *win) (dual: (B, *ext)) window of
   the table at the frame's offset.  bounds gets the bounds lo (nd values)
   and hi (nd values) in uni of the cells that any replica occupies in any
   row, then the offset of lo in out.

   The dead replicas leave: each survivor's rows go to the next free slot
   n of out, and its table row, seed and index move down to row n, which
   only ever lies at or below the row being read; each replica that dies
   gets extinction[index] = t.  Returns the number n of survivors in out,
   -1 if out of memory, or -2, before anything is written, if a box is not
   0 <= lo <= hi <= its window on every axis.

   Boxes are walked line by line along their last axis; line_at gives a
   line's offset, so any nd works, and for nd = 1 a box is one line. */
static inline __attribute__((always_inline)) int64_t
step(const struct step *run, int64_t R, int64_t nd, int dual)
{
    /* every field is read once: the byte stores below may alias them */
    const int64_t *f = run->frame;
    const uint8_t *rows = (const uint8_t *)f[0];
    uint8_t *out = (uint8_t *)f[1];
    const int64_t B = f[2], t = f[3], G = run->G, width = run->cells;
    const int64_t *ext = f + 5, *win = ext + nd, *uni = win + nd;
    const int64_t *rst = uni + nd, *sr = rst + 2, *bx = sr + nd;
    const int64_t boxes = dual ? R : 1;
    const uint64_t *keys = (const uint64_t *)(bx + 2 * nd * boxes);
    const int64_t *old_at = (const int64_t *)(keys + boxes), *win_at = old_at + nd;
    const int64_t *pst = win_at + nd, *sp = pst + 1;
    const int64_t *sources = run->sources;
    const uint64_t threshold = run->threshold;
    const int all_open = (int)run->all_open;
    uint64_t *table = run->table, *seeds = run->seeds;
    int64_t *index = run->index, *extinction = run->extinction, *bounds = run->bounds;
    const uint64_t *prefix = table + f[4];
    for (int64_t i = 0; i < 2 * nd * boxes; i++)
        if (bx[i] < 0 || bx[i] > (dual ? ext : win)[i % nd]
            || (i % (2 * nd) < nd && bx[i] > bx[i + nd]))
            return -2;
    int64_t se[MAXDIM], su[MAXDIM], E = 1, W = 1, U = 1;
    strides_of(nd, ext, se);
    strides_of(nd, uni, su);
    for (int64_t a = 0; a < nd; a++) {
        E *= ext[a];
        W *= win[a];
        U *= uni[a];
    }
    const int64_t len = ext[nd - 1], lines = E / len;
    const int64_t wlen = win[nd - 1], wlines = W / wlen;
    const int64_t old0 = flat(nd, old_at, su), win0 = flat(nd, win_at, su);
    /* the per-cell occupancy, then the dual's scratch */
    uint8_t *cells = calloc((size_t)(U + (dual ? R * E : 0)), 1);
    if (!cells)
        return -1;
    uint8_t *scratch = cells + U;
    memset(out, 0, (size_t)(B * R * U));
    int64_t n = 0;
    for (int64_t b = 0; b < B; b++) {
        const uint8_t *rb = rows + b * rst[0];
        const uint64_t *pb = prefix + b * pst[0];
        /* a dead replica leaves its slot all zero to the next */
        uint8_t *ob = out + n * R * U, any = 0;
        /* the old rows move one row away from the new one */
        for (int64_t r = 0; r < R - 1; r++) {
            uint8_t *d = ob + (dual ? r + 1 : r) * U + old0;
            const uint8_t *s = rb + (dual ? r : r + 1) * rst[1];
            for (int64_t o = 0; o < lines; o++) {
                const int64_t at = line_at(o, nd, ext, su);
                memcpy(d + at, s + line_at(o, nd, ext, sr), (size_t)len);
                any |= occupy_span(d + at, cells + old0 + at, len);
            }
        }
        /* the source rows: the dual's masked in scratch, the primal's as
           they are */
        const uint8_t *src = rb;
        const int64_t *ss = sr;
        int64_t rs = rst[1];
        if (dual) {
            for (int64_t r = 0; r < R; r++)
                for (int64_t o = 0; o < lines; o++) {
                    uint8_t *d = scratch + r * E + o * len;
                    memcpy(d, rb + r * rst[1] + line_at(o, nd, ext, sr), (size_t)len);
                    mask_line(d, pb + line_at(o, nd, ext, sp), o, nd, ext, bx + 2 * nd * r,
                              bx + 2 * nd * r + nd, keys[r], threshold, all_open);
                }
            src = scratch;
            ss = se;
            rs = E;
        }
        /* the new row: the OR of the sources through every offset */
        uint8_t *nb = ob + (dual ? 0 : R - 1) * U + win0;
        for (int64_t g = 0; g < G; g++) {
            const int64_t *sg = sources + g * (1 + nd);
            uint8_t *d = nb + flat(nd, sg + 1, su);
            const uint8_t *s = src + sg[0] * rs;
            for (int64_t o = 0; o < lines; o++) {
                uint8_t *restrict dl = d + line_at(o, nd, ext, su);
                const uint8_t *restrict sl = s + line_at(o, nd, ext, ss);
                for (int64_t i = 0; i < len; i++)
                    dl[i] |= sl[i];
            }
        }
        for (int64_t o = 0; o < wlines; o++) {
            const int64_t at = line_at(o, nd, win, su);
            if (!dual)
                mask_line(nb + at, pb + line_at(o, nd, win, sp), o, nd, win, bx,
                          bx + nd, keys[0], threshold, all_open);
            any |= occupy_span(nb + at, cells + win0 + at, wlen);
        }
        if (!any) {
            extinction[index[b]] = t;
            continue;
        }
        if (n < b) {
            memmove(table + n * width, table + b * width,
                    (size_t)width * sizeof(uint64_t));
            seeds[n] = seeds[b];
            index[n] = index[b];
        }
        n++;
    }
    /* the bounding box of the occupied cells, line by line of uni */
    const int64_t ulen = uni[nd - 1];
    for (int64_t a = 0; a < nd; a++) {
        bounds[a] = uni[a];
        bounds[nd + a] = 0;
    }
    for (int64_t o = 0; o < U / ulen; o++) {
        const uint8_t *l = cells + o * ulen;
        int64_t i = 0, j = ulen;
        while (i < ulen && !l[i])
            i++;
        if (i == ulen)
            continue;
        while (!l[j - 1])
            j--;
        bounds[nd - 1] = i < bounds[nd - 1] ? i : bounds[nd - 1];
        bounds[2 * nd - 1] = j > bounds[2 * nd - 1] ? j : bounds[2 * nd - 1];
        int64_t q = o;
        for (int64_t a = nd - 2; a >= 0; a--) {
            const int64_t x = q % uni[a];
            q /= uni[a];
            bounds[a] = x < bounds[a] ? x : bounds[a];
            bounds[nd + a] = x + 1 > bounds[nd + a] ? x + 1 : bounds[nd + a];
        }
    }
    /* where the rows trimmed to the bounds start in out */
    bounds[2 * nd] = flat(nd, bounds, su);
    free(cells);
    return n;
}

/* One step of gosp.dynamics.batch_evolve as the frame of run gives it.
   The d = 2, R = 1 case, the common one, is compiled apart with nd, R and
   dual known, which halves its cost per replica on tiny windows. */
#if defined(__x86_64__)
__attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
int64_t chain_step(const struct step *run)
{
    if (run->nd == 1 && run->R == 1)
        return run->dual ? step(run, 1, 1, 1) : step(run, 1, 1, 0);
    return step(run, run->R, run->nd, (int)run->dual);
}

/* Torus quotient chain, one replica at a time: extinction[b] is the step
   after which replica b, started from R full rows, has R empty rows, or -1
   if it is alive after T_max steps.

   prefix is the (B, N) contiguous table of spatial prefix hashes of the
   torus sites; gather holds G rows of N indices, row i giving for each site
   of the new top row its source through offset i in the flat R*N rows.
   The top row at step t is open at time t + R, whose time key is
   key0 + t * key_step (key0 the key of time R, key_step = C); with all_open
   (p = 1, whose threshold 2**64 does not fit a u64) every site is.

   With R*N <= 64 (the word path) a replica's rows are one word w, bit
   r*N + s site s of row r: a step ORs, for each byte k of w, tab[k][byte],
   the top-row sites whose sources are that byte's set bits, ANDs in the
   open mask, and shifts the new top row in; the replica dies when w is 0.
   Larger tori (the byte path) keep their rows in the scratch buffer rows,
   of (R + 1) * N bytes: the R rows, then the new top row. */
#if defined(__x86_64__)
__attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
void torus_run(const uint64_t *prefix, int64_t B, int64_t N,
               const int64_t *gather, int64_t G, int64_t R, int64_t T_max,
               uint64_t key0, uint64_t key_step, uint64_t threshold,
               int all_open, uint8_t *rows, int64_t *extinction)
{
    if (R * N <= 64) {
        const int64_t bytes = (R * N + 7) / 8;
        uint64_t to[64] = {0}, tab[8][256];
        /* the top-row sites fed by each source bit, then by each byte */
        for (int64_t i = 0; i < G * N; i++)
            to[gather[i]] |= 1ULL << i % N;
        for (int64_t k = 0; k < bytes; k++) {
            tab[k][0] = 0;
            for (int v = 1; v < 256; v++)
                tab[k][v] = tab[k][v & (v - 1)] | to[8 * k + __builtin_ctz(v)];
        }
        for (int64_t b = 0; b < B; b++, prefix += N) {
            uint64_t w = ~0ULL >> (64 - R * N), key = key0;
            extinction[b] = -1;
            for (int64_t t = 0; t < T_max; t++, key += key_step) {
                uint64_t top = 0, open = 0;
                for (int64_t k = 0; k < bytes; k++)
                    top |= tab[k][w >> 8 * k & 255];
                if (!all_open) {
                    for (int64_t j = 0; j < N; j++)
                        open |= (uint64_t)(mix(prefix[j] ^ key) < threshold) << j;
                    top &= open;
                }
                /* w >> N in two shifts: N = 64 (R = 1) is undefined in one */
                w = w >> (N - 1) >> 1 | top << (R - 1) * N;
                if (!w) {
                    extinction[b] = t + 1;
                    break;
                }
            }
        }
        return;
    }
    uint8_t *top = rows + R * N;
    for (int64_t b = 0; b < B; b++, prefix += N) {
        int64_t empty = 0;              /* trailing empty top rows */
        extinction[b] = -1;
        uint64_t key = key0;
        memset(rows, 1, (size_t)(R * N));
        for (int64_t t = 0; t < T_max; t++, key += key_step) {
            const int64_t *g = gather;
            for (int64_t j = 0; j < N; j++)
                top[j] = rows[g[j]];
            for (int64_t i = 1; i < G; i++) {
                g += N;
                for (int64_t j = 0; j < N; j++)
                    top[j] |= rows[g[j]];
            }
            if (!all_open) {
                for (int64_t j = 0; j < N; j++)
                    top[j] &= mix(prefix[j] ^ key) < threshold;
            }
            empty = memchr(top, 1, (size_t)N) ? 0 : empty + 1;
            memmove(rows, rows + N, (size_t)(R * N));
            if (empty == R) {
                extinction[b] = t + 1;
                break;
            }
        }
    }
}
