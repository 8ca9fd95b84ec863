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

/* d[i] &= whether the site of prefix hash h[i] is open at the time of key,
   and m[i] if m is given. */
static inline void mask_span(uint8_t *restrict d, const uint64_t *restrict h,
                             const uint8_t *restrict m, int64_t n,
                             uint64_t key, uint64_t threshold, int all_open)
{
    if (all_open) {
        if (m)
            for (int64_t i = 0; i < n; i++)
                d[i] &= m[i];
    } else if (m) {
        for (int64_t i = 0; i < n; i++)
            d[i] &= m[i] & (mix(h[i] ^ key) < threshold);
    } else {
        for (int64_t i = 0; i < n; i++)
            d[i] &= mix(h[i] ^ key) < threshold;
    }
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

/* The bookkeeping that moves with the replicas a step keeps: the step t,
   the (B, cells) prefix table of which prefix is a view, the replicas'
   seeds and original indices, and the whole batch's extinction steps. */
struct drop {
    int64_t t, cells;
    uint64_t *table, *seeds;
    int64_t *index, *extinction;
};

/* One step of the slab chain (dual: of its dual) for B replicas, the step
   of gosp.dynamics.batch_evolve.  rows is the (B, R, *ext) state and out
   the contiguous (B, R, *uni) next state over the union window uni of the
   old window, at old_at in it, and the new row's window win, at win_at.
   geometry holds ext, win, uni, old_at and win_at, nd values each; then
   the element strides of rows (2 + nd) and of prefix (1 + nd), the last
   axis of both contiguous; then the time keys (R for the dual, else 1).

   The new row (row R-1; dual: row 0) is the OR of G source rows: sources
   holds, per offset, the source row and the place of its window in win.
   The other rows move one row away from it.  The primal new row is then
   ANDed with the open mask of its time key over win, and with the
   contiguous (*win) domain mask if given; the dual instead masks each
   source row r over ext, with key r and the contiguous (R, *ext) domain
   mask, in a scratch copy.  prefix is the (B, *win) (dual:
   (B, *ext)) view of the prefix table; all_open (p = 1) skips the open
   test.  box gets the bounds lo (nd values) and hi (nd values) in uni of
   the cells that any replica occupies in any row.

   The dead replicas leave: each survivor's rows go to the next free slot
   n of out, and its table row, seed and index move down to row n, which
   only ever lies at or below the row being read; each replica that dies
   gets extinction[index] = t.  Returns the number n of survivors in out,
   or -1 if out of memory.

   Boxes are walked line by line along their last axis; line_at gives a
   line's offset, so any nd works, and for nd = 1 a box is one line. */
static inline __attribute__((always_inline)) int64_t
step(const uint8_t *rows, int64_t B, int64_t R, int64_t nd,
     const int64_t *geometry, const int64_t *sources, int64_t G,
     const uint64_t *prefix, uint64_t threshold, int all_open,
     const uint8_t *domain, int dual, uint8_t *out, int64_t *box,
     const struct drop *drop)
{
    const int64_t *ext = geometry, *win = ext + nd, *uni = win + nd;
    const int64_t *rst = geometry + 5 * nd, *sr = rst + 2;
    const int64_t *pst = rst + 2 + nd, *sp = pst + 1;
    const uint64_t *keys = (const uint64_t *)(pst + 1 + nd);
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
    const int64_t old0 = flat(nd, uni + nd, su), win0 = flat(nd, uni + 2 * nd, su);
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
                    mask_span(d, pb + line_at(o, nd, ext, sp),
                              domain ? domain + r * E + o * len : NULL, len,
                              keys[r], threshold, all_open);
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
                mask_span(nb + at, pb + line_at(o, nd, win, sp),
                          domain ? domain + o * wlen : NULL, wlen, keys[0],
                          threshold, all_open);
            any |= occupy_span(nb + at, cells + win0 + at, wlen);
        }
        if (!any) {
            drop->extinction[drop->index[b]] = drop->t;
            continue;
        }
        if (n < b) {
            memmove(drop->table + n * drop->cells, drop->table + b * drop->cells,
                    (size_t)drop->cells * sizeof(uint64_t));
            drop->seeds[n] = drop->seeds[b];
            drop->index[n] = drop->index[b];
        }
        n++;
    }
    /* the bounding box of the occupied cells, line by line of uni */
    const int64_t ulen = uni[nd - 1];
    for (int64_t a = 0; a < nd; a++) {
        box[a] = uni[a];
        box[nd + a] = 0;
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
        box[nd - 1] = i < box[nd - 1] ? i : box[nd - 1];
        box[2 * nd - 1] = j > box[2 * nd - 1] ? j : box[2 * nd - 1];
        int64_t q = o;
        for (int64_t a = nd - 2; a >= 0; a--) {
            const int64_t x = q % uni[a];
            q /= uni[a];
            box[a] = x < box[a] ? x : box[a];
            box[nd + a] = x + 1 > box[nd + a] ? x + 1 : box[nd + a];
        }
    }
    free(cells);
    return n;
}

/* chain_step for d = 2 and R = 1, the common case, is compiled apart
   with nd, R and dual known, which halves its cost per replica on tiny
   windows. */
#if defined(__x86_64__)
__attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
int64_t chain_step(const uint8_t *rows, int64_t B, int64_t R, int64_t nd,
                   const int64_t *geometry, const int64_t *sources, int64_t G,
                   const uint64_t *prefix, uint64_t threshold, int all_open,
                   const uint8_t *domain, int dual, uint8_t *out, int64_t *box,
                   const struct drop *drop)
{
    if (nd == 1 && R == 1 && !dual)
        return step(rows, B, 1, 1, geometry, sources, G, prefix, threshold,
                    all_open, domain, 0, out, box, drop);
    if (nd == 1 && R == 1)
        return step(rows, B, 1, 1, geometry, sources, G, prefix, threshold,
                    all_open, domain, 1, out, box, drop);
    return step(rows, B, R, nd, geometry, sources, G, prefix, threshold,
                all_open, domain, dual, out, box, drop);
}

/* Torus quotient chain, one replica at a time: extinction[b] is the step
   after which replica b, started from R full rows, has R empty rows, or -1
   if it is alive after T_max steps.

   prefix is the (B, N) contiguous table of spatial prefix hashes of the
   torus sites; gather holds G rows of N indices, row i giving for each site
   of the new top row its source through offset i in the flat R*N rows.
   rows is a scratch buffer of (R + 1) * N bytes: the R rows, then the new
   top row.  The top row at step t is open at time t + R, whose time key is
   key0 + t * key_step (key0 the key of time R, key_step = C); with all_open
   (p = 1, whose threshold 2**64 does not fit a u64) every site is. */
#if defined(__x86_64__)
__attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
void torus_run(const uint64_t *prefix, int64_t B, int64_t N,
               const int64_t *gather, int64_t G, int64_t R, int64_t T_max,
               uint64_t key0, uint64_t key_step, uint64_t threshold,
               int all_open, uint8_t *rows, int64_t *extinction)
{
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
