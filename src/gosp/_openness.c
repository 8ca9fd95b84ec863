/* Native kernels of gosp, loaded by gosp._openness: open_window finishes
   open masks from spatial prefix hashes, and torus_run runs the torus
   quotient chain of gosp.dynamics one replica at a time.  mix is the
   splitmix64 finalizer of gosp.field._mix64 and a site is open at time t
   iff mix(prefix ^ (u64(t) * C + G)) < threshold. */
#include <stdint.h>
#include <string.h>

#define MAXDIM 64

static inline uint64_t mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Fused openness kernel: out[i...] = mix(prefix[i...] ^ key) < threshold,
   the open mask at time t, key = u64(t) * C + G, of the sites whose spatial
   prefix hashes are ``prefix``, a strided view: shape and strides (in bytes,
   as numpy gives them) of its nd axes; ``out`` is contiguous with the same
   shape.  Axes that are contiguous in the view are merged first, so the
   inner loop runs over the longest span there is. */
#if defined(__x86_64__)
__attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
void open_window(const uint64_t *prefix, int nd, const int64_t *shape,
                 const int64_t *strides, uint64_t key, uint64_t threshold,
                 uint8_t *out)
{
    int64_t n[MAXDIM], s[MAXDIM], idx[MAXDIM] = {0}, rows = 1;
    int m = 0;
    for (int a = 0; a < nd; a++) {
        if (shape[a] == 0)
            return;
        if (shape[a] == 1)
            continue;
        const int64_t stride = strides[a] / (int64_t)sizeof(uint64_t);
        if (m && s[m - 1] == stride * shape[a]) {
            n[m - 1] *= shape[a];
            s[m - 1] = stride;
        } else {
            n[m] = shape[a];
            s[m++] = stride;
        }
    }
    if (!m) {
        n[0] = 1;
        s[m++] = 1;
    }
    const int64_t len = n[m - 1], step = s[m - 1];
    for (int a = 0; a < m - 1; a++)
        rows *= n[a];
    for (int64_t r = 0; r < rows; r++, out += len) {
        if (step == 1)
            for (int64_t i = 0; i < len; i++)
                out[i] = mix(prefix[i] ^ key) < threshold;
        else
            for (int64_t i = 0; i < len; i++)
                out[i] = mix(prefix[i * step] ^ key) < threshold;
        for (int a = m - 2; a >= 0; a--) {
            prefix += s[a];
            if (++idx[a] < n[a])
                break;
            prefix -= s[a] * n[a];
            idx[a] = 0;
        }
    }
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
