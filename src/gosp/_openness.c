/* Fused openness kernel: out[k, i...] = mix(prefix[i...] ^ keys[k]) < threshold.

   mix is the splitmix64 finalizer of gosp.field._mix64, so each output is
   the open mask of the sites whose spatial prefix hashes are ``prefix``,
   finished with the time key keys[k] = u64(t_k) * C + G.  ``prefix`` is a
   strided view: shape and strides (in bytes, as numpy gives them) of its nd
   axes; ``out`` is contiguous with shape (nk, *shape).  Axes that are
   contiguous in the view are merged first, so the inner loop runs over the
   longest span there is. */
#include <stdint.h>

#define MAXDIM 64

static inline uint64_t mix(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

#if defined(__x86_64__)
__attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#endif
void open_window(const uint64_t *prefix, int nd, const int64_t *shape,
                 const int64_t *strides, const uint64_t *keys, int64_t nk,
                 uint64_t threshold, uint8_t *out)
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
    for (int64_t k = 0; k < nk; k++) {
        const uint64_t key = keys[k];
        const uint64_t *p = prefix;
        for (int64_t r = 0; r < rows; r++, out += len) {
            if (step == 1)
                for (int64_t i = 0; i < len; i++)
                    out[i] = mix(p[i] ^ key) < threshold;
            else
                for (int64_t i = 0; i < len; i++)
                    out[i] = mix(p[i * step] ^ key) < threshold;
            for (int a = m - 2; a >= 0; a--) {
                p += s[a];
                if (++idx[a] < n[a])
                    break;
                p -= s[a] * n[a];
                idx[a] = 0;
            }
        }
    }
}
