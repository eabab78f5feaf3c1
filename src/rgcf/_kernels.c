/* The compiled kernels: one Adam step, and the sorted-column reductions
 * of the coordinate median and the trimmed mean. Each runs the same IEEE
 * operations, in the same order, as the numpy expressions it replaces, so
 * the library must be compiled without floating-point contraction or
 * fast-math: a fused multiply-add or a reciprocal changes the bits.
 *
 * rgcf_adam_step: one Adam step with bias correction over a flat gradient,
 * in one pass. The gradient is g = [outer(x, delta) in row-major order,
 * rest]: entry i*width + j of its first part is x[i]*delta[j], formed just
 * before its update, so the outer product is never written out. Each
 * coordinate runs the textbook recurrence of the whole-array expressions
 *
 *     m = m*b1 + g*(1-b1)
 *     v = v*b2 + (g*(1-b2))*g
 *     p = p - ((m/c1)*lr) / (sqrt(v/c2) + eps)
 *
 * It returns the first coordinate whose new weight is not finite, or -1.
 * The pass stops after the row of the outer product (or the rest) that
 * holds it, so params, m and v are then updated up to the end of that row.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

struct adam {
    double b1, one_minus_b1, b2, one_minus_b2, c1, c2, lr, eps;
};

/* Updates n coordinates from x*g[k] (outer != 0) or g[k], and returns the
 * first offset whose new weight is not finite, or -1. The check ORs the
 * bits of p - p, which is +0 for a finite p and NaN otherwise, so the loop
 * has no branch and vectorizes. */
static inline int64_t update(double *restrict p, double *restrict m, double *restrict v,
                             const double *restrict g, double x, const int outer, int64_t n,
                             const struct adam *a)
{
    uint64_t bad = 0;
    for (int64_t k = 0; k < n; k++) {
        double gk = outer ? x * g[k] : g[k];
        double mk = m[k] * a->b1 + gk * a->one_minus_b1;
        double vk = v[k] * a->b2 + (gk * a->one_minus_b2) * gk;
        double pk = p[k] - ((mk / a->c1) * a->lr) / (sqrt(vk / a->c2) + a->eps);
        double zero = pk - pk;
        uint64_t bits;
        memcpy(&bits, &zero, sizeof bits);
        bad |= bits;
        m[k] = mk;
        v[k] = vk;
        p[k] = pk;
    }
    if (!bad)
        return -1;
    for (int64_t k = 0;; k++)
        if (!isfinite(p[k]))
            return k;
}

int64_t rgcf_adam_step(double *p, double *m, double *v, const double *x, int64_t rows,
                       const double *delta, int64_t width, const double *rest, int64_t n_rest,
                       double b1, double b2, double c1, double c2, double lr, double eps)
{
    const struct adam a = {b1, 1.0 - b1, b2, 1.0 - b2, c1, c2, lr, eps};
    int64_t off = 0, bad;
    for (int64_t i = 0; i < rows; i++, off += width) {
        bad = update(p + off, m + off, v + off, delta, x[i], 1, width, &a);
        if (bad >= 0)
            return off + bad;
    }
    bad = update(p + off, m + off, v + off, rest, 0.0, 0, n_rest, &a);
    return bad >= 0 ? off + bad : -1;
}

/* Sorts a[k] <= b[k] for each k < w, NaN last as np.sort orders it: the
 * pair swaps where b < a or a is NaN. Equal values keep their places, so
 * only zeros of opposite sign may end in another order than np.sort's. No
 * branch: the loop vectorizes. */
static inline void compare_exchange(double *restrict a, double *restrict b, int64_t w)
{
    for (int64_t k = 0; k < w; k++) {
        double x = a[k], y = b[k];
        int swap = (y < x) | (x != x);
        a[k] = swap ? y : x;
        b[k] = swap ? x : y;
    }
}

/* Per column of the n rows of length d, the median (trim < 0) or the
 * trimmed mean (0 <= trim, 2*trim < n) of its sorted values s[0..n-1]:
 *
 *     median:       s[n/2] for odd n, (s[n/2-1] + s[n/2]) / 2 for even n,
 *                   and NaN where s[n-1] is NaN
 *     trimmed mean: ((s[trim] + s[trim+1]) + ... + s[n-trim-1]) / (n-2*trim)
 *
 * with the operations, in their order, of s = np.sort(g, axis=0) followed
 * by s[h], (s[h-1] + s[h]) / 2 or s[trim:n-trim].mean(axis=0), for h =
 * n/2. The columns go in blocks of `block`: each block's rows
 * are copied into `scratch` (n*block doubles) and sorted there by Batcher's
 * odd-even merge network, the same compare-exchanges for every column, so
 * each is one loop across the block. The rows are read through an array
 * of row pointers, never stacked. The default `cc` command sets no -march,
 * so the function is built for AVX-512, AVX2 and the baseline, and the
 * loader picks the best one the CPU runs. */
__attribute__((target_clones("avx512f", "avx2", "default")))
void rgcf_sorted_columns(const double *const *rows, int64_t n, int64_t d, int64_t trim,
                         int64_t block, double *scratch, double *out)
{
    for (int64_t c0 = 0; c0 < d; c0 += block) {
        const int64_t w = d - c0 < block ? d - c0 : block;
        for (int64_t r = 0; r < n; r++)
            memcpy(scratch + r * block, rows[r] + c0, w * sizeof(double));
        /* the iterative form of the network for the next power of two,
         * less every compare-exchange that reaches past row n-1 (rows
         * there would hold +inf and never move): compare-exchange i+j with
         * i+j+k wherever both lie in one merge of width 2p */
        for (int64_t p = 1; p < n; p *= 2)
            for (int64_t k = p; k >= 1; k /= 2)
                for (int64_t j = k % p; j + k < n; j += 2 * k)
                    for (int64_t i = 0; i < k && i + j + k < n; i++)
                        if ((i + j) / (2 * p) == (i + j + k) / (2 * p))
                            compare_exchange(scratch + (i + j) * block, scratch + (i + j + k) * block, w);
        double *o = out + c0;
        const double *last = scratch + (n - 1) * block;
        if (trim < 0) {
            /* the two middle rows, one row for odd n */
            const double *lo = scratch + ((n - 1) / 2) * block, *hi = scratch + (n / 2) * block;
            for (int64_t k = 0; k < w; k++) {
                double med = n % 2 ? hi[k] : (lo[k] + hi[k]) / 2;
                o[k] = last[k] != last[k] ? NAN : med;
            }
        } else {
            memcpy(o, scratch + trim * block, w * sizeof(double));
            for (int64_t r = trim + 1; r < n - trim; r++) {
                const double *s = scratch + r * block;
                for (int64_t k = 0; k < w; k++)
                    o[k] += s[k];
            }
            const double kept = (double)(n - 2 * trim);
            for (int64_t k = 0; k < w; k++)
                o[k] /= kept;
        }
    }
}
