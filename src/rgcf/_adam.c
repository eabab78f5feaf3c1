/* One Adam step with bias correction over a flat gradient, in one pass.
 *
 * The gradient is g = [outer(x, delta) in row-major order, rest]: entry
 * i*width + j of its first part is x[i]*delta[j], formed just before its
 * update, so the outer product is never written out. Each coordinate runs
 * the textbook recurrence with the same IEEE operations, in the same
 * order, as the whole-array numpy expressions
 *
 *     m = m*b1 + g*(1-b1)
 *     v = v*b2 + (g*(1-b2))*g
 *     p = p - ((m/c1)*lr) / (sqrt(v/c2) + eps)
 *
 * so it must be compiled without floating-point contraction or fast-math:
 * a fused multiply-add or a reciprocal changes the bits.
 *
 * Returns the first coordinate whose new weight is not finite, or -1. The
 * pass stops after the row of the outer product (or the rest) that holds
 * it, so params, m and v are then updated up to the end of that row.
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
