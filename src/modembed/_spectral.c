/* Rotation loops of the dense eigensolvers in spectral.py, compiled.
 *
 * Each function repeats its Python loop operation for operation: the
 * same IEEE operations on the same doubles in the same order, libm
 * hypot where numpy calls np.hypot, no reassociation.  Built with
 * -ffp-contract=off so no multiply-add is fused; the results are then
 * bit for bit those of the Python loops, NaN and inf included.
 */
#include <math.h>
#include <stddef.h>

/* max of fabs over n doubles, NaN if any is NaN (numpy's max). */
static double abs_max(const double *x, ptrdiff_t n)
{
    double top = 0.0;
    for (ptrdiff_t i = 0; i < n; i++) {
        double v = fabs(x[i]);
        if (isnan(v) || v > top)
            top = v;
    }
    return top;
}

/* Implicit-shift QL on the tridiagonal (d, e), e[n - 1] == 0, rotating
 * the n rows of zt (each k long).  Returns -1, or the eigenvalue index
 * whose shifts ran out. */
ptrdiff_t modembed_ql(ptrdiff_t n, ptrdiff_t k, double *d, double *e,
                      double *zt, ptrdiff_t max_iter)
{
    const double eps = 2.220446049250313e-16;
    for (ptrdiff_t l = 0; l < n; l++) {
        for (ptrdiff_t iteration = 0; iteration <= max_iter; iteration++) {
            ptrdiff_t m = l;
            while (m < n - 1) {
                double dd = fabs(d[m]) + fabs(d[m + 1]);
                if (fabs(e[m]) <= eps * dd)
                    break;
                m++;
            }
            if (m == l)
                break;
            if (iteration == max_iter)
                return l;
            double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            double r = hypot(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + copysign(r, g));
            double s = 1.0, c = 1.0, p = 0.0;
            int deflated = 0;
            for (ptrdiff_t i = m - 1; i >= l; i--) {
                double f = s * e[i];
                double b = c * e[i];
                r = hypot(f, g);
                e[i + 1] = r;
                if (r == 0.0) {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    deflated = 1;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                double *zi = zt + i * k, *zi1 = zi + k;
                for (ptrdiff_t j = 0; j < k; j++) {
                    double a = zi[j], y = zi1[j];
                    zi1[j] = s * a + c * y;
                    zi[j] = c * a - s * y;
                }
            }
            if (!deflated) {
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
    }
    return -1;
}

/* Rotate columns p, q of the row-major n x n matrix x by (c, s). */
static void rotate_columns(double *x, ptrdiff_t n, ptrdiff_t p, ptrdiff_t q,
                           double c, double s)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        double xp = x[i * n + p], xq = x[i * n + q];
        x[i * n + p] = c * xp - s * xq;
        x[i * n + q] = s * xp + c * xq;
    }
}

/* Cyclic Jacobi sweeps on the row-major n x n matrix a, rotations
 * accumulated into the columns of v.  Returns 1 once the off-diagonal
 * max is within tol * scale, 0 if max_sweeps pass first. */
int modembed_jacobi(ptrdiff_t n, double *a, double *v, double tol,
                    double scale, ptrdiff_t max_sweeps)
{
    for (ptrdiff_t sweep = 0; sweep < max_sweeps; sweep++) {
        double off = 0.0;
        for (ptrdiff_t i = 0; i < n; i++) {
            for (ptrdiff_t j = 0; j < n; j++) {
                double x = a[i * n + j];
                double y = fabs(i == j ? x - x : x);
                if (isnan(y) || y > off)
                    off = y;
            }
        }
        if (off <= tol * scale)
            return 1;
        double skip = tol * scale / (double)n;
        for (ptrdiff_t p = 0; p < n - 1; p++) {
            if (abs_max(a + p * n + p + 1, n - p - 1) <= skip)
                continue;
            for (ptrdiff_t q = p + 1; q < n; q++) {
                double apq = a[p * n + q];
                if (fabs(apq) <= skip)
                    continue;
                double tau = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
                double t = tau != 0.0
                    ? (tau > 0.0 ? 1.0 : tau < 0.0 ? -1.0 : tau) : 1.0;
                t /= fabs(tau) + hypot(1.0, tau);
                double c = 1.0 / hypot(1.0, t);
                double s = t * c;
                rotate_columns(a, n, p, q, c, s);
                double *ap = a + p * n, *aq = a + q * n;
                for (ptrdiff_t j = 0; j < n; j++) {
                    double xp = ap[j], xq = aq[j];
                    ap[j] = c * xp - s * xq;
                    aq[j] = s * xp + c * xq;
                }
                a[p * n + q] = 0.0;
                a[q * n + p] = 0.0;
                rotate_columns(v, n, p, q, c, s);
            }
        }
    }
    return 0;
}
