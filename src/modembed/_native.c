/* Compiled loops behind _native.library(), each called only through a
 * wrapper in _native.py: the rotation loops of the dense eigensolvers in
 * spectral.py (modembed_ql, modembed_jacobi), the %.17g row writer behind
 * every TSV writer (modembed_format_rows), the one CAFE and sphere sweep
 * behind clustering._kernel (modembed_sweep), the modularity operator's
 * Q @ H behind ModularityMatrix.apply (modembed_apply), the one TSV
 * scanner behind graph.load_edge_list, tasks.load_labels and
 * embedding.load_embedding_tsv (modembed_scan), the graph build behind
 * graph._from_ids (modembed_build), and the classifier's gradient descent
 * behind tasks.SoftmaxRegression.fit (modembed_fit).  Every array they
 * take is contiguous (int64 indices, row-major doubles, bytes) but the
 * fit's features, which it reads at numpy's strides.
 *
 * Each rotation function repeats its Python loop operation for
 * operation: the same IEEE operations on the same doubles in the same
 * order, libm hypot where numpy calls np.hypot, no reassociation.  Built
 * with -ffp-contract=off so no multiply-add is fused; the results are
 * then bit for bit those of the Python loops, NaN and inf included.
 *
 * The row writer prints every value exactly as Python's '%.17g' does.
 * Values in [1e-16, 1e17) take an integer-only path (correct rounding
 * of m * 2^e to 17 digits with 128-bit arithmetic, half to even, as
 * Python's dtoa); the rest go to the C library's printf, which is exact,
 * run in the "C" locale because Python's % never reads LC_NUMERIC.
 *
 * modembed_sweep runs one row loop (the operator's row_covariance, the
 * rule, delta, the update of both operators' aggregate A = F^T H, store)
 * with the two rules, clustering.softmax_update and sphere.sphere_update,
 * as static helpers.  What numpy computes in a vectorised or BLAS loop
 * (matmul, the max and sum reductions, exp) goes through numpy's own
 * inner loop with numpy's arguments, read from the ufunc objects by
 * _native.numpy_loop; the elementwise + - * / and comparisons are plain
 * C, exact under -ffp-contract=off.
 *
 * modembed_fit runs all the fit's iterations in one call on the same
 * bridge: numpy's matmul, exp and add loops with np.matmul's, np.exp's
 * and the reductions' arguments, and one pass per row before and after
 * the exp for what the loop does in nine whole-array ufunc calls.  The
 * row passes work on pairs of doubles (GCC vector types), each lane the
 * IEEE operation a scalar takes.
 *
 * modembed_apply forms Q @ H for ModularityMatrix.apply in one pass over
 * the graph's CSR rows, H a row-major block; every entry takes the
 * operations of the numpy path in the same order, so the bytes are the
 * same.  The one exception is the sign of a NaN made where NaNs of both
 * signs meet in an add: x86 returns one operand's, and numpy's own add
 * loop picks a different operand from one position to the next.
 *
 * modembed_scan reads a file's bytes once.  It takes the file only when
 * the text is ASCII with no NUL, '\r', '\x0b', '\x0c' or '\x1c'-'\x1f',
 * every line is one the Python loop accepts, and every number has the
 * form [+-]?digits[.digits][(e|E)[+-]digits].  It declines anything
 * else, errors included, and the loop then reads the file, so every
 * message keeps its words and line.  Numbers go through strtod in the
 * "C" locale, which rounds correctly as Python's float() does (Clinger,
 * PLDI 1990); edge-list labels are hashed and numbered in first-appearance
 * order, so Python decodes each distinct label once.  A label file's
 * nodes are found in a table seeded with the labels of the graph they
 * label, a scanned graph's, so each node comes back as its graph index.
 *
 * modembed_build repeats graph._csr_of_ids's arithmetic: each pair's
 * weight summed in input order from 0.0, the total summed left to right
 * over the pairs in first-appearance order, the same two divisions.  Only
 * the order of the work differs (a hash instead of np.unique, counting
 * and row sorts instead of argsort), and no value depends on it.
 */
#define _POSIX_C_SOURCE 200809L
#include <locale.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

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

/* --- %.17g rows ------------------------------------------------------- */

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL,
    125ULL, 625ULL, 3125ULL,
    15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL,
    244140625ULL, 1220703125ULL, 6103515625ULL,
    30517578125ULL, 152587890625ULL, 762939453125ULL,
    3814697265625ULL, 19073486328125ULL, 95367431640625ULL,
    476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL,
    59604644775390625ULL, 298023223876953125ULL, 1490116119384765625ULL,
    7450580596923828125ULL,
};

#define E16 10000000000000000ULL
#define E17 100000000000000000ULL

/* The 17 significant digits of a, 1e-16 <= a < 1e17, rounded half to
 * even, and a's decimal exponent: a ~ digits * 10^(exp10 - 16).  Returns
 * 0 when the exponent falls outside the range 5^p fits (a == 1e-16 lies
 * just below 10^-16). */
static int exact_digits(double a, uint64_t *digits, int *exp10)
{
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    int e = (int)(bits >> 52) - 1075;
    /* floor((e + 52) log10(2)), with 78913 / 2^18 for log10(2), lies
     * within 1 of floor(log10(a)) on this range; the loop moves x to the
     * one exponent that puts a * 10^(16 - x) in [1e16, 1e17), so the
     * digits do not depend on the first guess. */
    int t = (e + 52) * 78913;
    int x = t >= 0 ? t >> 18 : -((-t + (1 << 18) - 1) >> 18);
    for (int tries = 0; tries < 3; tries++) {
        /* a * 10^p = m * 5^p * 2^(e + p), with m * 5^p < 2^128. */
        int p = 16 - x;
        if (p < 0 || p > 32)
            return 0;
        u128 n = (u128)m * POW5[p < 27 ? p : 27];
        if (p > 27)
            n *= POW5[p - 27];
        int s = e + p;
        u128 q = s >= 0 ? n << s : n >> -s;
        if (q < E16) {
            x--;
            continue;
        }
        if (q >= E17) {
            x++;
            continue;
        }
        uint64_t d = (uint64_t)q;
        if (s < 0) {
            u128 r = n & (((u128)1 << -s) - 1), half = (u128)1 << (-s - 1);
            if (r > half || (r == half && (d & 1)))
                d++;
            if (d == E17) {
                d = E16;
                x++;
            }
        }
        *digits = d;
        *exp10 = x;
        return 1;
    }
    return 0;
}

/* %g's layout of 17 digits with exponent x: trailing zeros dropped,
 * exponent form below 1e-4 (at least two exponent digits). */
static char *put_digits(char *out, int negative, uint64_t d, int x)
{
    char dig[17];
    for (int i = 16; i >= 0; i--) {
        dig[i] = (char)('0' + d % 10);
        d /= 10;
    }
    int nd = 17;
    while (nd > 1 && dig[nd - 1] == '0')
        nd--;
    if (negative)
        *out++ = '-';
    if (x < -4 || x >= 17) {
        *out++ = dig[0];
        if (nd > 1) {
            *out++ = '.';
            memcpy(out, dig + 1, nd - 1);
            out += nd - 1;
        }
        *out++ = 'e';
        *out++ = x < 0 ? '-' : '+';
        int ax = x < 0 ? -x : x;
        if (ax >= 100)
            *out++ = (char)('0' + ax / 100);
        *out++ = (char)('0' + ax / 10 % 10);
        *out++ = (char)('0' + ax % 10);
    } else if (x < 0) {
        *out++ = '0';
        *out++ = '.';
        for (int i = -1; i > x; i--)
            *out++ = '0';
        memcpy(out, dig, nd);
        out += nd;
    } else if (nd <= x + 1) {
        memcpy(out, dig, nd);
        out += nd;
        for (int i = nd; i <= x; i++)
            *out++ = '0';
    } else {
        memcpy(out, dig, x + 1);
        out += x + 1;
        *out++ = '.';
        memcpy(out, dig + x + 1, nd - x - 1);
        out += nd - x - 1;
    }
    return out;
}
#endif

/* One value as Python's '%.17g' prints it, at most 24 bytes.  The first
 * value that needs printf switches this thread to the "C" locale, kept
 * in *c_locale with the caller's in *caller; NULL if that fails. */
static char *put_value(char *out, double v, locale_t *c_locale,
                       locale_t *caller)
{
#ifdef __SIZEOF_INT128__
    double a = fabs(v);
    uint64_t d;
    int x;
    if (a >= 1e-16 && a < 1e17 && exact_digits(a, &d, &x))
        return put_digits(out, signbit(v) != 0, d, x);
#endif
    const char *word = isnan(v) ? "nan" : isinf(v) ? "inf"
                     : v == 0.0 ? "0" : NULL;
    if (word != NULL) {
        /* Python drops NaN's sign, where printf writes -nan. */
        if (signbit(v) && !isnan(v))
            *out++ = '-';
        size_t len = strlen(word);
        memcpy(out, word, len);
        return out + len;
    }
    if (*c_locale == (locale_t)0) {
        *c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
        if (*c_locale == (locale_t)0)
            return NULL;
        *caller = uselocale(*c_locale);
    }
    char text[32];
    int len = snprintf(text, sizeof text, "%.17g", v);
    memcpy(out, text, (size_t)len);
    return out + len;
}

/* Rows `label<TAB>v1<TAB>...<TAB>vc<LF>` of the row-major n x c doubles
 * x into out, row i's label being labels[offsets[i]:offsets[i + 1]].
 * out must hold the labels plus n * (25 * c + 2) bytes.  Returns the
 * bytes written, or -1 if the "C" locale could not be made. */
ptrdiff_t modembed_format_rows(ptrdiff_t n, ptrdiff_t c, const double *x,
                               const char *labels, const ptrdiff_t *offsets,
                               char *out)
{
    char *start = out;
    locale_t c_locale = (locale_t)0, caller = (locale_t)0;
    for (ptrdiff_t i = 0; i < n && out != NULL; i++) {
        size_t len = (size_t)(offsets[i + 1] - offsets[i]);
        memcpy(out, labels + offsets[i], len);
        out += len;
        *out++ = '\t';
        for (ptrdiff_t j = 0; j < c && out != NULL; j++) {
            if (j > 0)
                *out++ = '\t';
            out = put_value(out, x[i * c + j], &c_locale, &caller);
        }
        if (out != NULL)
            *out++ = '\n';
    }
    if (c_locale != (locale_t)0) {
        uselocale(caller);
        freelocale(c_locale);
    }
    return out == NULL ? -1 : out - start;
}

/* --- sweeps ------------------------------------------------------------ */

/* A numpy inner loop (PyUFuncGenericFunction). */
typedef void (*numpy_loop)(char **args, const ptrdiff_t *dimensions,
                           const ptrdiff_t *steps, void *data);

/* numpy's float64 loops for np.matmul, np.maximum, np.exp and np.add,
 * each with its data pointer. */
struct modembed_loops {
    numpy_loop matmul, maximum, exp, add;
    void *matmul_data, *maximum_data, *exp_data, *add_data;
};

/* The operator a sweep reads and the aggregate A = F^T H it keeps, F
 * the row-major n x L array x.  A modularity operator gives its CSR rows
 * of p (indptr, indices, data) and the marginal as x with L = 1 (A is K
 * values); a Gram operator (indptr NULL) gives the cloud as x and its
 * squared row norms sq (A is row-major L x K). */
struct modembed_operator {
    const int64_t *indptr, *indices;
    const double *data, *x, *sq;
    double *agg;
    ptrdiff_t L;
};

#define ZERO_CLAMP 1e-300      /* clustering._ZERO_CLAMP */
#define DEGENERATE_NORM 1e-300 /* sphere._DEGENERATE_NORM */

/* out = a @ b for a (m x n) and b (n x p) at the given byte steps, as
 * np.matmul calls its loop; a 1-D operand is a row (a) or column (b). */
static void matmul(const struct modembed_loops *lp, const double *a,
                   const double *b, double *out, ptrdiff_t m, ptrdiff_t n,
                   ptrdiff_t p, ptrdiff_t a_m, ptrdiff_t a_n, ptrdiff_t b_n,
                   ptrdiff_t b_p)
{
    char *args[3] = {(char *)a, (char *)b, (char *)out};
    ptrdiff_t dims[4] = {1, m, n, p};
    ptrdiff_t steps[9] = {0, 0, 0, a_m, a_n, b_n, b_p,
                          p * (ptrdiff_t)sizeof(double), sizeof(double)};
    lp->matmul(args, dims, steps, lp->matmul_data);
}

/* A binary loop as numpy's reduction calls it: the accumulator, seeded
 * with `seed`, is both first operand and output at stride 0. */
static double reduce(numpy_loop loop, void *data, double seed,
                     const double *x, ptrdiff_t n)
{
    char *args[3] = {(char *)&seed, (char *)x, (char *)&seed};
    ptrdiff_t steps[3] = {0, sizeof(double), 0};
    loop(args, &n, steps, data);
    return seed;
}

/* z = row u's covariance, as the operator's row_covariance forms it;
 * gather holds max degree x k doubles. */
static void covariance(const struct modembed_operator *op,
                       const struct modembed_loops *lp, const double *hs,
                       ptrdiff_t k, ptrdiff_t u, double *z, double *gather)
{
    const double *h = hs + u * k;
    const ptrdiff_t w = sizeof(double);
    if (op->indptr != NULL) {
        ptrdiff_t s = op->indptr[u], d = op->indptr[u + 1] - s;
        for (ptrdiff_t j = 0; j < d; j++)
            memcpy(gather + j * k, hs + op->indices[s + j] * k,
                   (size_t)k * sizeof(double));
        matmul(lp, op->data + s, gather, z, 1, d, k, d * w, w, k * w, w);
        double pi = op->x[u];
        for (ptrdiff_t i = 0; i < k; i++)
            z[i] -= pi * (op->agg[i] - pi * h[i]);
    } else {
        /* A^T x_u: A^T is k x L at steps (w, k w), x_u a column at w. */
        matmul(lp, op->agg, op->x + u * op->L, z, k, op->L, 1, w, k * w, w,
               w);
        double sq = op->sq[u];
        for (ptrdiff_t i = 0; i < k; i++)
            z[i] -= sq * h[i];
    }
}

/* The aggregate's update for row u changing by delta: A += F[u] (x)
 * delta, one loop over the L rows of A. */
static void update(const struct modembed_operator *op, ptrdiff_t k,
                   ptrdiff_t u, const double *delta)
{
    for (ptrdiff_t l = 0; l < op->L; l++) {
        double xl = op->x[u * op->L + l], *al = op->agg + l * k;
        for (ptrdiff_t i = 0; i < k; i++)
            al[i] += xl * delta[i];
    }
}

/* softmax_update's row for h and its covariance z at inverse temperature
 * theta, into row, with t and e as scratch; it never skips a row. */
static int softmax_row(const struct modembed_loops *lp, const double *h,
                       const double *z, ptrdiff_t k, double theta,
                       double *row, double *t, double *e)
{
    ptrdiff_t unit[2] = {sizeof(double), sizeof(double)};
    for (ptrdiff_t i = 0; i < k; i++)
        t[i] = theta * z[i];
    /* np.maximum.reduce starts from the first value. */
    double top = k > 1 ? reduce(lp->maximum, lp->maximum_data, t[0],
                                t + 1, k - 1) : t[0];
    for (ptrdiff_t i = 0; i < k; i++)
        t[i] -= top;
    char *args[2] = {(char *)t, (char *)e};
    lp->exp(args, &k, unit, lp->exp_data);
    for (ptrdiff_t i = 0; i < k; i++) {
        row[i] = e[i] * h[i];
        if (row[i] < ZERO_CLAMP)
            row[i] = 0.0;
    }
    /* np.add.reduce starts from 0.0 and sums all k values. */
    double total = reduce(lp->add, lp->add_data, 0.0, row, k);
    const double *mass = row;
    if (total <= 0.0) {
        mass = e;
        total = reduce(lp->add, lp->add_data, 0.0, e, k);
    }
    for (ptrdiff_t i = 0; i < k; i++)
        row[i] = mass[i] / total;
    return 1;
}

/* sphere_update's row for h and its covariance z at blend weight beta,
 * into row; 0 when the blend is degenerate and the row is skipped. */
static int sphere_row(const struct modembed_loops *lp, const double *h,
                      const double *z, ptrdiff_t k, double beta, double *row)
{
    const ptrdiff_t w = sizeof(double);
    double keep = 1.0 - beta;
    for (ptrdiff_t i = 0; i < k; i++)
        row[i] = keep * h[i] + beta * z[i];
    /* np.linalg.norm: sqrt(b . b), the dot through matmul's loop. */
    double sq;
    matmul(lp, row, row, &sq, 1, k, 1, k * w, w, w, w);
    double norm = sqrt(sq);
    if (norm < DEGENERATE_NORM)
        return 0;
    for (ptrdiff_t i = 0; i < k; i++)
        row[i] = row[i] / norm;
    return 1;
}

/* One pass over the listed rows of the row-major n x k array hs, in
 * order: softmax_update at inverse temperature weight (sphere 0) or
 * sphere_update at blend weight weight (sphere 1), the aggregate kept
 * in step; scratch holds (4 + max degree) k doubles, four k-vectors and
 * the gather buffer.  Returns the rows skipped. */
ptrdiff_t modembed_sweep(const struct modembed_operator *op,
                         const struct modembed_loops *lp, double *hs,
                         ptrdiff_t k, const ptrdiff_t *rows, ptrdiff_t n_rows,
                         int sphere, double weight, double *scratch)
{
    double *z = scratch, *row = z + k, *delta = row + k, *e = delta + k;
    double *gather = e + k;
    ptrdiff_t skipped = 0;
    for (ptrdiff_t r = 0; r < n_rows; r++) {
        ptrdiff_t u = rows[r];
        double *h = hs + u * k;
        covariance(op, lp, hs, k, u, z, gather);
        if (!(sphere ? sphere_row(lp, h, z, k, weight, row)
                     : softmax_row(lp, h, z, k, weight, row, delta, e))) {
            skipped++;
            continue;
        }
        for (ptrdiff_t i = 0; i < k; i++)
            delta[i] = row[i] - h[i];
        update(op, k, u, delta);
        memcpy(h, row, (size_t)k * sizeof(double));
    }
    return skipped;
}

/* --- classifier fit ---------------------------------------------------- */

/* Two doubles, for the fit's row passes; each lane takes the IEEE
 * operation a scalar would, so the bytes are the same. */
typedef double v2df __attribute__((vector_size(16)));
typedef long long v2di __attribute__((vector_size(16)));

static v2df load2(const double *p)
{
    v2df v;
    memcpy(&v, p, sizeof v);
    return v;
}

static void store2(double *p, v2df v)
{
    memcpy(p, &v, sizeof v);
}

/* Row g of c values plus b, then minus its maximum as the fit's chain of
 * np.maximum over the columns forms it: the row's first NaN if it holds
 * one, else its largest value.  A maximum does not round, so the two
 * lanes' maxima give that value; only the sign of a zero maximum can
 * differ, and exp(logit - max) loses it. */
static void shift_row(double *g, const double *b, ptrdiff_t c)
{
    v2df top = {-INFINITY, -INFINITY};
    v2di nan = {0, 0};
    ptrdiff_t j = 0;
    for (; j + 2 <= c; j += 2) {
        v2df v = load2(g + j) + load2(b + j);
        store2(g + j, v);
        v2di up = v > top;
        top = (v2df)(((v2di)v & up) | ((v2di)top & ~up));
        nan |= v != v;
    }
    double max = top[1] > top[0] ? top[1] : top[0];
    int any_nan = (nan[0] | nan[1]) != 0;
    if (j < c) {
        g[j] = g[j] + b[j];
        max = g[j] > max ? g[j] : max;
        any_nan |= g[j] != g[j];
    }
    for (j = 0; any_nan; j++)
        if (g[j] != g[j]) {
            max = g[j];
            break;
        }
    v2df shift = {max, max};
    for (j = 0; j + 2 <= c; j += 2)
        store2(g + j, load2(g + j) - shift);
    if (j < c)
        g[j] = g[j] - max;
}

/* Row g of c values over its sum (the add loop seeded with 0.0) minus
 * the one-hot row y, added to the bias gradient's column sums gb when
 * c > 1. */
static void gradient_row(const struct modembed_loops *lp, double *g,
                         const double *y, double *gb, ptrdiff_t c)
{
    double total = reduce(lp->add, lp->add_data, 0.0, g, c);
    v2df sum = {total, total};
    ptrdiff_t j = 0;
    for (; j + 2 <= c; j += 2) {
        v2df v = load2(g + j) / sum - load2(y + j);
        store2(g + j, v);
        store2(gb + j, load2(gb + j) + v);
    }
    if (j < c) {
        g[j] = g[j] / total - y[j];
        if (c > 1)
            gb[j] = gb[j] + g[j];
    }
}

/* `iterations` steps of tasks.SoftmaxRegression.fit's gradient descent:
 * z the m x d standardized features at byte steps (z_m, z_d), y the
 * row-major m x c one-hot labels, w the row-major d x c weights and b the
 * c biases, updated in place; scratch holds (m + d + 1) c doubles.  Each
 * step takes numpy's operations in the loop's order: the two products and
 * the exp through numpy's loops with the arguments np.matmul and np.exp
 * pass, the row sums through the add loop seeded with 0.0, the bias
 * gradient's column sums row after row from 0.0 as np.add.reduce adds a
 * C-order array's rows (for c = 1 it takes the add loop's pairwise sum
 * down the column), and the rest elementwise in plain C. */
void modembed_fit(const struct modembed_loops *lp, ptrdiff_t m, ptrdiff_t d,
                  ptrdiff_t c, const double *z, ptrdiff_t z_m, ptrdiff_t z_d,
                  const double *y, ptrdiff_t iterations, double step,
                  double l2, double *w, double *b, double *scratch)
{
    const ptrdiff_t unit[2] = {sizeof(double), sizeof(double)};
    const ptrdiff_t row = c * (ptrdiff_t)sizeof(double), mc = m * c;
    double *G = scratch, *gw = G + mc, *gb = gw + d * c;
    char *flat[2] = {(char *)G, (char *)G};
    for (ptrdiff_t it = 0; it < iterations; it++) {
        /* logits = Z W + b, minus each row's maximum, then exp. */
        matmul(lp, z, w, G, m, d, c, z_m, z_d, row, sizeof(double));
        for (ptrdiff_t i = 0; i < m; i++)
            shift_row(G + i * c, b, c);
        lp->exp(flat, &mc, unit, lp->exp_data);
        /* G = P - Y and its column sums. */
        memset(gb, 0, (size_t)row);
        for (ptrdiff_t i = 0; i < m; i++)
            gradient_row(lp, G + i * c, y + i * c, gb, c);
        if (c == 1)
            gb[0] = reduce(lp->add, lp->add_data, 0.0, G, m);
        /* W -= step (Z^T G / m + l2 W); b -= step gb / m. */
        matmul(lp, z, G, gw, d, m, c, z_d, z_m, row, sizeof(double));
        for (ptrdiff_t k = 0; k < d * c; k++) {
            double g = gw[k] / (double)m;
            g = g + l2 * w[k];
            w[k] = w[k] - step * g;
        }
        for (ptrdiff_t j = 0; j < c; j++)
            b[j] = b[j] - step * (gb[j] / (double)m);
    }
}

/* --- Q @ H ---------------------------------------------------------------- */

/* out = Q @ H for the modularity operator of the graph on n nodes whose
 * off-diagonal mass p is the CSR (indptr, indices, data), as
 * ModularityMatrix.apply forms it: h is the row-major n x k block H,
 * c = marginal @ H, diag the diagonal mass (or the squared marginal for a
 * zeroed diagonal), out a row-major n x k array.  Each entry's sparse
 * part starts at 0.0 and adds data[p] * H[indices[p], j] over the row's
 * stored entries in order, as scipy's csr_matvecs and the numpy fallback
 * do; then it becomes (sum - pi_i * c_j) + diag_i * H[i, j].  Four
 * columns are summed at a time in registers, so each stored entry is
 * read once per four columns and no partial sum goes through memory. */
void modembed_apply(ptrdiff_t n, ptrdiff_t k, const int64_t *indptr,
                    const int64_t *indices, const double *data,
                    const double *marginal, const double *h, const double *c,
                    const double *diag, double *out)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const ptrdiff_t s = indptr[i], e = indptr[i + 1];
        const double pi = marginal[i], d = diag[i];
        const double *hi = h + i * k;
        double *o = out + i * k;
        ptrdiff_t j = 0;
        for (; j + 4 <= k; j += 4) {
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (ptrdiff_t p = s; p < e; p++) {
                const double a = data[p];
                const double *x = h + indices[p] * k + j;
                s0 = s0 + a * x[0];
                s1 = s1 + a * x[1];
                s2 = s2 + a * x[2];
                s3 = s3 + a * x[3];
            }
            o[j] = (s0 - pi * c[j]) + d * hi[j];
            o[j + 1] = (s1 - pi * c[j + 1]) + d * hi[j + 1];
            o[j + 2] = (s2 - pi * c[j + 2]) + d * hi[j + 2];
            o[j + 3] = (s3 - pi * c[j + 3]) + d * hi[j + 3];
        }
        for (; j < k; j++) {
            double s0 = 0.0;
            for (ptrdiff_t p = s; p < e; p++)
                s0 = s0 + data[p] * h[indices[p] * k + j];
            o[j] = (s0 - pi * c[j]) + d * hi[j];
        }
    }
}

/* --- TSV readers ------------------------------------------------------- */

/* Bytes the scanner leaves to the Python loops: non-ASCII, NUL and the
 * whitespace other than ' ', '\t' and '\n', where str.split, str.lstrip
 * and universal newlines would not split as a byte scan does. */
static int foreign(unsigned char c)
{
    return c >= 0x80 || c == 0 || c == '\r' || c == '\x0b' || c == '\x0c' ||
           (c >= 0x1c && c <= 0x1f);
}

/* The length of the number [+-]?digits[.digits][(e|E)[+-]digits] that
 * starts s, n bytes long; 0 when s starts with none. */
static ptrdiff_t number_length(const char *s, ptrdiff_t n)
{
    ptrdiff_t i = 0, digits;
    if (i < n && (s[i] == '+' || s[i] == '-'))
        i++;
    for (digits = i; i < n && s[i] >= '0' && s[i] <= '9'; i++)
        ;
    if (i == digits)
        return 0;
    if (i < n && s[i] == '.') {
        for (digits = ++i; i < n && s[i] >= '0' && s[i] <= '9'; i++)
            ;
        if (i == digits)
            return 0;
    }
    if (i < n && (s[i] == 'e' || s[i] == 'E')) {
        ptrdiff_t mark = i++;
        if (i < n && (s[i] == '+' || s[i] == '-'))
            i++;
        for (digits = i; i < n && s[i] >= '0' && s[i] <= '9'; i++)
            ;
        if (i == digits)
            return mark;
    }
    return i;
}

/* The n-byte field s as a double in *value; 0 unless all of it is one
 * number.  strtod reads a NUL-terminated copy, since the field may end
 * the buffer, in the "C" locale the caller set; it rounds correctly, as
 * Python's float() does, so both give the same double. */
static int parse_number(const char *s, ptrdiff_t n, double *value)
{
    char small[64], *copy = small;
    if (n == 0 || number_length(s, n) != n)
        return 0;
    if (n >= (ptrdiff_t)sizeof small && (copy = malloc((size_t)n + 1)) == NULL)
        return 0;
    memcpy(copy, s, (size_t)n);
    copy[n] = '\0';
    *value = strtod(copy, NULL);
    if (copy != small)
        free(copy);
    return 1;
}

/* A label: its n bytes at s, its first 8 bytes zero-padded and 32 bits
 * of its hash. */
struct label {
    const char *s;
    ptrdiff_t n;
    uint64_t head;
    uint32_t tag;
};

static struct label label_of(const char *s, ptrdiff_t n)
{
    struct label key = {s, n, 0, 0};
    uint64_t h = (uint64_t)n * 0x9E3779B97F4A7C15ULL;
    for (ptrdiff_t i = 0; i < n; i += 8) {
        uint64_t word = 0;
        memcpy(&word, s + i, n - i < 8 ? (size_t)(n - i) : 8);
        if (i == 0)
            key.head = word;
        h = (h ^ word) * 0xBF58476D1CE4E5B9ULL;
        h ^= h >> 31;
    }
    h *= 0x94D049BB133111EBULL;
    key.tag = (uint32_t)(h >> 32);
    return key;
}

/* Edge-list labels queued for their ids, so that the random reads of
 * their slots overlap instead of waiting one at a time. */
#define QUEUE 64
#ifdef __GNUC__
#define PREFETCH(p) __builtin_prefetch(p)
#else
#define PREFETCH(p) ((void)(p))
#endif

/* Distinct labels in first-appearance order, each appended to text and
 * followed by '\n'.  Label i is text[entries[i].name, entries[i + 1].name
 * - 1); a label file keeps 1 + the offset of node i's class in
 * entries[i].cls, 0 while node i has none.  A slot holds a label's head
 * and tag, the tag also placing the slot (so growing rehashes no label),
 * and its id + 1, 0 when empty.  No label holds a NUL, so a label shorter
 * than 8 bytes is known by its head alone, without a visit to entries or
 * text.  The queue holds labels whose slots are prefetched; an edge-list
 * label's id goes from queue[k] to ids[done + k]. */
struct table {
    struct slot { uint64_t head; uint32_t tag, id; } *slots;
    uint64_t mask;
    struct entry { ptrdiff_t name, cls; } *entries;
    ptrdiff_t count, capacity, size, done;
    char *text;
    struct label queue[QUEUE];
    int queued;
};

/* Room for `more` labels beyond those held: entries double until they
 * fit, slots until under half load.  0 when memory or the 31-bit ids run
 * out. */
static int table_reserve(struct table *t, ptrdiff_t more)
{
    ptrdiff_t count = t->count + more;
    if (count > 0x7FFFFFFF)
        return 0;
    if (count + 1 > t->capacity) {
        ptrdiff_t capacity = t->capacity ? 2 * t->capacity : 1024;
        while (count + 1 > capacity)
            capacity *= 2;
        struct entry *entries = realloc(t->entries,
                                        (size_t)capacity * sizeof *entries);
        if (entries == NULL)
            return 0;
        if (t->capacity == 0)
            entries[0].name = entries[0].cls = 0;
        t->entries = entries;
        t->capacity = capacity;
    }
    if ((uint64_t)(count - 1) * 2 < t->mask)
        return 1;
    uint64_t mask = t->mask ? 2 * t->mask + 1 : 2047;
    while ((uint64_t)(count - 1) * 2 >= mask)
        mask = 2 * mask + 1;
    struct slot *slots = calloc(mask + 1, sizeof *slots);
    if (slots == NULL)
        return 0;
    for (uint64_t i = 0; t->slots != NULL && i <= t->mask; i++) {
        uint64_t j = t->slots[i].tag;
        if (t->slots[i].id == 0)
            continue;
        while (slots[j & mask].id != 0)
            j++;
        slots[j & mask] = t->slots[i];
    }
    free(t->slots);
    t->slots = slots;
    t->mask = mask;
    return 1;
}

/* The slot holding the label, or the empty slot where it would go; the
 * table must have slots. */
static struct slot *table_slot(const struct table *t, const struct label *key)
{
    uint64_t j = key->tag;
    for (struct slot *slot; (slot = t->slots + (j & t->mask))->id != 0; j++) {
        if (slot->tag != key->tag || slot->head != key->head)
            continue;
        ptrdiff_t id = (ptrdiff_t)slot->id - 1, at = t->entries[id].name;
        if (key->n < 8 || (t->entries[id + 1].name - at - 1 == key->n &&
                           memcmp(t->text + at, key->s, (size_t)key->n) == 0))
            return slot;
    }
    return t->slots + (j & t->mask);
}

/* The id of the label, added if new (*added set to 1); -1 when memory
 * runs out. */
static ptrdiff_t table_id(struct table *t, const struct label *key,
                          int *added)
{
    if (!table_reserve(t, 1))
        return -1;
    struct slot *slot = table_slot(t, key);
    if (slot->id != 0) {
        *added = 0;
        return (ptrdiff_t)slot->id - 1;
    }
    ptrdiff_t id = t->count++;
    *slot = (struct slot){key->head, key->tag, (uint32_t)(id + 1)};
    memcpy(t->text + t->size, key->s, (size_t)key->n);
    t->size += key->n;
    t->text[t->size++] = '\n';
    t->entries[id + 1].name = t->size;
    *added = 1;
    return id;
}

/* Give the queued labels their ids, in order; 0 when memory runs out. */
static int flush(struct table *t, int64_t *ids)
{
    int added;
    for (int k = 0; k < t->queued; k++) {
        ptrdiff_t id = table_id(t, t->queue + k, &added);
        if (id < 0)
            return 0;
        ids[t->done++] = id;
    }
    t->queued = 0;
    return 1;
}

/* Give the labels of names, names_size bytes each followed by '\n' (the
 * last may lack it), the ids 0, 1, ... in order, with no class yet.  The
 * table is sized for all of them first, so it never grows and their
 * slots are prefetched a queue at a time.  0 when memory runs out or a
 * label repeats. */
static int table_seed(struct table *t, const char *names,
                      ptrdiff_t names_size)
{
    ptrdiff_t count = 1;
    const char *end = names + names_size;
    for (const char *s = names; (s = memchr(s, '\n', (size_t)(end - s)));
         s++)
        count++;
    int ok = table_reserve(t, count), added;
    for (const char *s = names, *e; ok && s < end; s = e + (e < end)) {
        e = memchr(s, '\n', (size_t)(end - s));
        if (e == NULL)
            e = end;
        struct label *key = t->queue + t->queued++;
        *key = label_of(s, e - s);
        PREFETCH(t->slots + (key->tag & t->mask));
        if (t->queued < QUEUE && end - e > 1)
            continue;
        for (int k = 0; ok && k < t->queued; k++)
            ok = table_id(t, t->queue + k, &added) >= 0 && added;
        t->queued = 0;
    }
    for (ptrdiff_t i = 0; ok && i < t->count; i++)
        t->entries[i].cls = 0;
    return ok;
}

/* The arrays modembed_scan fills, sized by the caller for a text of
 * `size` bytes, L newlines and T tabs and a graph's node labels of
 * nodes_size bytes: ids 2 (L + 1) and values L + 1 for an edge list,
 * values T for embedding rows, ids L + 1 for a label file, names
 * size + 1 bytes (nodes_size + 1 for a label file) and classes size + 1
 * bytes. */
struct modembed_scan {
    int64_t *ids;   /* edges: the two label ids of each edge; labels: the
                       graph index of each distinct node */
    double *values; /* edges: weights; rows: the rows x columns values */
    char *names;    /* distinct labels (edges) or row labels (rows), each
                       followed by '\n'; the table's text (labels) */
    char *classes;  /* labels: each node's class, followed by '\n' */
    ptrdiff_t rows; /* edges, distinct labelled nodes or embedding rows */
    ptrdiff_t columns, names_size, classes_size;
};

enum { SCAN_EDGES, SCAN_LABELS, SCAN_ROWS };

/* An edge-list line [s, e): `u w [weight]` split on runs of ' ' and
 * '\t'; blank, or a comment when its first field starts with '#'. */
static int edge_line(struct table *t, const char *s, const char *e,
                     struct modembed_scan *out)
{
    const char *field[3][2];
    int count = 0;
    for (;;) {
        while (s < e && (*s == ' ' || *s == '\t'))
            s++;
        if (s == e)
            break;
        if (count == 3)
            return 0;
        field[count][0] = s;
        while (s < e && *s != ' ' && *s != '\t')
            s++;
        field[count++][1] = s;
    }
    if (count == 0 || *field[0][0] == '#')
        return 1;
    double weight = 1.0;
    if (count == 1 || (count == 3 && !(parse_number(
            field[2][0], field[2][1] - field[2][0], &weight) &&
            weight >= 0.0 && !isinf(weight))))
        return 0;
    for (int j = 0; j < 2; j++) {
        struct label *key = t->queue + t->queued++;
        *key = label_of(field[j][0], field[j][1] - field[j][0]);
        if (t->slots != NULL)
            PREFETCH(t->slots + (key->tag & t->mask));
    }
    out->values[out->rows++] = weight;
    return t->queued < QUEUE || flush(t, out->ids);
}

/* A label-file line [s, e): `node<TAB>class`; empty, or a comment when
 * its first character after spaces and tabs is '#'.  The node must be
 * one of the graph's, which seed the table, and a node seen before must
 * come with the same class. */
static int label_line(struct table *t, const char *s, const char *e,
                      struct modembed_scan *out)
{
    const char *p = s;
    while (p < e && (*p == ' ' || *p == '\t'))
        p++;
    if (s == e || (p < e && *p == '#'))
        return 1;
    const char *tab = memchr(s, '\t', (size_t)(e - s));
    if (tab == NULL || memchr(tab + 1, '\t', (size_t)(e - tab - 1)) != NULL)
        return 0;
    const char *cls = tab + 1;
    ptrdiff_t n = e - cls;
    struct label key = label_of(s, tab - s);
    const struct slot *slot = table_slot(t, &key);
    if (slot->id == 0)
        return 0;
    ptrdiff_t id = (ptrdiff_t)slot->id - 1;
    struct entry *entry = t->entries + id;
    if (entry->cls != 0) {
        const char *old = out->classes + entry->cls - 1;
        const char *stop = memchr(old, '\n', (size_t)(out->classes +
                                  out->classes_size - old));
        return stop - old == n && memcmp(old, cls, (size_t)n) == 0;
    }
    entry->cls = out->classes_size + 1;
    memcpy(out->classes + out->classes_size, cls, (size_t)n);
    out->classes_size += n;
    out->classes[out->classes_size++] = '\n';
    out->ids[out->rows++] = id;
    return 1;
}

/* An embedding line [s, e): `label<TAB>v1<TAB>...<TAB>vC` with the C of
 * the first row, or empty. */
static int row_line(const char *s, const char *e, struct modembed_scan *out)
{
    const char *tab = memchr(s, '\t', (size_t)(e - s)), *stop;
    if (tab == NULL)
        return s == e;
    double *row = out->values + out->rows * out->columns;
    ptrdiff_t columns = 0;
    for (const char *v = tab; v < e; v = stop) {
        v++;
        stop = memchr(v, '\t', (size_t)(e - v));
        if (stop == NULL)
            stop = e;
        if ((out->rows > 0 && columns == out->columns) ||
            !parse_number(v, stop - v, row + columns))
            return 0;
        columns++;
    }
    if (out->rows > 0 && columns != out->columns)
        return 0;
    memcpy(out->names + out->names_size, s, (size_t)(tab - s));
    out->names_size += tab - s;
    out->names[out->names_size++] = '\n';
    out->columns = columns;
    out->rows++;
    return 1;
}

/* Read the size bytes at text as an edge list (kind SCAN_EDGES), a label
 * file (SCAN_LABELS) or embedding rows (SCAN_ROWS) into *out, as
 * graph.load_edge_list, tasks.load_labels and
 * embedding.load_embedding_tsv read them.  A label file names the nodes
 * of the graph whose labels are the nodes_size bytes at nodes, each
 * followed by '\n' (the last may lack it), label i being node i; other
 * kinds ignore nodes.  Returns 1 when read, and 0, with *out
 * unspecified, when the text is not the scanner's to read: a foreign()
 * byte, a line the Python loop would reject (field counts, a number not
 * of number_length's form, a negative or infinite weight, a node not in
 * the graph, a conflicting class, ragged rows), no edge, label or row at
 * all, no graph or one whose labels repeat, or no memory or "C" locale
 * left.  The Python loop then reads the file and gives its result or its
 * error. */
int modembed_scan(int kind, const char *text, ptrdiff_t size,
                  const char *nodes, ptrdiff_t nodes_size,
                  struct modembed_scan *out)
{
    for (ptrdiff_t i = 0; i < size; i++)
        if (foreign((unsigned char)text[i]))
            return 0;
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return 0;
    locale_t caller = uselocale(c_locale);
    struct table t = {.text = out->names};
    out->rows = out->columns = out->names_size = out->classes_size = 0;
    int ok = kind != SCAN_LABELS ||
             (nodes != NULL && table_seed(&t, nodes, nodes_size));
    const char *end = text + size;
    for (const char *s = text, *e; ok && s < end; s = e + (e < end)) {
        e = memchr(s, '\n', (size_t)(end - s));
        if (e == NULL)
            e = end;
        ok = kind == SCAN_EDGES ? edge_line(&t, s, e, out)
           : kind == SCAN_LABELS ? label_line(&t, s, e, out)
           : row_line(s, e, out);
    }
    if (kind == SCAN_EDGES) {
        ok = ok && flush(&t, out->ids);
        out->names_size = t.size;
    }
    free(t.slots);
    free(t.entries);
    uselocale(caller);
    freelocale(c_locale);
    return ok && out->rows > 0;
}

/* --- graph build ------------------------------------------------------- */

/* The arrays modembed_build fills, sized by the caller for n nodes and m
 * edges: indptr n + 1, indices and data 2 m, diag n; nnz is the stored
 * entry count. */
struct modembed_graph {
    int64_t *indptr, *indices;
    double *data, *diag;
    ptrdiff_t nnz;
};

/* A pair's slot: 32 bits of its key's hash, which also place the slot,
 * and its id + 1, 0 when empty. */
struct pair_slot {
    uint32_t tag, id;
};

/* The splitmix64 finalizer. */
static uint64_t mix64(uint64_t h)
{
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
}

/* Edge e's unordered pair as (min << 32) | max, or UINT64_MAX when an id
 * lies outside [0, n). */
static uint64_t pair_key(const int64_t *ids, ptrdiff_t e, ptrdiff_t n)
{
    int64_t a = ids[2 * e], b = ids[2 * e + 1];
    if (a < 0 || b < 0 || a >= n || b >= n)
        return UINT64_MAX;
    return a < b ? (uint64_t)a << 32 | (uint64_t)b
                 : (uint64_t)b << 32 | (uint64_t)a;
}

/* A stored entry while a row is sorted. */
struct cell {
    int64_t column;
    double value;
};

static int by_column(const void *x, const void *y)
{
    int64_t a = ((const struct cell *)x)->column;
    int64_t b = ((const struct cell *)y)->column;
    return (a > b) - (a < b);
}

/* Sort the d entries of a row by column, which are distinct; cells has
 * room for d. */
static void sort_row(int64_t *indices, double *data, ptrdiff_t d,
                     struct cell *cells)
{
    if (d <= 16) {
        for (ptrdiff_t i = 1; i < d; i++) {
            int64_t c = indices[i];
            double v = data[i];
            ptrdiff_t j = i;
            for (; j > 0 && indices[j - 1] > c; j--) {
                indices[j] = indices[j - 1];
                data[j] = data[j - 1];
            }
            indices[j] = c;
            data[j] = v;
        }
        return;
    }
    for (ptrdiff_t i = 0; i < d; i++)
        cells[i] = (struct cell){indices[i], data[i]};
    qsort(cells, (size_t)d, sizeof *cells, by_column);
    for (ptrdiff_t i = 0; i < d; i++) {
        indices[i] = cells[i].column;
        data[i] = cells[i].value;
    }
}

/* The sampled graph of m edges between n nodes, as graph._from_ids builds
 * it: edge e joins ids[2 e] and ids[2 e + 1] with weight weights[e].  The
 * unordered pairs are deduplicated with a hash and numbered in first-
 * appearance order; each pair's weight sums its edges' weights in input
 * order from 0.0, as np.bincount does; pairs of zero weight are dropped;
 * total sums the remaining pair weights left to right.  A self pair's
 * mass goes to diag as weight / total, every other pair's weight /
 * (2.0 * total) to both (i, j) and (j, i); a counting sort by row, then
 * a sort of each row by column, orders the entries.  Returns 1 when
 * built, 0 when no pair has weight, and -1 when an id lies outside
 * [0, n), n exceeds 2^32, m reaches 2^31 or memory runs out. */
int modembed_build(ptrdiff_t n, ptrdiff_t m, const int64_t *ids,
                   const double *weights, struct modembed_graph *out)
{
    if (n < 0 || m < 0 || (uint64_t)n > (1ULL << 32) ||
        (uint64_t)m >= (1ULL << 31))
        return -1;
    if (m == 0)
        return 0;
    /* Slots for m pairs at most two thirds full. */
    uint64_t mask = 15;
    while (mask + 1 < 3 * (uint64_t)m / 2)
        mask = 2 * mask + 1;
    struct pair_slot *slots = calloc(mask + 1, sizeof *slots);
    uint64_t *keys = malloc((size_t)m * sizeof *keys);
    double *mass = malloc((size_t)m * sizeof *mass);
    int64_t *next = NULL;
    struct cell *cells = NULL;
    int status = -1;
    if (slots == NULL || keys == NULL || mass == NULL)
        goto done;
    /* The slot of edge e + QUEUE is fetched while edge e is placed. */
    ptrdiff_t pairs = 0;
    for (ptrdiff_t e = 0; e < m; e++) {
        if (e + QUEUE < m)
            PREFETCH(slots + ((mix64(pair_key(ids, e + QUEUE, n)) >> 32) &
                              mask));
        uint64_t key = pair_key(ids, e, n);
        if (key == UINT64_MAX)
            goto done;
        uint32_t tag = (uint32_t)(mix64(key) >> 32);
        uint64_t j = tag;
        struct pair_slot *slot;
        while ((slot = slots + (j & mask))->id != 0 &&
               (slot->tag != tag || keys[slot->id - 1] != key))
            j++;
        if (slot->id == 0) {
            *slot = (struct pair_slot){tag, (uint32_t)(pairs + 1)};
            keys[pairs] = key;
            mass[pairs++] = 0.0;
        }
        mass[slot->id - 1] += weights[e];
    }
    free(slots);
    slots = NULL;
    double total = 0.0;
    ptrdiff_t kept = 0;
    for (ptrdiff_t p = 0; p < pairs; p++) {
        if (mass[p] > 0.0) {
            total += mass[p];
            kept++;
        }
    }
    if (kept == 0) {
        status = 0;
        goto done;
    }
    /* Row counts into indptr[1:], then their running sum. */
    for (ptrdiff_t i = 0; i < n; i++)
        out->diag[i] = 0.0;
    memset(out->indptr, 0, (size_t)(n + 1) * sizeof *out->indptr);
    for (ptrdiff_t p = 0; p < pairs; p++) {
        uint64_t a = keys[p] >> 32, b = keys[p] & 0xFFFFFFFFu;
        if (mass[p] > 0.0 && a != b) {
            out->indptr[a + 1]++;
            out->indptr[b + 1]++;
        }
    }
    ptrdiff_t widest = 0;
    for (ptrdiff_t i = 0; i < n; i++) {
        if (out->indptr[i + 1] > widest)
            widest = out->indptr[i + 1];
        out->indptr[i + 1] += out->indptr[i];
    }
    next = malloc((size_t)(n ? n : 1) * sizeof *next);
    cells = malloc((size_t)(widest ? widest : 1) * sizeof *cells);
    if (next == NULL || cells == NULL)
        goto done;
    memcpy(next, out->indptr, (size_t)n * sizeof *next);
    double half = 2.0 * total;
    for (ptrdiff_t p = 0; p < pairs; p++) {
        uint64_t a = keys[p] >> 32, b = keys[p] & 0xFFFFFFFFu;
        if (!(mass[p] > 0.0))
            continue;
        if (a == b) {
            out->diag[a] = mass[p] / total;
            continue;
        }
        double v = mass[p] / half;
        out->indices[next[a]] = (int64_t)b;
        out->data[next[a]++] = v;
        out->indices[next[b]] = (int64_t)a;
        out->data[next[b]++] = v;
    }
    for (ptrdiff_t i = 0; i < n; i++) {
        int64_t s = out->indptr[i];
        sort_row(out->indices + s, out->data + s, out->indptr[i + 1] - s,
                 cells);
    }
    out->nnz = out->indptr[n];
    status = 1;
done:
    free(slots);
    free(keys);
    free(mass);
    free(next);
    free(cells);
    return status;
}
