/* Hostile inputs for modembed_scan, the TSV scanner in _native.c, for
 * modembed_build, which reads what it gives, for the row writer
 * modembed_format_rows, the operator pass modembed_apply and the
 * classifier fit modembed_fit (on stand-ins for numpy's loops), built with
 * -fsanitize=address,undefined by tests/test_io.py.  The driver is one
 * unit with _native.c, which it includes (the test puts its directory on
 * the include path), so every call and struct is checked against the
 * source's own declarations.
 *
 * Each text is copied to a heap block of exactly its size, with no NUL
 * after it, and each output array is allocated at the size the entry's
 * contract names (struct modembed_scan and struct modembed_graph in
 * _native.c, the row budget of modembed_format_rows), so a read or write
 * past any of them stops the run.  Exits 0 when every call returned what
 * it should, 1 otherwise. */
#include "_native.c"

#define ANY (-1)

static int failures;

/* The graph whose nodes the label files of check() name: short labels
 * that the random texts below can spell. */
static const char *const NODES = "a\nb\nA\n0\n1\ne\nE\n_\n+\naA\nnode____0\n";

/* Scan size bytes as kind, a label file naming the nodes of the graph
 * whose labels are the text nodes (NULL for no graph); want is 1 (read),
 * 0 (declined) or ANY.  A label file read must give the graph indices
 * ids, count of them, unless ids is NULL.  Returns the number of rows
 * read, -1 when declined. */
static ptrdiff_t scan_check(const char *name, int kind, const char *bytes,
                            size_t size, const char *nodes, int want,
                            const int64_t *ids, size_t count)
{
    char *text = malloc(size);
    if (size)
        memcpy(text, bytes, size);
    size_t lines = 1, tabs = 0, seed = nodes ? strlen(nodes) : 0;
    for (size_t i = 0; i < size; i++) {
        lines += bytes[i] == '\n';
        tabs += bytes[i] == '\t';
    }
    char *graph = nodes ? malloc(seed) : NULL;
    if (seed)
        memcpy(graph, nodes, seed);
    struct modembed_scan out = {
        malloc((kind == SCAN_EDGES ? 2 * lines
                : kind == SCAN_LABELS ? lines : 0) * sizeof(int64_t)),
        malloc((kind == SCAN_EDGES ? lines : kind == SCAN_ROWS ? tabs : 0) *
               sizeof(double)),
        malloc((kind == SCAN_LABELS ? seed : size) + 1),
        malloc(kind == SCAN_LABELS ? size + 1 : 0), 0, 0, 0, 0};
    int got = modembed_scan(kind, text, (ptrdiff_t)size, graph,
                            (ptrdiff_t)seed, &out);
    if (want != ANY && got != want) {
        fprintf(stderr, "%s (kind %d): got %d, want %d\n", name, kind, got,
                want);
        failures++;
    }
    if (got && ids != NULL) {
        ptrdiff_t i = 0;
        while (i < out.rows && (size_t)i < count && out.ids[i] == ids[i])
            i++;
        if (out.rows != (ptrdiff_t)count || i < out.rows) {
            fprintf(stderr, "%s: %ld of %ld nodes found, want %zu\n", name,
                    (long)i, (long)out.rows, count);
            failures++;
        }
    }
    free(text);
    free(graph);
    free(out.ids);
    free(out.values);
    free(out.names);
    free(out.classes);
    return got ? out.rows : -1;
}

static ptrdiff_t check(const char *name, int kind, const char *bytes,
                       size_t size, int want)
{
    return scan_check(name, kind, bytes, size,
                      kind == SCAN_LABELS ? NODES : NULL, want, NULL, 0);
}

static void check_text(const char *name, int kind, const char *text, int want)
{
    check(name, kind, text, strlen(text), want);
}

/* Scan the label file text naming the nodes of the graph whose labels
 * are nodes; when read, it must give the graph indices ids. */
static void check_labels(const char *name, const char *nodes,
                         const char *text, int want, const int64_t *ids,
                         size_t count)
{
    scan_check(name, SCAN_LABELS, text, strlen(text), nodes, want, ids,
               count);
}

/* prefix, then `count` copies of unit, then suffix, in a new string. */
static char *repeat(const char *prefix, const char *unit, size_t count,
                    const char *suffix)
{
    size_t a = strlen(prefix), b = strlen(unit), c = strlen(suffix);
    char *s = malloc(a + b * count + c + 1), *p = s;
    memcpy(p, prefix, a);
    p += a;
    for (size_t i = 0; i < count; i++, p += b)
        memcpy(p, unit, b);
    memcpy(p, suffix, c + 1);
    return s;
}

/* Build the graph of m edges (ids and weights copied to blocks of their
 * exact size) on n nodes; want is modembed_build's return.  When built,
 * the CSR is checked: rows rise, columns rise strictly within a row and
 * lie in [0, n) off the diagonal, every entry has its mirror, and there
 * are nnz entries (any number when nnz is -1). */
static void check_build(const char *name, ptrdiff_t n, ptrdiff_t m,
                        const int64_t *ids, const double *weights, int want,
                        ptrdiff_t nnz)
{
    int64_t *id = malloc(2 * (size_t)m * sizeof *id + 1);
    double *w = malloc((size_t)m * sizeof *w + 1);
    memcpy(id, ids, 2 * (size_t)m * sizeof *id);
    memcpy(w, weights, (size_t)m * sizeof *w);
    struct modembed_graph g = {
        malloc(((size_t)n + 1) * sizeof(int64_t)),
        malloc(2 * (size_t)m * sizeof(int64_t) + 1),
        malloc(2 * (size_t)m * sizeof(double) + 1),
        malloc((size_t)n * sizeof(double) + 1), -1};
    int got = modembed_build(n, m, id, w, &g);
    if (got != want) {
        fprintf(stderr, "%s: build got %d, want %d\n", name, got, want);
        failures++;
    }
    for (ptrdiff_t i = 0; got == 1 && i < n; i++) {
        for (int64_t p = g.indptr[i]; p < g.indptr[i + 1]; p++) {
            int64_t c = g.indices[p], q = g.indptr[c];
            while (q < g.indptr[c + 1] && g.indices[q] != i)
                q++;
            if (c < 0 || c >= n || c == i ||
                (p > g.indptr[i] && g.indices[p - 1] >= c) ||
                q == g.indptr[c + 1] || g.data[q] != g.data[p]) {
                fprintf(stderr, "%s: bad entry %ld of row %ld\n", name,
                        (long)p, (long)i);
                failures++;
                break;
            }
        }
    }
    if (got == 1 && (g.nnz != g.indptr[n] || (nnz >= 0 && g.nnz != nnz))) {
        fprintf(stderr, "%s: nnz %ld\n", name, (long)g.nnz);
        failures++;
    }
    free(id);
    free(w);
    free(g.indptr);
    free(g.indices);
    free(g.data);
    free(g.diag);
}

struct tagged {
    uint32_t tag, i;
};

static int by_tag(const void *x, const void *y)
{
    const struct tagged *a = x, *b = y;
    return a->tag != b->tag ? (a->tag > b->tag) - (a->tag < b->tag)
                            : (a->i > b->i) - (a->i < b->i);
}

/* Up to max indices i < count, in pairs, whose tags are equal; returns
 * how many were found. */
static size_t colliding(uint32_t (*tag)(uint32_t), uint32_t count,
                        uint32_t *found, size_t max)
{
    struct tagged *t = malloc(count * sizeof *t);
    for (uint32_t i = 0; i < count; i++)
        t[i] = (struct tagged){tag(i), i};
    qsort(t, count, sizeof *t, by_tag);
    size_t k = 0;
    for (uint32_t i = 1; i < count && k + 2 <= max; i++) {
        if (t[i].tag == t[i - 1].tag) {
            found[k++] = t[i - 1].i;
            found[k++] = t[i].i;
        }
    }
    free(t);
    return k;
}

/* Pair i of the collision search joins nodes i / 4096 and 4096 + i % 4096. */
#define PAIR_A(i) ((int64_t)((i) / 4096))
#define PAIR_B(i) ((int64_t)(4096 + (i) % 4096))

/* modembed_build's tag of pair i. */
static uint32_t pair_tag(uint32_t i)
{
    return (uint32_t)(mix64((uint64_t)PAIR_A(i) << 32 | (uint64_t)PAIR_B(i))
                      >> 32);
}

/* The table's tag of the label node____i. */
static uint32_t name_tag(uint32_t i)
{
    char text[32];
    int n = sprintf(text, "node____%u", i);
    return label_of(text, n).tag;
}

static void build_cases(void)
{
    const int64_t one[] = {0, 1};
    const double unit[] = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
    check_build("one edge", 2, 1, one, unit, 1, 2);
    check_build("one edge, isolated nodes", 5, 1, one, unit, 1, 2);
    const int64_t loops[] = {0, 0, 1, 1, 2, 2, 1, 1};
    check_build("all self-loops", 3, 4, loops, unit, 1, 0);
    const int64_t twice[] = {0, 1, 1, 0, 2, 1, 1, 2, 0, 1, 2, 1};
    check_build("every pair repeated", 3, 6, twice, unit, 1, 4);
    const double zero[] = {0.0, -0.0, 0.0};
    check_build("all-zero weights", 3, 3, twice, zero, 0, -1);
    check_build("no edges", 3, 0, one, unit, 0, -1);
    const int64_t outside[] = {0, 1, 1, 3};
    check_build("id past n", 3, 2, outside, unit, -1, -1);
    const int64_t negative[] = {0, -1};
    check_build("negative id", 3, 1, negative, unit, -1, -1);

    /* Ids up to n - 1, every pair twice and reversed, and enough pairs
     * that many share a hash tag or a first slot. */
    enum { N = 3000, M = 40000 };
    int64_t *ids = malloc(2 * M * sizeof *ids);
    double *w = malloc(M * sizeof *w);
    uint64_t state = 2463534242ULL;
    for (int e = 0; e < M; e += 2) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        int64_t a = (int64_t)(state % N), b = (int64_t)((state >> 32) % N);
        if (e % 1000 == 0)
            a = N - 1;
        ids[2 * e] = ids[2 * e + 3] = a;
        ids[2 * e + 1] = ids[2 * e + 2] = b;
        w[e] = (double)(e % 7);
        w[e + 1] = 0.5;
    }
    check_build("40,000 edges", N, M, ids, w, 1, -1);
    free(ids);
    free(w);

    /* Pairs whose hash tags are equal, each given twice. */
    uint32_t found[16];
    size_t k = colliding(pair_tag, 1u << 18, found, 16);
    if (k == 0) {
        fprintf(stderr, "no colliding pair tags found\n");
        failures++;
    }
    int64_t pair_ids[64];
    double pair_w[32];
    for (size_t e = 0; e < 2 * k; e++) {
        uint32_t i = found[e % k];
        pair_ids[2 * e] = e < k ? PAIR_A(i) : PAIR_B(i);
        pair_ids[2 * e + 1] = e < k ? PAIR_B(i) : PAIR_A(i);
        pair_w[e] = 1.0 + (double)e;
    }
    check_build("colliding pair tags", 8192, (ptrdiff_t)(2 * k), pair_ids,
                pair_w, 1, (ptrdiff_t)(2 * k));
}

/* The label file of the nodes `i % 2 ? n<i> : node____<i>` for i from
 * count - 1 down to 0, with the node node____<count + 1>, which a graph
 * of the first count lacks, on line `unknown` (0 for first, count for
 * last, -1 for none). */
static char *reversed_labels(int count, int unknown)
{
    char *text = malloc(((size_t)count + 1) * 32), *p = text;
    for (int line = 0; line <= count; line++) {
        if (line == unknown)
            p += sprintf(p, "node____%d\tk\n", count + 1);
        if (line < count) {
            int i = count - 1 - line;
            p += sprintf(p, "%s%d\tk%d\n", i % 2 ? "n" : "node____", i,
                         i % 3);
        }
    }
    return text;
}

static void label_cases(void)
{
    check_labels("no graph", NULL, "a\tk\n", 0, NULL, 0);
    check_labels("no names", "", "a\tk\nb\tk\n", 0, NULL, 0);
    check_labels("repeated names", "a\nb\na\n", "b\tk\n", 0, NULL, 0);
    const char *names = "b\na\nlabel_long_1\n";
    check_labels("short and long labels", names,
                 "a\tk\nb\tj\n# c\tk\n\n  \t#x\nlabel_long_1\tk\na\tk\n", 1,
                 (const int64_t[]){1, 0, 2}, 3);
    check_labels("unknown long label", names, "a\tk\nlabel_long_2\tk\n", 0,
                 NULL, 0);
    check_labels("unknown prefix", names, "label_lon\tk\n", 0, NULL, 0);
    check_labels("unknown longer label", names, "label_long_12\tk\n", 0,
                 NULL, 0);
    check_labels("empty node", names, "\tk\n", 0, NULL, 0);
    check_labels("unterminated", "x\ny", "y\tk\nx\tj", 1,
                 (const int64_t[]){1, 0}, 2);
    check_labels("same class again", "a\n", "a\tk\na\tk\n", 1,
                 (const int64_t[]){0}, 1);
    check_labels("longer, then shorter class", "a\n", "a\tkk\na\tk\n", 0,
                 NULL, 0);
    check_labels("shorter, then longer class", "a\n", "a\tk\na\tkk\n", 0,
                 NULL, 0);
    check_labels("empty, then other class", "a\nb\n", "b\t\na\tk\nb\tk", 0,
                 NULL, 0);
    check_labels("empty class again", "a\nb\n", "b\t\na\tk\nb\t", 1,
                 (const int64_t[]){1, 0}, 2);

    /* 20,000 names, some alike in their first 8 bytes, labelled in
     * reverse order; an unknown node first or last declines the file. */
    enum { COUNT = 20000 };
    char *all = malloc(COUNT * 24), *text;
    int64_t *want = malloc(COUNT * sizeof *want);
    size_t a = 0;
    for (int i = 0; i < COUNT; i++) {
        a += (size_t)sprintf(all + a, "%s%d\n", i % 2 ? "n" : "node____", i);
        want[i] = COUNT - 1 - i;
    }
    text = reversed_labels(COUNT, -1);
    check_labels("20,000 names", all, text, 1, want, COUNT);
    free(text);
    text = reversed_labels(COUNT, 0);
    check_labels("20,000 names, unknown first", all, text, 0, NULL, 0);
    free(text);
    text = reversed_labels(COUNT, COUNT);
    check_labels("20,000 names, unknown last", all, text, 0, NULL, 0);
    free(text);
    free(all);
    free(want);

    /* Labels alike in their first 8 bytes whose tags are equal: the first
     * of each pair is a graph's node, the second is not. */
    uint32_t found[16];
    size_t k = colliding(name_tag, 1u << 18, found, 16);
    if (k == 0) {
        fprintf(stderr, "no colliding label tags found\n");
        failures++;
    }
    char graph[16 * 32], file[16 * 32], line[32];
    int64_t ids[8];
    size_t size = 0, used = 0;
    for (size_t j = 0; j < k; j += 2) {
        size += (size_t)sprintf(graph + size, "node____%u\n", found[j]);
        used += (size_t)sprintf(file + used, "node____%u\tk\n", found[j]);
        ids[j / 2] = (int64_t)(j / 2);
    }
    check_labels("colliding label tags, found", graph, file, 1, ids, k / 2);
    for (size_t j = 1; j < k; j += 2) {
        sprintf(line, "node____%u\tk\n", found[j]);
        check_labels("colliding label tags, missing", graph, line, 0, NULL,
                     0);
    }
}

/* A copy of the n bytes at p in a heap block of exactly n bytes. */
static void *exact(const void *p, size_t n)
{
    void *block = malloc(n ? n : 1);
    if (n)
        memcpy(block, p, n);
    return block;
}

/* Format the n x c values x with the labels (row i's label being
 * labels[offsets[i]:offsets[i + 1]]) into a block of exactly the labels
 * plus n (25 c + 2) bytes, the budget _native.row_formatter reserves,
 * and compare each value with the C library's %.17g, whose one
 * difference from Python's, "-nan", is mended. */
static void check_rows(const char *name, ptrdiff_t n, ptrdiff_t c,
                       const double *x, const char *labels,
                       const ptrdiff_t *offsets)
{
    size_t text = (size_t)(offsets[n] - offsets[0]);
    size_t budget = text + (size_t)(n * (25 * c + 2));
    double *values = exact(x, (size_t)(n * c) * sizeof *x);
    ptrdiff_t *at = exact(offsets, (size_t)(n + 1) * sizeof *offsets);
    char *names = exact(labels, (size_t)offsets[n]);
    char *out = malloc(budget ? budget : 1);
    char *want = malloc(text + (size_t)(n * (32 * c + 2)) + 1), *w = want;
    for (ptrdiff_t i = 0; i < n; i++) {
        w += sprintf(w, "%.*s", (int)(at[i + 1] - at[i]), labels + at[i]);
        for (ptrdiff_t j = 0; j < c; j++) {
            double v = x[i * c + j];
            w += isnan(v) ? sprintf(w, "\tnan") : sprintf(w, "\t%.17g", v);
        }
        *w++ = '\n';
    }
    ptrdiff_t got = modembed_format_rows(n, c, values, names, at, out);
    if (got != w - want || memcmp(out, want, (size_t)(w - want)) != 0) {
        fprintf(stderr, "%s: rows differ from %%.17g\n", name);
        failures++;
    }
    free(values);
    free(at);
    free(names);
    free(out);
    free(want);
}

static void format_cases(void)
{
    /* Rows of the longest values only, specials, both sides of the exact
     * path's bounds 1e-16 and 1e17, and empty labels. */
    enum { C = 6 };
    const double longest = -1.2345678901234567e-308;
    const double tiniest = -4.9406564584124654e-324;
    double x[5 * C] = {
        longest, longest, longest, longest, longest, longest,
        tiniest, tiniest, tiniest, tiniest, tiniest, tiniest,
        -INFINITY, NAN, -NAN, -0.0, 0.0, INFINITY,
        nextafter(1e-16, 0.0), 1e-16, nextafter(1e-16, 1.0),
        -nextafter(1e17, 0.0), -1e17, nextafter(1e17, INFINITY),
        1.0, -2.5, 123456789.0, 0.1, 1e-5, 9.999999999999999e16,
    };
    const ptrdiff_t offsets[] = {0, 0, 6, 6, 7, 8};
    /* The longest rows alone, so that a budget one byte short per value
     * is overrun. */
    check_rows("longest values", 2, C, x, "node_0", offsets);
    check_rows("other values", 3, C, x + 2 * C, "node_0xz", offsets + 2);
    check_rows("one column", 5 * C, 1, x, "",
               (const ptrdiff_t[5 * C + 1]){0});
    check_rows("no rows", 0, C, x, "", offsets);
}

/* modembed_apply on the n-node CSR with blocks of exactly their size,
 * against the loop it must match: each entry's stored entries summed in
 * order from 0.0, then (sum - pi_i c_j) + diag_i h_ij. */
static void check_apply(ptrdiff_t n, ptrdiff_t k, const int64_t *indptr,
                        const int64_t *indices, const double *data,
                        const double *marginal, const double *h,
                        const double *c, const double *diag)
{
    size_t nnz = (size_t)indptr[n], block = (size_t)(n * k) * sizeof *h;
    int64_t *ip = exact(indptr, (size_t)(n + 1) * sizeof *ip);
    int64_t *ix = exact(indices, nnz * sizeof *ix);
    double *d = exact(data, nnz * sizeof *d);
    double *pi = exact(marginal, (size_t)n * sizeof *pi);
    double *hs = exact(h, block), *cs = exact(c, (size_t)k * sizeof *cs);
    double *dg = exact(diag, (size_t)n * sizeof *dg);
    double *out = malloc(block), *want = malloc(block);
    for (ptrdiff_t i = 0; i < n; i++) {
        for (ptrdiff_t j = 0; j < k; j++) {
            double s = 0.0;
            for (int64_t p = indptr[i]; p < indptr[i + 1]; p++)
                s = s + data[p] * h[indices[p] * k + j];
            double hij = h[i * k + j];
            want[i * k + j] = (s - marginal[i] * c[j]) + diag[i] * hij;
        }
    }
    modembed_apply(n, k, ip, ix, d, pi, hs, cs, dg, out);
    if (memcmp(out, want, block) != 0) {
        fprintf(stderr, "apply at k = %ld differs from the plain loop\n",
                (long)k);
        failures++;
    }
    free(ip);
    free(ix);
    free(d);
    free(pi);
    free(hs);
    free(cs);
    free(dg);
    free(out);
    free(want);
}

static void apply_cases(void)
{
    /* Seven nodes, rows 0, 3 and 6 of degree 0, row 4 of degree 5. */
    enum { N = 7, K = 9 };
    const int64_t indptr[N + 1] = {0, 0, 2, 4, 4, 9, 11, 11};
    const int64_t indices[] = {2, 4, 1, 4, 0, 1, 2, 5, 6, 4, 3};
    double data[11], marginal[N], diag[N], h[N * K], c[K];
    uint64_t state = 2685821657736338717ULL;
    double *all[] = {data, marginal, diag, h, c};
    const int sizes[] = {11, N, N, N * K, K};
    for (int a = 0; a < 5; a++) {
        for (int i = 0; i < sizes[a]; i++) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            all[a][i] = (double)(int64_t)state / 9223372036854775808.0;
        }
    }
    for (ptrdiff_t k = 1; k <= K; k++) {
        /* H is n x k: the first n k values. */
        check_apply(N, k, indptr, indices, data, marginal, h, c, diag);
    }
}

/* Stand-ins for numpy's float64 matmul, exp and add loops, with numpy's
 * PyUFuncGenericFunction signature and arguments: a naive strided
 * product, libm exp and an add that serves as a reduction when its first
 * operand and output are one accumulator at step 0. */
static void naive_matmul(char **args, const ptrdiff_t *dims,
                         const ptrdiff_t *steps, void *data)
{
    (void)data;
    for (ptrdiff_t i = 0; i < dims[1]; i++) {
        for (ptrdiff_t j = 0; j < dims[3]; j++) {
            double s = 0.0;
            for (ptrdiff_t k = 0; k < dims[2]; k++)
                s += *(double *)(args[0] + i * steps[3] + k * steps[4]) *
                     *(double *)(args[1] + k * steps[5] + j * steps[6]);
            *(double *)(args[2] + i * steps[7] + j * steps[8]) = s;
        }
    }
}

static void libm_exp(char **args, const ptrdiff_t *dims,
                     const ptrdiff_t *steps, void *data)
{
    (void)data;
    for (ptrdiff_t i = 0; i < dims[0]; i++)
        *(double *)(args[1] + i * steps[1]) =
            exp(*(double *)(args[0] + i * steps[0]));
}

static void plain_add(char **args, const ptrdiff_t *dims,
                      const ptrdiff_t *steps, void *data)
{
    (void)data;
    for (ptrdiff_t i = 0; i < dims[0]; i++)
        *(double *)(args[2] + i * steps[2]) =
            *(double *)(args[0] + i * steps[0]) +
            *(double *)(args[1] + i * steps[1]);
}

static const struct modembed_loops STAND_INS = {
    naive_matmul, NULL, libm_exp, plain_add, NULL, NULL, NULL, NULL};

/* numpy's maximum on doubles: the first operand when it is NaN or not
 * smaller, so a chain from the first value keeps the first NaN. */
static double chain_max(double a, double b)
{
    return a >= b || a != a ? a : b;
}

/* The fit's loop with the stand-ins' arithmetic written out: row-major z
 * (m x d), y (m x c), w (d x c), b (c), each row's maximum the chain
 * over its columns. */
static void plain_fit(ptrdiff_t m, ptrdiff_t d, ptrdiff_t c, const double *z,
                      const double *y, ptrdiff_t iterations, double step,
                      double l2, double *w, double *b)
{
    double *G = malloc((size_t)(m * c) * sizeof *G);
    for (ptrdiff_t it = 0; it < iterations; it++) {
        for (ptrdiff_t i = 0; i < m; i++) {
            double *g = G + i * c, top, total = 0.0;
            for (ptrdiff_t j = 0; j < c; j++) {
                double s = 0.0;
                for (ptrdiff_t k = 0; k < d; k++)
                    s += z[i * d + k] * w[k * c + j];
                g[j] = s + b[j];
            }
            top = g[0];
            for (ptrdiff_t j = 1; j < c; j++)
                top = chain_max(top, g[j]);
            for (ptrdiff_t j = 0; j < c; j++) {
                g[j] = exp(g[j] - top);
                total = total + g[j];
            }
            for (ptrdiff_t j = 0; j < c; j++)
                g[j] = g[j] / total - y[i * c + j];
        }
        for (ptrdiff_t k = 0; k < d; k++) {
            for (ptrdiff_t j = 0; j < c; j++) {
                double s = 0.0;
                for (ptrdiff_t i = 0; i < m; i++)
                    s += z[i * d + k] * G[i * c + j];
                w[k * c + j] = w[k * c + j] -
                               step * (s / (double)m + l2 * w[k * c + j]);
            }
        }
        for (ptrdiff_t j = 0; j < c; j++) {
            double s = 0.0;
            for (ptrdiff_t i = 0; i < m; i++)
                s = s + G[i * c + j];
            b[j] = b[j] - step * (s / (double)m);
        }
    }
    free(G);
}

/* modembed_fit on the stand-ins, every array in a block of exactly its
 * contract's size, against plain_fit. */
static void check_fit(ptrdiff_t m, ptrdiff_t d, ptrdiff_t c, double step,
                      uint64_t state)
{
    size_t mc = (size_t)(m * c), dc = (size_t)(d * c);
    double *z = malloc((size_t)(m * d) * sizeof *z);
    double *y = calloc(mc, sizeof *y), *w = calloc(dc, sizeof *w);
    double *b = calloc((size_t)c, sizeof *b);
    double *scratch = malloc((mc + dc + (size_t)c) * sizeof *scratch);
    double *want_w = calloc(dc, sizeof *want_w);
    double *want_b = calloc((size_t)c, sizeof *want_b);
    for (ptrdiff_t i = 0; i < m * d; i++) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        z[i] = (double)(int64_t)state / 4611686018427387904.0;
    }
    for (ptrdiff_t i = 0; i < m; i++) {
        state *= 5;
        y[i * c + (ptrdiff_t)(state >> 40) % c] = 1.0;
    }
    /* z row-major: steps (d, 1) doubles. */
    modembed_fit(&STAND_INS, m, d, c, z, d * 8, 8, y, 20, step, 1e-4, w, b,
                 scratch);
    plain_fit(m, d, c, z, y, 20, step, 1e-4, want_w, want_b);
    if (memcmp(w, want_w, dc * sizeof *w) != 0 ||
        memcmp(b, want_b, (size_t)c * sizeof *b) != 0) {
        fprintf(stderr, "fit at m = %ld, d = %ld, c = %ld, step %g differs "
                "from the plain loop\n", (long)m, (long)d, (long)c, step);
        failures++;
    }
    free(z);
    free(y);
    free(w);
    free(b);
    free(scratch);
    free(want_w);
    free(want_b);
}

/* shift_row, the fit's logits minus their maximum, on rows of c = 1-9
 * values holding infinities and none, one or two NaNs of two payloads,
 * against the chain numpy's maximum makes: with a NaN, every value minus
 * the row's first NaN. */
static void check_shift_rows(void)
{
    uint64_t bits[2] = {0x7ff8000000000001ULL, 0xfff8000000000002ULL};
    double nan[2], row[9];
    memcpy(nan, bits, sizeof nan);
    for (ptrdiff_t c = 1; c <= 9; c++) {
        for (ptrdiff_t first = 0; first <= c; first++) {
            const double cycle[4] = {1.5, INFINITY, -2.0, -INFINITY};
            for (ptrdiff_t j = 0; j < c; j++)
                row[j] = cycle[j % 4];
            if (first < c)
                row[first] = nan[0];
            if (first + 2 < c)
                row[first + 2] = nan[1];
            double *g = exact(row, (size_t)c * sizeof *g);
            double *zero = calloc((size_t)c, sizeof *zero);
            double top = row[0];
            for (ptrdiff_t j = 1; j < c; j++)
                top = chain_max(top, row[j]);
            for (ptrdiff_t j = 0; j < c; j++)
                row[j] = row[j] - top;
            shift_row(g, zero, c);
            if (memcmp(g, row, (size_t)c * sizeof *g) != 0) {
                fprintf(stderr, "shift_row at c = %ld, NaN at %ld differs "
                        "from numpy's chain\n", (long)c, (long)first);
                failures++;
            }
            free(g);
            free(zero);
        }
    }
}

static void fit_cases(void)
{
    check_shift_rows();
    const ptrdiff_t shapes[][3] = {{1, 3, 4}, {7, 2, 1}, {1, 1, 1},
                                   {40, 5, 16}, {33, 4, 7}, {12, 1, 2}};
    for (size_t s = 0; s < sizeof shapes / sizeof *shapes; s++) {
        for (int huge = 0; huge < 2; huge++)
            check_fit(shapes[s][0], shapes[s][1], shapes[s][2],
                      huge ? 1e300 : 0.1, 88172645463325252ULL + s);
    }
}

/* With the argument "layout", the program prints, instead of running the
 * checks, the layout of the structs that _native.py mirrors in ctypes:
 * `struct field offset size` per field, and `struct - 0 size` for the
 * whole, for tests/test_io.py to compare with the mirrors. */
#define FIELD(s, f)                                                       \
    printf(#s " " #f " %zu %zu\n", offsetof(struct s, f),                 \
           sizeof(((struct s *)0)->f))

static void print_layout(void)
{
    printf("modembed_operator - 0 %zu\n", sizeof(struct modembed_operator));
    FIELD(modembed_operator, indptr);
    FIELD(modembed_operator, indices);
    FIELD(modembed_operator, data);
    FIELD(modembed_operator, x);
    FIELD(modembed_operator, sq);
    FIELD(modembed_operator, agg);
    FIELD(modembed_operator, L);
    printf("modembed_scan - 0 %zu\n", sizeof(struct modembed_scan));
    FIELD(modembed_scan, ids);
    FIELD(modembed_scan, values);
    FIELD(modembed_scan, names);
    FIELD(modembed_scan, classes);
    FIELD(modembed_scan, rows);
    FIELD(modembed_scan, columns);
    FIELD(modembed_scan, names_size);
    FIELD(modembed_scan, classes_size);
    printf("modembed_graph - 0 %zu\n", sizeof(struct modembed_graph));
    FIELD(modembed_graph, indptr);
    FIELD(modembed_graph, indices);
    FIELD(modembed_graph, data);
    FIELD(modembed_graph, diag);
    FIELD(modembed_graph, nnz);
}

int main(int argc, char **argv)
{
    if (argc > 1 && strcmp(argv[1], "layout") == 0) {
        print_layout();
        return 0;
    }
    build_cases();
    label_cases();
    format_cases();
    apply_cases();
    fit_cases();
    for (int kind = SCAN_EDGES; kind <= SCAN_ROWS; kind++) {
        check("empty file", kind, "", 0, 0);
        check_text("comments only", kind, "# x\n#y\t1\n  # z", 0);
        check_text("blank lines only", kind, "\n\n", 0);
    }
    check_text("no final newline", SCAN_EDGES, "a b\nb c 2.5", 1);
    check_text("no final newline", SCAN_LABELS, "a\tk\nb\tj", 1);
    check_text("no final newline", SCAN_ROWS, "a\t1\t2\nb\t3\t4", 1);
    check_text("comment lines", SCAN_EDGES, "# x\na b\n  \t#y\n", 1);

    /* A 64 KiB label, repeated so the second lookup compares it. */
    char *big = repeat("", "A", 65536, "");
    char *text = malloc(4 * 65536 + 64);
    sprintf(text, "%s b\nb %s 1e3", big, big);
    if (check("64 KiB label", SCAN_EDGES, text, strlen(text), 1) != 2)
        failures++;
    char *nodes = repeat("a\n", "A", 65536, "\n");
    sprintf(text, "%s\tk\n%s\tk", big, big);
    scan_check("64 KiB label", SCAN_LABELS, text, strlen(text), nodes, 1,
               (const int64_t[]){1}, 1);
    sprintf(text, "%s\tk\n%s\tj", big, big);
    scan_check("64 KiB label, conflict", SCAN_LABELS, text, strlen(text),
               nodes, 0, NULL, 0);
    sprintf(text, "%sA\tk", big);
    scan_check("64 KiB label, one byte longer", SCAN_LABELS, text,
               strlen(text), nodes, 0, NULL, 0);
    free(nodes);
    sprintf(text, "%s\t1\n", big);
    check("64 KiB label", SCAN_ROWS, text, strlen(text), 1);
    free(big);
    free(text);

    /* 1,000-digit numbers, the last ending the buffer. */
    char *digits = repeat("a b 0.", "7", 1000, "\nb c ");
    text = repeat(digits, "9", 1000, "");
    check("1,000-digit weights", SCAN_EDGES, text, strlen(text), 0);
    free(text);
    text = repeat(digits, "9", 1000, "e-2000");
    check("1,000-digit weights", SCAN_EDGES, text, strlen(text), 1);
    free(text);
    free(digits);
    text = repeat("a\t", "3", 1000, "");
    check("1,000-digit value", SCAN_ROWS, text, strlen(text), 1);
    free(text);

    /* Lines of 100,000 fields. */
    text = repeat("a", "\t1.5", 100000, "\n");
    check("100,000 values", SCAN_ROWS, text, strlen(text), 1);
    free(text);
    text = repeat("a", " b", 100000, "\n");
    check("100,000 fields", SCAN_EDGES, text, strlen(text), 0);
    free(text);
    text = repeat("a", "\tb", 100000, "\n");
    check("100,000 fields", SCAN_LABELS, text, strlen(text), 0);
    free(text);

    /* Enough distinct labels to grow the table several times, some of
     * them sharing their first 8 bytes. */
    text = malloc(50000 * 40);
    size_t size = 0;
    for (int i = 0; i < 50000; i++)
        size += (size_t)sprintf(text + size, "label___%d n%d\n", i, i / 3);
    if (check("50,000 edges", SCAN_EDGES, text, size, 1) != 50000)
        failures++;
    free(text);

    /* Every byte value in every position of a short line. */
    for (int c = 0; c < 256; c++) {
        for (int at = 0; at < 6; at++) {
            char line[7] = "a b\t1\n";
            line[at] = (char)c;
            for (int kind = SCAN_EDGES; kind <= SCAN_ROWS; kind++)
                check("one byte changed", kind, line, 6, ANY);
        }
    }

    /* Random short texts over the bytes the scanner treats specially. */
    static const char alphabet[] = " \t\n#aA01.eE+-_\r\x0b\x80\xc3\xa9";
    uint64_t state = 88172645463325252ULL;
    char buffer[80];
    for (int round = 0; round < 20000; round++) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        size_t n = state % sizeof buffer;
        for (size_t i = 0; i < n; i++) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            buffer[i] = alphabet[state % (sizeof alphabet - 1)];
        }
        check("random text", round % 3, buffer, n, ANY);
    }

    if (failures)
        fprintf(stderr, "%d failure(s)\n", failures);
    return failures != 0;
}
