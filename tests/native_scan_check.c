/* Hostile inputs for modembed_scan, the TSV scanner in _native.c, and for
 * modembed_build, which reads what it gives, built with
 * -fsanitize=address,undefined by tests/test_io.py.  The driver is one
 * unit with _native.c, which it includes (the test puts its directory on
 * the include path), so every call and struct is checked against the
 * source's own declarations.
 *
 * Each text is copied to a heap block of exactly its size, with no NUL
 * after it, and each output array is allocated at the size the entry's
 * contract names (struct modembed_scan and struct modembed_graph in
 * _native.c), so a read or write past any of them stops the run.  Exits 0
 * when every call returned what it should, 1 otherwise. */
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

int main(void)
{
    build_cases();
    label_cases();
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
