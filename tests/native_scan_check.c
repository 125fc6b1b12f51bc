/* Hostile inputs for modembed_scan, the TSV scanner in _native.c, and for
 * modembed_lookup and modembed_build, which read what it gives, built
 * with -fsanitize=address,undefined by tests/test_io.py.
 *
 * Each text is copied to a heap block of exactly its size, with no NUL
 * after it, and each output array is allocated at the size the entry's
 * contract names (struct modembed_scan and struct modembed_graph in
 * _native.c), so a read or write past any of them stops the run.  Exits 0
 * when every call returned what it should, 1 otherwise. */
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

struct modembed_scan {
    int64_t *ids;
    double *values;
    char *names;
    char *classes;
    ptrdiff_t rows, columns, names_size, classes_size;
};

int modembed_scan(int kind, const char *text, ptrdiff_t size,
                  struct modembed_scan *out);

struct modembed_graph {
    int64_t *indptr, *indices;
    double *data, *diag;
    ptrdiff_t nnz;
};

int modembed_build(ptrdiff_t n, ptrdiff_t m, const int64_t *ids,
                   const double *weights, struct modembed_graph *out);
int modembed_lookup(const char *names, ptrdiff_t names_size,
                    const char *queries, ptrdiff_t queries_size, int64_t *ids);

enum { EDGES, LABELS, ROWS };
#define ANY (-1)

static int failures;

/* Scan size bytes as kind; want is 1 (read), 0 (declined) or ANY.  The
 * number of rows read is returned. */
static ptrdiff_t check(const char *name, int kind, const char *bytes,
                       size_t size, int want)
{
    char *text = malloc(size);
    if (size)
        memcpy(text, bytes, size);
    size_t lines = 1, tabs = 0;
    for (size_t i = 0; i < size; i++) {
        lines += bytes[i] == '\n';
        tabs += bytes[i] == '\t';
    }
    struct modembed_scan out = {
        malloc(kind == EDGES ? 2 * lines * sizeof(int64_t) : 0),
        malloc((kind == EDGES ? lines : kind == ROWS ? tabs : 0) *
               sizeof(double)),
        malloc(size + 1), malloc(kind == LABELS ? size + 1 : 0), 0, 0, 0, 0};
    int got = modembed_scan(kind, text, (ptrdiff_t)size, &out);
    if (want != ANY && got != want) {
        fprintf(stderr, "%s (kind %d): got %d, want %d\n", name, kind, got,
                want);
        failures++;
    }
    free(text);
    free(out.ids);
    free(out.values);
    free(out.names);
    free(out.classes);
    return got ? out.rows : -1;
}

static void check_text(const char *name, int kind, const char *text, int want)
{
    check(name, kind, text, strlen(text), want);
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

/* Look the queries up among the names, each text in a block of its exact
 * size; want[i] is query i's id. */
static void check_lookup(const char *name, const char *names,
                         const char *queries, const int64_t *want,
                         size_t count)
{
    size_t a = strlen(names), b = strlen(queries);
    char *x = malloc(a + 1), *y = malloc(b + 1);
    memcpy(x, names, a);
    memcpy(y, queries, b);
    int64_t *ids = malloc(count * sizeof *ids + 1);
    if (!modembed_lookup(x, (ptrdiff_t)a, y, (ptrdiff_t)b, ids))
        failures++;
    for (size_t i = 0; i < count; i++) {
        if (ids[i] != want[i]) {
            fprintf(stderr, "%s: query %zu got %ld, want %ld\n", name, i,
                    (long)ids[i], (long)want[i]);
            failures++;
        }
    }
    free(x);
    free(y);
    free(ids);
}

/* The hashes of _native.c, copied so that inputs whose tags collide can
 * be searched for: mix64 for node pairs, label_hash for labels. */
static uint64_t mix64(uint64_t h)
{
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
}

static uint64_t label_hash(const char *s, size_t n)
{
    uint64_t h = (uint64_t)n * 0x9E3779B97F4A7C15ULL;
    for (size_t i = 0; i < n; i += 8) {
        uint64_t word = 0;
        memcpy(&word, s + i, n - i < 8 ? n - i : 8);
        h = (h ^ word) * 0xBF58476D1CE4E5B9ULL;
        h ^= h >> 31;
    }
    return h * 0x94D049BB133111EBULL;
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

/* Up to max indices i < count, in pairs, whose tags (high 32 bits of
 * hash(i)) are equal; returns how many were found. */
static size_t colliding(uint64_t (*hash)(uint32_t), uint32_t count,
                        uint32_t *found, size_t max)
{
    struct tagged *t = malloc(count * sizeof *t);
    for (uint32_t i = 0; i < count; i++)
        t[i] = (struct tagged){(uint32_t)(hash(i) >> 32), i};
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

static uint64_t pair_hash(uint32_t i)
{
    return mix64((uint64_t)PAIR_A(i) << 32 | (uint64_t)PAIR_B(i));
}

static char label_text[32];

static uint64_t name_hash(uint32_t i)
{
    int n = sprintf(label_text, "node____%u", i);
    return label_hash(label_text, (size_t)n);
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
    size_t k = colliding(pair_hash, 1u << 18, found, 16);
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

static void lookup_cases(void)
{
    const int64_t none[] = {-1, -1};
    check_lookup("no names", "", "a\nb\n", none, 2);
    const int64_t known[] = {1, 0, -1, 2, -1, -1};
    check_lookup("short and long labels", "b\na\nlabel_long_1\n",
                 "a\nb\nlabel_long_2\nlabel_long_1\nlabel_lon\n\n",
                 known, 6);
    const int64_t last[] = {0, 1};
    check_lookup("unterminated", "x\ny", "x\ny", last, 2);

    /* 20,000 names, some alike in their first 8 bytes, looked up in
     * reverse order with unknown ones between. */
    enum { COUNT = 20000 };
    char *names = malloc(COUNT * 24), *queries = malloc(2 * COUNT * 24);
    int64_t *want = malloc(2 * COUNT * sizeof *want);
    size_t a = 0, b = 0;
    for (int i = 0; i < COUNT; i++)
        a += (size_t)sprintf(names + a, "%s%d\n", i % 2 ? "n" : "node____",
                             i);
    for (int i = COUNT - 1; i >= 0; i--) {
        b += (size_t)sprintf(queries + b, "%s%d\n", i % 2 ? "n" : "node____",
                             i);
        want[2 * (COUNT - 1 - i)] = i;
        b += (size_t)sprintf(queries + b, "node____%d\n", COUNT + i);
        want[2 * (COUNT - 1 - i) + 1] = -1;
    }
    check_lookup("20,000 names", names, queries, want, 2 * COUNT);
    free(names);
    free(queries);
    free(want);

    /* Labels alike in their first 8 bytes whose tags are equal: the first
     * of each pair is a name, the second is looked up and missing. */
    uint32_t found[16];
    size_t k = colliding(name_hash, 1u << 18, found, 16);
    if (k == 0) {
        fprintf(stderr, "no colliding label tags found\n");
        failures++;
    }
    char text[2][16 * 32];
    int64_t ids[16];
    size_t size[2] = {0, 0};
    for (size_t j = 0; j < k; j++) {
        size_t half = j % 2;
        size[half] += (size_t)sprintf(text[half] + size[half], "node____%u\n",
                                      found[j]);
    }
    for (size_t j = 0; j < k / 2; j++)
        ids[j] = -1;
    check_lookup("colliding label tags", text[0], text[1], ids, k / 2);
    check_lookup("colliding label tags, found", text[0], text[0],
                 (const int64_t[]){0, 1, 2, 3, 4, 5, 6, 7}, k / 2);
}

int main(void)
{
    build_cases();
    lookup_cases();
    for (int kind = EDGES; kind <= ROWS; kind++) {
        check("empty file", kind, "", 0, 0);
        check_text("comments only", kind, "# x\n#y\t1\n  # z", 0);
        check_text("blank lines only", kind, "\n\n", 0);
    }
    check_text("no final newline", EDGES, "a b\nb c 2.5", 1);
    check_text("no final newline", LABELS, "a\tk\nb\tj", 1);
    check_text("no final newline", ROWS, "a\t1\t2\nb\t3\t4", 1);
    check_text("comment lines", EDGES, "# x\na b\n  \t#y\n", 1);

    /* A 64 KiB label, repeated so the second lookup compares it. */
    char *big = repeat("", "A", 65536, "");
    char *text = malloc(4 * 65536 + 64);
    sprintf(text, "%s b\nb %s 1e3", big, big);
    if (check("64 KiB label", EDGES, text, strlen(text), 1) != 2)
        failures++;
    sprintf(text, "%s\tk\n%s\tk", big, big);
    check("64 KiB label", LABELS, text, strlen(text), 1);
    sprintf(text, "%s\tk\n%s\tj", big, big);
    check("64 KiB label, conflict", LABELS, text, strlen(text), 0);
    sprintf(text, "%s\t1\n", big);
    check("64 KiB label", ROWS, text, strlen(text), 1);
    free(big);
    free(text);

    /* 1,000-digit numbers, the last ending the buffer. */
    char *digits = repeat("a b 0.", "7", 1000, "\nb c ");
    text = repeat(digits, "9", 1000, "");
    check("1,000-digit weights", EDGES, text, strlen(text), 0);
    free(text);
    text = repeat(digits, "9", 1000, "e-2000");
    check("1,000-digit weights", EDGES, text, strlen(text), 1);
    free(text);
    free(digits);
    text = repeat("a\t", "3", 1000, "");
    check("1,000-digit value", ROWS, text, strlen(text), 1);
    free(text);

    /* Lines of 100,000 fields. */
    text = repeat("a", "\t1.5", 100000, "\n");
    check("100,000 values", ROWS, text, strlen(text), 1);
    free(text);
    text = repeat("a", " b", 100000, "\n");
    check("100,000 fields", EDGES, text, strlen(text), 0);
    free(text);
    text = repeat("a", "\tb", 100000, "\n");
    check("100,000 fields", LABELS, text, strlen(text), 0);
    free(text);

    /* Enough distinct labels to grow the table several times, some of
     * them sharing their first 8 bytes. */
    text = malloc(50000 * 40);
    size_t size = 0;
    for (int i = 0; i < 50000; i++)
        size += (size_t)sprintf(text + size, "label___%d n%d\n", i, i / 3);
    if (check("50,000 edges", EDGES, text, size, 1) != 50000)
        failures++;
    free(text);

    /* Every byte value in every position of a short line. */
    for (int c = 0; c < 256; c++) {
        for (int at = 0; at < 6; at++) {
            char line[7] = "a b\t1\n";
            line[at] = (char)c;
            for (int kind = EDGES; kind <= ROWS; kind++)
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
