/* Hostile inputs for modembed_scan, the TSV scanner in _native.c, built
 * with -fsanitize=address,undefined by tests/test_io.py.
 *
 * Each text is copied to a heap block of exactly its size, with no NUL
 * after it, and each output array is allocated at the size the scanner's
 * contract names (struct modembed_scan in _native.c), so a read or write
 * past any of them stops the run.  Exits 0 when every scan returned what
 * it should, 1 otherwise. */
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

int main(void)
{
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
