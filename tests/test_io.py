"""File readers and writers against the line-by-line implementations they
replaced, which are kept below as oracles: graphs must match bit for bit,
written files byte for byte, and errors in type, message and line."""

import ctypes
import decimal
import locale
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from modembed import _native, cli, clustering, datasets, graph
from modembed.clustering import ClusterConfig
from modembed.embedding import load_embedding_tsv, save_embedding_tsv
from modembed.pointcloud import concentric_circles, reduce_cloud
from modembed.spectral import alignment_bounds, eigendecompose
from modembed.tasks import (
    MetricSummary,
    load_labels,
    rankdata,
    save_metrics_tsv,
)


# --- oracles -----------------------------------------------------------------

def oracle_from_edge_list(edges, nodes=None):
    """One dict entry per unordered pair, filled edge by edge."""
    index, labels = {}, []

    def idx(lab):
        i = index.get(lab)
        if i is None:
            i = len(labels)
            index[lab] = i
            labels.append(lab)
        return i

    if nodes is not None:
        for lab in nodes:
            idx(lab)
    acc = {}
    count = 0
    for edge in edges:
        if len(edge) == 2:
            u, w = edge
            wt = 1.0
        else:
            u, w, wt = edge
            wt = float(wt)
        if wt < 0.0 or not np.isfinite(wt):
            raise ValueError(f"invalid weight {wt!r} on edge ({u!r}, {w!r})")
        count += 1
        i, j = idx(u), idx(w)
        key = (i, j) if i <= j else (j, i)
        acc[key] = acc.get(key, 0.0) + wt
    if count == 0:
        raise ValueError("empty graph: no edges")
    acc = {k: v for k, v in acc.items() if v > 0.0}
    if not acc:
        raise ValueError("empty graph: total weight is zero")
    # Left to right in first-appearance order (what sum() does on
    # Python 3.11 and earlier).
    total = 0.0
    for v in acc.values():
        total += v
    n = len(labels)
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for (i, j), wt in acc.items():
        if i == j:
            diag[i] = wt / total
        else:
            p = wt / (2.0 * total)
            rows += [i, j]
            cols += [j, i]
            vals += [p, p]
    if vals:
        off = sparse.csr_array(
            (np.array(vals, dtype=float),
             (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
            shape=(n, n),
        )
    else:
        off = sparse.csr_array((n, n), dtype=float)
    return scipy_graph(off, diag, labels)


def scipy_graph(off, diag, labels):
    """The graph of scipy's CSR build, its indices sorted in place."""
    off.sort_indices()
    return graph.SampledGraph(off.indptr, off.indices, off.data, diag, labels)


def oracle_from_bivariate(P):
    """`from_bivariate` on valid input, with scipy's dense-to-CSR build."""
    P = np.asarray(P, dtype=float)
    diag = np.diag(P).copy()
    return scipy_graph(sparse.csr_array(P - np.diag(diag)), diag,
                       list(range(P.shape[0])))


def oracle_dense(Q):
    """`ModularityMatrix.dense` through scipy's `toarray`."""
    g = Q.graph
    out = sparse.csr_array((g.data, g.indices, g.indptr),
                           shape=(g.n, g.n)).toarray()
    out += np.diag(g.diag_mass)
    out -= np.outer(g.marginal, g.marginal)
    if Q.diag_zeroed:
        np.fill_diagonal(out, 0.0)
    return out


def oracle_load_edge_list(path):
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) == 2:
                edges.append((parts[0], parts[1]))
            elif len(parts) == 3:
                try:
                    wt = float(parts[2])
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad weight {parts[2]!r}"
                    ) from None
                edges.append((parts[0], parts[1], wt))
            else:
                raise ValueError(
                    f"{path}:{lineno}: expected 'u w [weight]', got {len(parts)} fields"
                )
    return oracle_from_edge_list(edges)


def oracle_edges(g):
    out = []
    for u in range(g.n):
        if g.diag_mass[u] > 0.0:
            out.append((u, u))
        for w in g.indices[g.indptr[u]:g.indptr[u + 1]]:
            if u < w:
                out.append((u, int(w)))
    return out


def oracle_save_edge_list(path, g):
    with open(path, "w", encoding="utf-8") as fh:
        for u, w in oracle_edges(g):
            wt = g.diag_mass[u] if u == w else 2.0 * g.pair_mass(u, w)
            fh.write(f"{g.node_labels[u]}\t{g.node_labels[w]}\t{wt:.17g}\n")


def oracle_save_embedding_tsv(path, rows, node_labels):
    rows = np.asarray(rows)
    with open(path, "w", encoding="utf-8") as fh:
        for lab, row in zip(node_labels, rows):
            values = "\t".join(f"{v:.17g}" for v in row)
            fh.write(f"{lab}\t{values}\n")


def oracle_save_metrics_tsv(path, summary):
    with open(path, "w", encoding="utf-8") as fh:
        for name, mean, std in summary.rows():
            fh.write(f"{name}\t{mean:.17g}\t{std:.17g}\n")


def oracle_save_eigenvalues(path, eigenvalues):
    with open(path, "w", encoding="utf-8") as fh:
        for rank, value in enumerate(eigenvalues):
            fh.write(f"{rank}\t{value:.17g}\n")


def oracle_save_report(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for name, value in rows:
            fh.write(f"{name}\t{value:.17g}\n")


def oracle_save_residuals(path, residuals, selected):
    with open(path, "w", encoding="utf-8") as fh:
        for j, (res, sel) in enumerate(zip(residuals, selected)):
            fh.write(f"{j}\t{res:.17g}\t{int(sel)}\n")


def oracle_load_embedding_tsv(path):
    labels, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            if not stripped:
                continue
            parts = stripped.split("\t")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected node and values")
            labels.append(parts[0])
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad float") from None
    if not rows:
        raise ValueError(f"{path}: empty embedding file")
    # The line-by-line reader built the matrix before this check, so numpy
    # reported ragged rows in its own words; the check now comes first.
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return labels, np.array(rows)


def oracle_load_labels(path, g):
    labels = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            if not stripped or stripped.lstrip().startswith("#"):
                continue
            parts = stripped.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'node<TAB>class', got {len(parts)} fields"
                )
            node, cls = parts
            g.index_of(node)
            if node in labels and labels[node] != cls:
                raise ValueError(
                    f"{path}:{lineno}: conflicting class for node {node!r}"
                )
            labels[node] = cls
    if not labels:
        raise ValueError(f"{path}: no labels found")
    return labels


# --- helpers -----------------------------------------------------------------

def outcome(fn, *args, **kwargs):
    """('ok', value) or (exception type, message)."""
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)


def both_paths(fn, *args, **kwargs):
    """[outcome() on the compiled path, outcome() with the library patched
    away]: a reader's compiled scanner and its line loop."""
    compiled = outcome(fn, *args, **kwargs)
    with mock.patch.object(_native, "library", lambda: None):
        return [compiled, outcome(fn, *args, **kwargs)]


def assert_same_graph(a, b):
    for name in ("indptr", "indices", "data", "diag_mass", "marginal"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.node_labels == b.node_labels
    assert [type(lab) for lab in a.node_labels] == \
        [type(lab) for lab in b.node_labels]


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        return True
    assert got[1] == want[1]
    return False


IO_SETTINGS = settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Labels collide often (duplicates, reversed pairs, self-loops); some are
# non-ASCII, one starts with '#' (a comment only in first position).
LABEL = st.sampled_from(
    ["a", "b", "c", "dd", "é", "ß字", "#h", "x#", "0", "00"])
WEIGHT = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(repr),
    st.sampled_from(["0", "0.0", "-0.0", "1", "2.5", "1e-300", "5e-324",
                     "1e300", "1_0", "-1", "-inf", "inf", "nan", "NaN",
                     "abc", "0x10", "1e", "\u0663"]),
)
SEP = st.sampled_from([" ", "\t", "  \t", "\x0b", "\x0c", "\x1c", "\xa0",
                       "　", "\x85", "\u2028"])
EOL = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def edge_line(draw):
    kind = draw(st.sampled_from(
        ["edge", "edge", "edge", "weighted", "weighted", "comment", "blank",
         "space", "one", "four"]))
    sep = draw(SEP)
    if kind == "comment":
        body = draw(st.sampled_from(["#", "# a b", "  #x y z w", "#1 2 3"]))
    elif kind == "blank":
        body = ""
    elif kind == "space":
        body = draw(SEP) + draw(SEP)
    else:
        fields = [draw(LABEL), draw(LABEL)]
        if kind == "weighted":
            fields.append(draw(WEIGHT))
        elif kind == "one":
            fields = fields[:1]
        elif kind == "four":
            fields += ["1", "2"]
        body = sep.join(fields)
        if draw(st.booleans()):
            body = draw(SEP) + body + draw(SEP)
    return body + draw(EOL)


# --- edge lists --------------------------------------------------------------

@IO_SETTINGS
@given(lines=st.lists(edge_line(), max_size=25), final_eol=st.booleans())
def test_load_edge_list_matches_oracle(tmp_path, lines, final_eol):
    text = "".join(lines)
    if not final_eol:
        text = text.rstrip("\r\n")
    path = tmp_path / "g.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_like_oracle("edges", path)


# 1, 1.0 and True are one dict key; the first one seen names the node.
NODE = st.integers(0, 6) | st.sampled_from([1.0, True, "1", (1, 2)])
EDGE = st.tuples(NODE, NODE) | st.tuples(
    NODE, NODE,
    st.floats(min_value=0.0, max_value=1e3) | st.sampled_from(
        [-1.0, math.inf, math.nan, 0.0, -0.0, 5e-324, "2.5", np.float64(0.1)]),
)


@IO_SETTINGS
@given(edges=st.lists(EDGE, max_size=30),
       nodes=st.none() | st.lists(st.integers(0, 9), max_size=5))
def test_from_edge_list_matches_oracle(edges, nodes):
    got = outcome(graph.from_edge_list, edges, nodes=nodes)
    want = outcome(oracle_from_edge_list, edges, nodes=nodes)
    if assert_same_outcome(got, want):
        assert_same_graph(got[1], want[1])


@st.composite
def mass_matrix(draw):
    """Symmetric nonnegative matrices summing to one: zeros, a zero
    diagonal, subnormal and repeated values all occur."""
    n = draw(st.integers(1, 8))
    values = st.sampled_from([0.0, 0.0, 1.0, 2.5, 1e-300, 5e-324]) | (
        st.floats(0.0, 1e3))
    A = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n)))
    A = A.reshape(n, n)
    A = np.triu(A) + np.triu(A, 1).T
    if draw(st.booleans()):
        np.fill_diagonal(A, 0.0)
    total = A.sum()
    if total == 0.0:
        A[0, 0], total = 1.0, 1.0
    return A / total


@IO_SETTINGS
@given(P=mass_matrix())
def test_from_bivariate_matches_scipy(P):
    got = outcome(graph.from_bivariate, P)
    if got[0] == "ok":
        assert_same_graph(got[1], oracle_from_bivariate(P))


@IO_SETTINGS
@given(edges=st.lists(EDGE, min_size=1, max_size=30), zeroed=st.booleans())
def test_dense_matches_scipy(edges, zeroed):
    got = outcome(graph.from_edge_list, edges)
    if got[0] == "ok":
        Q = got[1].modularity_matrix(diag_zeroed=zeroed)
        want = oracle_dense(Q)
        assert Q.dense().dtype == want.dtype
        assert Q.dense().tobytes() == want.tobytes()


@pytest.mark.parametrize("arrays, message", [
    (([0, 1], [0], [1.0], [0.5]), "diagonal"),
    (([1, 1], [0], [1.0], [0.5]), "indptr"),
    (([0, 2, 1], [1, 0], [1.0, 1.0], [0.0, 0.0]), "indptr"),
    (([0, 1, 2], [2, 0], [1.0, 1.0], [0.0, 0.0]), r"\[0, 2\)"),
    (([0, 1, 2], [-1, 0], [1.0, 1.0], [0.0, 0.0]), r"\[0, 2\)"),
    (([0, 2, 2], [1, 1], [1.0, 1.0], [0.0, 0.0]), "rise strictly"),
    (([0, 2, 2, 2], [2, 1], [1.0, 1.0], [0.0] * 3), "rise strictly"),
    (([0, 1, 1], [1], [1.0, 2.0], [0.0, 0.0]), "one length"),
    (([], [], [], []), "one length"),
])
def test_constructor_rejects_arrays_that_are_not_csr(arrays, message):
    indptr, indices, data, diag = arrays
    with pytest.raises(ValueError, match=message):
        graph.SampledGraph(indptr, indices, data, diag,
                           list(range(max(len(indptr) - 1, 0))))


def test_constructor_keeps_a_row_that_starts_below_the_last_one():
    g = graph.SampledGraph([0, 1, 2, 2], [2, 0], [0.25, 0.25], [0.5, 0, 0],
                           "abc")
    assert g.pair_mass(0, 2) == 0.25 and g.pair_mass(1, 0) == 0.25
    assert g.indptr.dtype == g.indices.dtype == np.int64


@pytest.mark.parametrize("text, message", [
    ("a b\nc\n", "g.tsv:2: expected 'u w [weight]', got 1 fields"),
    ("a b 1 2\n", "g.tsv:1: expected 'u w [weight]', got 4 fields"),
    ("# c\n\na b x\n", "g.tsv:3: bad weight 'x'"),
    ("a b x\nc\n", "g.tsv:1: bad weight 'x'"),
    ("a b -1\nc\n", "g.tsv:2: expected 'u w [weight]', got 1 fields"),
    ("a b 1\nb c -2\nc d nan\n", "invalid weight -2.0 on edge ('b', 'c')"),
    ("a b nan\n", "invalid weight nan on edge ('a', 'b')"),
    ("a b inf\n", "invalid weight inf on edge ('a', 'b')"),
    ("# only a comment\n\n", "empty graph: no edges"),
    ("", "empty graph: no edges"),
    ("a b 0\nb a -0.0\n", "empty graph: total weight is zero"),
])
def test_load_edge_list_errors(tmp_path, text, message):
    path = tmp_path / "g.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as want:
        oracle_load_edge_list(path)
    assert str(want.value).replace(str(tmp_path) + "/", "") == message
    for got in both_paths(graph.load_edge_list, path):
        assert got == (ValueError, str(want.value))


def test_edges_and_save_edge_list_match_oracle(tmp_path):
    rng = np.random.default_rng(5)
    edges = [(int(u), int(w), float(rng.uniform(0.0, 2.0)))
             for u, w in rng.integers(0, 40, size=(150, 2))]
    edges += [("s", "s", 0.5), ("t", "s", 1e-300)]
    g = graph.from_edge_list(edges)
    got = g.edges()
    assert got.dtype == np.int64 and got.shape[1] == 2
    assert [tuple(p) for p in got.tolist()] == oracle_edges(g)
    graph.save_edge_list(tmp_path / "new.tsv", g)
    oracle_save_edge_list(tmp_path / "old.tsv", g)
    assert (tmp_path / "new.tsv").read_bytes() == \
        (tmp_path / "old.tsv").read_bytes()


def test_edges_of_graph_without_pairs():
    g = graph.from_bivariate(np.eye(3) / 3.0)
    assert g.edges().tolist() == [[0, 0], [1, 1], [2, 2]]
    g = graph.from_edge_list([(0, 1, 0.0), (2, 2)])
    assert g.edges().tolist() == [[2, 2]]


# --- embedding TSV -----------------------------------------------------------

SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
           2.2250738585072014e-308, 1e300, -1e-300, 0.1, 1.0 / 3.0,
           2.0 ** 53 + 1]


@pytest.mark.parametrize("rows, labels", [
    (np.array([SPECIAL, SPECIAL[::-1]]), ["a", "ß"]),
    (np.array([[0, 3, -7], [2 ** 62 + 1, 1, 0]]), [10, 11]),
    (np.array([[1.5], [2.5]], dtype=np.float32), ["x y", "#z"]),
    (np.array([[True, False]]), [("t", 1)]),
    (np.zeros((3, 0)), ["p", "q", "r"]),
    (np.zeros((0, 4)), []),
])
def test_save_embedding_tsv_bytes_match_oracle(tmp_path, rows, labels):
    save_embedding_tsv(tmp_path / "new.tsv", rows, labels)
    oracle_save_embedding_tsv(tmp_path / "old.tsv", rows, labels)
    assert (tmp_path / "new.tsv").read_bytes() == \
        (tmp_path / "old.tsv").read_bytes()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(0, 9000), cols=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_save_embedding_tsv_across_batches(tmp_path, n, cols, seed):
    rows = np.random.default_rng(seed).standard_normal((n, cols))
    labels = [f"n{i}" for i in range(n)]
    save_embedding_tsv(tmp_path / "new.tsv", rows, labels)
    oracle_save_embedding_tsv(tmp_path / "old.tsv", rows, labels)
    assert (tmp_path / "new.tsv").read_bytes() == \
        (tmp_path / "old.tsv").read_bytes()


# The writer's two paths: the compiled formatter (when a compiler is
# found) and the Python loop it falls back to.
@pytest.fixture(params=["compiled", "python"])
def writer(request):
    if request.param == "compiled":
        yield
        return
    with mock.patch.object(_native, "library", lambda: None):
        yield


def assert_writes_like_oracle(tmp_path, rows, labels):
    save_embedding_tsv(tmp_path / "new.tsv", rows, labels)
    oracle_save_embedding_tsv(tmp_path / "old.tsv", rows, labels)
    assert (tmp_path / "new.tsv").read_bytes() == \
        (tmp_path / "old.tsv").read_bytes()


def from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def neighbours(x, ulps=2):
    """x and the doubles up to `ulps` steps either side of it."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def formatter_edge_cases():
    """Doubles where a '%.17g' formatter goes wrong first."""
    values = []
    for k in range(-20, 21):
        values += neighbours(float(f"1e{k}"))
    values += neighbours(1e-16, 4) + neighbours(1e17, 4)
    values += [(2.0 ** 52 + k) / 4 for k in range(-40, 41)]
    values += [(2.0 ** 53 + k) * 2 ** e for k in (1, 3) for e in (-80, 0, 3)]
    values += [5e-324, 1e-323, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.5e-310, 0.0, -0.0]
    values += [2.0 ** e for e in range(-1074, 1024, 7)]
    # Both ends of every binade of the exact range, where the formatter's
    # first guess at the decimal exponent changes.
    values += [y for e in range(-54, 58) for y in neighbours(2.0 ** e, 1)]
    values += list(from_bits([0xFFF8000000000000, 0x7FF8000000000001,
                              0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF,
                              0x7FF4000000000000]))
    values += [math.inf, -math.inf, 1.7976931348623157e308, 1e-5, 1e-4,
               0.5, 123456789.125, 9007199254740993.0]
    values = np.array(values, dtype=np.float64)
    return np.concatenate([values, -values])


def test_writer_matches_oracle_on_edge_cases(tmp_path, writer):
    values = formatter_edge_cases()
    assert_writes_like_oracle(tmp_path, values[:, None],
                              list(range(values.size)))
    rows = values[:values.size // 3 * 3].reshape(-1, 3)
    assert_writes_like_oracle(tmp_path, rows, list(range(len(rows))))


# Raw patterns, plus doubles around the formatter's exact range.
BITS = st.integers(0, 2 ** 64 - 1) | st.floats(-1e18, 1e18).map(
    lambda v: int(np.float64(v).view(np.uint64)))


@IO_SETTINGS
@given(bits=st.lists(BITS, min_size=1, max_size=60),
       cols=st.sampled_from([1, 2, 3]))
def test_writer_matches_oracle_on_any_bit_pattern(tmp_path, writer, bits,
                                                  cols):
    values = from_bits(bits[:len(bits) // cols * cols] or bits[:1] * cols)
    rows = values.reshape(-1, cols)
    assert_writes_like_oracle(tmp_path, rows, list(range(len(rows))))


@pytest.mark.parametrize("rows", [
    np.array([[2 ** 53 + 1, -2 ** 63, 2 ** 63 - 1],
              [-(2 ** 53) - 3, 123456789012345678, 0]], dtype=np.int64),
    np.array([[2 ** 64 - 1, 2 ** 63 + 1, 2 ** 53 + 1]], dtype=np.uint64),
    np.array([[-128, 127]], dtype=np.int8),
    np.array([[True, False], [False, True]]),
    np.array([[0.1, 65504, -6e-8, np.nan, np.inf]], dtype=np.float16),
    np.array([[0.1, 3.4e38, -1e-45, np.nan, -np.inf]], dtype=np.float32),
    np.array([[1.5, 2.5]], dtype=np.longdouble),
    np.array([[1.5, 2 ** 70, -3]], dtype=object),
], ids=lambda rows: str(rows.dtype))
def test_writer_matches_oracle_on_every_dtype(tmp_path, writer, rows):
    assert_writes_like_oracle(tmp_path, rows, list(range(len(rows))))


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
def test_writer_matches_oracle_on_empty_shapes(tmp_path, writer, shape):
    assert_writes_like_oracle(tmp_path, np.zeros(shape), list(range(shape[0])))


def test_writer_matches_oracle_on_any_label(tmp_path, writer):
    labels = ["a", 7, ("t", 1), "é ß字", "", "x\ty", np.int64(3), 2.5,
              "𝄞"]
    rows = np.arange(2.0 * len(labels)).reshape(-1, 2) / 3
    assert_writes_like_oracle(tmp_path, rows, labels)
    # A label that does not encode fails the write and leaves no file,
    # also after earlier blocks were written.
    for bad_rows, bad_labels in [
            (rows[:1], ["\udc80"]),
            (np.ones((5000, 1)), ["a"] * 4500 + ["\udc80"] + ["b"] * 499)]:
        with pytest.raises(UnicodeEncodeError):
            save_embedding_tsv(tmp_path / "bad.tsv", bad_rows, bad_labels)
        assert not (tmp_path / "bad.tsv").exists()


@pytest.mark.parametrize("shape", [(3,), (3, 2, 2)])
def test_writer_rejects_rows_that_are_not_2d(tmp_path, writer, shape):
    """Both writer paths raise ValueError naming the shape before the
    file is opened, through `save_embedding_tsv` and `_write_rows`."""
    rows = np.ones(shape)
    message = re.escape(f"expected a 2-D array of rows, got shape {shape}")
    for write in (save_embedding_tsv, graph._write_rows):
        with pytest.raises(ValueError, match=message):
            write(tmp_path / "bad.tsv", rows, ["a", "b", "c"])
        assert not (tmp_path / "bad.tsv").exists()


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_writer_matches_oracle_across_block_edges(tmp_path, writer, n):
    rows = np.random.default_rng(n).standard_normal((n, 2)) * 1e-3
    assert_writes_like_oracle(tmp_path, rows, [f"n{i}" for i in range(n)])


def test_save_edge_list_python_loop_matches_oracle(tmp_path):
    g = graph.from_edge_list([("a", "b", 0.1), ("b", "c", 1e-300),
                              ("c", "c", 2.0), (1, "a", 3.0)])
    with mock.patch.object(_native, "library", lambda: None):
        graph.save_edge_list(tmp_path / "new.tsv", g)
    oracle_save_edge_list(tmp_path / "old.tsv", g)
    assert (tmp_path / "new.tsv").read_bytes() == \
        (tmp_path / "old.tsv").read_bytes()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_writer_runs_compiled_when_a_compiler_is_found(tmp_path,
                                                       monkeypatch):
    """The Python loop writes the same bytes, so only this test sees a
    silent fallback."""
    lib = _native.library()
    assert lib is not None
    calls = []
    formatter = lib.modembed_format_rows

    def spy(*args):
        calls.append(args[:2])
        return formatter(*args)

    monkeypatch.setattr(lib, "modembed_format_rows", spy)
    rows = np.random.default_rng(0).standard_normal((5000, 3))
    save_embedding_tsv(tmp_path / "e.tsv", rows, list(range(5000)))
    assert calls == [(4096, 3), (904, 3)]


def comma_locale():
    """Name of an installed locale whose decimal point is a comma, or
    None."""
    for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8",
                 "nl_NL.UTF-8", "ru_RU.UTF-8"):
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
        except locale.Error:
            continue
        finally:
            locale.setlocale(locale.LC_NUMERIC, "C")
        return name
    return None


@pytest.mark.skipif(comma_locale() is None, reason="no comma locale")
def test_writer_ignores_the_numeric_locale(tmp_path, writer):
    """Python's % never reads LC_NUMERIC, so printf's fallback must not
    either, and the caller's locale survives the call."""
    rows = np.array([[1e300, 5e-324, 0.5, 1e-17]])
    locale.setlocale(locale.LC_NUMERIC, comma_locale())
    try:
        assert_writes_like_oracle(tmp_path, rows, ["a"])
        assert locale.localeconv()["decimal_point"] == ","
    finally:
        locale.setlocale(locale.LC_NUMERIC, "C")
    assert (tmp_path / "new.tsv").read_bytes() == (
        b"a\t1.0000000000000001e+300\t4.9406564584124654e-324\t0.5"
        b"\t1.0000000000000001e-17\n")


@IO_SETTINGS
@given(values=st.lists(st.floats() | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072009e-308, 1e308, -1.7976931348623157e308,
     math.inf, -math.inf, math.nan]), min_size=1, max_size=40),
    cols=st.sampled_from([1, 2, 4]))
def test_embedding_round_trips_bit_for_bit(tmp_path, writer, values, cols):
    """Every finite double comes back with its bits, -0.0 and subnormals
    included; inf comes back as inf and NaN as NaN."""
    values = (values * cols)[:len(values) // cols * cols or cols]
    rows = np.array(values, dtype=np.float64).reshape(-1, cols)
    labels = [f"v{i}" for i in range(len(rows))]
    save_embedding_tsv(tmp_path / "e.tsv", rows, labels)
    got_labels, got = load_embedding_tsv(tmp_path / "e.tsv")
    assert got_labels == labels
    assert got.shape == rows.shape
    nan = np.isnan(rows)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == rows[~nan].tobytes()


EMB_FIELD = st.sampled_from(["1", "-0", "2.5e-3", "nan", "inf", " 3 ", "x", "",
                             "1_0", "5e-324"])


@st.composite
def emb_line(draw):
    kind = draw(st.sampled_from(["row", "row", "row", "blank", "short"]))
    if kind == "blank":
        return "\n"
    label = draw(st.sampled_from(["a", "b", "#c", " d", "é"]))
    if kind == "short":
        return label + "\n"
    values = draw(st.lists(EMB_FIELD, min_size=1, max_size=3))
    return "\t".join([label] + values) + draw(EOL)


@IO_SETTINGS
@given(lines=st.lists(emb_line(), max_size=12))
def test_load_embedding_tsv_matches_oracle(tmp_path, lines):
    path = tmp_path / "e.tsv"
    path.write_bytes("".join(lines).encode("utf-8"))
    assert_reads_like_oracle("rows", path)


# --- the small writers: metrics, eigenvalues, reports, residuals -----------

# Any double, with the ones a formatter gets wrong first drawn often.
VALUE = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1e-17, 1e17,
     math.inf, -math.inf, math.nan])
# Each run covers both writer paths; fewer examples keep the suite quick.
SMALL_WRITER_SETTINGS = settings(IO_SETTINGS, max_examples=100)
REPORT_NAMES = ["lambda1", "lambda2", "lambda_min", "delta1", "epsilon",
                "cos_x", "bound_x", "cos_qx", "bound_qx", "applicable",
                "holds"]


def assert_same_bytes(tmp_path):
    assert (tmp_path / "new.tsv").read_bytes() == \
        (tmp_path / "old.tsv").read_bytes()


@SMALL_WRITER_SETTINGS
@given(values=st.lists(VALUE, min_size=6, max_size=6), auc=st.booleans())
def test_save_metrics_tsv_matches_oracle(tmp_path, writer, values, auc):
    if not auc:
        values[4:] = [None, None]
    summary = MetricSummary(*values)
    save_metrics_tsv(tmp_path / "new.tsv", summary)
    oracle_save_metrics_tsv(tmp_path / "old.tsv", summary)
    assert_same_bytes(tmp_path)


@SMALL_WRITER_SETTINGS
@given(values=st.lists(VALUE, min_size=1, max_size=40))
def test_eigenvalue_rows_match_oracle(tmp_path, writer, values):
    values = np.array(values)
    graph._write_rows(tmp_path / "new.tsv", values[:, None],
                      range(values.size))
    oracle_save_eigenvalues(tmp_path / "old.tsv", values)
    assert_same_bytes(tmp_path)


@SMALL_WRITER_SETTINGS
@given(values=st.lists(VALUE, min_size=len(REPORT_NAMES),
                       max_size=len(REPORT_NAMES)))
@example(values=[0.5, 0.25, -0.5, 0.5, 2.0, 0.9, math.nan, 0.8, math.nan,
                 0.0, 1.0])
def test_report_rows_match_oracle(tmp_path, writer, values):
    """The explicit example is a report that does not apply: NaN bounds."""
    rows = list(zip(REPORT_NAMES, values))
    graph._write_rows(tmp_path / "new.tsv", np.array(values)[:, None],
                      REPORT_NAMES)
    oracle_save_report(tmp_path / "old.tsv", rows)
    assert_same_bytes(tmp_path)


@SMALL_WRITER_SETTINGS
@given(rows=st.lists(st.tuples(VALUE, st.booleans()), min_size=1,
                     max_size=12))
def test_residual_rows_match_oracle(tmp_path, writer, rows):
    residuals = np.array([res for res, _ in rows])
    selected = np.array([sel for _, sel in rows])
    graph._write_rows(tmp_path / "new.tsv",
                      np.column_stack([residuals, selected]),
                      range(residuals.size))
    oracle_save_residuals(tmp_path / "old.tsv", residuals, selected)
    assert_same_bytes(tmp_path)


def test_cli_small_writers_match_oracles(tmp_path, writer):
    """verify, eigs and reduce files equal the oracles' bytes for the
    same values computed in process."""
    path = tmp_path / "karate.tsv"
    path.write_text("".join(f"{u}\t{w}\n"
                            for u, w in datasets.karate_club_edges()))
    Q = graph.load_edge_list(path).modularity_matrix()

    assert cli.main(["verify", "--graph", str(path),
                     "--out", str(tmp_path / "new.tsv")]) == 0
    config = ClusterConfig(n_clusters=2, theta=50.0, max_sweeps=200,
                           tol=1e-9, seed=0)
    report = alignment_bounds(Q, clustering.run(Q, config).assignment.H)
    oracle_save_report(tmp_path / "old.tsv",
                       [(name, float(getattr(report, name)))
                        for name in REPORT_NAMES])
    assert_same_bytes(tmp_path)

    assert cli.main(["eigs", "--graph", str(path),
                     "--out", str(tmp_path / "new.tsv")]) == 0
    oracle_save_eigenvalues(tmp_path / "old.tsv",
                            eigendecompose(Q).eigenvalues)
    assert_same_bytes(tmp_path)

    assert cli.main(["reduce", "--cloud", "circles", "--k", "6",
                     "--out", str(tmp_path / "red.tsv")]) == 0
    result = reduce_cloud(concentric_circles(), 6)
    oracle_save_residuals(tmp_path / "old.tsv", result.residuals,
                          result.selected)
    (tmp_path / "red.residuals.tsv").rename(tmp_path / "new.tsv")
    assert_same_bytes(tmp_path)


# --- label files -------------------------------------------------------------

@st.composite
def label_line(draw):
    kind = draw(st.sampled_from(["row", "row", "row", "row", "comment",
                                 "blank", "space", "fields"]))
    if kind == "comment":
        return draw(st.sampled_from(["#", " \t# x\ty", "#a\tb"])) + "\n"
    if kind == "blank":
        return "\n"
    if kind == "space":
        return " \n"
    node = draw(st.sampled_from(["a", "b", "c", "é", "zz", " a", "f\x0cg"]))
    cls = draw(st.sampled_from(["k1", "k2", ""]))
    if kind == "fields":
        return draw(st.sampled_from([node, f"{node}\t{cls}\tq"])) + "\n"
    return f"{node}\t{cls}" + draw(EOL)


LABEL_GRAPH = graph.from_edge_list([("a", "b"), ("b", "c"), ("c", "é"),
                                    ("é", "f\x0cg")])


def scanned_graph(directory, labels):
    """A graph on a path through `labels` in order, read from a file in
    `directory` by the scanner when the library is found, so that its
    labels keep their bytes and label files are scanned against them."""
    path = directory / "g.tsv"
    path.write_text("".join(f"{u}\t{w}\n" for u, w in zip(labels,
                                                            labels[1:])))
    g = graph.load_edge_list(path)
    assert _native.library() is None or isinstance(g.node_labels,
                                                   _native.Labels)
    return g


@pytest.fixture(scope="module")
def scanned_twins(tmp_path_factory):
    """Scanned graphs on the labels of LABEL_GRAPH and ASCII_GRAPH that an
    edge list can hold, in another order, so that the label-file oracle
    cases also run through the compiled label scan."""
    directory = tmp_path_factory.mktemp("twins")
    return (scanned_graph(directory, ["c", "a", "b"]),
            scanned_graph(directory, ASCII_LABELS[::-1]))


@IO_SETTINGS
@given(lines=st.lists(label_line(), max_size=12))
def test_load_labels_matches_oracle(tmp_path, scanned_twins, lines):
    path = tmp_path / "l.tsv"
    path.write_bytes("".join(lines).encode("utf-8"))
    assert_reads_like_oracle("labels", path, (LABEL_GRAPH, scanned_twins[0]))


def test_indices_of_names_first_unknown_label(karate):
    assert karate.indices_of([33, 0]).tolist() == [
        karate.index_of(33), karate.index_of(0)]
    with pytest.raises(KeyError, match="'x'"):
        karate.indices_of([0, "x", "y"])


# --- the compiled scanner ----------------------------------------------------

def assert_reads_like_oracle(kind, path, labelled=()):
    """The reader of `kind` ("edges", "labels" or "rows") gives the
    oracle's result or error on both paths; a label file is read against
    each graph in `labelled`."""
    if kind == "edges":
        want = outcome(oracle_load_edge_list, path)
        for got in both_paths(graph.load_edge_list, path):
            if assert_same_outcome(got, want):
                assert_same_graph(got[1], want[1])
    elif kind == "labels":
        for g in labelled:
            want = outcome(oracle_load_labels, path, g)
            for got in both_paths(load_labels, path, g):
                if assert_same_outcome(got, want):
                    index, classes, names = got[1]
                    assert names == sorted(set(want[1].values()))
                    assert index.dtype == classes.dtype == np.int64
                    assert index.tolist() == [g.index_of(node)
                                              for node in want[1]]
                    assert classes.tolist() == [names.index(name)
                                                for name in want[1].values()]
    else:
        want = outcome(oracle_load_embedding_tsv, path)
        for got in both_paths(load_embedding_tsv, path):
            if assert_same_outcome(got, want):
                assert got[1][0] == want[1][0]
                assert got[1][1].dtype == want[1][1].dtype
                assert got[1][1].shape == want[1][1].shape
                assert got[1][1].tobytes() == want[1][1].tobytes()


needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler")
GRAMMAR = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")
DIGITS = st.text("0123456789", min_size=1, max_size=24)
# Numbers of the scanner's grammar: 20+ digit mantissas, exponents past
# either end of the double range.
NUMBER = st.builds(
    "{}{}{}{}".format, st.sampled_from(["", "", "+", "-"]), DIGITS,
    st.just("") | DIGITS.map(".".__add__),
    st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"),
                            st.sampled_from(["", "+", "-"]),
                            st.integers(0, 400).map(str)
                            | st.just("99999999999999999999")))


def midpoint(x):
    """The exact decimal halfway between x >= 0 and the next double."""
    with decimal.localcontext() as context:
        context.prec = 1200
        return str((decimal.Decimal(x) +
                    decimal.Decimal(math.nextafter(x, math.inf))) / 2)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
GRAMMAR_NUMBER = (NUMBER | FINITE.map(repr)
                  | st.tuples(st.sampled_from(["", "-"]),
                              FINITE.map(abs).filter(
                                  lambda x: x < sys.float_info.max)
                              .map(midpoint)).map("".join))


@needs_cc
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(numbers=st.lists(GRAMMAR_NUMBER, min_size=1, max_size=20))
@example(numbers=[
    "-0", "-0.0e-5", "+0", "4.9406564584124654e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324",
    "2.2250738585072011e-308", "1.7976931348623157e308",
    "1.7976931348623158e308", "1.7976931348623159e308",
    "9007199254740993", "9007199254740995",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "0.1", "1e23", "8.41e21", "1" + "0" * 400, "0." + "0" * 400 + "1",
    "1e-400", "1e400", "123456789012345678901234567890",
    "1e99999999999999999999", "1e-99999999999999999999",
    "0e99999999999999999999", "3" * 1000])
def test_strtod_matches_float_on_the_scanner_grammar(tmp_path, numbers):
    """The scanner's strtod gives float()'s double, by bits: subnormals,
    long mantissas, halfway cases, -0 and exponent overflow included."""
    assert all(GRAMMAR.fullmatch(x) for x in numbers)
    path = tmp_path / "n.tsv"
    path.write_text("".join(f"v\t{x}\n" for x in numbers))
    scanned = _native.scan("rows", path)
    assert scanned is not None
    want = np.array([[float(x)] for x in numbers])
    assert scanned[1].tobytes() == want.tobytes()


# ASCII files of the kinds the scanner reads, with a few lines it leaves
# to the loop: numbers outside its grammar, negative or infinite weights,
# bad field counts, conflicting classes, ragged rows.  Labels of 8 bytes
# and more, two of them alike in their first 8, reach the full compare.
ASCII_LABELS = ["a", "b", "c", "dd", "0", "00", "x#", "12345678",
                "node_label_a", "node_label_b"]
ASCII_GRAPH = graph.from_edge_list(
    [(u, w) for u, w in zip(ASCII_LABELS, ASCII_LABELS[1:])]
    + [("a b", "a"), (" a", "a")])
OFF_GRAMMAR = st.sampled_from(["1.", ".5", "1_0", "inf", "nan", "0x1", "-1"])


@st.composite
def ascii_file(draw, kind):
    columns = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(
            ["line"] * 8 + ["weighted", "weighted", "comment", "blank",
                            "odd"]))
        if shape == "comment" and kind != "rows":
            line = draw(st.sampled_from(["#", "# a b", " \t#x\ty", "#1 2"]))
        elif shape == "blank":
            line = ""
        elif kind == "edges":
            sep = draw(st.sampled_from([" ", "\t", "  \t"]))
            fields = [draw(st.sampled_from(ASCII_LABELS)),
                      draw(st.sampled_from(ASCII_LABELS + ["#h"]))]
            if shape == "weighted":
                fields.append(draw(NUMBER.filter(lambda x: x[0] != "-")
                                   | st.just("-0.0") | OFF_GRAMMAR))
            elif shape == "odd":
                fields = draw(st.sampled_from([fields[:1], fields * 2]))
            line = sep.join(fields)
        elif kind == "labels":
            # A node outside the scanned graph sends the whole file to
            # the loop, so each is drawn at a quarter of a graph node's
            # weight.
            label = draw(st.sampled_from(ASCII_LABELS * 4 +
                                         ["a b", " a", "q"]))
            cls = f"k{len(label) % 3}"
            if shape == "odd":
                cls = draw(st.sampled_from(["k0", "", "k1\tx"]))
            line = f"{label}\t{cls}"
        else:
            label = draw(st.sampled_from(ASCII_LABELS + ["", "#c", " d"]))
            width = columns + (shape == "odd")
            value = NUMBER | OFF_GRAMMAR if shape == "weighted" else NUMBER
            values = draw(st.lists(value, min_size=width, max_size=width))
            line = "\t".join([label] + values)
        lines.append(line + "\n")
    text = "".join(lines)
    return text[:-1] if text and draw(st.booleans()) else text


@needs_cc
@pytest.mark.parametrize("kind", ["edges", "labels", "rows"])
def test_compiled_scanner_reads_most_ascii_files(tmp_path, monkeypatch,
                                                 scanned_twins, kind):
    """Each drawn file reads as the oracle reads it on both paths, and a
    good share of them is read by the compiled scanner, not the loop;
    label files are scanned against the scanned graph."""
    lib = _native.library()
    accepted = []

    def spy(*args, _scan=lib.modembed_scan):
        accepted.append(_scan(*args))
        return accepted[-1]

    monkeypatch.setattr(lib, "modembed_scan", spy)

    @settings(max_examples=200, deadline=None)
    @given(text=ascii_file(kind))
    def check(text):
        path = tmp_path / "f.tsv"
        path.write_bytes(text.encode("ascii"))
        assert_reads_like_oracle(kind, path, (ASCII_GRAPH, scanned_twins[1]))

    check()
    assert len(accepted) >= 100
    assert sum(accepted) >= len(accepted) / 4, (sum(accepted), len(accepted))


@pytest.mark.parametrize("kind, clean, tail", [
    ("edges", "a b\nb c 2\n", "c d\r"),
    ("edges", "a b\nb c 2\n", "c dé"),
    ("edges", "a b\nb c 2\n", "c d 1_0"),
    ("edges", "a b\nb c 2\n", "c d nan"),
    ("edges", "a b\nb c 2\n", "c d 1e999"),
    ("labels", "a\tk1\nb\tk2\n", "c\tk1\r"),
    ("labels", "a\tk1\nb\tk2\n", "c\tké"),
    ("labels", "a\tk1\nb\tk2\n", "a\tk2"),
    ("labels", "a\tk1\nb\tk2\n", "q\tk1"),
    ("rows", "a\t1\t2\n", "b\t3\t1_0"),
    ("rows", "a\t1\t2\n", "b\t3\tnan"),
    ("rows", "a\t1\t2\n", "b\t3"),
    ("rows", "a\t1\t2\n", "b\t3\t4\r"),
    ("rows", "a\t1\t2\n", "é\t3\t4"),
])
def test_files_the_scanner_declines_at_the_end_read_like_the_loop(
        tmp_path, kind, clean, tail):
    """A file the scanner reads up to its last line, which then holds a
    byte or a line that the scanner leaves to the loop: the loop reads
    the whole file and gives its result or error."""
    path = tmp_path / "f.tsv"
    scanned = scanned_graph(tmp_path, ["a", "b", "c"])
    if _native.library() is not None:
        path.write_text(clean, encoding="utf-8")
        assert _native.scan(kind, path, scanned.node_labels) is not None
        path.write_text(clean + tail, encoding="utf-8", newline="")
        assert _native.scan(kind, path, scanned.node_labels) is None
    path.write_text(clean + tail, encoding="utf-8", newline="")
    labelled = graph.from_edge_list([("a", "b"), ("b", "c")])
    assert_reads_like_oracle(kind, path, (labelled, scanned))


def test_readers_read_a_pipe_once(tmp_path):
    """A pipe cannot be read twice, so the loop reads it, errors and
    all, and the scanner never opens it."""
    fifo = tmp_path / "g.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("a b\nc\n",),
                              daemon=True)
    writer.start()
    got = []
    reader = threading.Thread(
        target=lambda: got.append(outcome(graph.load_edge_list, fifo)),
        daemon=True)
    reader.start()
    reader.join(timeout=30)
    writer.join(timeout=30)
    assert not reader.is_alive() and not writer.is_alive()
    assert got == [(ValueError, f"{fifo}:2: expected 'u w [weight]', got "
                                f"1 fields")]


@needs_cc
def test_scanner_survives_hostile_buffers_under_sanitizers(tmp_path):
    """tests/native_scan_check.c, one unit with _native.c, feeds the
    scanner empty, unterminated, comment-only, 64 KiB-label, 1,000-digit
    and 100,000-field texts, every byte value and random texts, each in a
    block of its exact size; label files whose nodes are unknown, repeat
    with a longer or a shorter class or collide in their hash tags with
    the graph's; the graph build one edge, repeated pairs, self-loops,
    ids up to n - 1, out-of-range ids and pairs whose hash tags collide;
    the row writer the longest values, specials and empty labels in the
    budget `_native.row_formatter` reserves; Q @ H at k = 1-9 with rows
    of degree 0, also with its column-major second store and its
    objective store, the latter also on a mostly-zero H whose sums run
    over its support; the Householder step at every column of n = 1-7;
    a softmax pass at K = 64 whose sparse rows read only their support;
    and the classifier fit at m = 1, C = 1 and larger shapes, these two
    on stand-ins for numpy's loops, with the fit's row shift on NaNs of
    two payloads: each against a plain loop."""
    flags = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all",
             "-g", "-O1", "-ffp-contract=off"]
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    built = subprocess.run(["cc", *flags, "-o", str(tmp_path / "probe"),
                            str(probe)], capture_output=True)
    if built.returncode or subprocess.run([str(tmp_path / "probe")],
                                          capture_output=True).returncode:
        pytest.skip("no sanitizer support")
    driver = os.path.join(os.path.dirname(__file__), "native_scan_check.c")
    binary = tmp_path / "scan_check"
    built = subprocess.run(["cc", *flags, "-I",
                            os.path.dirname(_native._SOURCE), "-o",
                            str(binary), driver, "-lm"],
                           capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    run = subprocess.run([str(binary)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


@needs_cc
def test_ctypes_mirrors_match_the_c_structs(tmp_path):
    """Each field of the ctypes mirrors in `_native` (`_Operator`,
    `_Scan`, `_Graph`) has the offset and size that the compiler gives
    it in the C struct, and each mirror the struct's size: a drift would
    corrupt memory without an error."""
    checker = os.path.join(os.path.dirname(__file__), "native_scan_check.c")
    binary = tmp_path / "layout"
    built = subprocess.run(["cc", "-I", os.path.dirname(_native._SOURCE),
                            "-o", str(binary), checker, "-lm"],
                           capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    run = subprocess.run([str(binary), "layout"], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr
    want = []
    for name, mirror in (("modembed_operator", _native._Operator),
                         ("modembed_scan", _native._Scan),
                         ("modembed_graph", _native._Graph)):
        want.append(f"{name} - 0 {ctypes.sizeof(mirror)}")
        want += [f"{name} {field} {getattr(mirror, field).offset} "
                 f"{getattr(mirror, field).size}"
                 for field, _ in mirror._fields_]
    assert run.stdout.splitlines() == want


# --- the compiled build and scanned label bytes ----------------------------

def same_arrays(got, want):
    return all(x.dtype == y.dtype and x.shape == y.shape and
               x.tobytes() == y.tobytes() for x, y in zip(got, want))


# Weights that sum to zero, overflow, or underflow when divided.
BUILD_WEIGHT = st.floats(0.0, 1e6) | st.sampled_from(
    [0.0, -0.0, 1.0, 2.5, 0.1, 5e-324, 1e-300, 1e300, 1.7e308])


@needs_cc
@IO_SETTINGS
@given(n=st.integers(1, 12), data=st.data())
def test_compiled_build_matches_numpy_build(n, data):
    """`_native.build` gives `_csr_of_ids`'s arrays by bytes, or declines
    exactly where the numpy build raises: duplicate and reversed pairs,
    self-loops, zero and all-zero weights, isolated nodes."""
    m = data.draw(st.integers(0, 30))
    ends = data.draw(st.lists(st.integers(0, n - 1), min_size=2 * m,
                              max_size=2 * m))
    weights = np.array(data.draw(st.lists(BUILD_WEIGHT, min_size=m,
                                          max_size=m)), dtype=float)
    ids = np.array(ends, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = outcome(graph._csr_of_ids, ids, weights, n)
        got = _native.build(ids, weights, n)
    if want[0] == "ok":
        assert got is not None and same_arrays(got, want[1])
    else:
        assert want == (ValueError, "empty graph: total weight is zero")
        assert got is None


@IO_SETTINGS
@given(edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                                BUILD_WEIGHT), max_size=20),
       nodes=st.none() | st.lists(st.integers(0, 12), max_size=8))
def test_from_edge_list_builds_alike_on_both_paths(edges, nodes):
    """Declared nodes, isolated ones among them, give the same graph, or
    the same error, with and without the library."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got, want = both_paths(graph.from_edge_list, edges, nodes=nodes)
    if assert_same_outcome(got, want):
        assert_same_graph(got[1], want[1])


def test_all_zero_weights_raise_on_both_paths():
    for got in both_paths(graph.from_edge_list, [(1, 2, 0.0), (2, 1, -0.0)]):
        assert got == (ValueError, "empty graph: total weight is zero")


SCANNED_LABELS = ["a", "b", "c", "0", "00", "12345678", "node_label_a",
                  "node_label_b", "node_label"]


@st.composite
def scanned_label_file(draw):
    """Label-file lines over SCANNED_LABELS and nodes the graph lacks,
    three of them alike in their first 8 bytes, with repeats in the same,
    a longer, a shorter or another class, comments and blank lines."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["row"] * 10 + ["unknown", "comment",
                                                     "blank"]))
        if shape == "comment":
            lines.append(draw(st.sampled_from(["#", "# a\tk", " \t#x"])))
        elif shape == "blank":
            lines.append("")
        else:
            node = draw(st.sampled_from(
                SCANNED_LABELS if shape == "row"
                else ["d", "node_label_c", "12345679", "node_labe"]))
            cls = draw(st.sampled_from(["k"] * 6 + ["kk", "j", ""]))
            lines.append(f"{node}\t{cls}")
    return "".join(line + "\n" for line in lines)


@needs_cc
@IO_SETTINGS
@given(text=scanned_label_file())
def test_scanned_label_lookup_matches_the_dict(tmp_path, text):
    """A label file scanned against a scanned graph's label bytes gives
    the indices, class ids and names of the line loop and the graph's
    dict by bytes, or their exact error: unknown nodes first or later,
    repeated nodes with the same or a conflicting class."""
    g = scanned_graph(tmp_path, SCANNED_LABELS)
    path = tmp_path / "l.tsv"
    path.write_text(text)
    got, want = both_paths(load_labels, path, g)
    if assert_same_outcome(got, want):
        assert same_arrays(got[1][:2], want[1][:2])
        assert got[1][2] == want[1][2]


def test_lookup_finds_labels_by_bytes(tmp_path):
    if _native.library() is None:
        pytest.skip("no C compiler")
    g = scanned_graph(tmp_path, SCANNED_LABELS)
    path = tmp_path / "l.tsv"
    path.write_text("node_label\tk\na\tj\nnode_label\tk\n")
    index, classes = _native.scan("labels", path, g.node_labels)
    assert index.dtype == np.int64
    assert (index.tolist(), classes) == ([8, 0], ["k", "j"])
    # Only a scanned graph's labels are searched.
    assert _native.scan("labels", path, list(g.node_labels)) is None
    path.write_text("node_label\tk\nnode_label_c\tk\na\tj\n")
    assert _native.scan("labels", path, g.node_labels) is None
    with pytest.raises(KeyError, match="'node_label_c'"):
        load_labels(path, g)


@needs_cc
def test_scanned_ingest_builds_no_label_index(tmp_path):
    """A scanned graph and its scanned label file never need the
    label -> index dict; the first lookup builds it, and an unknown
    label's KeyError keeps its text."""
    g = scanned_graph(tmp_path, SCANNED_LABELS)
    path = tmp_path / "l.tsv"
    path.write_text("node_label\tk\na\tj\n")
    indices, _, _ = load_labels(path, g)
    assert "_index" not in vars(g)
    assert g.indices_of(["node_label", "a"]).tolist() == indices.tolist()
    assert "_index" in vars(g)
    with pytest.raises(KeyError, match="^\"unknown node label: 'zz'\"$"):
        g.index_of("zz")


@needs_cc
@pytest.mark.parametrize("n", [1, 4096, 4097, 9000])
def test_writer_copies_scanned_label_bytes(tmp_path, n):
    """Rows written with a scanned graph's labels have the bytes of rows
    written with the same labels as str, across the writer's blocks."""
    labels = [f"n{i}" if i % 3 else f"label_{i:08d}" for i in range(n + 1)]
    g = scanned_graph(tmp_path, labels)
    rows = np.random.default_rng(n).standard_normal((g.n, 3))
    save_embedding_tsv(tmp_path / "a.tsv", rows, g.node_labels)
    save_embedding_tsv(tmp_path / "b.tsv", rows, list(g.node_labels))
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    # A block of rows shorter than the labels takes the labels as str.
    graph._write_rows(tmp_path / "c.tsv", rows[:2], g.node_labels)
    graph._write_rows(tmp_path / "d.tsv", rows[:2], list(g.node_labels))
    assert (tmp_path / "c.tsv").read_bytes() == (tmp_path / "d.tsv").read_bytes()


# --- ranks and start-up ----------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, math.inf,
                                 -math.inf, math.nan, 1e-300]), max_size=30)
       | st.lists(st.floats(allow_nan=False), max_size=30))
def test_rankdata_matches_scipy(values):
    from scipy.stats import rankdata as scipy_rankdata

    got = rankdata(np.array(values))
    want = scipy_rankdata(np.array(values, dtype=float))
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_cli_import_loads_no_scipy():
    code = ("import sys, modembed.cli; "
            "sys.exit(' '.join(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy') or None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_scipy_stats_unloaded():
    code = ("import sys, modembed.cli; "
            "sys.exit(int('scipy.stats' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr or "scipy.stats was imported"
