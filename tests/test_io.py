"""File readers and writers against the line-by-line implementations they
replaced, which are kept below as oracles: graphs must match bit for bit,
written files byte for byte, and errors in type, message and line."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from modembed import graph
from modembed.embedding import load_embedding_tsv, save_embedding_tsv
from modembed.tasks import load_labels, rankdata


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
    return graph.SampledGraph(n, off, diag, labels)


def oracle_load_edge_list(path, nodes=None):
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
    return oracle_from_edge_list(edges, nodes=nodes)


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
                       "　", " "])
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
@given(lines=st.lists(edge_line(), max_size=25),
       nodes=st.none() | st.lists(LABEL | st.just("iso"), max_size=4),
       final_eol=st.booleans())
def test_load_edge_list_matches_oracle(tmp_path, lines, nodes, final_eol):
    text = "".join(lines)
    if not final_eol:
        text = text.rstrip("\r\n")
    path = tmp_path / "g.tsv"
    path.write_bytes(text.encode("utf-8"))
    got = outcome(graph.load_edge_list, path, nodes=nodes)
    want = outcome(oracle_load_edge_list, path, nodes=nodes)
    if assert_same_outcome(got, want):
        assert_same_graph(got[1], want[1])


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
    with pytest.raises(ValueError) as got:
        graph.load_edge_list(path)
    with pytest.raises(ValueError) as want:
        oracle_load_edge_list(path)
    assert str(got.value) == str(want.value)
    assert str(got.value).replace(str(tmp_path) + "/", "") == message


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
    got = outcome(load_embedding_tsv, path)
    want = outcome(oracle_load_embedding_tsv, path)
    if assert_same_outcome(got, want):
        assert got[1][0] == want[1][0]
        assert got[1][1].shape == want[1][1].shape
        assert got[1][1].tobytes() == want[1][1].tobytes()


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
    node = draw(st.sampled_from(["a", "b", "c", "é", "zz", " a"]))
    cls = draw(st.sampled_from(["k1", "k2", ""]))
    if kind == "fields":
        return draw(st.sampled_from([node, f"{node}\t{cls}\tq"])) + "\n"
    return f"{node}\t{cls}" + draw(EOL)


LABEL_GRAPH = graph.from_edge_list([("a", "b"), ("b", "c"), ("c", "é")])


@IO_SETTINGS
@given(lines=st.lists(label_line(), max_size=12))
def test_load_labels_matches_oracle(tmp_path, lines):
    path = tmp_path / "l.tsv"
    path.write_bytes("".join(lines).encode("utf-8"))
    got = outcome(load_labels, path, LABEL_GRAPH)
    want = outcome(oracle_load_labels, path, LABEL_GRAPH)
    if assert_same_outcome(got, want):
        labels, index = got[1]
        assert list(labels.items()) == list(want[1].items())
        assert index.dtype == np.int64
        assert index.tolist() == [LABEL_GRAPH.index_of(node)
                                  for node in want[1]]


def test_indices_of_names_first_unknown_label(karate):
    assert karate.indices_of([33, 0]).tolist() == [
        karate.index_of(33), karate.index_of(0)]
    with pytest.raises(KeyError, match="'x'"):
        karate.indices_of([0, "x", "y"])


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


def test_cli_import_leaves_scipy_stats_unloaded():
    code = ("import sys, modembed.cli; "
            "sys.exit(int('scipy.stats' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr or "scipy.stats was imported"
