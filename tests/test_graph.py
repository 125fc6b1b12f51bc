"""Graph construction, normalization, and the modularity operator."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modembed import graph
from modembed.embedding import coarsen, multilayer_embed
from modembed.spectral import alignment_bounds, eigendecompose

from conftest import dense_masses, dense_modularity, graph_from, random_edges


def test_karate_shape_and_mass(karate):
    assert karate.n == 34
    assert karate.indices.size == 156  # 78 undirected edges, mirrored
    assert abs(karate.total_mass - 1.0) < 1e-12
    # Node 0 has degree 16 out of 2*78 endpoint slots.
    assert abs(karate.marginal[karate.index_of(0)] - 16.0 / 156.0) < 1e-12


def test_karate_matches_dense_oracle(karate, karate_dense):
    pi = karate_dense.sum(axis=1)
    assert np.abs(karate.marginal - pi).max() < 1e-15
    for u in range(34):
        for w in range(34):
            assert abs(karate.pair_mass(u, w) - karate_dense[u, w]) < 1e-15


def test_pair_mass_symmetric(karate):
    rng = np.random.default_rng(3)
    for _ in range(200):
        u, w = rng.integers(0, karate.n, size=2)
        assert karate.pair_mass(int(u), int(w)) == karate.pair_mass(int(w), int(u))


def test_random_graphs_match_dense_oracle():
    """P, marginals, apply(), and row sums against the dense rebuild."""
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        edges = random_edges(rng, n, weighted=trial % 2 == 1,
                             self_loops=trial % 3 == 0)
        g = graph_from(edges, n)
        P = dense_masses(edges, n)
        Qd = dense_modularity(P)

        assert abs(g.total_mass - 1.0) < 1e-12
        assert np.abs(g.marginal - P.sum(axis=1)).max() < 1e-14
        assert np.abs(g.diag_mass - np.diag(P)).max() < 1e-15

        Q = g.modularity_matrix()
        H = rng.standard_normal((n, 4))
        assert np.abs(Q.apply(H) - Qd @ H).max() < 1e-12
        Qz = Q.zero_diagonal()
        Qdz = dense_modularity(P, zero_diag=True)
        assert np.abs(Qz.apply(H) - Qdz @ H).max() < 1e-12

        # Zero row sums: Q applied to the ones vector vanishes.
        assert np.abs(Q.apply(np.ones(n))).max() < 1e-12
        assert abs(np.trace(Q.dense()) - np.trace(Qd)) < 1e-14


def test_apply_one_dimensional(karate, karate_dense):
    Q = karate.modularity_matrix()
    x = np.random.default_rng(0).standard_normal(34)
    got = Q.apply(x)
    want = dense_modularity(karate_dense) @ x
    assert got.shape == (34,)
    assert np.abs(got - want).max() < 1e-14


def test_covariance_entries(karate, karate_dense):
    Q = karate.modularity_matrix().dense()
    Qd = dense_modularity(karate_dense)
    for u, w in ((0, 1), (5, 5), (33, 2), (12, 30)):
        assert abs(Q[u, w] - Qd[u, w]) < 1e-15


def test_row_covariance_matches_dense():
    rng = np.random.default_rng(7)
    n = 30
    edges = random_edges(rng, n, weighted=True, self_loops=True)
    g = graph_from(edges, n)
    Qdz = dense_modularity(dense_masses(edges, n), zero_diag=True)
    Q = g.modularity_matrix(diag_zeroed=True)
    H = rng.random((n, 5))
    agg = Q.make_aggregate(H)
    for u in range(n):
        z = Q.row_covariance(H, agg, u)
        assert np.abs(z - Qdz[u] @ H).max() < 1e-13


def test_partition_modularity_vs_brute():
    """Both diagonal modes against the dense sum over each cluster's
    block; the self-loops give the zeroed diagonal something to drop."""
    rng = np.random.default_rng(11)
    n = 25
    edges = random_edges(rng, n, weighted=True, self_loops=True)
    g = graph_from(edges, n)
    assert (g.diag_mass > 0.0).any()
    for zero_diag in (False, True):
        Qd = dense_modularity(dense_masses(edges, n), zero_diag=zero_diag)
        Q = g.modularity_matrix(diag_zeroed=zero_diag)
        for k in (1, 2, 5):
            part = rng.integers(0, k, size=n)
            brute = sum(Qd[np.ix_(part == c, part == c)].sum()
                        for c in range(k))
            assert abs(Q.partition_modularity(part) - brute) < 1e-14


def test_self_loop_becomes_diagonal_mass():
    g = graph.from_edge_list([(0, 1, 2.0), (1, 1, 1.0)])
    # W = 3: p(0,1) = p(1,0) = 2/6, p(1,1) = 1/3.
    assert abs(g.pair_mass(0, 1) - 2.0 / 6.0) < 1e-15
    assert abs(g.diag_mass[g.index_of(1)] - 1.0 / 3.0) < 1e-15
    assert abs(g.total_mass - 1.0) < 1e-15


def test_directed_duplicates_sum():
    g = graph.from_edge_list([(0, 1, 1.0), (1, 0, 3.0)])
    assert abs(g.pair_mass(0, 1) - 0.5) < 1e-15


def test_isolated_node_has_zero_marginal():
    g = graph.from_edge_list([(0, 1)], nodes=[0, 1, 2])
    assert g.n == 3
    assert g.marginal[g.index_of(2)] == 0.0
    Q = g.modularity_matrix()
    assert np.abs(Q.apply(np.ones(3))).max() < 1e-15


def test_edge_list_validation():
    with pytest.raises(ValueError, match="invalid weight"):
        graph.from_edge_list([(0, 1, -1.0)])
    with pytest.raises(ValueError, match="invalid weight"):
        graph.from_edge_list([(0, 1, float("nan"))])
    with pytest.raises(ValueError, match="empty graph"):
        graph.from_edge_list([])
    with pytest.raises(ValueError, match="empty graph"):
        graph.from_edge_list([(0, 1, 0.0)])


def test_label_lookup(karate):
    assert karate.node_labels[karate.index_of(33)] == 33
    with pytest.raises(KeyError):
        karate.index_of("nope")


def test_from_similarity_hand_case():
    sim = np.array([[0.0, 2.0], [2.0, 0.0]])
    g = graph.from_similarity(sim)
    assert abs(g.pair_mass(0, 1) - 0.5) < 1e-15
    assert g.diag_mass.sum() == 0.0


def test_from_similarity_symmetrizes():
    sim = np.array([[0.0, 4.0], [0.0, 0.0]])
    g = graph.from_similarity(sim)
    assert abs(g.pair_mass(0, 1) - 0.5) < 1e-15


def test_from_similarity_rejects_constant():
    with pytest.raises(ValueError, match="degenerate similarity"):
        graph.from_similarity(np.ones((3, 3)))


def test_from_bivariate_validation():
    ok = np.full((2, 2), 0.25)
    graph.from_bivariate(ok)
    with pytest.raises(ValueError, match="symmetric"):
        graph.from_bivariate(np.array([[0.2, 0.1], [0.3, 0.4]]))
    with pytest.raises(ValueError, match="sums to"):
        graph.from_bivariate(ok * 2.0)
    bad = np.array([[0.6, -0.1], [-0.1, 0.6]])
    with pytest.raises(ValueError, match="negative"):
        graph.from_bivariate(bad)


DENSE_CONSTRUCTORS = [
    lambda labels: graph.from_bivariate(np.full((3, 3), 1.0 / 9.0),
                                        node_labels=labels),
    lambda labels: graph.from_similarity(np.arange(9.0).reshape(3, 3),
                                         node_labels=labels),
]


@pytest.mark.parametrize("build", DENSE_CONSTRUCTORS)
@pytest.mark.parametrize("labels", [["a"], ["a", "b", "c", "d"]])
def test_dense_constructors_reject_a_wrong_label_count(build, labels):
    with pytest.raises(ValueError, match="expected 3 distinct node labels"):
        build(labels)


@pytest.mark.parametrize("build", DENSE_CONSTRUCTORS)
def test_dense_constructors_reject_repeated_labels(build):
    """Two nodes labelled "x" would leave `index_of("x")` naming one."""
    with pytest.raises(ValueError, match="expected 3 distinct node labels"):
        build(["x", "x", "y"])


@st.composite
def graph_past_the_dense_limit(draw):
    """A path, a star or a random tree on 5001 to 5004 nodes."""
    n = draw(st.integers(graph._DENSE_LIMIT + 1, graph._DENSE_LIMIT + 4))
    shape = draw(st.sampled_from(["path", "star", "tree"]))
    children = np.arange(1, n)
    if shape == "path":
        parents = children - 1
    elif shape == "star":
        parents = np.zeros_like(children)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        parents = rng.integers(0, children)
    return graph.from_edge_list(zip(parents.tolist(), children.tolist()))


DENSE_CALLS = [
    lambda Q: Q.dense(),
    eigendecompose,
    lambda Q: alignment_bounds(Q, np.full((Q.n, 2), 0.5)),
    multilayer_embed,
    lambda Q: coarsen(Q, np.arange(Q.n)),
]


@settings(max_examples=12, deadline=None)
@given(g=graph_past_the_dense_limit())
def test_dense_calls_refuse_past_the_limit_before_allocating(g):
    """Every call that builds something n x n raises naming n and the
    limit, with a traced peak far below one n x n float64 array."""
    Q = g.modularity_matrix()
    for call in DENSE_CALLS:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at n={g.n} \\(> 5000\\)"):
                call(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.n * g.n // 100


# Weighted edges over a few labels, so pairs repeat and self-loops occur.
# Weights stay positive: save_edge_list writes no isolated nodes.
WEIGHTED_EDGES = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.floats(1e-8, 1e8)),
    min_size=1, max_size=30,
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edges=WEIGHTED_EDGES)
def test_edge_list_roundtrip(tmp_path, edges):
    """Save/load preserves the distribution keyed by node label."""
    g = graph.from_edge_list(edges)
    path = tmp_path / "g.tsv"
    graph.save_edge_list(path, g)
    back = graph.load_edge_list(path)
    assert back.n == g.n
    perm = back.indices_of([str(lab) for lab in g.node_labels])
    assert np.abs(back.marginal[perm] - g.marginal).max() < 1e-15
    assert np.abs(back.diag_mass[perm] - g.diag_mass).max() < 1e-15
    dense = back.modularity_matrix().dense()[np.ix_(perm, perm)]
    assert np.abs(dense - g.modularity_matrix().dense()).max() < 1e-15


# Label texts a line cannot carry as they are: '#' first, whitespace,
# empty, a lone surrogate and ints beside strings of the same text.
ODD_LABEL = st.sampled_from(
    ["a", "b", "é", "x#", "#c", "#", "#2", "x y", " ", "", "\t", "z\n",
     "\u3000", "\x1c", "\ud800", 1, "1", 2, -1, "-1"])


def unreadable(g):
    """A pattern of the reasons `save_edge_list` may give to refuse the
    graph, or None: label faults come before the '#' pairs."""
    text = [str(lab) for lab in g.node_labels]
    reasons = []
    if any(t.split() != [t] for t in text):
        reasons.append("is empty or holds whitespace")
    if any(re.search("[\ud800-\udfff]", t) for t in text):
        reasons.append("does not encode as UTF-8")
    if len(set(text)) < len(text):
        reasons.append("both write as")
    if not reasons and any(text[u].startswith("#") and text[w].startswith("#")
                           for u, w in g.edges().tolist()):
        reasons.append("labels start with '#'")
    return "|".join(reasons) or None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edges=st.lists(st.tuples(ODD_LABEL, ODD_LABEL, st.floats(1e-8, 1e8)),
                      min_size=1, max_size=10))
def test_save_edge_list_refuses_or_round_trips(tmp_path, edges):
    """A graph either raises, naming why, with no file written, or reads
    back as the same distribution keyed by label text."""
    g = graph.from_edge_list(edges)
    path = tmp_path / "g.tsv"
    path.unlink(missing_ok=True)
    reason = unreadable(g)
    if reason is not None:
        with pytest.raises(ValueError, match=reason):
            graph.save_edge_list(path, g)
        assert not path.exists()
        return
    graph.save_edge_list(path, g)
    back = graph.load_edge_list(path)
    assert back.n == g.n
    perm = back.indices_of([str(lab) for lab in g.node_labels])
    assert np.abs(back.marginal[perm] - g.marginal).max() < 1e-15
    assert np.abs(back.diag_mass[perm] - g.diag_mass).max() < 1e-15
    dense = back.modularity_matrix().dense()[np.ix_(perm, perm)]
    assert np.abs(dense - g.modularity_matrix().dense()).max() < 1e-15


def test_save_edge_list_swaps_or_refuses_hash_labels(tmp_path):
    path = tmp_path / "g.tsv"
    g = graph.from_edge_list([("#b", "a"), ("a", "c"), ("z", "c")])
    graph.save_edge_list(path, g)
    assert path.read_text().split("\n")[0].split("\t")[:2] == ["a", "#b"]
    assert graph.load_edge_list(path).n == 4
    for edges, message in [
            ([("#b", "#c")], "edge ('#b', '#c'): both node labels start"),
            ([("a", "b"), ("#b", "#b")], "edge ('#b', '#b')"),
            ([("a", "x y")], "node label 'x y' is empty or holds"),
            ([("a", "")], "node label '' is empty"),
            ([("\ud800", "a")], "node label '\\ud800' does not encode"),
            ([(1, "a"), ("1", "a")], "node labels 1 and '1' both write as")]:
        path.unlink(missing_ok=True)
        with pytest.raises(ValueError, match=re.escape(message)):
            graph.save_edge_list(path, graph.from_edge_list(edges))
        assert not path.exists()


def test_load_edge_list_comments_and_weights(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# header\na b 2.0\n\nb c\n")
    g = graph.load_edge_list(path)
    assert g.n == 3
    assert abs(g.pair_mass(g.index_of("a"), g.index_of("b")) - 2.0 / 6.0) < 1e-15


def test_load_edge_list_rejects_garbage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a b c d e\n")
    with pytest.raises(ValueError):
        graph.load_edge_list(path)


def test_edges_iteration(karate):
    pairs = karate.edges()
    assert len(pairs) == 78
    assert all(u < w for u, w in pairs)
