"""Embedding: pruning, orthonormalization, coarsening, multilayer stack."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modembed import clustering, datasets, graph
from modembed.clustering import ClusterConfig
from modembed.embedding import (
    RankDeficiencyWarning,
    cafe_embed,
    coarsen,
    indicator_matrix,
    load_embedding_tsv,
    multilayer_embed,
    prune_zero_columns,
    qr_embed,
    save_embedding_tsv,
)

from conftest import dense_masses, dense_modularity, graph_from


def test_prune_drops_only_tiny_columns():
    H = np.array([[0.5, 1e-12, 0.5], [0.3, 0.0, 0.7]])
    kept_H, kept = prune_zero_columns(H)
    assert kept.tolist() == [0, 2]
    assert np.array_equal(kept_H, H[:, [0, 2]])
    with pytest.raises(ValueError):
        prune_zero_columns(np.zeros((3, 2)))


def test_qr_embed_orthonormal_and_reconstructs(karate, karate_dense):
    """Hhat spans col(QH) with orthonormal columns and nonneg R diagonal."""
    rng = np.random.default_rng(5)
    Q = karate.modularity_matrix()
    Qd = dense_modularity(karate_dense)
    H = rng.random((34, 6))
    H /= H.sum(axis=1, keepdims=True)
    with pytest.warns(RankDeficiencyWarning):
        emb = qr_embed(Q, H)
    Hhat = emb.H_hat
    assert Hhat.shape == (34, 5)  # ones-vector kernel costs one column
    assert np.abs(Hhat.T @ Hhat - np.eye(5)).max() < 1e-10
    assert (np.diag(emb.R) >= 0.0).all()
    M = Qd @ H
    # Projection onto the kept columns reproduces QH entirely.
    assert np.abs(Hhat @ (Hhat.T @ M) - M).max() < 1e-10


def test_qr_embed_full_rank_input(karate):
    """Non-stochastic H keeps all columns and raises no warning."""
    rng = np.random.default_rng(8)
    Q = karate.modularity_matrix()
    H = rng.standard_normal((34, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emb = qr_embed(Q, H)
    assert emb.C == 4
    assert np.abs(emb.H_hat.T @ emb.H_hat - np.eye(4)).max() < 1e-10


def test_qr_embed_keep_width(karate):
    """drop_dependent=False keeps the requested width without warning."""
    rng = np.random.default_rng(9)
    Q = karate.modularity_matrix()
    H = rng.random((34, 5))
    H /= H.sum(axis=1, keepdims=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        emb = qr_embed(Q, H, drop_dependent=False)
    assert emb.H_hat.shape == (34, 5)
    assert np.abs(emb.H_hat.T @ emb.H_hat - np.eye(5)).max() < 1e-10


def test_indicator_matrix():
    H = indicator_matrix([0, 2, 1, 2])
    assert H.shape == (4, 3)
    assert np.array_equal(H.sum(axis=1), np.ones(4))
    assert H[1, 2] == 1.0
    wide = indicator_matrix([0, 1], n_clusters=4)
    assert wide.shape == (2, 4)


def test_cafe_embed_label_path(karate):
    labels = np.array([0] * 17 + [1] * 17)
    config = ClusterConfig(n_clusters=2)
    Q = karate.modularity_matrix()
    with pytest.warns(RankDeficiencyWarning):
        result = cafe_embed(Q, config, labels=labels)
    assert result.sweeps == 0 and result.converged
    assert result.embedding.C == 1
    assert np.abs(np.linalg.norm(result.embedding.H_hat[:, 0]) - 1.0) < 1e-12


def test_cafe_embed_label_path_matches_its_former_branch(karate):
    """The label path's result, field by field, as its own branch built
    it: the pruned indicator, its QR and the objective with the diagonal
    zeroed, after no sweep."""
    rng = np.random.default_rng(4)
    Q = karate.modularity_matrix()
    for labels, K in [(rng.integers(0, 3, 34), 3),
                      (rng.choice([0, 2, 4], 34), 6),
                      (np.arange(34) % 5, 5)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            result = cafe_embed(Q, ClusterConfig(n_clusters=K),
                                labels=labels)
            H, kept = prune_zero_columns(indicator_matrix(labels, K))
            want = qr_embed(Q, H)
        objective = float(np.sum(H * Q.zero_diagonal().apply(H)))
        assert type(result.objective) is float
        assert np.float64(result.objective).tobytes() == \
            np.float64(objective).tobytes()
        assert result.sweeps == 0 and result.converged is True
        assert result.objective_trace == []
        assert result.assignment.tobytes() == H.tobytes()
        assert result.kept_columns.tolist() == kept.tolist()
        assert result.embedding.H_hat.tobytes() == want.H_hat.tobytes()
        assert result.embedding.R.tobytes() == want.R.tobytes()


def test_cafe_embed_clustered_path(karate):
    Q = karate.modularity_matrix()
    config = ClusterConfig(n_clusters=2, theta=50.0, seed=0)
    with pytest.warns(RankDeficiencyWarning):
        result = cafe_embed(Q, config)
    assert result.objective == result.objective_trace[-1]
    assert result.embedding.C == 1
    assert result.assignment.shape[1] == len(result.kept_columns)


@st.composite
def graph_and_partition(draw):
    """Weighted edges on nodes 0..n-1 (self-loops, repeated pairs and
    edgeless nodes occur) and a partition whose ids leave gaps and need
    not start at 0."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from([1.0, 0.5, 3.0, 1e-3, 1e3]),
                       st.floats(1e-3, 1e3))
    edges = draw(st.lists(st.tuples(node, node, weight), min_size=1,
                          max_size=3 * n))
    part = draw(st.lists(st.integers(-3, 2 * n + 3), min_size=n,
                         max_size=n))
    return edges, n, np.array(part)


@settings(max_examples=300, deadline=None)
@given(case=graph_and_partition())
def test_coarsen_is_exact(case):
    """The pooled operator is H^T Q H for the partition indicator, and
    its trace is the partition modularity."""
    edges, n, part = case
    g = graph_from(edges, n)
    Q_coarse, membership, P_pooled = coarsen(g.modularity_matrix(), part)

    H = indicator_matrix(membership)
    want = H.T @ dense_modularity(dense_masses(edges, n)) @ H
    got = Q_coarse.dense()
    assert got.shape == want.shape == (np.unique(part).size,) * 2
    assert np.abs(got - want).max() < 1e-12

    assert np.abs(P_pooled - P_pooled.T).max() == 0.0
    assert abs(P_pooled.sum() - 1.0) < 1e-12
    assert np.abs(got.sum(axis=1)).max() < 1e-12
    mod = g.modularity_matrix().partition_modularity(part)
    assert abs(np.trace(got) - mod) < 1e-13


def test_coarsen_drops_empty_clusters(karate):
    part = np.array([5 if u < 17 else 9 for u in range(34)])
    Q_coarse, membership, _ = coarsen(karate.modularity_matrix(), part)
    assert Q_coarse.n == 2
    assert set(membership.tolist()) == {0, 1}


def test_multilayer_levels_structure():
    edges, _ = datasets.two_level_block_edges(25, 0.6, 0.22, 0.02, seed=1)
    g = graph.from_edge_list(edges)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        levels = multilayer_embed(g.modularity_matrix(), seed=0)
    assert levels[0].level == 0
    mods = [L.modularity for L in levels]
    assert all(b > a for a, b in zip(mods, mods[1:]))
    for L in levels:
        # Reported modularity is the composed partition's, on the
        # original operator.
        want = g.modularity_matrix().partition_modularity(L.membership)
        assert abs(L.modularity - want) < 1e-12
        Hh = L.embedding.H_hat
        assert np.abs(Hh.T @ Hh - np.eye(Hh.shape[1])).max() < 1e-10
    # Each finer cluster lands inside exactly one coarser cluster.
    for a, b in zip(levels, levels[1:]):
        for c in np.unique(a.membership):
            assert len(set(b.membership[a.membership == c])) == 1


def test_multilayer_refuses_graphs_above_the_dense_limit():
    """Level 0 clusters with K = n; past the dense limit that fails before
    any clustering, naming n."""
    g = graph.from_edge_list([(i, i + 1) for i in range(5000)])
    assert g.n == 5001
    with mock.patch.object(clustering, "run", side_effect=AssertionError):
        with pytest.raises(ValueError, match="at n=5001 \\(> 5000\\)"):
            multilayer_embed(g.modularity_matrix())


def test_multilayer_rejects_noise_levels(karate):
    """One-ulp modularity 'gains' from recomputation must not add levels."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        levels = multilayer_embed(karate.modularity_matrix(), seed=0)
    assert len(levels) == 1
    assert len(np.unique(levels[0].membership)) == 4


def test_multilayer_tol_zero_stops_when_nothing_merges(karate):
    """With tol=0 only the structural test stands between a level that
    keeps every supernode apart and its rounding-level 'gain' (karate,
    seed 0: the four clusters again, modularity larger by one ulp)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficiencyWarning)
        levels = multilayer_embed(karate.modularity_matrix(), tol=0.0, seed=0)
    assert [len(np.unique(layer.membership)) for layer in levels] == [4]


def test_embedding_tsv_roundtrip(tmp_path):
    rows = np.array([[1.0, -2.5e-17], [3.1415926535897931, 0.25]])
    path = tmp_path / "emb.tsv"
    save_embedding_tsv(path, rows, ["a", "b"])
    labels, back = load_embedding_tsv(path)
    assert labels == ["a", "b"]
    assert np.array_equal(back, rows)  # 17 sig digits round-trip doubles
    with pytest.raises(ValueError):
        save_embedding_tsv(path, rows, ["a"])


def test_load_embedding_rejects_ragged(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\t1.0\t2.0\nb\t3.0\n")
    with pytest.raises(ValueError):
        load_embedding_tsv(path)
