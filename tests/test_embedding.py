"""Embedding: pruning, orthonormalization, coarsening, multilayer stack."""

import operator
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modembed import clustering, datasets, embedding, graph
from modembed.clustering import ClusterConfig
from modembed.embedding import (
    ZERO_COLUMN_THRESHOLD,
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
    assert np.array_equal(prune_zero_columns(H), H[:, [0, 2]])
    with pytest.raises(ValueError):
        prune_zero_columns(np.zeros((3, 2)))


def test_qr_embed_orthonormal_and_reconstructs(karate, karate_dense):
    """Hhat spans col(QH) with orthonormal columns and nonneg R diagonal."""
    rng = np.random.default_rng(5)
    Q = karate.modularity_matrix()
    Qd = dense_modularity(karate_dense)
    H = rng.random((34, 6))
    H /= H.sum(axis=1, keepdims=True)
    emb = qr_embed(Q, H)
    Hhat = emb.H_hat
    assert Hhat.shape == (34, 5)  # ones-vector kernel costs one column
    assert emb.dropped_columns == (5,)
    assert np.abs(Hhat.T @ Hhat - np.eye(5)).max() < 1e-10
    assert (np.diag(emb.R) >= 0.0).all()
    M = Qd @ H
    # Projection onto the kept columns reproduces QH entirely.
    assert np.abs(Hhat @ (Hhat.T @ M) - M).max() < 1e-10


def test_qr_embed_full_rank_input(karate):
    """Non-stochastic H keeps all columns and drops none."""
    rng = np.random.default_rng(8)
    Q = karate.modularity_matrix()
    H = rng.standard_normal((34, 4))
    emb = qr_embed(Q, H)
    assert emb.C == 4 and emb.dropped_columns == ()
    assert np.abs(emb.H_hat.T @ emb.H_hat - np.eye(4)).max() < 1e-10


def test_qr_embed_keep_width(karate):
    """drop_dependent=False keeps the requested width, dropping none."""
    rng = np.random.default_rng(9)
    Q = karate.modularity_matrix()
    H = rng.random((34, 5))
    H /= H.sum(axis=1, keepdims=True)
    emb = qr_embed(Q, H, drop_dependent=False)
    assert emb.H_hat.shape == (34, 5) and emb.dropped_columns == ()
    assert np.abs(emb.H_hat.T @ emb.H_hat - np.eye(5)).max() < 1e-10


# --- the rank test ------------------------------------------------------------

class FixedProduct:
    """An operator whose Q H is the given M, whatever H is."""

    def __init__(self, M):
        self.M = M

    def full_diagonal(self):
        return self

    def apply(self, H):
        return self.M.copy()


def exact_int(x):
    """The double x times 2^1100, an integer for every finite double."""
    num, den = float(x).as_integer_ratio()
    return num * ((1 << 1100) // den)


def exact_det(G):
    """Determinant of a square integer matrix, by Bareiss elimination."""
    A = [list(row) for row in G]
    k = len(A)
    sign, prev = 1, 1
    for i in range(k):
        pivot = next((r for r in range(i, k) if A[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            A[i], A[pivot] = A[pivot], A[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                A[r][c] = (A[r][c] * A[i][i] - A[r][i] * A[i][c]) // prev
        prev = A[i][i]
    return sign * (A[k - 1][k - 1] if k else 1)


def exact_squared_residuals(M, tol):
    """The columns K of M whose exact distance r_j from the span of the
    columns of K before them exceeds tol, and every (r_j / tol)^2, from
    the Gram determinants of M scaled to integers:
    r_j^2 = det G_{K+j} / det G_K."""
    A = [[exact_int(x) for x in M[:, j]] for j in range(M.shape[1])]
    G = [[0] * len(A) for _ in A]
    for a in range(len(A)):
        for b in range(a + 1):
            G[a][b] = G[b][a] = sum(map(operator.mul, A[a], A[b]))
    bar = (Fraction(tol) * (1 << 1100)) ** 2
    kept, residuals = [], []
    for j in range(len(A)):
        rows = kept + [j]
        r2 = Fraction(exact_det([[G[a][b] for b in rows] for a in rows]),
                      exact_det([[G[a][b] for b in kept] for a in kept]))
        residuals.append(r2)
        if r2 > bar:
            kept.append(j)
    return kept, [r2 / bar for r2 in residuals]


@st.composite
def near_tol_columns(draw):
    """An n x C block whose chosen columns are earlier ones mixed, plus a
    part orthogonal to all earlier columns whose norm is t times the rank
    test's tol, t from 0.5 to 2 or far off (1e-4, 1e8)."""
    n = draw(st.sampled_from([7, 60, 500, 4000]))
    C = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = rng.standard_normal((n, C))
    M /= np.linalg.norm(M, axis=0)
    tol = n * np.finfo(float).eps
    for j in range(1, C):
        if not draw(st.booleans()):
            continue
        t = draw(st.floats(0.5, 2.0) | st.sampled_from([1e-4, 1e8]))
        mix = M[:, :j] @ rng.standard_normal(j)
        mix *= 0.9 / np.linalg.norm(mix)
        basis = np.linalg.qr(M[:, :j])[0]
        v = rng.standard_normal(n)
        v -= basis @ (basis.T @ v)
        v -= basis @ (basis.T @ v)
        M[:, j] = mix + t * tol * v / np.linalg.norm(v)
    # Column 0 keeps norm 1, the largest, so tol is as computed above.
    return M


@settings(max_examples=80, deadline=None)
@given(M=near_tol_columns(), layout=st.sampled_from("CF"))
def test_kept_columns_match_exact_arithmetic(M, layout):
    """Where every exact residual lies outside [tol/2, 2 tol], the rank
    test keeps exactly the columns that exact arithmetic keeps, with
    columns drawn at 0.5-2x tol; M is left as it was."""
    M = np.array(M, order=layout)
    tol = M.shape[0] * np.finfo(float).eps * np.linalg.norm(M, axis=0).max()
    want, ratios = exact_squared_residuals(M, tol)
    assume(all(r < Fraction(1, 4) or r > 4 for r in ratios))
    before = M.tobytes()
    assert embedding._kept_columns(M, tol) == want
    assert M.tobytes() == before


def test_residuals_decide_far_from_tol():
    """At n = 20000 a dependent column (the sum of the others, as a
    row-stochastic H makes) is dropped and the independent ones kept."""
    rng = np.random.default_rng(3)
    M = rng.standard_normal((20000, 6))
    M[:, 5] = -M[:, :5].sum(axis=1)
    got = qr_embed(FixedProduct(M), np.zeros(M.shape))
    assert got.dropped_columns == (5,)
    assert np.abs(got.H_hat.T @ got.H_hat - np.eye(5)).max() < 1e-12
    assert np.abs(got.H_hat @ got.R - M[:, :5]).max() < 1e-12


@pytest.fixture(scope="module")
def ba3000():
    return graph.from_edge_list(datasets.barabasi_albert_edges(3000, 3, 5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_qr_embed_refuses_a_non_finite_product(ba3000, bad):
    """A NaN or infinity in H makes Q H non-finite and tol with it, so no
    residual would exceed tol and the rank test would keep no column.
    qr_embed refuses it first, by name."""
    H = np.random.default_rng(2).random((ba3000.n, 4))
    H[7, 1] = bad
    with pytest.raises(ValueError, match="^Q H is not finite"):
        qr_embed(ba3000.modularity_matrix(), H)


def test_qr_embed_refuses_a_product_of_rounding_noise(tmp_path):
    """Q 1 of a 5-clique is exactly zero when the clique is built in
    memory, and rounding noise (largest column norm 1.2e-16, within the
    apply's bound of 1.0e-15) when it is read back from its file: both
    are nothing to embed."""
    built = graph.from_edge_list(datasets.clique_edges(range(5)))
    path = tmp_path / "clique.tsv"
    graph.save_edge_list(path, built)
    for g in (built, graph.load_edge_list(path)):
        with pytest.raises(ValueError, match="^Q H is identically zero"):
            qr_embed(g.modularity_matrix(), np.ones((5, 1)))


def test_no_rank_test_when_nothing_may_drop(karate):
    H = np.random.default_rng(1).random((34, 3))
    with mock.patch.object(embedding, "_kept_columns",
                           side_effect=AssertionError("rank test ran")):
        emb = qr_embed(karate.modularity_matrix(), H, drop_dependent=False)
    assert emb.dropped_columns == ()


# Level 1 of `embed multilayer --max-sweeps 30` on the multilevel-1k5
# benchmark graph of seed 4: the 6-supernode pooled graph (complete, so
# its CSR data are row by row) and the pruned assignment fed to qr_embed.
# The rank test's residuals for columns 4 and 5 are 0.73 and 0.03 tol,
# while LAPACK's |R_44| reads 1.004 tol.
LEVEL1_DATA = [
    "0x1.d0f8355913bd4p-7", "0x1.9332c0316ac7ap-6", "0x1.dc3361ebeca42p-7",
    "0x1.af46afa089068p-13", "0x1.801af46afa0b8p-7", "0x1.d0f8355913bd4p-7",
    "0x1.3a78e00fb9411p-6", "0x1.06cf1305d3814p-6", "0x1.1f847515b0af0p-13",
    "0x1.d9f45901c142cp-7", "0x1.9332c0316ac7ap-6", "0x1.3a78e00fb9411p-6",
    "0x1.b603ca5f0b2d1p-6", "0x1.f727cce5f5323p-12", "0x1.35face3b627e5p-6",
    "0x1.dc3361ebeca42p-7", "0x1.06cf1305d3814p-6", "0x1.b603ca5f0b2d1p-6",
    "0x1.8b5620fdd2f09p-11", "0x1.4a321e76e8eacp-6", "0x1.af46afa089068p-13",
    "0x1.1f847515b0af0p-13", "0x1.f727cce5f5323p-12", "0x1.8b5620fdd2f09p-11",
    "0x1.af46afa089068p-13", "0x1.801af46afa0b8p-7", "0x1.d9f45901c142cp-7",
    "0x1.35face3b627e5p-6", "0x1.4a321e76e8eacp-6", "0x1.af46afa089068p-13",
]
LEVEL1_DIAG = [
    "0x1.a40b830db0245p-4", "0x1.2e1e2f07caa53p-4", "0x1.55fd0d444c9f9p-3",
    "0x1.495a7b1f189dfp-3", "0x1.1f847515b0af0p-12", "0x1.0c24c831fa8a8p-3",
]
LEVEL1_H = [
    ["0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
     "0x0.0p+0", "0x0.0p+0"],
    ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
     "0x0.0p+0", "0x0.0p+0"],
    ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0",
     "0x0.0p+0", "0x0.0p+0"],
    ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
     "0x1.0000000000000p+0", "0x0.0p+0"],
    ["0x0.0p+0", "0x0.0p+0", "0x1.4ea71c0ba96e8p-884",
     "0x1.b44a293821111p-905", "0x1.0000000000000p+0",
     "0x1.019377d4d0492p-929"],
    ["0x0.0p+0", "0x0.0p+0", "0x1.c4cb480c85b8dp-2", "0x0.0p+0",
     "0x0.0p+0", "0x1.1d9a5bf9bd239p-1"],
]


def test_a_residual_near_tol_is_dropped():
    """The closest rank decision on record: the rank test drops column 4
    at 0.73 tol and column 5 at 0.03 tol."""
    n = 6
    indices = [j for i in range(n) for j in range(n) if j != i]
    g = graph.SampledGraph(np.arange(n + 1) * (n - 1), indices,
                           [float.fromhex(x) for x in LEVEL1_DATA],
                           [float.fromhex(x) for x in LEVEL1_DIAG],
                           range(n))
    H = np.array([[float.fromhex(x) for x in row] for row in LEVEL1_H])
    Q = g.modularity_matrix()
    M = Q.apply(H)
    tol = n * np.finfo(float).eps * np.linalg.norm(M, axis=0).max()
    assert embedding._kept_columns(M, tol) == [0, 1, 2, 3]
    assert qr_embed(Q, H).dropped_columns == (4, 5)


def test_indicator_matrix():
    H = indicator_matrix([0, 2, 1, 2], 3)
    assert H.shape == (4, 3)
    assert np.array_equal(H.sum(axis=1), np.ones(4))
    assert H[1, 2] == 1.0
    wide = indicator_matrix([0, 1], 4)
    assert wide.shape == (2, 4)
    with pytest.raises(ValueError, match="out of range"):
        indicator_matrix([0, 2], 2)


def test_cafe_embed_label_path(karate):
    labels = np.array([0] * 17 + [1] * 17)
    config = ClusterConfig(n_clusters=2)
    Q = karate.modularity_matrix()
    result = cafe_embed(Q, config, labels=labels)
    assert result.climb.sweeps == 0 and result.climb.converged
    # The two label columns sum to the all-ones vector, which Q maps to 0.
    assert result.embedding.dropped_columns == (1,)
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
        result = cafe_embed(Q, ClusterConfig(n_clusters=K), labels=labels)
        H = prune_zero_columns(indicator_matrix(labels, K))
        want = qr_embed(Q, H)
        objective = float(np.sum(H * Q.zero_diagonal().apply(H)))
        climb = result.climb
        assert type(climb.objective) is type(climb.start) is float
        assert np.float64(climb.objective).tobytes() == \
            np.float64(objective).tobytes()
        assert climb.sweeps == 0 and climb.converged is True
        assert climb.objective_trace == [] and climb.counts == []
        assert result.assignment.tobytes() == H.tobytes()
        assert result.embedding.H_hat.tobytes() == want.H_hat.tobytes()
        assert result.embedding.R.tobytes() == want.R.tobytes()


def test_cafe_embed_clustered_path(karate):
    Q = karate.modularity_matrix()
    config = ClusterConfig(n_clusters=2, theta=50.0, seed=0)
    result = cafe_embed(Q, config)
    assert result.climb.objective == result.climb.objective_trace[-1]
    # Row-stochastic rows sum to the all-ones vector, which Q maps to 0.
    assert result.embedding.dropped_columns == (1,)
    assert result.embedding.C == 1
    # The assignment fed to the QR keeps only columns that hold mass.
    assert (result.assignment.max(axis=0) >= ZERO_COLUMN_THRESHOLD).all()


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
    Q_coarse, membership = coarsen(g.modularity_matrix(), part)

    H = indicator_matrix(membership, np.unique(part).size)
    want = H.T @ dense_modularity(dense_masses(edges, n)) @ H
    got = Q_coarse.dense()
    assert got.shape == want.shape == (np.unique(part).size,) * 2
    assert np.abs(got - want).max() < 1e-12

    assert np.abs(got - got.T).max() == 0.0
    assert abs(Q_coarse.graph.total_mass - 1.0) < 1e-12
    assert np.abs(got.sum(axis=1)).max() < 1e-12
    mod = g.modularity_matrix().partition_modularity(part)
    assert abs(np.trace(got) - mod) < 1e-13


def test_coarsen_drops_empty_clusters(karate):
    part = np.array([5 if u < 17 else 9 for u in range(34)])
    Q_coarse, membership = coarsen(karate.modularity_matrix(), part)
    assert Q_coarse.n == 2
    assert set(membership.tolist()) == {0, 1}


def test_multilayer_levels_structure():
    edges, _ = datasets.two_level_block_edges(25, 0.6, 0.22, 0.02, seed=1)
    g = graph.from_edge_list(edges)
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
        assert 1 <= L.climb.sweeps <= 200
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
    levels = multilayer_embed(karate.modularity_matrix(), seed=0)
    assert len(levels) == 1
    assert len(np.unique(levels[0].membership)) == 4


def test_multilayer_tol_zero_stops_when_nothing_merges(karate):
    """With tol=0 only the structural test stands between a level that
    keeps every supernode apart and its rounding-level 'gain' (karate,
    seed 0: the four clusters again, modularity larger by one ulp)."""
    levels = multilayer_embed(karate.modularity_matrix(), tol=0.0, seed=0)
    assert [len(np.unique(layer.membership)) for layer in levels] == [4]


def _levels(edges, **kwargs):
    """(level, width, clusters, modularity) of each multilayer level."""
    Q = graph.from_edge_list(edges).modularity_matrix()
    levels = multilayer_embed(Q, **kwargs)
    return [(layer.level, layer.C, len(np.unique(layer.membership)),
             layer.modularity) for layer in levels]


@pytest.mark.parametrize("graph_seed, seed, want", [
    # Level 1 gains, level 2 does not.
    (10, 2, [(0, 4, 4, 0.4284119897959185),
             (1, 3, 3, 0.45087514172335585)]),
    # Level 1 merges supernodes but gains nothing.
    (13, 1, [(0, 3, 3, 0.49114871883656486)]),
])
def test_multilayer_stops_at_a_level_without_gain(graph_seed, seed, want):
    edges, _ = datasets.two_level_block_edges(10, 0.6, 0.22, 0.02,
                                              seed=graph_seed)
    assert _levels(edges, seed=seed) == want


@pytest.mark.parametrize("size", [5, 6, 9])
def test_multilayer_on_a_clique_has_nothing_to_embed(size):
    """Level 0 of a clique is one cluster, whose Q H is zero (size 5) or
    rounding noise (sizes 6 and 9, 6.8e-17 and 7.9e-17 against the
    apply's bound of 1.1e-15 and 1.2e-15): nothing to embed."""
    with pytest.raises(ValueError, match="^Q H is identically zero"):
        _levels(datasets.clique_edges(range(size)))


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
