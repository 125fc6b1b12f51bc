"""From cluster assignments to orthonormal node embeddings.

The pipeline runs soft clustering, drops clusters that captured no mass,
applies the modularity operator once more, and orthonormalizes with a
thin QR, so the embedding columns satisfy Hhat R = Q H with Hhat^T Hhat
the identity.  When every node carries a known label the clustering stage
is skipped and the label indicator matrix feeds the QR directly.

Coarsening pools the pair distribution over a hard partition; repeating
cluster/pool while the partition modularity still improves yields a
multi-level embedding hierarchy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _native, clustering
from .clustering import ClusterConfig, HARD_THETA, hard_labels
from .graph import _DENSE_LIMIT, _write_rows, from_bivariate

__all__ = [
    "EmbeddingMatrix",
    "CafeResult",
    "LayerResult",
    "RankDeficiencyWarning",
    "ZERO_COLUMN_THRESHOLD",
    "prune_zero_columns",
    "qr_embed",
    "cafe_embed",
    "indicator_matrix",
    "coarsen",
    "multilayer_embed",
    "save_embedding_tsv",
    "load_embedding_tsv",
]

# A cluster column whose largest membership is below this never attracted
# any node and is dropped before orthonormalization.
ZERO_COLUMN_THRESHOLD = 1e-8


class RankDeficiencyWarning(UserWarning):
    """Q H had linearly dependent columns; the dependent ones were dropped."""


@dataclass
class EmbeddingMatrix:
    """Column-orthonormal node embedding Hhat with the triangular factor
    R linking it back to Q H (Hhat @ R == Q H up to roundoff), over the
    columns of Q H that the rank test kept.

    dropped_columns: the columns of Q H dropped as dependent, ascending.
    rank_test: the test that chose them, "residuals" or "loop" (see
        `qr_embed`); None when no column may be dropped.
    """

    H_hat: np.ndarray
    R: np.ndarray
    dropped_columns: tuple = ()
    rank_test: str | None = None

    @property
    def C(self):
        return self.H_hat.shape[1]


@dataclass
class CafeResult:
    """Clustering + QR pipeline output for one graph."""

    embedding: EmbeddingMatrix
    assignment: np.ndarray  # pruned soft assignment actually fed to QR
    objective: float
    sweeps: int
    converged: bool
    objective_trace: list


@dataclass
class LayerResult:
    """One level of the multi-level hierarchy."""

    level: int
    C: int
    embedding: EmbeddingMatrix
    membership: np.ndarray  # original node -> this level's cluster
    modularity: float


def prune_zero_columns(H):
    """Drop columns whose maximum entry is below ZERO_COLUMN_THRESHOLD.

    Rows are not renormalized; the mass removed is below the threshold
    per row by construction.
    """
    H = np.asarray(H)
    keep = np.flatnonzero(H.max(axis=0) >= ZERO_COLUMN_THRESHOLD)
    if keep.size == 0:
        raise ValueError("all columns empty; nothing to embed")
    return H[:, keep]


# The unit roundoff u of float64.
_U = np.finfo(float).eps / 2
# The factor by which the rank test's band exceeds the first-order
# rounding bound it rests on (see `_residual_rank`), for the terms of
# order u^2 that the bound leaves out.
_RANK_BAND_SLACK = 4.0


def _gamma(m):
    """Higham's gamma_m = m u / (1 - m u), which bounds the relative
    error of m roundings (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, Lemma 3.1)."""
    return m * _U / (1.0 - m * _U)


def qr_embed(Q, H, drop_dependent=True):
    """Thin QR of Q @ H with the operator's true diagonal.

    The triangular factor is sign-fixed to a nonnegative diagonal so the
    decomposition is unique and runs are reproducible.  If Q H is rank
    deficient, dependent columns are dropped left-to-right with a
    RankDeficiencyWarning (drop_dependent=True), or kept so the output
    width always matches the input (drop_dependent=False; trailing
    columns then pad the basis beyond range(Q H)).

    A column is dependent when its Gram-Schmidt residual against the
    columns kept before it is at most tol = n eps max_j ||Q H e_j||, as
    `_loop_rank` computes it.  A faster test over contiguous rows,
    `_residual_rank`, decides when every residual lies outside a band
    around tol wide enough to hold the difference of the two tests'
    rounding; otherwise the loop decides.  Either way the same columns
    are kept, and `np.linalg.qr` of them gives Hhat and R.
    """
    M = Q.full_diagonal().apply(H)
    n, C = M.shape
    dropped, rank_test = (), None
    if drop_dependent:
        norms = np.linalg.norm(M, axis=0)
        scale = norms.max()
        # Neither rank test can rank a NaN or infinite column.
        if not np.isfinite(scale):
            raise ValueError(f"Q H is not finite: its largest column norm "
                             f"is {scale}")
        # A modularity operator's apply rounds each entry's three terms,
        # each at most pi_i max|H|, in at most n + 2 operations, so from
        # an exact zero it makes columns up to gamma_{n+2} 3 ||pi|| max|H|.
        graph = getattr(Q, "graph", None)
        nu = (n + 2) * np.finfo(float).eps / 2.0
        if scale <= (0.0 if graph is None else nu / (1.0 - nu) * 3.0 *
                     np.linalg.norm(graph.marginal) * np.abs(H).max()):
            raise ValueError("Q H is identically zero; nothing to embed")
        tol = n * np.finfo(float).eps * scale
        kept, rank_test = _residual_rank(M, norms, tol), "residuals"
        if kept is None:
            kept, rank_test = _loop_rank(M, tol), "loop"
        if len(kept) < C:
            dropped = tuple(sorted(set(range(C)) - set(kept)))
            warnings.warn(
                f"dropped {C - len(kept)} dependent column(s) of Q H "
                f"(rank {len(kept)} < {C})",
                RankDeficiencyWarning,
                stacklevel=2,
            )
            M = M[:, kept]
    H_hat, R = np.linalg.qr(M)
    signs = np.where(np.diag(R) < 0.0, -1.0, 1.0)
    H_hat = H_hat * signs
    R = R * signs[:, None]
    return EmbeddingMatrix(H_hat=H_hat, R=R, dropped_columns=dropped,
                           rank_test=rank_test)


def _loop_rank(M, tol):
    """The columns of M kept by Gram-Schmidt with one re-orthogonalization
    pass, each kept when its residual norm exceeds tol."""
    basis = []
    kept = []
    for j in range(M.shape[1]):
        v = M[:, j].copy()
        for b in basis:
            v -= (b @ M[:, j]) * b
        # One re-orthogonalization pass keeps the rank test honest.
        for b in basis:
            v -= (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > tol:
            basis.append(v / norm)
            kept.append(j)
    return kept


def _residual_rank(M, norms, tol):
    """The columns `_loop_rank(M, tol)` keeps, found by classical
    Gram-Schmidt twice (CGS2) over the rows of a contiguous copy of M^T;
    None when the residuals cannot tell.

    Each test computes r_j, the distance of column m_j from the span of
    the kept columns M_K before it, with rounding.  A pass against k unit
    vectors rounds each entry of the column 2k times, so the two passes
    of either test give the exact residual of columns perturbed by at
    most g ||m_i||, g = 2 gamma_2C (1 + sqrt(C)) + u, for C >= k.  That
    moves the span of M_K by an angle whose sine is at most
    growth = ||M_K||_F / (sigma_min(M_K) - g ||M_K||_F) (Stewart, SIAM
    Review 19, 1977), and the final norm adds at most
    (1 + sqrt(C)) gamma_n r_j.  So each test lies within
    g ||m_j|| (1 + growth) + (1 + sqrt(C)) gamma_n r_j of r_j, to first
    order in u, and the two within twice that of each other.  The band
    is that difference times _RANK_BAND_SLACK; sigma_min(M_K) is taken
    from the computed R less g ||M_K||_F.  When it holds every r_j the
    fast test keeps the loop's columns.  When even a zero residual in
    the longest column would lie in it (small n against C), the fast
    test is not run.
    """
    n, C = M.shape
    g = 2.0 * _gamma(2 * C) * (1.0 + np.sqrt(C)) + _U
    # Two tests, each within the bound of the exact residual.
    factor = 2.0 * _RANK_BAND_SLACK
    if factor * 2.0 * g * norms.max() >= tol:
        return None
    # Row j of this copy holds column j until it is processed; rows below
    # the kept count then hold the orthonormal basis.
    B = M.T.copy()
    R = np.zeros((C, C))
    residual = np.empty(C)
    kept = []
    for j in range(C):
        k = len(kept)
        v, basis = B[j], B[:k]
        if k:
            s = basis @ v
            v -= s @ basis
            t = basis @ v
            v -= t @ basis
            R[:k, k] = s + t
        residual[j] = r = np.linalg.norm(v)
        if r > tol:
            R[k, k] = r
            np.divide(v, r, out=B[k])
            kept.append(j)
    del B
    # Some column is kept: were none, each residual would be its
    # column's norm, and the longest one exceeds tol.
    k = len(kept)
    F = np.sqrt(np.sum(norms[kept] ** 2))
    sigma = np.linalg.svd(R[:k, :k], compute_uv=False)[-1] - g * F
    if sigma <= g * F:
        return None
    growth = F / (sigma - g * F)
    band = factor * (g * norms * (1.0 + growth) +
                     (1.0 + np.sqrt(C)) * _gamma(n) * residual)
    return kept if (np.abs(residual - tol) > band).all() else None


def indicator_matrix(labels, n_clusters):
    """One-hot rows over n_clusters columns from integer labels."""
    labels = np.asarray(labels, dtype=int)
    K = int(n_clusters)
    if labels.min() < 0 or labels.max() >= K:
        raise ValueError("labels out of range")
    H = np.zeros((labels.size, K))
    H[np.arange(labels.size), labels] = 1.0
    return H


def cafe_embed(Q, config, pinned=None, labels=None):
    """Cluster, prune empty columns, orthonormalize.

    pinned: optional {node: cluster} hints; those rows stay one-hot.
    labels: full per-node cluster ids; skips clustering entirely and
        embeds the label indicator (semi-supervision with every node
        pinned reduces to the same thing).
    """
    if labels is None:
        result = clustering.run(Q, config, pinned=pinned)
        H = prune_zero_columns(result.assignment.H)
        stats = (result.objective, result.sweeps, result.converged,
                 result.objective_trace)
    else:
        H = prune_zero_columns(indicator_matrix(labels, config.n_clusters))
        # No sweep runs; the objective is the one a sweep would report.
        stats = (clustering._objective(Q.zero_diagonal(), H), 0, True, [])
    return CafeResult(qr_embed(Q, H), H, *stats)


def coarsen(Q, partition):
    """Pool the pair distribution over a hard partition.

    Empty clusters are dropped and ids remapped densely.  Returns
    (Q_coarse, membership) where Q_coarse is the modularity operator of
    the pooled sampled graph on the surviving clusters and membership
    maps each node to its surviving cluster id.  Pooling is exact: the
    coarse covariance equals H^T Q H for the partition indicator H.  The
    K x K pooled mass is dense, so K past the dense limit raises first.
    """
    g = Q.graph
    part = np.asarray(partition)
    if part.shape != (g.n,):
        raise ValueError(
            f"partition must assign all {g.n} nodes, got shape {part.shape}"
        )
    clusters, membership = np.unique(part, return_inverse=True)
    K = clusters.size
    if K > _DENSE_LIMIT:
        raise ValueError(f"refusing a dense pooled graph at n={K} "
                         f"(> {_DENSE_LIMIT})")
    P = np.zeros((K, K))
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    np.add.at(P, (membership[rows], membership[g.indices]), g.data)
    np.add.at(P, (membership, membership), g.diag_mass)
    # Exact symmetry survives pooling up to addition order; enforce it.
    P = (P + P.T) / 2.0
    coarse = from_bivariate(P / P.sum())
    return coarse.modularity_matrix(), membership


def multilayer_embed(Q, theta=HARD_THETA, max_sweeps=200, tol=1e-9, seed=0):
    """Hierarchy of hard clusterings with pooled graphs between levels.

    Level 0 clusters the full graph with K = n and a hard (argmax-limit)
    temperature; each accepted level pools its partition and re-clusters
    the supernode graph.  Level 0 is always reported; a later level is
    kept unless it merges no supernodes or the composed partition's
    modularity gains no more than tol.  Per-level modularity is measured
    on the original operator with its true diagonal, so values are
    comparable across levels.
    """
    if Q.n > _DENSE_LIMIT:
        raise ValueError(f"refusing a dense K = n first level at n={Q.n} "
                         f"(> {_DENSE_LIMIT})")
    levels = []
    Q_full = Q.full_diagonal()
    Q_level = Q_full
    membership = np.arange(Q.n)
    # The trivial one-cluster partition has modularity exactly zero, so
    # that is the bar the first level must clear.
    incumbent = 0.0
    level = 0
    while True:
        config = ClusterConfig(n_clusters=Q_level.n, theta=theta,
                               max_sweeps=max_sweeps, tol=tol,
                               seed=seed + level)
        result = clustering.run(Q_level, config)
        coarse_part = hard_labels(result.assignment.H)
        modularity = Q_full.partition_modularity(coarse_part[membership])
        # A level that merges no supernodes repeats the incumbent
        # partition, so its modularity can differ only by rounding, and
        # an improvement below tol is recomputation noise, not structure.
        if level > 0 and (np.unique(coarse_part).size == Q_level.n or
                          modularity <= incumbent + tol):
            break
        H_soft = prune_zero_columns(result.assignment.H)
        embedding = qr_embed(Q_level, H_soft)
        Q_next, coarse_membership = coarsen(Q_level, coarse_part)
        composed = coarse_membership[membership]
        levels.append(LayerResult(level, H_soft.shape[1], embedding, composed,
                                  modularity))
        # Past level 0 the test above has made this false.
        if modularity <= incumbent:
            break
        incumbent = modularity
        membership = composed
        Q_level = Q_next
        level += 1
    return levels


def save_embedding_tsv(path, embedding_rows, node_labels):
    """Write `node<TAB>v1<TAB>...<TAB>vC` with 17 significant digits, one
    row per node, byte-stable across runs."""
    rows = np.asarray(embedding_rows)
    if rows.shape[0] != len(node_labels):
        raise ValueError(
            f"{rows.shape[0]} rows but {len(node_labels)} node labels"
        )
    _write_rows(path, rows, node_labels)


def load_embedding_tsv(path):
    """Read an embedding TSV, skipping blank lines; returns (node_labels,
    matrix).  Errors name the first offending line.  The compiled
    scanner reads the file when it can (see `_native.scan`); otherwise
    the line loop below does, with the same result or error."""
    scanned = _native.scan("rows", path)
    if scanned is not None:
        return scanned
    labels, rows = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            label, *values = line.rstrip("\n").split("\t")
            if not values:
                if not label:
                    continue
                raise ValueError(f"{path}:{lineno}: expected node and values")
            try:
                rows.append(list(map(float, values)))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad float") from None
            labels.append(label)
    if not rows:
        raise ValueError(f"{path}: empty embedding file")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"{path}: ragged rows")
    return labels, np.array(rows)
