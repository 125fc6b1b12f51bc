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
    R linking it back to Q H (Hhat @ R == Q H up to roundoff)."""

    H_hat: np.ndarray
    R: np.ndarray

    @property
    def C(self):
        return self.H_hat.shape[1]


@dataclass
class CafeResult:
    """Clustering + QR pipeline output for one graph."""

    embedding: EmbeddingMatrix
    assignment: np.ndarray  # pruned soft assignment actually fed to QR
    kept_columns: np.ndarray
    objective: float
    sweeps: int
    converged: bool
    objective_trace: list


@dataclass
class LayerResult:
    """One level of the multi-level hierarchy."""

    level: int
    C: int
    assignment: np.ndarray  # soft rows over this level's supernodes
    embedding: EmbeddingMatrix
    membership: np.ndarray  # original node -> this level's cluster
    modularity: float


def prune_zero_columns(H):
    """Drop columns whose maximum entry is below ZERO_COLUMN_THRESHOLD.

    Returns (H_kept, kept_indices).  Rows are not renormalized; the mass
    removed is below the threshold per row by construction.
    """
    H = np.asarray(H)
    keep = np.flatnonzero(H.max(axis=0) >= ZERO_COLUMN_THRESHOLD)
    if keep.size == 0:
        raise ValueError("all columns empty; nothing to embed")
    return H[:, keep], keep


def qr_embed(Q, H, drop_dependent=True):
    """Thin QR of Q @ H with the operator's true diagonal.

    The triangular factor is sign-fixed to a nonnegative diagonal so the
    decomposition is unique and runs are reproducible.  If Q H is rank
    deficient, dependent columns are dropped left-to-right with a
    RankDeficiencyWarning (drop_dependent=True), or kept so the output
    width always matches the input (drop_dependent=False; trailing
    columns then pad the basis beyond range(Q H)).
    """
    M = Q.full_diagonal().apply(H)
    n, C = M.shape
    if drop_dependent:
        scale = np.linalg.norm(M, axis=0).max()
        if scale == 0.0:
            raise ValueError("Q H is identically zero; nothing to embed")
        tol = n * np.finfo(float).eps * scale
        basis = []
        kept = []
        for j in range(C):
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
        if len(kept) < C:
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
    return EmbeddingMatrix(H_hat=H_hat, R=R)


def indicator_matrix(labels, n_clusters=None):
    """One-hot rows from integer labels."""
    labels = np.asarray(labels, dtype=int)
    K = int(labels.max()) + 1 if n_clusters is None else int(n_clusters)
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
        H, kept = prune_zero_columns(result.assignment.H)
        stats = (result.objective, result.sweeps, result.converged,
                 result.objective_trace)
    else:
        H, kept = prune_zero_columns(
            indicator_matrix(labels, config.n_clusters))
        # No sweep runs; the objective is the one a sweep would report.
        stats = (float(np.sum(H * Q.zero_diagonal().apply(H))), 0, True, [])
    return CafeResult(qr_embed(Q, H), H, kept, *stats)


def coarsen(Q, partition):
    """Pool the pair distribution over a hard partition.

    Empty clusters are dropped and ids remapped densely.  Returns
    (Q_coarse, membership, P_pooled) where Q_coarse is the modularity
    operator of the pooled sampled graph on the surviving clusters,
    membership maps each node to its surviving cluster id, and P_pooled
    is the dense pooled mass matrix.  Pooling is exact: the coarse
    covariance equals H^T Q H for the partition indicator H.
    """
    g = Q.graph
    part = np.asarray(partition)
    if part.shape != (g.n,):
        raise ValueError(
            f"partition must assign all {g.n} nodes, got shape {part.shape}"
        )
    clusters, membership = np.unique(part, return_inverse=True)
    K = clusters.size
    P = np.zeros((K, K))
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    np.add.at(P, (membership[rows], membership[g.indices]), g.data)
    np.add.at(P, (membership, membership), g.diag_mass)
    # Exact symmetry survives pooling up to addition order; enforce it.
    P = (P + P.T) / 2.0
    coarse = from_bivariate(P / P.sum())
    return coarse.modularity_matrix(), membership, P


def multilayer_embed(Q, theta=HARD_THETA, max_sweeps=200, tol=1e-9, seed=0):
    """Hierarchy of hard clusterings with pooled graphs between levels.

    Level 0 clusters the full graph with K = n and a hard (argmax-limit)
    temperature; each accepted level pools its partition and re-clusters
    the supernode graph.  Levels are kept while they merge supernodes and
    the composed partition's modularity improves by more than tol; level
    0 is always reported.  Per-level modularity is measured on the
    original operator with its true diagonal, so values are comparable
    across levels.
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
        # A level that merges no supernodes repeats the incumbent
        # partition; its modularity can differ only by rounding.
        if level > 0 and np.unique(coarse_part).size == Q_level.n:
            break
        composed = coarse_part[membership]
        modularity = Q_full.partition_modularity(composed)
        # Improvement below tol is recomputation noise, not structure.
        if level > 0 and modularity <= incumbent + tol:
            break
        H_soft, kept = prune_zero_columns(result.assignment.H)
        embedding = qr_embed(Q_level, H_soft)
        Q_next, coarse_membership, _ = coarsen(Q_level, coarse_part)
        composed = coarse_membership[membership]
        levels.append(LayerResult(level, H_soft.shape[1], H_soft, embedding,
                                  composed, modularity))
        if level == 0 and modularity <= incumbent:
            break
        if Q_next.n <= 1:
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
