"""Dimensionality reduction of point clouds through the same machinery.

Centering a cloud X makes Q = X X^T a covariance-style operator with
zero row sums along the all-ones direction of the lifted feature space,
so the clustering and sphere sweeps apply unchanged: Q is never formed,
only v -> X (X^T v) at O(n L) per apply.  The converged assignment is
orthonormalized exactly as for graphs, and each embedding column is
scored by its energy outside the top principal subspace; columns with
near-zero residual reproduce principal coordinates of the cloud.

An isometric random lift to a higher ambient dimension (orthonormal-row
mixing matrix) lets experiments decouple the ambient dimension from the
intrinsic one without changing the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import clustering
from .clustering import ClusterConfig
from .embedding import qr_embed
from .graph import Aggregate
from .sphere import SphereConfig, run_sphere
from .spectral import _fix_signs, jacobi_eigh, projection_residual

__all__ = [
    "GramOperator",
    "ReduceResult",
    "center",
    "embed_lift",
    "pca_basis",
    "reduce_cloud",
    "concentric_circles",
    "torus_cloud",
    "load_xyz",
]

# Embedding columns at or below this residual carry principal-subspace
# coordinates; the rest are orthogonal-complement padding.
RESIDUAL_SELECT = 1e-3


class GramOperator:
    """Implicit Q = X X^T over a centered cloud.  It mirrors the part of
    the sparse modularity operator that the sweeps and the thin QR use
    (apply, row_covariance, aggregate, diagonal handling), not the
    spectral part: no pipeline hands it to an eigensolver."""

    def __init__(self, X, diag_zeroed=False):
        self.X = np.asarray(X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError(f"expected an n x L array, got {self.X.shape}")
        self.diag_zeroed = bool(diag_zeroed)
        self._sq = np.einsum("ij,ij->i", self.X, self.X)

    @property
    def n(self):
        return self.X.shape[0]

    def zero_diagonal(self):
        return GramOperator(self.X, diag_zeroed=True)

    def full_diagonal(self):
        return GramOperator(self.X)

    def apply(self, H):
        H = np.asarray(H, dtype=float)
        out = self.X @ (self.X.T @ H)
        if self.diag_zeroed:
            out -= self._sq[:, None] * H
        return out

    def make_aggregate(self, H):
        return Aggregate(self.X, H)

    def row_covariance(self, H, agg, u):
        return agg.A.T @ self.X[u] - self._sq[u] * H[u]

    def row_cost(self, rows):
        return self.X.shape[1] * len(rows)


def center(X):
    """Subtract per-coordinate means; idempotent."""
    X = np.asarray(X, dtype=float)
    return X - X.mean(axis=0, keepdims=True)


def embed_lift(X, L, seed=0):
    """Isometric lift to ambient dimension L via a seeded mixing matrix
    with orthonormal rows, leaving X X^T unchanged."""
    X = np.asarray(X, dtype=float)
    d = X.shape[1]
    if L < d:
        raise ValueError(f"lift dimension {L} below input dimension {d}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal(size=(L, d))
    Qfac, _ = np.linalg.qr(G)
    return X @ Qfac.T


def pca_basis(X, k):
    """Top principal directions of a centered cloud as unit columns.

    Solves the small L x L Gram problem and maps back, keeping only
    directions with numerically positive variance; returns (V, sigma)
    with V of shape (n, min(k, rank)) and sigma the singular values.
    """
    X = np.asarray(X, dtype=float)
    small = jacobi_eigh(X.T @ X)
    lam = small.eigenvalues
    cutoff = max(lam[0], 0.0) * 1e-12
    rank = int((lam > cutoff).sum())
    take = min(k, rank)
    if take == 0:
        raise ValueError("cloud has zero variance; nothing to project on")
    sigma = np.sqrt(lam[:take])
    return _fix_signs((X @ small.eigenvectors[:, :take]) / sigma), sigma


@dataclass
class ReduceResult:
    """Embedding of a cloud plus per-column principal-subspace residuals.

    selected flags columns with residual <= 1e-3; reconstruction scales
    those columns by the matching singular values, recovering principal
    coordinates up to rotation within equal-variance subspaces.
    """

    embedding: np.ndarray
    residuals: np.ndarray
    singular_values: np.ndarray
    selected: np.ndarray
    reconstruction: np.ndarray
    sweeps: int
    converged: bool


def reduce_cloud(points, n_dims, theta=0.010, method="cafe", seed=0,
                 beta=0.5, max_sweeps=200, tol=1e-9):
    """Embed a point cloud through the implicit Gram operator.

    The cloud is centered, the chosen iteration (simplex softmax rows or
    unit-sphere rows) runs to convergence, and the assignment is
    orthonormalized against Q = X X^T.  No columns are pruned and no hard
    rounding is applied: trailing columns beyond the cloud's intrinsic
    rank are reported with residuals near one rather than dropped, so the
    output width always equals n_dims.
    """
    X = center(points)
    if n_dims > X.shape[0]:
        raise ValueError(f"n_dims={n_dims} exceeds the {X.shape[0]} points")
    gram = GramOperator(X)
    sweep = {"max_sweeps": max_sweeps, "tol": tol, "seed": seed}
    if method == "cafe":
        config = ClusterConfig(n_clusters=n_dims, theta=theta, **sweep)
        result = clustering.run(gram, config)
        H, sweeps, converged = (result.assignment.H, result.sweeps,
                                result.converged)
    elif method == "sphere":
        config = SphereConfig(n_dims=n_dims, beta=beta, **sweep)
        H, _, sweeps, converged, _, _ = run_sphere(gram, config)
    else:
        raise ValueError(f"unknown method {method!r} (want cafe or sphere)")
    embedding = qr_embed(gram, H, drop_dependent=False).H_hat
    V, sigma = pca_basis(X, n_dims)
    residuals = projection_residual(embedding, V)
    selected = residuals <= RESIDUAL_SELECT
    scale = np.zeros(n_dims)
    scale[: sigma.size] = sigma
    reconstruction = embedding[:, selected] * scale[selected]
    return ReduceResult(embedding, residuals, sigma, selected,
                        reconstruction, sweeps, converged)


def concentric_circles():
    """Two concentric circles of radii 1 and 2, 100 evenly spaced points
    each, as a 2-D cloud."""
    angles = 2.0 * np.pi * np.arange(100) / 100
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    return np.vstack([radius * ring for radius in (1.0, 2.0)])


def torus_cloud(n=240):
    """Deterministic grid of about n points on a torus of radii 2 and
    0.7; spans three ambient dimensions."""
    major, minor = 2.0, 0.7
    nu = max(int(np.sqrt(n)), 3)
    nv = max(n // nu, 3)
    u = 2.0 * np.pi * np.arange(nu) / nu
    v = 2.0 * np.pi * np.arange(nv) / nv
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = major + minor * np.cos(vv)
    return np.column_stack([
        (ring * np.cos(uu)).ravel(),
        (ring * np.sin(uu)).ravel(),
        (minor * np.sin(vv)).ravel(),
    ])


def load_xyz(path):
    """Whitespace-separated coordinates, two or three per line; `#`
    comment lines ignored.  A coordinate that does not parse, or parses
    to nan or inf, is an error naming its line."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"{path}:{lineno}: expected 2 or 3 coordinates, got {len(parts)}"
                )
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(f"{path}:{lineno}: inconsistent column count")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                row = None
            # A nan or inf coordinate would run the whole iteration and
            # then fail the eigensolver.
            if row is None or not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: bad coordinate")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty point cloud")
    return np.array(rows)

