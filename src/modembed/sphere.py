"""Embedding on the unit sphere by relaxed covariance averaging.

Rows live on the unit sphere instead of the simplex.  Each visit blends a
node's row with its expected covariance z_u = sum_{w != u} q(w, u) h_w,

    h_u  <-  (1 - beta) h_u + beta z_u,  renormalized to unit length,

which never decreases tr(H^T Q H) for any beta in [0, 1] because the
diagonal contribution is constant on the sphere.  The same thin-QR step
as the clustering pipeline turns the converged rows into an orthonormal
embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import prepared_kernel
from .embedding import EmbeddingMatrix, qr_embed

__all__ = [
    "SphereConfig",
    "SphereResult",
    "init_sphere",
    "sphere_update",
    "sphere_sweep",
    "run_sphere",
    "sphere_embed",
]

# A blended row shorter than this cannot be renormalized meaningfully;
# the update is skipped and counted instead.
_DEGENERATE_NORM = 1e-300


@dataclass
class SphereConfig:
    """Knobs for a sphere run: embedding width, blend weight beta in
    [0, 1], sweep cap, convergence tolerance, and init seed."""

    n_dims: int
    beta: float = 0.5
    max_sweeps: int = 200
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.n_dims < 1:
            raise ValueError(f"n_dims must be >= 1, got {self.n_dims}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


@dataclass
class SphereResult:
    H: np.ndarray
    embedding: EmbeddingMatrix
    objective: float
    sweeps: int
    converged: bool
    objective_trace: list
    degenerate_updates: int


def init_sphere(n, n_dims, seed=0):
    """Seeded Gaussian rows normalized to unit length."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal(size=(n, n_dims))
    H /= np.linalg.norm(H, axis=1, keepdims=True)
    return H


def sphere_update(H, u, z, beta, aggregate=None):
    """Blend row u toward z and renormalize, in place.

    Returns True if the row moved; a blended vector with vanishing norm
    leaves the row untouched (the caller counts these).
    """
    blended = (1.0 - beta) * H[u] + beta * z
    norm = np.linalg.norm(blended)
    if norm < _DEGENERATE_NORM:
        return False
    row = blended / norm
    if aggregate is not None:
        aggregate.update(u, row - H[u])
    H[u] = row
    return True


def _sphere_kernel(Q, H, aggregate):
    """Prepare `sphere_update` over all rows for a run.

    Returns visit(beta), which updates every row in ascending order with
    the same ufuncs on the same values, in the same order, as
    `row_covariance` followed by `sphere_update` (the norm is
    sqrt(b . b), as `np.linalg.norm` computes it) and returns the number
    of degenerate rows it skipped.  Scalars go to the ufuncs as 0-d
    arrays, as in the softmax kernel.
    """
    covariance, update = Q.row_kernel(H, aggregate)
    n, K = H.shape
    b, t = np.empty(K), np.empty(K)
    norm = np.empty(())
    multiply, add, subtract, divide, dot = (
        np.multiply, np.add, np.subtract, np.divide, np.dot)
    sqrt = math.sqrt

    def visit(beta):
        keep = np.array(1.0 - beta)
        beta = np.array(beta, dtype=float)
        degenerate = 0
        for u in range(n):
            z = covariance(u)
            h = H[u]
            multiply(keep, h, b)
            multiply(beta, z, t)
            add(b, t, b)
            length = sqrt(dot(b, b))
            if length < _DEGENERATE_NORM:
                degenerate += 1
                continue
            norm[()] = length
            divide(b, norm, b)
            subtract(b, h, t)
            update(u, t)
            h[...] = b
        return degenerate

    return visit


def sphere_sweep(Q, H, beta, aggregate=None):
    """One ascending pass; returns (objective, degenerate_count).

    The objective is reported against the operator's true diagonal: unit
    rows make the diagonal term a constant, so monotonicity transfers.
    The row kernel is prepared on the first sweep with a given aggregate
    and reused by the later ones.
    """
    Q_full = Q.full_diagonal()
    if aggregate is None:
        aggregate = Q_full.make_aggregate(H)
    visit = prepared_kernel(aggregate, _sphere_kernel, Q_full, H, aggregate)
    degenerate = visit(beta)
    objective = float(np.sum(H * Q_full.apply(H)))
    return objective, degenerate


def run_sphere(Q, config):
    """Initialize and sweep until the objective stalls or the cap hits."""
    H = init_sphere(Q.n, config.n_dims, seed=config.seed)
    Q_full = Q.full_diagonal()
    aggregate = Q_full.make_aggregate(H)
    trace = []
    degenerate = 0
    previous = float(np.sum(H * Q_full.apply(H)))
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        objective, skipped = sphere_sweep(Q_full, H, config.beta, aggregate)
        degenerate += skipped
        trace.append(objective)
        if abs(objective - previous) < config.tol:
            converged = True
            previous = objective
            break
        previous = objective
    return H, previous, sweeps, converged, trace, degenerate


def sphere_embed(Q, config):
    """Sphere iteration followed by the shared thin-QR orthonormalization."""
    H, objective, sweeps, converged, trace, degenerate = run_sphere(Q, config)
    embedding = qr_embed(Q, H)
    return SphereResult(
        H=H,
        embedding=embedding,
        objective=objective,
        sweeps=sweeps,
        converged=converged,
        objective_trace=trace,
        degenerate_updates=degenerate,
    )
