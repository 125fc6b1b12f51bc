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

from dataclasses import dataclass

import numpy as np

from .clustering import Climb, _check_sweeps, _kernel, _objective, climb
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
    [0, 1], sweep cap, finite convergence tolerance >= 0, init seed >= 0."""

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
        _check_sweeps(self)


@dataclass
class SphereResult:
    embedding: EmbeddingMatrix
    climb: Climb


def init_sphere(n, n_dims, seed=0):
    """Seeded Gaussian rows normalized to unit length."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal(size=(n, n_dims))
    H /= np.linalg.norm(H, axis=1, keepdims=True)
    return H


def sphere_update(H, u, z, beta, aggregate):
    """Blend row u toward z and renormalize, in place, aggregate too.

    Returns True if the row moved; a blended vector with vanishing norm
    leaves the row untouched and returns False (the caller counts these).
    """
    blended = (1.0 - beta) * H[u] + beta * z
    norm = np.linalg.norm(blended)
    if norm < _DEGENERATE_NORM:
        return False
    row = blended / norm
    aggregate.update(u, row - H[u])
    H[u] = row
    return True


def sphere_sweep(Q, H, visit):
    """One pass of a prepared sphere kernel; returns (objective,
    degenerate_count).

    Q carries its true diagonal: unit rows make the diagonal term a
    constant, so monotonicity transfers to the reported objective.
    """
    degenerate = visit()
    return _objective(Q, H), degenerate


def run_sphere(Q, config):
    """Initialize and sweep until the objective stalls or the cap hits.
    Returns (H, climb): the unit rows and the Climb."""
    H = init_sphere(Q.n, config.n_dims, seed=config.seed)
    Q_full = Q.full_diagonal()
    visit = _kernel("sphere", sphere_update, Q_full, H,
                    Q_full.make_aggregate(H), np.arange(Q.n), config.beta)
    return H, climb(Q_full, H, visit, sphere_sweep, config)


def sphere_embed(Q, config):
    """Sphere iteration followed by the shared thin-QR orthonormalization."""
    H, record = run_sphere(Q, config)
    return SphereResult(qr_embed(Q, H), record)
