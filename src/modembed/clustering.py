"""Soft clustering by sequential softmax updates on the modularity operator.

Each node row h_u is a pmf over K clusters.  Visiting nodes in ascending
order, the expected covariance z_u[k] = sum_{w != u} q(w, u) h[w, k] is
formed from u's sparse neighborhood plus a running marginal aggregate,
and the row is re-weighted multiplicatively:

    h_u[k]  <-  e^{theta z_u[k]} h_u[k],  then renormalized.

With the operator diagonal zeroed, every such update leaves the objective
tr(H^T Q H) non-decreasing, so sweeps climb toward a local modularity
maximum.  Rows pinned by known labels are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native

__all__ = [
    "ClusterConfig",
    "SoftAssignment",
    "Climb",
    "ClusterResult",
    "HARD_THETA",
    "init_assignment",
    "softmax_update",
    "climb",
    "sweep",
    "run",
    "hard_labels",
]

# Inverse temperature used to realize the "theta = infinity" hard limit
# without literal infinities; pair with an argmax rounding at the end.
HARD_THETA = 1e6

# Entries below this are snapped to exact zero: the multiplicative update
# preserves zeros, so subnormal dust would only simulate that badly.
_ZERO_CLAMP = 1e-300


@dataclass
class ClusterConfig:
    """Knobs for a clustering run.

    n_clusters: number of columns K.
    theta: inverse temperature (finite, > 0); higher is harder.
    max_sweeps: cap on full passes over the nodes.
    tol: absolute objective change declaring convergence (finite, >= 0).
    seed: RNG seed for row initialization (>= 0).
    """

    n_clusters: int
    theta: float = 50.0
    max_sweeps: int = 200
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if not 0.0 < self.theta < np.inf:
            raise ValueError(f"theta must be positive and finite, got "
                             f"{self.theta}")
        _check_sweeps(self)


def _check_sweeps(config):
    """Check the sweep settings that `ClusterConfig` and
    `sphere.SphereConfig` share: max_sweeps, tol and seed."""
    if config.max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {config.max_sweeps}")
    # A NaN or negative tol is never met, an infinite one always.
    if not 0.0 <= config.tol < np.inf:
        raise ValueError(f"tol must be >= 0 and finite, got {config.tol}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")


@dataclass
class SoftAssignment:
    """Row-stochastic assignment matrix plus the set of pinned rows."""

    H: np.ndarray
    pinned: dict


@dataclass
class Climb:
    """The record of one climb of tr(H^T Q H): the objective before the
    first sweep and after each sweep, each sweep's count (ops for the
    softmax rule, skipped degenerate rows for the sphere rule), and
    whether the tol exit fired rather than the sweep cap."""

    start: float
    objective_trace: list
    counts: list
    converged: bool

    @property
    def objective(self):
        return self.objective_trace[-1] if self.objective_trace else self.start

    @property
    def sweeps(self):
        return len(self.objective_trace)

    @property
    def stop_reason(self):
        return "tol" if self.converged else "max_sweeps"


@dataclass
class ClusterResult:
    assignment: SoftAssignment
    climb: Climb


def init_assignment(n, config, pinned=None):
    """Seeded non-uniform start: iid Uniform(0.5, 1.5) rows, normalized.

    Near-uniform rows keep every cluster reachable while breaking the
    symmetry that would freeze a perfectly uniform start.  `pinned` maps
    node index -> cluster index; those rows are set one-hot and excluded
    from updates.
    """
    K = config.n_clusters
    rng = np.random.default_rng(config.seed)
    H = rng.uniform(0.5, 1.5, size=(n, K))
    H /= H.sum(axis=1, keepdims=True)
    pinned = dict(pinned) if pinned else {}
    for u, k in pinned.items():
        if not 0 <= u < n:
            raise IndexError(f"pinned node {u} out of range [0, {n})")
        if not 0 <= k < K:
            raise IndexError(f"pinned cluster {k} out of range [0, {K})")
        H[u] = 0.0
        H[u, k] = 1.0
    return SoftAssignment(H=H, pinned=pinned)


def softmax_update(H, u, z, theta, aggregate):
    """Multiplicative softmax re-weighting of row u, in place.

    Uses max-subtraction for overflow safety; exact zeros in h_u stay
    zero.  If every surviving entry underflows (possible only when h_u
    vanished on all near-argmax coordinates), the row is rebuilt from the
    bare exponentials instead, so the result is always a valid pmf.
    The marginal aggregate is kept in sync with the new row.
    """
    t = theta * z
    t -= t.max()
    e = np.exp(t)
    row = e * H[u]
    row[row < _ZERO_CLAMP] = 0.0
    total = row.sum()
    if total <= 0.0:
        row = e / e.sum()
    else:
        row = row / total
    aggregate.update(u, row - H[u])
    H[u] = row
    return row


def _kernel(rule, update, Q, H, aggregate, rows, weight):
    """visit() for the row rule `rule` ("softmax" at inverse temperature
    `weight`, "sphere" at blend weight `weight`) over `rows` of H in
    order, prepared once per run: one call of the compiled sweep, or
    `row_covariance` and the plain rule `update` row by row, with the
    same bytes in H and the aggregate.  visit() returns the number of
    rows skipped, those whose update returned False.
    """
    return _native.sweep(rule, Q, H, aggregate, rows, weight) or (
        lambda: sum(update(H, u, Q.row_covariance(H, aggregate, u), weight,
                           aggregate) is False for u in rows))


def _objective(Q, H):
    """The trace objective tr(H^T Q H) that every climb reports; for a
    modularity operator, one compiled pass when it can
    (`_native.objective`), with the same bytes."""
    value = _native.objective(Q, H) if hasattr(Q, "graph") else None
    return float(np.sum(H * Q.apply(H))) if value is None else value


def sweep(Q, H, visit):
    """One pass of a prepared softmax kernel over H.

    Returns (objective, ops): tr(H^T Q H) after the pass and visit()'s
    count of touched sparse entries plus K-vector work per node.
    """
    ops = visit()
    return _objective(Q, H), ops


def climb(Q, H, visit, step, config):
    """Sweep until the objective change drops below `config.tol` or
    `config.max_sweeps` passes are done.

    step(Q, H, visit) makes one pass and returns (objective, count); the
    caller passes its module's sweep function so each pass is one call.
    Returns the Climb.
    """
    trace, counts = [], []
    start = previous = _objective(Q, H)
    converged = False
    while not converged and len(trace) < config.max_sweeps:
        objective, count = step(Q, H, visit)
        trace.append(objective)
        counts.append(count)
        converged = abs(objective - previous) < config.tol
        previous = objective
    return Climb(start, trace, counts, converged)


def run(Q, config, pinned=None):
    """Initialize and sweep until the objective change drops below tol or
    the sweep cap is hit.

    Q may carry its true diagonal; the zeroed view is taken internally.
    Returns a ClusterResult; its climb records which exit fired.
    """
    Q0 = Q.zero_diagonal()
    assignment = init_assignment(Q0.n, config, pinned=pinned)
    H = assignment.H
    rows = np.delete(np.arange(Q0.n), list(assignment.pinned))
    ops = Q0.row_cost(rows) + H.shape[1] * rows.size
    kernel = _kernel("softmax", softmax_update, Q0, H, Q0.make_aggregate(H),
                     rows, config.theta)

    def visit():
        kernel()
        return ops

    return ClusterResult(assignment, climb(Q0, H, visit, sweep, config))


def hard_labels(H):
    """Argmax per row; ties resolve to the lowest cluster index."""
    return np.argmax(H, axis=1)
