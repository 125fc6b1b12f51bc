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

from dataclasses import dataclass, field

import numpy as np

from .graph import MarginalAggregate

__all__ = [
    "ClusterConfig",
    "SoftAssignment",
    "ClusterResult",
    "MarginalAggregate",
    "HARD_THETA",
    "init_assignment",
    "expected_covariance",
    "softmax_update",
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
    theta: inverse temperature (> 0); higher is harder.
    max_sweeps: cap on full passes over the nodes.
    tol: absolute objective-change threshold declaring convergence.
    seed: RNG seed for row initialization.
    """

    n_clusters: int
    theta: float = 50.0
    max_sweeps: int = 200
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


@dataclass
class SoftAssignment:
    """Row-stochastic assignment matrix plus the set of pinned rows."""

    H: np.ndarray
    pinned: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.H.shape[0]

    @property
    def n_clusters(self):
        return self.H.shape[1]


@dataclass
class ClusterResult:
    assignment: SoftAssignment
    objective: float
    sweeps: int
    converged: bool
    objective_trace: list
    ops_per_sweep: list


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


def expected_covariance(Q, H, S, u):
    """z_u[k] = sum_{w != u} q(w, u) h[w, k] in O(deg(u) + K), using the
    sparse row of p and the marginal aggregate S."""
    return Q.row_covariance(H, S, u)


def softmax_update(H, u, z, theta, aggregate=None):
    """Multiplicative softmax re-weighting of row u, in place.

    Uses max-subtraction for overflow safety; exact zeros in h_u stay
    zero.  If every surviving entry underflows (possible only when h_u
    vanished on all near-argmax coordinates), the row is rebuilt from the
    bare exponentials instead, so the result is always a valid pmf.
    Passing the marginal aggregate keeps it in sync with the new row.
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
    if aggregate is not None:
        aggregate.update(u, row - H[u])
    H[u] = row
    return row


def prepared_kernel(aggregate, build, *key):
    """`build(*key)`, kept in `aggregate.kernel` for the run's later sweeps.

    A run passes one aggregate to all its sweeps, so the first sweep
    prepares the row kernel and the others reuse it.  It is built again
    when `build` or any key object differs (compared by identity) from
    the ones it was made with.  A kept kernel stays valid while the key
    objects change only in place: H's rows are rewritten but H is not
    rebound, and neither the pinned dict nor the operator's graph or
    points are mutated.  The aggregate's own array may be rebound; the
    kernels read it on every call.
    """
    kept = aggregate.kernel
    if (kept is None or kept[0] is not build
            or any(a is not b for a, b in zip(kept[1], key))):
        kept = aggregate.kernel = (build, key, build(*key))
    return kept[2]


def _softmax_kernel(Q, H, pinned, aggregate):
    """Prepare `softmax_update` over the unpinned rows for a run.

    Returns (visit, ops): visit(theta) updates every unpinned row in
    ascending order with the same ufuncs on the same values, in the same
    order, as `row_covariance` followed by `softmax_update`, so H and the
    aggregate come out bit for bit the same.  Buffers, row lists and
    bound ufuncs are set up here, and scalars are passed as 0-d arrays
    (cheaper to dispatch, same doubles).  ops is the op count of one
    sweep, the same for every sweep of the run.
    """
    covariance, update = Q.row_kernel(H, aggregate)
    K = H.shape[1]
    rows = [u for u in range(H.shape[0]) if u not in pinned]
    ops = sum(map(Q.row_cost, rows)) + K * len(rows)
    t, e, row = np.empty(K), np.empty(K), np.empty(K)
    low = np.empty(K, dtype=bool)
    top, total, clamp = np.empty(()), np.empty(()), np.array(_ZERO_CLAMP)
    multiply, subtract, divide, exp, less = (
        np.multiply, np.subtract, np.divide, np.exp, np.less)
    peak, add_up = np.maximum.reduce, np.add.reduce

    def visit(theta):
        theta = np.array(theta, dtype=float)
        for u in rows:
            z = covariance(u)
            h = H[u]
            multiply(theta, z, t)
            subtract(t, peak(t, 0, None, top), t)
            exp(t, e)
            multiply(e, h, row)
            less(row, clamp, low)
            row[low] = 0.0
            if add_up(row, 0, None, total)[()] <= 0.0:
                divide(e, add_up(e, 0, None, total), row)
            else:
                divide(row, total, row)
            subtract(row, h, t)
            update(u, t)
            h[...] = row

    return visit, ops


def sweep(Q, assignment, config, aggregate=None):
    """One full pass over unpinned nodes in ascending index order.

    Q must have its diagonal zeroed.  Returns (objective, ops) where the
    objective is tr(H^T Q H) after the pass and ops counts the touched
    sparse entries plus K-vector work per visited node.  The row kernel
    is prepared on the first sweep with a given aggregate and reused by
    the later ones.
    """
    if not Q.diag_zeroed:
        raise ValueError("sweep requires the operator diagonal zeroed")
    H = assignment.H
    if aggregate is None:
        aggregate = Q.make_aggregate(H)
    visit, ops = prepared_kernel(aggregate, _softmax_kernel,
                                 Q, H, assignment.pinned, aggregate)
    visit(config.theta)
    objective = float(np.sum(H * Q.apply(H)))
    return objective, ops


def run(Q, config, pinned=None):
    """Initialize and sweep until the objective change drops below tol or
    the sweep cap is hit.

    Q may carry its true diagonal; the zeroed view is taken internally.
    Returns a ClusterResult; `converged` records which exit fired.
    """
    Q0 = Q.zero_diagonal()
    assignment = init_assignment(Q0.n, config, pinned=pinned)
    aggregate = Q0.make_aggregate(assignment.H)
    trace = []
    ops_trace = []
    previous = float(np.sum(assignment.H * Q0.apply(assignment.H)))
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        objective, ops = sweep(Q0, assignment, config, aggregate)
        trace.append(objective)
        ops_trace.append(ops)
        if abs(objective - previous) < config.tol:
            converged = True
            previous = objective
            break
        previous = objective
    return ClusterResult(
        assignment=assignment,
        objective=previous,
        sweeps=sweeps,
        converged=converged,
        objective_trace=trace,
        ops_per_sweep=ops_trace,
    )


def hard_labels(H):
    """Argmax per row; ties resolve to the lowest cluster index."""
    return np.argmax(H, axis=1)
