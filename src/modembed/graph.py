"""Sampled graphs and the implicit modularity operator.

A sampled graph is a symmetric bivariate probability distribution p(u, w)
over node pairs: nonnegative entries summing to one, with equal row and
column marginals.  The modularity matrix is the covariance

    q(u, w) = p(u, w) - p_U(u) * p_W(w),

which has zero row and column sums.  It is never materialized densely on
the hot path: the sparse part p and the rank-one part p_U p_W^T are kept
separate, so applying Q to a matrix costs O((n + m) K).
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import count

import numpy as np
from scipy import sparse

__all__ = [
    "SampledGraph",
    "ModularityMatrix",
    "MarginalAggregate",
    "from_edge_list",
    "from_similarity",
    "from_bivariate",
    "load_edge_list",
    "save_edge_list",
]


class SampledGraph:
    """Symmetric pair distribution stored as CSR off-diagonal mass plus a
    diagonal mass vector.

    Attributes:
        n: number of nodes.
        node_labels: list of original labels in index order.
        diag_mass: length-n vector of p(u, u).
        marginal: length-n vector p_U = p_W (equal by symmetry).
    """

    def __init__(self, n, off_diag, diag_mass, node_labels):
        self.n = int(n)
        self._P = sparse.csr_array(off_diag)
        self._P.sort_indices()
        self.diag_mass = np.asarray(diag_mass, dtype=float)
        self.node_labels = list(node_labels)
        self._index = dict(zip(self.node_labels, range(len(self.node_labels))))
        row_mass = np.add.reduceat(
            np.append(self._P.data, 0.0), self._P.indptr[:-1]
        )
        row_mass[np.diff(self._P.indptr) == 0] = 0.0
        self.marginal = row_mass + self.diag_mass

    # The two marginals coincide for a symmetric distribution; both names
    # are kept because asymmetric inputs are symmetrized on construction.
    @property
    def marginal_u(self):
        return self.marginal

    @property
    def marginal_w(self):
        return self.marginal

    @property
    def indptr(self):
        return self._P.indptr

    @property
    def indices(self):
        return self._P.indices

    @property
    def data(self):
        return self._P.data

    @property
    def nnz(self):
        """Stored off-diagonal entries (both directions counted)."""
        return self._P.nnz

    @property
    def total_mass(self):
        return float(self._P.data.sum() + self.diag_mass.sum())

    def index_of(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown node label: {label!r}") from None

    def indices_of(self, labels):
        """Indices of a sequence of labels as an int64 array; a KeyError
        names the first unknown label."""
        found = list(map(self._index.get, labels))
        if None in found:
            self.index_of(labels[found.index(None)])
        return np.array(found, dtype=np.int64)

    def label_of(self, index):
        return self.node_labels[index]

    def pair_mass(self, u, w):
        """p(u, w) by index."""
        self._check_index(u)
        self._check_index(w)
        if u == w:
            return float(self.diag_mass[u])
        s, e = self._P.indptr[u], self._P.indptr[u + 1]
        pos = np.searchsorted(self._P.indices[s:e], w)
        if pos < e - s and self._P.indices[s + pos] == w:
            return float(self._P.data[s + pos])
        return 0.0

    def neighbors(self, u):
        """Indices with positive off-diagonal mass against u."""
        self._check_index(u)
        return self._P.indices[self._P.indptr[u]:self._P.indptr[u + 1]]

    def modularity_matrix(self, diag_zeroed=False):
        return ModularityMatrix(self, diag_zeroed=diag_zeroed)

    def edges(self):
        """Unique undirected positive-mass pairs (u, w) with u < w, plus
        self pairs (u, u) where p(u, u) > 0, as an (m, 2) int64 array in
        index order."""
        u, w, _ = self._pair_weights()
        return np.column_stack([u, w])

    def _pair_weights(self):
        """The pairs of `edges()` as columns u, w plus each pair's total
        mass: p(u, u) for a self pair, p(u, w) + p(w, u) otherwise."""
        rows = np.repeat(np.arange(self.n), np.diff(self._P.indptr))
        upper = rows < self._P.indices
        loops = np.flatnonzero(self.diag_mass > 0.0)
        u = np.concatenate([loops, rows[upper]])
        w = np.concatenate([loops, self._P.indices[upper]])
        mass = np.concatenate([self.diag_mass[loops],
                               2.0 * self._P.data[upper]])
        order = np.lexsort((w, u))
        return u[order], w[order], mass[order]

    def _check_index(self, u):
        if not 0 <= u < self.n:
            raise IndexError(f"node index {u} out of range [0, {self.n})")


class MarginalAggregate:
    """Running aggregate S[k] = sum_w p_W(w) h[w, k].

    Lets a single row's expected covariance be computed from its sparse
    neighborhood plus this K-vector instead of a full pass over nodes.
    Kept in sync incrementally as assignment rows change.  `kernel` holds
    the row kernel a sweep prepared for this aggregate (see
    `clustering.prepared_kernel`); a new aggregate starts without one.
    """

    def __init__(self, marginal, H):
        self.marginal = marginal
        self.S = marginal @ H
        self.kernel = None

    def update(self, u, delta_row):
        self.S += self.marginal[u] * delta_row


class ModularityMatrix:
    """Implicit covariance operator q = p - p_U p_W^T for a sampled graph.

    With diag_zeroed=True the diagonal is treated as exactly zero, as the
    sequential clustering updates require; the underlying graph is shared,
    so the flagged views are cheap.
    """

    def __init__(self, graph, diag_zeroed=False):
        self.graph = graph
        self.diag_zeroed = bool(diag_zeroed)

    @property
    def n(self):
        return self.graph.n

    @property
    def marginal(self):
        return self.graph.marginal

    def zero_diagonal(self):
        if self.diag_zeroed:
            return self
        return ModularityMatrix(self.graph, diag_zeroed=True)

    def full_diagonal(self):
        if not self.diag_zeroed:
            return self
        return ModularityMatrix(self.graph, diag_zeroed=False)

    def covariance(self, u, w):
        """q(u, w) = p(u, w) - p_U(u) p_W(w); zero on the diagonal when
        the flag is set."""
        if u == w and self.diag_zeroed:
            self.graph._check_index(u)
            return 0.0
        pi = self.graph.marginal
        return self.graph.pair_mass(u, w) - float(pi[u] * pi[w])

    def diag(self):
        """q(u, u) for all u, honoring the flag."""
        if self.diag_zeroed:
            return np.zeros(self.n)
        return self.graph.diag_mass - self.graph.marginal ** 2

    def trace(self):
        return float(self.diag().sum())

    def apply(self, H):
        """Q @ H without materializing Q: sparse part, diagonal mass and
        rank-one correction, summed in fixed (ascending index) order."""
        H = np.asarray(H, dtype=float)
        squeeze = H.ndim == 1
        if squeeze:
            H = H[:, None]
        g = self.graph
        out = g._P @ H
        pi = g.marginal
        out -= np.outer(pi, pi @ H)
        if self.diag_zeroed:
            out += (pi ** 2)[:, None] * H
        else:
            out += g.diag_mass[:, None] * H
        return out[:, 0] if squeeze else out

    def make_aggregate(self, H):
        return MarginalAggregate(self.graph.marginal, H)

    def row_cost(self, u):
        """Stored entries touched when forming row u's covariance."""
        g = self.graph
        return int(g.indptr[u + 1] - g.indptr[u])

    def spectral_shift(self):
        """A bound c >= -lambda_min, from row absolute sums: each row of
        q is dominated by p's row mass plus the rank-one row mass, both
        at most the marginal."""
        return 2.0 * float(self.graph.marginal.max())

    def row_covariance(self, H, agg, u):
        """z[k] = sum_{w != u} q(w, u) h[w, k] from u's sparse row and the
        marginal aggregate; O(deg(u) + K)."""
        g = self.graph
        s, e = g.indptr[u], g.indptr[u + 1]
        z = g.data[s:e] @ H[g.indices[s:e]]
        pi_u = g.marginal[u]
        z -= pi_u * (agg.S - pi_u * H[u])
        return z

    def row_kernel(self, H, agg):
        """`row_covariance` and `agg.update` prepared once for a run.

        Returns (covariance, update).  covariance(u) runs the same ufuncs
        on the same values as `row_covariance(H, agg, u)` but writes into
        one preallocated K-vector, which it returns on every call; use
        it before the next call.  update(u, delta) is `agg.update` and
        scales `delta` in place.  H is bound here, so it must keep being
        updated in place; `agg.S` is read on every call.  Scalars go to
        the ufuncs as a 0-d array, which numpy dispatches faster than a
        Python float and which holds the same double.
        """
        g = self.graph
        indptr = g.indptr.tolist()
        marginal = g.marginal.tolist()
        data, indices = g.data, g.indices
        gather = H.take
        z = np.empty(H.shape[1])
        t = np.empty(H.shape[1])
        pi_u = np.empty(())
        matmul, multiply, subtract, add = (
            np.matmul, np.multiply, np.subtract, np.add)

        def covariance(u):
            s, e = indptr[u], indptr[u + 1]
            matmul(data[s:e], gather(indices[s:e], 0), z)
            pi_u[()] = marginal[u]
            multiply(pi_u, H[u], t)
            subtract(agg.S, t, t)
            multiply(pi_u, t, t)
            subtract(z, t, z)
            return z

        def update(u, delta):
            pi_u[()] = marginal[u]
            multiply(pi_u, delta, delta)
            S = agg.S
            add(S, delta, S)

        return covariance, update

    def partition_modularity(self, partition):
        """sum_k q(S_k, S_k) for a hard partition, in O(n + m).

        partition: length-n array of cluster ids (any integers).
        """
        g = self.graph
        part = np.asarray(partition)
        if part.shape != (g.n,):
            raise ValueError(
                f"partition must assign all {g.n} nodes, got shape {part.shape}"
            )
        _, labels = np.unique(part, return_inverse=True)
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        same = labels[rows] == labels[g.indices]
        pair_mass = float(g.data[same].sum()) + float(g.diag_mass.sum())
        cluster_marginal = np.bincount(labels, weights=g.marginal)
        value = pair_mass - float((cluster_marginal ** 2).sum())
        if self.diag_zeroed:
            value -= float((g.diag_mass - g.marginal ** 2).sum())
        return value

    def dense(self):
        """Materialize Q (oracle/debug only); guarded against large n."""
        if self.n > 5000:
            raise ValueError(f"refusing to densify at n={self.n} (> 5000)")
        g = self.graph
        Q = g._P.toarray()
        Q += np.diag(g.diag_mass)
        Q -= np.outer(g.marginal, g.marginal)
        if self.diag_zeroed:
            np.fill_diagonal(Q, 0.0)
        return Q


def _invalid_weight(wt, u, w):
    return ValueError(f"invalid weight {wt!r} on edge ({u!r}, {w!r})")


def _assemble(ends, weights, nodes):
    """Build a sampled graph from edge endpoints and weights.

    ends is the flat label sequence u0, w0, u1, w1, ...; weights are
    already validated.  Labels get indices in first-appearance order
    (declared `nodes` first).  Weights of the same unordered pair sum in
    input order and the total sums the positive pair weights left to
    right in first-appearance order, so every stored mass is rounded the
    same way whatever the edge count.
    """
    index = defaultdict(count().__next__)
    if nodes is not None:
        for lab in nodes:
            index[lab]
    ids = np.fromiter(map(index.__getitem__, ends), np.int64, len(ends))
    n = len(index)
    ids = ids.reshape(-1, 2)
    keys = ids.min(axis=1) * n + ids.max(axis=1)
    keys, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    pair_weight = np.bincount(inverse, weights=weights, minlength=keys.size)
    order = np.argsort(first)
    order = order[pair_weight[order] > 0.0]
    if not order.size:
        raise ValueError("empty graph: total weight is zero")
    keys, pair_weight = keys[order], pair_weight[order]
    total = np.cumsum(pair_weight)[-1]
    i, j = keys // n, keys % n
    loop = i == j
    diag = np.zeros(n)
    diag[i[loop]] = pair_weight[loop] / total
    # Off-diagonal mass splits evenly over the two directions.
    p = pair_weight[~loop] / (2.0 * total)
    i, j = i[~loop], j[~loop]
    if p.size:
        off = sparse.csr_array(
            (np.concatenate([p, p]),
             (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(n, n),
        )
    else:
        off = sparse.csr_array((n, n), dtype=float)
    return SampledGraph(n, off, diag, list(index))


def from_edge_list(edges, nodes=None):
    """Build a sampled graph from weighted edges.

    Each edge is (u, w) or (u, w, weight) with hashable node labels and
    weight defaulting to 1.0.  Directed duplicates and multi-edges sum;
    the result is symmetrized, p(u, w) = (wt(u, w) + wt(w, u)) / (2 W).
    `nodes` optionally declares labels up front (so isolated nodes exist,
    with zero marginals) and fixes their index order.

    Raises ValueError on negative weights or an effectively empty graph.
    """
    ends, weights = [], []
    for edge in edges:
        if len(edge) == 2:
            u, w = edge
            wt = 1.0
        else:
            u, w, wt = edge
            wt = float(wt)
            if wt < 0.0 or not math.isfinite(wt):
                raise _invalid_weight(wt, u, w)
        ends += (u, w)
        weights.append(wt)
    if not weights:
        raise ValueError("empty graph: no edges")
    return _assemble(ends, np.array(weights), nodes)


def from_similarity(sim, node_labels=None):
    """Map a finite similarity matrix to a sampled graph.

    Asymmetric input is symmetrized as (sim + sim^T) / 2, then shifted by
    its minimum and normalized:

        p(u, w) = (sim(u, w) - min sim) / sum_ij (sim(i, j) - min sim).

    A constant matrix leaves no mass to normalize and is rejected.
    """
    S = np.asarray(sim, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"similarity must be square, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise ValueError("similarity contains non-finite entries")
    S = (S + S.T) / 2.0
    S = S - S.min()
    total = S.sum()
    if total <= 0.0:
        raise ValueError("degenerate similarity: all entries equal")
    return from_bivariate(S / total, node_labels=node_labels)


def from_bivariate(P, node_labels=None):
    """Build a sampled graph directly from a dense symmetric mass matrix
    (nonnegative, summing to one within 1e-12)."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError(f"mass matrix must be square, got shape {P.shape}")
    if not np.allclose(P, P.T, rtol=0.0, atol=1e-15):
        raise ValueError("mass matrix must be symmetric")
    if (P < 0.0).any():
        raise ValueError("mass matrix has negative entries")
    if abs(P.sum() - 1.0) > 1e-12:
        raise ValueError(f"mass matrix sums to {P.sum()!r}, expected 1")
    if node_labels is None:
        node_labels = list(range(n))
    diag = np.diag(P).copy()
    off = sparse.csr_array(P - np.diag(diag))
    return SampledGraph(n, off, diag, node_labels)


# Characters that str.split() separates on; none lies above U+3000.
_SPACE = np.array([chr(c).isspace() for c in range(0x3001)] + [False])


def _parse_floats(values):
    """float() over a list of strings: (floats, None), or (None, k) with
    k the position of the first string float() rejects."""
    try:
        return list(map(float, values)), None
    except ValueError:
        pass
    for k, v in enumerate(values):
        try:
            float(v)
        except ValueError:
            return None, k


def load_edge_list(path, nodes=None):
    """Read a whitespace-separated edge list: `u w [weight]` per line,
    UTF-8, lines whose first nonblank character is `#` ignored.  Labels
    are arbitrary strings.

    The text is split into fields once; each field's line comes from the
    offsets of its first character and of the newlines, so the per-line
    checks are array operations rather than a loop over lines.  Errors
    name the first offending line, as a line-by-line reader would.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    fields = text.split()
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), np.uint8)
        space = _SPACE[codes]
    else:
        codes = np.frombuffer(text.encode("utf-32-le"), np.uint32)
        space = _SPACE[np.minimum(codes, _SPACE.size - 1)]
    after_space = np.ones_like(space)
    after_space[1:] = space[:-1]
    starts = np.flatnonzero(after_space & ~space)  # one per field
    line = np.searchsorted(np.flatnonzero(codes == ord("\n")), starts)
    head = np.ones(line.size, dtype=bool)  # first field of its line
    head[1:] = line[1:] != line[:-1]
    comment = np.zeros(line[-1] + 1 if line.size else 0, dtype=bool)
    comment[line[head & (codes[starts] == ord("#"))]] = True
    del codes, space, after_space, starts

    kept = np.flatnonzero(~comment[line])
    heads = kept[head[kept]]
    width = np.diff(np.append(np.searchsorted(kept, heads), kept.size))
    lineno = line[heads] + 1
    bad = np.flatnonzero((width < 2) | (width > 3))
    three = np.flatnonzero(width == 3)
    weights_3, bad_weight = _parse_floats(
        list(map(fields.__getitem__, (heads[three] + 2).tolist()))
    )
    if bad.size and (bad_weight is None or bad[0] < three[bad_weight]):
        raise ValueError(
            f"{path}:{lineno[bad[0]]}: expected 'u w [weight]', "
            f"got {width[bad[0]]} fields"
        )
    if bad_weight is not None:
        k = three[bad_weight]
        raise ValueError(
            f"{path}:{lineno[k]}: bad weight {fields[heads[k] + 2]!r}"
        )

    weights = np.ones(heads.size)
    weights[three] = weights_3
    ends = np.column_stack([heads, heads + 1]).ravel()
    ends = list(map(fields.__getitem__, ends.tolist()))
    del fields
    invalid = np.flatnonzero((weights < 0.0) | ~np.isfinite(weights))
    if invalid.size:
        k = invalid[0]
        raise _invalid_weight(float(weights[k]), ends[2 * k], ends[2 * k + 1])
    if not heads.size:
        raise ValueError("empty graph: no edges")
    return _assemble(ends, weights, nodes)


def save_edge_list(path, graph):
    """Write unique undirected pairs with their total pair mass as weight.

    The absolute scale is the stored probability mass, so a round trip
    reproduces the same distribution (weights renormalize to themselves).
    """
    u, w, mass = graph._pair_weights()
    labels = graph.node_labels
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            "%s\t%s\t%.17g\n" % (labels[a], labels[b], x)
            for a, b, x in zip(u.tolist(), w.tolist(), mass.tolist())
        )
