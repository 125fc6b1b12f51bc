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

import contextlib
import os
from collections import defaultdict
from itertools import count

import numpy as np

from . import _native

__all__ = [
    "SampledGraph",
    "ModularityMatrix",
    "Aggregate",
    "from_edge_list",
    "from_similarity",
    "from_bivariate",
    "load_edge_list",
    "save_edge_list",
]

# Largest n for which anything n x n is built densely: the dense
# operator, full decompositions and multilayer's K = n first level.
_DENSE_LIMIT = 5000


class SampledGraph:
    """Symmetric pair distribution stored as CSR off-diagonal mass plus a
    diagonal mass vector.

    Row u of the off-diagonal mass p(u, w), w != u, is
    data[indptr[u]:indptr[u + 1]] at the columns
    indices[indptr[u]:indptr[u + 1]], which rise strictly within the row.
    The constructor stores indptr and indices as int64 and data as
    float64, and raises ValueError on arrays that are not such a CSR
    matrix, n x n with n = len(indptr) - 1.

    Attributes:
        n: number of nodes.
        indptr, indices, data: the CSR arrays of the off-diagonal mass.
        node_labels: list of original labels in index order.
        diag_mass: length-n vector of p(u, u).
        marginal: length-n vector p_U = p_W (equal by symmetry).
    """

    def __init__(self, indptr, indices, data, diag_mass, node_labels):
        # Contiguous and aligned, as the compiled loops read them.
        self.indptr = np.require(indptr, np.int64, "CA")
        self.indices = np.require(indices, np.int64, "CA")
        self.data = np.require(data, np.float64, "CA")
        self.n = self.indptr.size - 1
        self.diag_mass = np.require(diag_mass, np.float64, "CA")
        _check_csr(self.n, self.indptr, self.indices, self.data,
                   self.diag_mass)
        # A scanned graph keeps its labels' bytes for the label scan and
        # the row writer.
        self.node_labels = (node_labels
                            if isinstance(node_labels, _native.Labels)
                            else list(node_labels))
        self._index = dict(zip(self.node_labels, range(len(self.node_labels))))
        if len(self._index) != self.n:
            raise ValueError(f"expected {self.n} distinct node labels, got "
                             f"{len(self._index)}")
        row_mass = np.add.reduceat(
            np.append(self.data, 0.0), self.indptr[:-1]
        )
        row_mass[np.diff(self.indptr) == 0] = 0.0
        self.marginal = row_mass + self.diag_mass

    @property
    def total_mass(self):
        return float(self.data.sum() + self.diag_mass.sum())

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

    def pair_mass(self, u, w):
        """p(u, w) by index."""
        self._check_index(u)
        self._check_index(w)
        if u == w:
            return float(self.diag_mass[u])
        s, e = self.indptr[u], self.indptr[u + 1]
        pos = np.searchsorted(self.indices[s:e], w)
        if pos < e - s and self.indices[s + pos] == w:
            return float(self.data[s + pos])
        return 0.0

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
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = rows < self.indices
        loops = np.flatnonzero(self.diag_mass > 0.0)
        u = np.concatenate([loops, rows[upper]])
        w = np.concatenate([loops, self.indices[upper]])
        mass = np.concatenate([self.diag_mass[loops],
                               2.0 * self.data[upper]])
        order = np.lexsort((w, u))
        return u[order], w[order], mass[order]

    def _check_index(self, u):
        if not 0 <= u < self.n:
            raise IndexError(f"node index {u} out of range [0, {self.n})")


def _check_csr(n, indptr, indices, data, diag_mass):
    """Raise ValueError unless the arrays are an n x n CSR matrix with no
    diagonal entry and strictly rising columns in every row, plus a
    length-n diagonal."""
    m = indices.size
    if indptr.ndim != 1 or n < 0 or indices.ndim != 1 or (
            data.shape != indices.shape or diag_mass.shape != (n,)):
        raise ValueError(
            f"expected 1-D indptr, indices and data of one length and "
            f"{n} diagonal masses, got shapes {indptr.shape}, "
            f"{indices.shape}, {data.shape} and {diag_mass.shape}")
    if indptr[0] != 0 or indptr[-1] != m or (indptr[1:] < indptr[:-1]).any():
        raise ValueError(f"indptr must rise from 0 to {m}")
    if m and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(f"column indices must lie in [0, {n})")
    rows = np.repeat(np.arange(n), np.diff(indptr))
    if (rows == indices).any():
        raise ValueError("the diagonal mass belongs in diag_mass, not in "
                         "the CSR arrays")
    if not ((indices[1:] > indices[:-1]) | (rows[1:] > rows[:-1])).all():
        raise ValueError("column indices must rise strictly within each row")


def _indptr(counts):
    """CSR row pointers for the per-row entry counts, as int64."""
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


class Aggregate:
    """Running aggregate A = F^T H that the sweeps keep beside H: F is a
    graph's marginal (A a K-vector) or a cloud's n x L coordinates (A is
    L x K).  A row's covariance is then its sparse neighborhood, or its
    coordinates, against A instead of a full pass over the nodes; update
    keeps A in step as a row changes, in O(L K).
    """

    def __init__(self, F, H):
        self.F = F
        self.A = F.T @ H

    def update(self, u, delta_row):
        self.A += np.multiply.outer(self.F[u], delta_row)


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

    def zero_diagonal(self):
        return ModularityMatrix(self.graph, diag_zeroed=True)

    def full_diagonal(self):
        return ModularityMatrix(self.graph)

    def apply(self, H, shift=0.0, shifted=None, keep=True):
        """Q @ H without materializing Q.  Every entry is the sparse
        part, its row's stored entries summed in order from 0.0, minus
        the rank-one correction pi_i * (pi @ H)_k, plus the diagonal mass
        times H's entry, in that order.  The compiled library forms it
        in one pass over the rows (`_native.apply`); without it, numpy
        sums the k-th stored entry of every row at step k, then subtracts
        and adds the last two terms over the whole block.  Both give the
        same bytes, but for the sign of a NaN made where NaNs of both
        signs meet.

        With `shifted`, a C-order K x n float64 array, the block that
        orthogonal iteration factors next, (shift * H + Q @ H)^T, is also
        stored there, each entry by np.multiply then np.add; the compiled
        pass stores it as it forms each row.
        keep=False returns None, and the compiled pass then holds only
        one row of Q @ H at a time."""
        H = np.asarray(H, dtype=float)
        squeeze = H.ndim == 1
        if squeeze:
            H = H[:, None]
        g = self.graph
        if H.ndim != 2 or H.shape[0] != g.n:
            raise ValueError(f"expected {g.n} rows, got shape {H.shape}")
        pi = g.marginal
        c = pi @ H
        diag = pi ** 2 if self.diag_zeroed else g.diag_mass
        out = _native.apply(g, H, c, diag, shift, shifted, keep)
        if out is None:
            out = np.zeros(H.shape)
            counts = np.diff(g.indptr)
            rows = np.arange(g.n)
            for k in range(int(counts.max(initial=0))):
                rows = rows[counts[rows] > k]
                at = g.indptr[rows] + k
                out[rows] += g.data[at, None] * H[g.indices[at]]
            out -= np.outer(pi, c)
            out += diag[:, None] * H
            if shifted is not None:
                np.multiply(shift, H.T, out=shifted)
                np.add(shifted, out.T, out=shifted)
        if not keep:
            return None
        return out[:, 0] if squeeze else out

    def make_aggregate(self, H):
        return Aggregate(self.graph.marginal, H)

    def row_cost(self, rows):
        """Stored entries touched forming the covariances of `rows`."""
        return int(np.diff(self.graph.indptr)[rows].sum())

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
        z -= pi_u * (agg.A - pi_u * H[u])
        return z

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
        if self.n > _DENSE_LIMIT:
            raise ValueError(
                f"refusing to densify at n={self.n} (> {_DENSE_LIMIT})")
        g = self.graph
        Q = np.zeros((g.n, g.n))
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        np.add.at(Q, (rows, g.indices), g.data)
        Q += np.diag(g.diag_mass)
        Q -= np.outer(g.marginal, g.marginal)
        if self.diag_zeroed:
            np.fill_diagonal(Q, 0.0)
        return Q


def _from_edges(ends, weights, nodes=None):
    """The tail of `from_edge_list` and `load_edge_list`'s line loop, from
    the endpoint labels u0, w0, u1, w1, ... and the edge weights."""
    weights = np.array(weights)
    invalid = np.flatnonzero((weights < 0.0) | ~np.isfinite(weights))
    if invalid.size:
        k = invalid[0]
        raise ValueError(f"invalid weight {float(weights[k])!r} on edge "
                         f"({ends[2 * k]!r}, {ends[2 * k + 1]!r})")
    if not weights.size:
        raise ValueError("empty graph: no edges")
    ids, labels = _label_ids(ends, nodes)
    return _from_ids(ids, weights, labels)


def _label_ids(labels, nodes):
    """(int64 indices of `labels`, indexed labels in index order), with
    indices handed out in first-appearance order, declared `nodes` (or
    None) first."""
    index = defaultdict(count().__next__)
    if nodes is not None:
        for lab in nodes:
            index[lab]
    ids = np.fromiter(map(index.__getitem__, labels), np.int64, len(labels))
    return ids, list(index)


def _from_ids(ids, weights, labels):
    """Build a sampled graph from the flat int64 label indices u0, w0,
    u1, w1, ... of its edges, their validated weights and the labels.
    Both `load_edge_list` paths and `from_edge_list` build through it:
    the compiled library builds the arrays (`_native.build`), and
    `_csr_of_ids` does without it, with the same bytes."""
    n = len(labels)
    arrays = _native.build(ids, weights, n)
    if arrays is None:
        arrays = _csr_of_ids(ids, weights, n)
    return SampledGraph(*arrays, labels)


def _csr_of_ids(ids, weights, n):
    """(indptr, indices, data, diag_mass) for `_from_ids` with numpy.

    Weights of the same unordered pair sum in input order and the total
    sums the positive pair weights left to right in first-appearance
    order, so every stored mass is rounded the same way whatever the
    edge count.
    """
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
    # Each pair in both directions, (i, j) then (j, i), sorted by row and
    # column; the keys are distinct, so any sort gives the same order.
    key = np.concatenate([i * n + j, j * n + i])
    order = np.argsort(key)
    indices = key[order]
    indices %= n
    del key
    indptr = _indptr(np.bincount(i, minlength=n) + np.bincount(j, minlength=n))
    # order < p.size picks p[order], the rest p[order - p.size].
    return indptr, indices, np.take(p, order, mode="wrap"), diag


def from_edge_list(edges, nodes=None):
    """Build a sampled graph from weighted edges.

    Each edge is (u, w) or (u, w, weight) with hashable node labels and
    weight defaulting to 1.0.  Directed duplicates and multi-edges sum;
    the result is symmetrized, p(u, w) = (wt(u, w) + wt(w, u)) / (2 W).
    `nodes` optionally declares labels up front (so isolated nodes exist,
    with zero marginals) and fixes their index order.

    Raises ValueError on a malformed edge, a bad weight or an empty graph.
    """
    ends, weights = [], []
    for edge in edges:
        if len(edge) == 2:
            u, w = edge
            wt = 1.0
        else:
            u, w, wt = edge
            wt = float(wt)
        ends += (u, w)
        weights.append(wt)
    return _from_edges(ends, weights, nodes)


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
    off = P - np.diag(diag)
    rows, indices = np.nonzero(off)
    return SampledGraph(_indptr(np.bincount(rows, minlength=n)), indices,
                        off[rows, indices], diag, node_labels)


def load_edge_list(path):
    """Read a whitespace-separated edge list: `u w [weight]` per line,
    UTF-8, lines whose first nonblank character is `#` ignored.  Labels
    are arbitrary strings, indexed in first-appearance order.  Errors
    name the first offending line; a negative or non-finite weight is
    rejected once the whole file has parsed.

    The compiled scanner reads the file when it can (see `_native.scan`)
    and hands out label indices itself.  Otherwise the line loop below
    reads it, with the same result or error.
    """
    scanned = _native.scan("edges", path)
    if scanned is not None:
        return _from_ids(*scanned)
    ends, weights = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields or fields[0][0] == "#":
                continue
            if len(fields) == 2:
                weights.append(1.0)
            elif len(fields) == 3:
                try:
                    weights.append(float(fields[2]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad weight "
                                     f"{fields[2]!r}") from None
            else:
                raise ValueError(f"{path}:{lineno}: expected 'u w [weight]', "
                                 f"got {len(fields)} fields")
            ends += fields[:2]
    return _from_edges(ends, weights)


def save_edge_list(path, graph):
    """Write unique undirected pairs with their total pair mass as weight.

    The absolute scale is the stored probability mass, so a round trip
    reproduces the same distribution (weights renormalize to themselves).
    A pair whose first label starts with `#`, a comment to
    `load_edge_list`, is written the other way round.  Labels that
    cannot be read back (empty text or whitespace, text that is not
    UTF-8, two nodes with one text, two `#` labels in a pair) raise
    before the file is opened.
    """
    u, w, mass = graph._pair_weights()
    labels = graph.node_labels
    text = {}
    for i in np.unique(np.append(u, w)).tolist():
        t = str(labels[i])
        if t.split() != [t]:
            raise ValueError(f"node label {labels[i]!r} is empty or holds "
                             f"whitespace")
        try:
            t.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"node label {labels[i]!r} does not encode "
                             f"as UTF-8") from None
        if text.setdefault(t, i) != i:
            raise ValueError(f"node labels {labels[text[t]]!r} and "
                             f"{labels[i]!r} both write as {t!r}")
    hashed = np.zeros(len(labels), dtype=bool)
    hashed[[i for t, i in text.items() if t[0] == "#"]] = True
    both = np.flatnonzero(hashed[u] & hashed[w])
    if both.size:
        a, b = u[both[0]], w[both[0]]
        raise ValueError(f"edge ({labels[a]!r}, {labels[b]!r}): both node "
                         f"labels start with '#'")
    u, w = np.where(hashed[u], w, u), np.where(hashed[u], u, w)
    _write_rows(path, mass[:, None],
                ("%s\t%s" % (labels[a], labels[b])
                 for a, b in zip(u.tolist(), w.tolist())))


# Rows formatted per write call: enough to amortize the call, few enough
# that the block's buffers stay a few megabytes.
_WRITE_ROWS = 4096


@contextlib.contextmanager
def _new_file(path):
    """open(path, "wb") that removes the file when the block raises, so
    a failed write leaves no partial file behind."""
    with open(path, "wb") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def _write_rows(path, rows, labels):
    """Write `label<TAB>v1<TAB>...<TAB>vC` per row of the array `rows`,
    each value as Python's '%.17g', labels as `str()` in UTF-8, taken in
    order from the iterable `labels`; the compiled path copies the bytes
    of scanned `_native.Labels`, one per row, which are those same bytes.

    One loop writes a block of rows at a time.  Rows of bool, integers
    or floats up to float64 are converted to float64 (exactly, or
    rounded as Python's int -> float) and formatted by the compiled
    library; other rows, or no library, take Python's `%` format, with
    the same bytes.  An array that is not 2-D raises ValueError before
    the file is opened; a write that raises removes the file.
    """
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got shape "
                         f"{rows.shape}")
    n, c = rows.shape
    # Labels a scan read are written from their bytes.
    scanned = (labels.joined if isinstance(labels, _native.Labels) and
               len(labels) == n else None)
    labels = iter(labels)
    kind, size = rows.dtype.kind, rows.dtype.itemsize
    format_rows = (_native.row_formatter()
                   if kind in "iub" or (kind == "f" and size <= 8) else None)
    line = "%s\t" + "\t".join(["%.17g"] * c) + "\n"
    with _new_file(path) as fh:
        for start in range(0, n, _WRITE_ROWS):
            block = rows[start:start + _WRITE_ROWS]
            if format_rows is None:
                # zip ends on the block without taking another label.
                fh.write("".join(line % (lab, *row) for row, lab in zip(
                    block.tolist(), labels)).encode("utf-8"))
                continue
            k = len(block)
            if scanned is not None:
                names, offsets = scanned
                offsets = offsets[start:start + k + 1]
            else:
                # zip(range(k), labels) ends on the range without taking
                # another label; fromiter's count rejects a short one.
                names = [str(lab).encode("utf-8")
                         for _, lab in zip(range(k), labels)]
                offsets = np.zeros(k + 1, dtype=np.intp)
                np.cumsum(np.fromiter(map(len, names), np.intp, k),
                          out=offsets[1:])
                names = b"".join(names)
            fh.write(format_rows(block, names, offsets))
