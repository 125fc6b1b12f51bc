"""Independent checks of the CLI's output files, in numpy and scipy.

Each check returns a list of problems; an empty list means the output
passed.  Nothing here imports modembed, so a library change cannot make
its own output look right.
"""

import hashlib
import os

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg


def read_rows(path):
    """An embedding-style TSV with integer node labels -> (labels, matrix).
    Raises OSError or ValueError on a missing or malformed file."""
    table = np.loadtxt(path, ndmin=2)
    if table.shape[1] < 2:
        raise ValueError(f"{path}: expected a node column and values")
    return table[:, 0].astype(np.int64), table[:, 1:]


def read_named(path):
    """`name<TAB>value[...]` rows -> {name: first value}."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 2:
                values[parts[0]] = float(parts[1])
    return values


def orthonormal(path, n, tol=1e-8, max_cols=None):
    """Rows cover nodes 0..n-1 once and the columns are orthonormal."""
    try:
        labels, M = read_rows(path)
    except (OSError, ValueError) as exc:
        return [f"{os.path.basename(path)}: unreadable ({exc})"]
    problems = []
    if M.shape[0] != n or not np.array_equal(np.sort(labels), np.arange(n)):
        problems.append(f"{os.path.basename(path)}: rows do not cover the "
                        f"{n} nodes once")
    if max_cols is not None and M.shape[1] > max_cols:
        problems.append(f"{os.path.basename(path)}: {M.shape[1]} columns, "
                        f"at most {max_cols} expected")
    err = float(np.abs(M.T @ M - np.eye(M.shape[1])).max())
    if not err <= tol:
        problems.append(f"{os.path.basename(path)}: ||H^T H - I||_max = "
                        f"{err:.3g} > {tol:g}")
    return problems


def modularity_operator(edges, n):
    """The modularity matrix Q = P - pi pi^T of an unweighted simple
    graph as a LinearOperator, with P the symmetric pair mass."""
    m = len(edges)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    P = sparse.csr_array((np.full(2 * m, 1.0 / (2 * m)), (rows, cols)),
                         shape=(n, n))
    pi = np.asarray(P.sum(axis=1)).ravel()

    def matvec(x):
        x = np.asarray(x, dtype=float)
        return P @ x - np.outer(pi, pi @ x).reshape(x.shape)

    return sparse_linalg.LinearOperator((n, n), matvec=matvec,
                                        matmat=matvec, dtype=float)


def top_eigenvalues(edges, n, k):
    """Leading k eigenvalues of Q, descending, from ARPACK."""
    v0 = np.random.default_rng(0).standard_normal(n)
    values = sparse_linalg.eigsh(modularity_operator(edges, n), k=k,
                                 which="LA", tol=1e-13, v0=v0,
                                 return_eigenvectors=False)
    return np.sort(values)[::-1]


def eigenvalues(path, reference, rtol=1e-8):
    """The `rank<TAB>value` file matches the reference values."""
    try:
        table = np.loadtxt(path, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"{os.path.basename(path)}: unreadable ({exc})"]
    got = table[:, 1]
    if got.shape != reference.shape:
        return [f"{os.path.basename(path)}: {got.size} eigenvalues, "
                f"{reference.size} expected"]
    err = float(np.abs(got - reference).max() / np.abs(reference).max())
    if not err <= rtol:
        return [f"{os.path.basename(path)}: eigenvalues off by {err:.3g} "
                f"relative > {rtol:g}"]
    return []


def modularity(edges, n, partition):
    """Newman modularity of a hard partition of an unweighted graph."""
    part = np.asarray(partition)
    degree = np.bincount(edges.ravel(), minlength=n).astype(float)
    two_m = 2.0 * len(edges)
    inside = float(np.count_nonzero(part[edges[:, 0]] == part[edges[:, 1]]))
    mass = np.bincount(part, weights=degree) / two_m
    return inside / len(edges) - float(mass @ mass)


def argmax_partition(path, n):
    """Row argmax of an assignment TSV, indexed by node label."""
    labels, H = read_rows(path)
    part = np.empty(n, dtype=np.int64)
    part[labels] = np.argmax(H, axis=1)
    return part


def hierarchy(membership_path, edges, n, reported):
    """Levels of a multilayer membership file: each coarser partition is
    an exact merge of the finer one, and modularity, recomputed from the
    edges, matches the reported value and strictly increases.  Returns
    (problems, best modularity)."""
    name = os.path.basename(membership_path)
    try:
        labels, M = read_rows(membership_path)
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable ({exc})"], None
    if not np.array_equal(np.sort(labels), np.arange(n)):
        return [f"{name}: rows do not cover the {n} nodes once"], None
    parts = np.empty((n, M.shape[1]), dtype=np.int64)
    parts[labels] = M.astype(np.int64)
    problems = []
    values = [modularity(edges, n, parts[:, j]) for j in range(M.shape[1])]
    if len(reported) != len(values):
        problems.append(f"{name}: {len(values)} levels, manifest reports "
                        f"{len(reported)}")
    else:
        for level, (mine, theirs) in enumerate(zip(values, reported)):
            if abs(mine - theirs) > 1e-9:
                problems.append(f"level {level}: modularity {theirs!r} "
                                f"reported, {mine!r} recomputed")
    for level in range(1, len(values)):
        if not values[level] > values[level - 1]:
            problems.append(f"level {level}: modularity does not increase")
        fine, coarse = parts[:, level - 1], parts[:, level]
        pairs = np.unique(np.column_stack([fine, coarse]), axis=0)
        if len(pairs) != len(np.unique(fine)):
            problems.append(f"level {level}: not an exact merge of level "
                            f"{level - 1}")
    return problems, max(values) if values else None


def digests(directory, names):
    """sha256 of each named output file."""
    result = {}
    for name in names:
        digest = hashlib.sha256()
        with open(os.path.join(directory, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        result[name] = digest.hexdigest()
    return result
