"""Seeded input generators for the benchmark.

The generators live here rather than in `modembed.datasets` so that a
change to the library can never change the benchmark's inputs.  Every
graph is returned as a deduplicated undirected edge array in which every
node has at least one edge: an edge-list file cannot declare an isolated
node, so a label file naming one would be rejected by the CLI.
"""

import numpy as np


def _finish(u, w, n, rng, partner_of):
    """Drop self-loops and duplicates, attach isolated nodes, relabel
    nodes by a random permutation and shuffle the edge order.

    partner_of(v) draws a neighbour for an isolated node v.  Returns
    (edges, perm) where edges is an (m, 2) int array of relabelled
    nodes and perm maps an original node id to its label.
    """
    keep = u != w
    lo = np.minimum(u[keep], w[keep])
    hi = np.maximum(u[keep], w[keep])
    key = np.unique(lo.astype(np.int64) * n + hi)
    lo, hi = key // n, key % n
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    isolated = np.flatnonzero(degree == 0)
    if isolated.size:
        extra = np.array([partner_of(v) for v in isolated], dtype=np.int64)
        lo = np.concatenate([lo, np.minimum(isolated, extra)])
        hi = np.concatenate([hi, np.maximum(isolated, extra)])
    perm = rng.permutation(n)
    edges = np.column_stack([perm[lo], perm[hi]])
    return edges[rng.permutation(len(edges))], perm


def planted_partition(n, blocks, mean_degree, cross_frac, rng):
    """n nodes in equal contiguous blocks; n * mean_degree / 2 edge draws,
    each from a uniform node to a uniform node of its own block or, with
    probability cross_frac, of another block.  Returns (edges, block)
    with block indexed by node label."""
    if n % blocks:
        raise ValueError(f"n={n} is not a multiple of {blocks} blocks")
    size = n // blocks
    m = n * mean_degree // 2
    u = rng.integers(0, n, m)
    bu = u // size
    shift = np.where(rng.random(m) < cross_frac,
                     rng.integers(1, blocks, m), 0)
    w = ((bu + shift) % blocks) * size + rng.integers(0, size, m)

    def partner(v):
        base = (v // size) * size
        return base + (v - base + rng.integers(1, size)) % size

    edges, perm = _finish(u, w, n, rng, partner)
    block = np.empty(n, dtype=np.int64)
    block[perm] = np.arange(n) // size
    return edges, block


def sbm(sizes, p_in, p_out, rng):
    """Stochastic block model over all node pairs.  Returns (edges,
    block) with block indexed by node label."""
    n = int(sum(sizes))
    group = np.repeat(np.arange(len(sizes)), sizes)
    rows, cols = np.triu_indices(n, k=1)
    prob = np.where(group[rows] == group[cols], p_in, p_out)
    mask = rng.random(rows.size) < prob

    def partner(v):
        return (v + rng.integers(1, n)) % n

    edges, perm = _finish(rows[mask], cols[mask], n, rng, partner)
    block = np.empty(n, dtype=np.int64)
    block[perm] = group
    return edges, block


def preferential_attachment(n, m, rng):
    """Linear preferential attachment: node s >= m sends m edges, each to
    the endpoint of a uniformly chosen earlier edge slot, so targets are
    drawn in proportion to degree.  Vectorised by pointer jumping over
    the slot array."""
    total = (n - m) * m
    source = m + np.arange(total) // m
    slot = rng.integers(0, np.maximum(2 * np.arange(total), 1))
    target = np.full(total, -1, dtype=np.int64)
    target[:m] = np.arange(m)
    ptr = slot.copy()
    open_ = np.arange(m, total)
    while open_.size:
        p = ptr[open_]
        even = p % 2 == 0
        target[open_[even]] = source[p[even] // 2]
        odd = open_[~even]
        j = ptr[odd] // 2
        first = j < m
        target[odd[first]] = j[first]
        rest = odd[~first]
        ptr[rest] = slot[j[~first]]
        open_ = rest

    def partner(v):
        return (v + rng.integers(1, n)) % n

    edges, _ = _finish(source, target, n, rng, partner)
    return edges


def torus(n, rng, major=2.0, minor=0.7):
    """n points at uniform random angles on a torus in three dimensions."""
    u = rng.uniform(0.0, 2.0 * np.pi, n)
    v = rng.uniform(0.0, 2.0 * np.pi, n)
    ring = major + minor * np.cos(v)
    return np.column_stack([ring * np.cos(u), ring * np.sin(u),
                            minor * np.sin(v)])


def write_edges(path, edges):
    """`u<TAB>w` per line; node labels are the integer ids."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{a}\t{b}\n" for a, b in edges.tolist()))


def write_labels(path, classes):
    """`node<TAB>cNN` for every node, classes indexed by node label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v}\tc{c:02d}\n"
                         for v, c in enumerate(classes.tolist())))


def write_points(path, points):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(f"{x:.17g}" for x in row) + "\n"
                         for row in points.tolist()))
