"""Built-in graphs and seeded random-graph generators.

The karate-club edge list (Zachary's 34-member club, 78 unweighted
friendships) ships in-repo because several checks pin exact values
against it.  The generators exist for tests and demos; all randomness
flows through an explicit seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "karate_club_edges",
    "clique_edges",
    "barbell_edges",
    "erdos_renyi_edges",
    "sbm_edges",
    "two_level_block_edges",
    "barabasi_albert_edges",
]

_KARATE_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
    (0, 10), (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21),
    (0, 31), (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19),
    (1, 21), (1, 30), (2, 3), (2, 7), (2, 8), (2, 9), (2, 13),
    (2, 27), (2, 28), (2, 32), (3, 7), (3, 12), (3, 13), (4, 6),
    (4, 10), (5, 6), (5, 10), (5, 16), (6, 16), (8, 30), (8, 32),
    (8, 33), (9, 33), (13, 33), (14, 32), (14, 33), (15, 32),
    (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
    (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32),
    (23, 33), (24, 25), (24, 27), (24, 31), (25, 31), (26, 29),
    (26, 33), (27, 33), (28, 31), (28, 33), (29, 32), (29, 33),
    (30, 32), (30, 33), (31, 32), (31, 33), (32, 33),
)


def karate_club_edges():
    """The 78 friendship edges among the 34 club members, 0-indexed."""
    return list(_KARATE_EDGES)


def clique_edges(nodes):
    nodes = list(nodes)
    return [(u, w) for i, u in enumerate(nodes) for w in nodes[i + 1:]]


def barbell_edges(clique_size, path_length=0):
    """Two cliques joined by a path of `path_length` extra nodes (a bare
    bridge edge when zero)."""
    left = list(range(clique_size))
    path = list(range(clique_size, clique_size + path_length))
    right = list(
        range(clique_size + path_length, 2 * clique_size + path_length)
    )
    edges = clique_edges(left) + clique_edges(right)
    chain = [left[-1]] + path + [right[0]]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return edges


def erdos_renyi_edges(n, p, seed):
    """G(n, p) on nodes 0..n-1 as a one-block SBM; the edge list."""
    return sbm_edges([n], [[p]], seed)[0]


def sbm_edges(sizes, block_probs, seed):
    """Stochastic block model: sizes[b] nodes per block, edge probability
    block_probs[a][b] between blocks.  Nodes are numbered contiguously by
    block.  Returns (edges, block_of_node)."""
    sizes = list(sizes)
    P = np.asarray(block_probs, dtype=float)
    if P.shape != (len(sizes), len(sizes)):
        raise ValueError("block_probs must be square in the block count")
    if not np.allclose(P, P.T):
        raise ValueError("block_probs must be symmetric")
    n = sum(sizes)
    block = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(rows.size) < P[block[rows], block[cols]]
    edges = list(zip(rows[mask].tolist(), cols[mask].tolist()))
    return edges, block


def two_level_block_edges(block_size, p_in, p_mid, p_out, seed):
    """Four equal blocks whose pairs (0,1) and (2,3) form two superblocks:
    p_in within blocks, p_mid across blocks of the same superblock, p_out
    across superblocks.  Returns (edges, block_of_node)."""
    P = np.full((4, 4), p_out)
    P[0, 1] = P[1, 0] = P[2, 3] = P[3, 2] = p_mid
    np.fill_diagonal(P, p_in)
    return sbm_edges([block_size] * 4, P, seed)


def barabasi_albert_edges(n, m, seed):
    """Preferential attachment: each new node attaches to m distinct
    earlier nodes chosen proportionally to current degree."""
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    edges = []
    repeated = []
    targets = list(range(m))
    for source in range(m, n):
        edges.extend((source, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
        chosen = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(0, len(repeated)))])
        targets = sorted(chosen)
    return edges
