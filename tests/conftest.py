"""Shared fixtures and independent dense oracles.

The oracle helpers below rebuild every quantity from raw edge tuples with
plain dense numpy — no CSR, no incremental aggregates, no code shared with
the package — so tests compare two genuinely different computations.
"""

import numpy as np
import pytest

from modembed import _native, datasets, graph


def dense_masses(edges, n):
    """Dense symmetric pair-mass matrix from raw (u, w[, wt]) int tuples.

    Off-diagonal p(u, w) = (wt(u, w) + wt(w, u)) / (2 W); a self loop
    contributes wt / W because the transpose doubles it before the 2 W
    split.  Node labels must already be 0..n-1.
    """
    W = np.zeros((n, n))
    total = 0.0
    for edge in edges:
        u, w = int(edge[0]), int(edge[1])
        wt = float(edge[2]) if len(edge) == 3 else 1.0
        W[u, w] += wt
        total += wt
    return (W + W.T) / (2.0 * total)


def dense_modularity(P, zero_diag=False):
    """Q = P - pi pi^T from a dense mass matrix; optionally zero the diagonal."""
    pi = P.sum(axis=1)
    Q = P - np.outer(pi, pi)
    if zero_diag:
        np.fill_diagonal(Q, 0.0)
    return Q


def random_edges(rng, n, p=0.2, weighted=False, self_loops=False):
    """Seeded Erdos-Renyi edge tuples on labels 0..n-1, every node present."""
    edges = []
    for u in range(n):
        for w in range(u + 1, n):
            if rng.random() < p:
                if weighted:
                    edges.append((u, w, float(rng.uniform(0.1, 3.0))))
                else:
                    edges.append((u, w))
    if self_loops:
        for u in range(n):
            if rng.random() < 0.1:
                edges.append((u, u, float(rng.uniform(0.1, 1.0))))
    if not edges:
        edges.append((0, min(1, n - 1)))
    return edges


def graph_from(edges, n):
    """Package graph with index order pinned to label order 0..n-1."""
    return graph.from_edge_list(edges, nodes=range(n))


def objective_dense(Q_dense, H):
    """tr(H^T Q H) recomputed densely."""
    return float(np.trace(H.T @ Q_dense @ H))


@pytest.fixture(scope="session")
def karate():
    return graph.from_edge_list(datasets.karate_club_edges())


@pytest.fixture(scope="session")
def karate_dense():
    # Replicate the documented first-appearance index order so positions
    # line up with the karate fixture (node 9 first shows up late).
    edges = datasets.karate_club_edges()
    order = {}
    for u, w in edges:
        for lab in (u, w):
            if lab not in order:
                order[lab] = len(order)
    remapped = [(order[u], order[w]) for u, w in edges]
    return dense_masses(remapped, len(order))


class SkipRecorder:
    """The compiled library with each call that can skip H's zeros
    logged: `modembed_objective` in `objective` as (K, 1 when it summed
    over H's support, 0 when it declined), and `modembed_sweep` in
    `sweeps` as (K, softmax rows that read only their support,
    neighbours scattered from the gather table)."""

    def __init__(self, lib):
        self._lib = lib
        self.objective, self.sweeps = [], []

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def modembed_objective(self, *args):
        summed = self._lib.modembed_objective(*args)
        self.objective.append((args[1], summed))
        return summed

    def modembed_sweep(self, *args):
        counts = args[-1]
        before = counts.copy()
        skipped = self._lib.modembed_sweep(*args)
        self.sweeps.append((args[3], *(int(c) for c in counts - before)))
        return skipped


@pytest.fixture
def zero_skips(monkeypatch):
    """A SkipRecorder that `_native` calls for the test's duration."""
    lib = _native.library()
    if lib is None:
        pytest.skip("no compiled library")
    recorder = SkipRecorder(lib)
    monkeypatch.setattr(_native, "library", lambda: recorder)
    return recorder
