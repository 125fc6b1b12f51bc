"""Built-in graph generators: determinism and structural facts."""

import numpy as np
import pytest

from modembed import datasets, graph


def test_karate_is_the_standard_instance():
    edges = datasets.karate_club_edges()
    assert len(edges) == 78
    g = graph.from_edge_list(edges)
    assert g.n == 34


def test_clique_and_barbell():
    assert len(datasets.clique_edges(range(4))) == 6
    edges = datasets.barbell_edges(5)
    g = graph.from_edge_list(edges)
    assert g.n == 10
    assert len(edges) == 2 * 10 + 1  # two K5s plus the bridge
    long = datasets.barbell_edges(3, path_length=2)
    assert graph.from_edge_list(long).n == 8


def test_erdos_renyi_seeded():
    a = datasets.erdos_renyi_edges(30, 0.2, seed=4)
    b = datasets.erdos_renyi_edges(30, 0.2, seed=4)
    assert a == b
    assert a != datasets.erdos_renyi_edges(30, 0.2, seed=5)
    assert all(u < w for u, w in a)


@pytest.mark.parametrize("n, p, seed", [
    (30, 0.2, 4), (0, 0.5, 1), (1, 1.0, 2), (2, 1, 3), (60, 0.1, 9),
    (200, 0.03, 123)])
def test_erdos_renyi_draws_its_former_edges(n, p, seed):
    """The one-block SBM gives the edges of the former G(n, p) sampler."""
    rows, cols = np.triu_indices(n, k=1)
    mask = np.random.default_rng(seed).random(rows.size) < p
    assert datasets.erdos_renyi_edges(n, p, seed) == list(
        zip(rows[mask].tolist(), cols[mask].tolist()))


def test_sbm_block_structure():
    edges, blocks = datasets.sbm_edges([10, 10], [[0.9, 0.05], [0.05, 0.9]],
                                       seed=2)
    assert blocks.tolist() == [0] * 10 + [1] * 10
    within = sum(1 for u, w in edges if blocks[u] == blocks[w])
    assert within > len(edges) * 0.7  # strongly assortative
    with pytest.raises(ValueError):
        datasets.sbm_edges([5, 5], [[0.9, 0.0], [0.1, 0.9]], seed=0)


def test_two_level_blocks():
    edges, blocks = datasets.two_level_block_edges(10, 0.8, 0.3, 0.02,
                                                   seed=1)
    assert blocks.tolist() == sum([[b] * 10 for b in range(4)], [])
    g = graph.from_edge_list(edges, nodes=range(40))
    assert g.n == 40


def test_barabasi_albert():
    edges = datasets.barabasi_albert_edges(200, 3, seed=42)
    assert edges == datasets.barabasi_albert_edges(200, 3, seed=42)
    g = graph.from_edge_list(edges, nodes=range(200))
    assert g.n == 200
    # Every node beyond the seed core attaches to exactly m targets.
    assert len(edges) == (200 - 3) * 3
    degrees = np.zeros(200, dtype=int)
    for u, w in edges:
        degrees[u] += 1
        degrees[w] += 1
    # Preferential attachment produces heavy hubs.
    assert degrees.max() > 3 * np.median(degrees)
    with pytest.raises(ValueError):
        datasets.barabasi_albert_edges(5, 5, seed=0)
