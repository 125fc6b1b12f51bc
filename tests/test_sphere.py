"""Unit-sphere embedding: blend updates, monotonicity, degenerate rows."""

import warnings

import numpy as np
import pytest

from modembed import datasets, graph, spectral, tasks
from modembed.sphere import (
    SphereConfig,
    init_sphere,
    run_sphere,
    sphere_embed,
    sphere_update,
)

from conftest import (
    dense_masses,
    dense_modularity,
    graph_from,
    objective_dense,
    random_edges,
)


def test_config_validation():
    with pytest.raises(ValueError, match="n_dims"):
        SphereConfig(n_dims=0)
    with pytest.raises(ValueError, match="beta"):
        SphereConfig(n_dims=2, beta=1.5)
    with pytest.raises(ValueError, match="beta"):
        SphereConfig(n_dims=2, beta=-0.1)
    with pytest.raises(ValueError, match="max_sweeps"):
        SphereConfig(n_dims=2, max_sweeps=0)
    for tol in (float("nan"), -1e-9, float("inf")):
        with pytest.raises(ValueError, match="tol must be >= 0 and finite"):
            SphereConfig(n_dims=2, tol=tol)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SphereConfig(n_dims=2, seed=-1)
    SphereConfig(n_dims=2, tol=0.0, seed=0)
    SphereConfig(n_dims=2, beta=0.0)
    SphereConfig(n_dims=2, beta=1.0)


def test_init_rows_unit_and_seeded():
    H = init_sphere(25, 4, seed=3)
    assert np.abs(np.linalg.norm(H, axis=1) - 1.0).max() < 1e-12
    assert np.array_equal(H, init_sphere(25, 4, seed=3))
    assert not np.array_equal(H, init_sphere(25, 4, seed=4))


def test_every_update_is_monotone():
    """Blending toward z never lowers tr(H^T Q H) for beta in [0, 1].

    The objective keeps the true diagonal: unit rows make that term
    constant, so the dense recompute after every row move must be
    non-decreasing.
    """
    rng = np.random.default_rng(31)
    for trial in range(5):
        n = int(rng.integers(8, 40))
        edges = random_edges(rng, n, weighted=True, self_loops=True)
        g = graph_from(edges, n)
        Qd = dense_modularity(dense_masses(edges, n))
        Q = g.modularity_matrix()
        for beta in (0.1, 0.5, 1.0):
            H = init_sphere(n, 3, seed=trial)
            Q_full = Q.full_diagonal()
            agg = Q_full.make_aggregate(H)
            obj = objective_dense(Qd, H)
            for _ in range(3):
                for u in range(n):
                    z = Q_full.row_covariance(H, agg, u)
                    sphere_update(H, u, z, beta, agg)
                    after = objective_dense(Qd, H)
                    assert after >= obj - 1e-12, (
                        f"beta={beta} node {u}: {obj} -> {after}"
                    )
                    obj = after
            assert np.abs(np.linalg.norm(H, axis=1) - 1.0).max() < 1e-12


def test_run_keeps_unit_rows_and_monotone_trace(karate):
    Q = karate.modularity_matrix()
    H, objective, sweeps, converged, trace, degenerate = run_sphere(
        Q, SphereConfig(n_dims=4, beta=0.5, seed=0)
    )
    assert np.abs(np.linalg.norm(H, axis=1) - 1.0).max() < 1e-12
    assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))
    assert objective == trace[sweeps - 1]
    assert degenerate == 0


def test_degenerate_rows_are_skipped_and_counted():
    """An isolated node sees z = 0; at beta = 1 its blend has no norm."""
    g = graph.from_edge_list([(0, 1), (1, 2)], nodes=[0, 1, 2, 3])
    Q = g.modularity_matrix()
    config = SphereConfig(n_dims=3, beta=1.0, seed=0, max_sweeps=10)
    H0 = init_sphere(g.n, 3, seed=0)[3].copy()
    H, _, sweeps, _, _, degenerate = run_sphere(Q, config)
    assert degenerate == sweeps  # node 3 skipped once per sweep
    assert np.array_equal(H[3], H0)


def test_sphere_update_reports_movement():
    H = init_sphere(2, 3, seed=1)
    agg = graph.Aggregate(np.full(2, 0.5), H)
    moved = sphere_update(H, 0, np.zeros(3), 1.0, agg)
    assert not moved
    moved = sphere_update(H, 0, np.array([1.0, 0.0, 0.0]), 1.0, agg)
    assert moved and np.array_equal(H[0], [1.0, 0.0, 0.0])


def test_sphere_embed_orthonormal(karate):
    Q = karate.modularity_matrix()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # sphere rows are not stochastic
        result = sphere_embed(Q, SphereConfig(n_dims=4, beta=0.5, seed=0))
    Hh = result.embedding.H_hat
    assert Hh.shape == (34, 4)
    assert np.abs(Hh.T @ Hh - np.eye(4)).max() < 1e-10


def test_seed_determinism(karate):
    Q = karate.modularity_matrix()
    a = sphere_embed(Q, SphereConfig(n_dims=3, beta=0.3, seed=5))
    b = sphere_embed(Q, SphereConfig(n_dims=3, beta=0.3, seed=5))
    assert np.array_equal(a.embedding.H_hat, b.embedding.H_hat)
    assert a.objective_trace == b.objective_trace


def test_sphere_at_beta_one_finds_the_planted_eigenspace():
    """The paper's claim on a planted partition: 8 blocks of 250 nodes,
    mean degree 8, 30 % of it across blocks.  Eight capped sweeps at
    beta = 1 put at least 0.6 of the embedding's energy, ||V^T Hhat||_F^2
    / C, in the top-7 eigenspace V of Q (0.67-0.72 on seeds 0-3, against
    0.02 at beta = 0.5), and the embedding classifies the blocks within
    0.05 of the eigenvectors (within 0.02 of their 0.93-0.95 there)."""
    P = np.full((8, 8), 0.3 * 8 / 1750)
    np.fill_diagonal(P, 0.7 * 8 / 249)
    edges, block = datasets.sbm_edges([250] * 8, P, seed=0)
    Q = graph.from_edge_list(edges, nodes=range(2000)).modularity_matrix()
    V = spectral.eigendecompose(Q, k=7).eigenvectors
    H_hat = sphere_embed(Q, SphereConfig(n_dims=8, beta=1.0, max_sweeps=8,
                                         tol=0.0)).embedding.H_hat
    assert np.linalg.norm(V.T @ H_hat) ** 2 / H_hat.shape[1] >= 0.6
    accuracy = [tasks.classify(X, block, repetitions=5).accuracy
                for X in (H_hat, V)]
    assert abs(accuracy[0] - accuracy[1]) <= 0.05, accuracy
