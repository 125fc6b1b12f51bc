"""Unit-sphere embedding: blend updates, monotonicity, degenerate rows."""

import warnings

import numpy as np
import pytest

from modembed import graph
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
    agg = graph.MarginalAggregate(np.full(2, 0.5), H)
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
    assert np.array_equal(a.H, b.H)
    assert a.objective_trace == b.objective_trace
