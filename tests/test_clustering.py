"""Softmax clustering: per-update monotonicity, aggregates, and edge cases."""

import numpy as np
import pytest

from modembed import clustering, datasets, graph, pointcloud, sphere
from modembed.clustering import (
    ClusterConfig,
    HARD_THETA,
    hard_labels,
    init_assignment,
    run,
    softmax_update,
)

from conftest import (
    dense_masses,
    dense_modularity,
    graph_from,
    objective_dense,
    random_edges,
)


def test_config_validation():
    with pytest.raises(ValueError, match="n_clusters"):
        ClusterConfig(n_clusters=0)
    with pytest.raises(ValueError, match="theta"):
        ClusterConfig(n_clusters=2, theta=0.0)
    with pytest.raises(ValueError, match="theta"):
        ClusterConfig(n_clusters=2, theta=-1.0)
    # An infinite theta makes the softmax update NaN.
    for theta in (np.inf, np.nan):
        with pytest.raises(ValueError, match="theta must be positive and "
                                             "finite"):
            ClusterConfig(n_clusters=2, theta=theta)
    with pytest.raises(ValueError, match="max_sweeps"):
        ClusterConfig(n_clusters=2, max_sweeps=0)
    for tol in (np.nan, -1e-9, np.inf):
        with pytest.raises(ValueError, match="tol must be >= 0 and finite"):
            ClusterConfig(n_clusters=2, tol=tol)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ClusterConfig(n_clusters=2, seed=-1)
    ClusterConfig(n_clusters=2, theta=1e300, tol=0.0)
    ClusterConfig(n_clusters=2, tol=1e300, seed=0)


def test_init_rows_are_pmfs():
    config = ClusterConfig(n_clusters=5, seed=9)
    a = init_assignment(40, config, pinned={3: 2})
    assert np.abs(a.H.sum(axis=1) - 1.0).max() < 1e-12
    assert (a.H >= 0.0).all()
    assert a.H[3, 2] == 1.0 and a.H[3].sum() == 1.0
    # Seeded: same config reproduces bit-identically.
    b = init_assignment(40, config, pinned={3: 2})
    assert np.array_equal(a.H, b.H)


def test_init_pin_bounds():
    config = ClusterConfig(n_clusters=3)
    with pytest.raises(IndexError):
        init_assignment(5, config, pinned={9: 0})
    with pytest.raises(IndexError):
        init_assignment(5, config, pinned={0: 7})


def test_every_update_is_monotone():
    """The objective never drops after any single row update.

    Recomputed densely from scratch after each of the n updates per
    sweep, on graphs with weights and self loops, across temperatures.
    """
    rng = np.random.default_rng(123)
    for trial in range(6):
        n = int(rng.integers(8, 40))
        edges = random_edges(rng, n, weighted=True, self_loops=True)
        g = graph_from(edges, n)
        Qdz = dense_modularity(dense_masses(edges, n), zero_diag=True)
        Q = g.modularity_matrix(diag_zeroed=True)
        for theta in (1.0, 10.0, 100.0):
            config = ClusterConfig(n_clusters=4, theta=theta, seed=trial)
            a = init_assignment(n, config)
            agg = Q.make_aggregate(a.H)
            obj = objective_dense(Qdz, a.H)
            for _ in range(3):
                for u in range(n):
                    z = Q.row_covariance(a.H, agg, u)
                    softmax_update(a.H, u, z, theta, agg)
                    after = objective_dense(Qdz, a.H)
                    assert after >= obj - 1e-12, (
                        f"objective dropped at node {u}: {obj} -> {after}"
                    )
                    obj = after


def test_rows_stay_stochastic_through_run(karate):
    Q = karate.modularity_matrix()
    result = run(Q, ClusterConfig(n_clusters=6, theta=20.0, seed=1))
    H = result.assignment.H
    assert np.abs(H.sum(axis=1) - 1.0).max() < 1e-12
    assert (H >= 0.0).all()


def test_run_trace_monotone_and_converges(karate):
    # Soft fixed points are approached geometrically, so give the sweep
    # cap slack well beyond the observed ~300 needed at this setting.
    Q = karate.modularity_matrix()
    result = run(Q, ClusterConfig(n_clusters=5, theta=50.0, seed=0,
                                  max_sweeps=600))
    trace = result.objective_trace
    assert result.converged
    assert result.objective == trace[-1]
    assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))
    assert len(trace) == result.sweeps


def test_ops_counter_matches_degrees(karate):
    """Per-sweep op count is sum over visited nodes of deg(u) + K."""
    Q = karate.modularity_matrix()
    K = 4
    expected = karate.indices.size + karate.n * K  # every node unpinned
    result = run(Q, ClusterConfig(n_clusters=K, theta=10.0, seed=2))
    assert all(ops == expected for ops in result.ops_per_sweep)

    pinned = {0: 0, 5: 1}
    deg0, deg5 = np.diff(karate.indptr)[[0, 5]]
    result = run(Q, ClusterConfig(n_clusters=K, theta=10.0, seed=2),
                 pinned=pinned)
    expected_pinned = expected - (deg0 + K) - (deg5 + K)
    assert all(ops == expected_pinned for ops in result.ops_per_sweep)


def test_pinned_rows_never_move(karate):
    Q = karate.modularity_matrix()
    pinned = {0: 0, 33: 1}
    result = run(Q, ClusterConfig(n_clusters=3, theta=40.0, seed=4),
                 pinned=pinned)
    H = result.assignment.H
    assert H[0, 0] == 1.0 and H[0].sum() == 1.0
    assert H[33, 1] == 1.0 and H[33].sum() == 1.0


@pytest.mark.parametrize("max_sweeps, tol", [(4, 0.0), (60, 1e-4)])
def test_each_pass_is_one_module_sweep_call(monkeypatch, karate, max_sweeps,
                                            tol):
    """Both pipelines look their sweep up on its module once per pass, so
    a wrapper put there, as a tracer does, sees every pass exactly once,
    whether the cap or the tolerance ends the run."""
    assert sphere.sphere_sweep is not clustering.sweep
    calls = {"sweep": 0, "sphere_sweep": 0}
    for module, name in ((clustering, "sweep"), (sphere, "sphere_sweep")):
        def counted(*args, name=name, original=getattr(module, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    Q = karate.modularity_matrix()
    cloud = pointcloud.torus_cloud(60)
    pipelines = [
        ("sweep", lambda: clustering.run(Q, ClusterConfig(
            n_clusters=3, theta=100.0, max_sweeps=max_sweeps, tol=tol,
            seed=1)).sweeps),
        ("sphere_sweep", lambda: sphere.run_sphere(Q, sphere.SphereConfig(
            n_dims=3, max_sweeps=max_sweeps, tol=tol, seed=1))[2]),
        ("sweep", lambda: pointcloud.reduce_cloud(
            cloud, 3, method="cafe", max_sweeps=max_sweeps, tol=tol).sweeps),
        ("sphere_sweep", lambda: pointcloud.reduce_cloud(
            cloud, 3, method="sphere", max_sweeps=max_sweeps, tol=tol).sweeps),
    ]
    counts = []
    for name, pipeline in pipelines:
        calls.update(sweep=0, sphere_sweep=0)
        sweeps = pipeline()
        assert calls == {"sweep": 0, "sphere_sweep": 0, name: sweeps}
        counts.append(sweeps)
    if tol > 0.0:
        assert min(counts) < max_sweeps  # some run converged before the cap


def test_isolated_node_row_is_fixed():
    """A zero-marginal node sees z = 0, so its row cannot move."""
    g = graph.from_edge_list([(0, 1), (1, 2)], nodes=[0, 1, 2, 3])
    Q = g.modularity_matrix()
    config = ClusterConfig(n_clusters=3, theta=75.0, seed=0)
    before = init_assignment(g.n, config).H[3].copy()
    result = run(Q, config)
    assert np.abs(result.assignment.H[3] - before).max() < 1e-15


def test_underflow_falls_back_to_bare_softmax():
    """A row whose surviving mass underflows is rebuilt from e^{theta z}."""
    H = np.array([[1e-305, 1e-305, 1.0 - 2e-305]])
    z = np.array([800.0, 0.0, 0.0])
    row = softmax_update(H, 0, z, 1.0, graph.Aggregate(np.ones(1), H))
    assert row[0] == 1.0 and row[1] == 0.0 and row[2] == 0.0
    assert np.array_equal(H[0], row)


def test_hard_theta_yields_one_hot(karate):
    Q = karate.modularity_matrix()
    config = ClusterConfig(n_clusters=karate.n, theta=HARD_THETA, seed=0)
    result = run(Q, config)
    H = result.assignment.H
    assert np.array_equal(H.max(axis=1), np.ones(karate.n))
    labels = hard_labels(H)
    # Known seeded optimum: four communities, modularity ~ 0.42.
    assert len(np.unique(labels)) == 4
    assert abs(Q.partition_modularity(labels) - 0.4197896120973044) < 1e-9


def test_hard_labels_tie_breaks_low():
    H = np.array([[0.5, 0.5], [0.2, 0.8]])
    assert hard_labels(H).tolist() == [0, 1]


def test_seed_determinism_and_variation(karate):
    Q = karate.modularity_matrix()
    r1 = run(Q, ClusterConfig(n_clusters=4, theta=30.0, seed=7))
    r2 = run(Q, ClusterConfig(n_clusters=4, theta=30.0, seed=7))
    assert np.array_equal(r1.assignment.H, r2.assignment.H)
    assert r1.objective_trace == r2.objective_trace
    r3 = run(Q, ClusterConfig(n_clusters=4, theta=30.0, seed=8))
    assert not np.array_equal(r1.assignment.H, r3.assignment.H)
