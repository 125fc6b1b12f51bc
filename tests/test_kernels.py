"""Prepared fast paths against the plain implementations they replaced,
which are kept below as oracles.  Sweeps, the QL eigensolver and the
classifier fit must agree bit for bit: every array is compared with
`tobytes()`, every count and trace exactly."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from modembed import clustering, graph, spectral, sphere
from modembed.clustering import ClusterConfig, init_assignment, softmax_update
from modembed.pointcloud import GramOperator
from modembed.sphere import SphereConfig, init_sphere, sphere_update
from modembed.spectral import ConvergenceError
from modembed.tasks import SoftmaxRegression


# --- oracles -----------------------------------------------------------------

def oracle_sweep(Q, assignment, config, aggregate, events=None):
    """The per-row softmax sweep: `row_covariance` + `softmax_update`.

    With `events`, also counts rows where the 1e-300 clamp zeroed an entry
    and rows that fell back to the bare exponentials (total <= 0).
    """
    H = assignment.H
    K = assignment.n_clusters
    ops = 0
    for u in range(assignment.n):
        if u in assignment.pinned:
            continue
        z = Q.row_covariance(H, aggregate, u)
        if events is not None:
            t = config.theta * z
            row = np.exp(t - t.max()) * H[u]
            low = row < 1e-300
            events["clamp"] += bool(low.any() and row[low].any())
            row[low] = 0.0
            events["fallback"] += bool(row.sum() <= 0.0)
        softmax_update(H, u, z, config.theta, aggregate)
        ops += Q.row_cost(u) + K
    return float(np.sum(H * Q.apply(H))), ops


def oracle_run(Q, config, pinned=None):
    Q0 = Q.zero_diagonal()
    assignment = init_assignment(Q0.n, config, pinned=pinned)
    aggregate = Q0.make_aggregate(assignment.H)
    trace, ops_trace = [], []
    previous = float(np.sum(assignment.H * Q0.apply(assignment.H)))
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        objective, ops = oracle_sweep(Q0, assignment, config, aggregate)
        trace.append(objective)
        ops_trace.append(ops)
        if abs(objective - previous) < config.tol:
            converged = True
            previous = objective
            break
        previous = objective
    return assignment.H, previous, sweeps, converged, trace, ops_trace


def oracle_sphere_sweep(Q, H, beta, aggregate):
    degenerate = 0
    for u in range(H.shape[0]):
        z = Q.row_covariance(H, aggregate, u)
        if not sphere_update(H, u, z, beta, aggregate):
            degenerate += 1
    return float(np.sum(H * Q.apply(H))), degenerate


def oracle_run_sphere(Q, config):
    H = init_sphere(Q.n, config.n_dims, seed=config.seed)
    Q_full = Q.full_diagonal()
    aggregate = Q_full.make_aggregate(H)
    trace = []
    degenerate = 0
    previous = float(np.sum(H * Q_full.apply(H)))
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        objective, skipped = oracle_sphere_sweep(Q_full, H, config.beta,
                                                 aggregate)
        degenerate += skipped
        trace.append(objective)
        if abs(objective - previous) < config.tol:
            converged = True
            previous = objective
            break
        previous = objective
    return H, previous, sweeps, converged, trace, degenerate


def oracle_ql(d, e, Z, max_iter=50):
    """Implicit-shift QL on numpy scalars, rotating columns of Z."""
    n = d.size
    e = np.append(e, 0.0)
    for l in range(n):
        for iteration in range(max_iter + 1):
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= np.finfo(float).eps * dd:
                    break
                m += 1
            if m == l:
                break
            if iteration == max_iter:
                raise ConvergenceError(
                    f"QL failed at eigenvalue {l} after {max_iter} shifts"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = np.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + np.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = np.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                col_i = Z[:, i].copy()
                col_i1 = Z[:, i + 1].copy()
                Z[:, i + 1] = s * col_i + c * col_i1
                Z[:, i] = c * col_i - s * col_i1
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d, Z


def oracle_fit(model, X, y):
    """Gradient descent with a fresh array for every intermediate."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    model._mean = X.mean(axis=0)
    std = X.std(axis=0)
    model._scale = np.where(std > 0.0, std, 1.0)
    Z = model._standardize(X)
    m, d = Z.shape
    C = model.n_classes
    Y = np.zeros((m, C))
    Y[np.arange(m), y] = 1.0
    model.W = np.zeros((d, C))
    model.b = np.zeros(C)
    for _ in range(model.iterations):
        P = model._softmax(Z @ model.W + model.b)
        G = P - Y
        model.W -= model.step * (Z.T @ G / m + model.l2 * model.W)
        model.b -= model.step * G.mean(axis=0)
    return model


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ConvergenceError as exc:
        return ConvergenceError, str(exc)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


# --- strategies --------------------------------------------------------------

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

WEIGHT = st.one_of(st.sampled_from([1.0, 0.5, 3.0, 1e-3, 1e3]),
                   st.floats(0.01, 100.0))
THETA = st.one_of(st.sampled_from([1e-6, 1e-3, 1.0, 50.0, 1e4, 1e6, 1e8]),
                  st.floats(-6.0, 8.0).map(lambda x: 10.0 ** x))


@st.composite
def weighted_graph(draw):
    """Small weighted graphs on nodes 0..n-1: self-loops, repeated pairs
    and nodes without edges (zero marginal) all occur."""
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, WEIGHT), min_size=1,
                          max_size=3 * n))
    return graph.from_edge_list(edges, nodes=range(n))


@st.composite
def point_cloud(draw):
    n = draw(st.integers(1, 9))
    L = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=n * L,
                           max_size=n * L))
    return GramOperator(np.array(values).reshape(n, L))


OPERATOR = st.one_of(
    weighted_graph().map(lambda g: g.modularity_matrix()), point_cloud())


@st.composite
def cluster_case(draw):
    Q = draw(OPERATOR)
    K = draw(st.integers(1, Q.n + 3))
    pinned = draw(st.dictionaries(st.integers(0, Q.n - 1),
                                  st.integers(0, K - 1), max_size=Q.n))
    config = ClusterConfig(
        n_clusters=K, theta=draw(THETA), max_sweeps=draw(st.integers(1, 4)),
        tol=draw(st.sampled_from([0.0, 1e-9, 1e-3])),
        seed=draw(st.integers(0, 2 ** 16)),
    )
    return Q, config, pinned


@st.composite
def sphere_case(draw):
    Q = draw(OPERATOR)
    config = SphereConfig(
        n_dims=draw(st.integers(1, Q.n + 3)),
        beta=draw(st.sampled_from([0.0, 0.5, 1.0])),
        max_sweeps=draw(st.integers(1, 4)),
        tol=draw(st.sampled_from([0.0, 1e-9, 1e-3])),
        seed=draw(st.integers(0, 2 ** 16)),
    )
    return Q, config


def _path_graph(n, isolated=0):
    edges = [(u, u + 1, 1.0 + u) for u in range(n - 1)] + [(0, 0, 0.5)]
    return graph.from_edge_list(edges, nodes=range(n + isolated))


# --- softmax sweeps ----------------------------------------------------------

def assert_same_run(Q, config, pinned):
    got = clustering.run(Q, config, pinned=pinned)
    H, objective, sweeps, converged, trace, ops = oracle_run(Q, config,
                                                             pinned)
    assert same_bytes(got.assignment.H, H)
    assert same_bytes(got.objective_trace, trace)
    assert same_bytes(got.ops_per_sweep, ops)
    assert (got.objective, got.sweeps, got.converged) == (
        objective, sweeps, converged)


def assert_same_sweeps(Q, config, pinned, sweeps=3):
    """`sweep` with a kept aggregate, H and the aggregate checked after
    every pass (the prepared kernel is reused from the second on)."""
    Q0 = Q.zero_diagonal()
    fast = init_assignment(Q0.n, config, pinned=pinned)
    slow = init_assignment(Q0.n, config, pinned=pinned)
    fast_agg, slow_agg = Q0.make_aggregate(fast.H), Q0.make_aggregate(slow.H)
    events = {"clamp": 0, "fallback": 0}
    for _ in range(sweeps):
        got = clustering.sweep(Q0, fast, config, fast_agg)
        want = oracle_sweep(Q0, slow, config, slow_agg, events)
        assert got == want and type(got[1]) is int
        assert same_bytes(fast.H, slow.H)
        assert same_bytes(_aggregate(fast_agg), _aggregate(slow_agg))
    return events


def _aggregate(agg):
    return agg.S if isinstance(agg, graph.MarginalAggregate) else agg.W


@SETTINGS
@given(case=cluster_case())
def test_softmax_run_matches_oracle(case):
    assert_same_run(*case)


@SETTINGS
@given(case=cluster_case())
def test_softmax_sweeps_match_oracle(case):
    assert_same_sweeps(*case)


@pytest.mark.parametrize("theta", [1e-6, 1.0, 1e4, 1e5, 1e8])
@pytest.mark.parametrize("K", [1, 2, 9, 17, 140])
def test_softmax_sweeps_match_on_path_graph(theta, K):
    # K = 17 and 140 take numpy's unrolled and recursive pairwise sums.
    Q = _path_graph(12, isolated=2).modularity_matrix()
    config = ClusterConfig(n_clusters=K, theta=theta, seed=3)
    assert_same_sweeps(Q, config, {1: 0, 13: K - 1}, sweeps=4)


def test_clamp_and_fallback_both_fire():
    """The cases above reach both guarded branches of the row update."""
    seen = {"clamp": 0, "fallback": 0}
    for theta in (1e4, 1e5):
        for K in (2, 9):
            Q = _path_graph(12, isolated=2).modularity_matrix()
            config = ClusterConfig(n_clusters=K, theta=theta, seed=3)
            events = assert_same_sweeps(Q, config, {1: 0, 13: K - 1},
                                        sweeps=4)
            for key in seen:
                seen[key] += events[key]
    assert seen["clamp"] > 0 and seen["fallback"] > 0, seen


def test_kept_aggregate_with_a_new_assignment_is_prepared_again(karate):
    """The kernel kept on an aggregate is reused only for the same
    operator, H and pinned rows."""
    Q0 = karate.modularity_matrix(diag_zeroed=True)
    config = ClusterConfig(n_clusters=3, theta=20.0, seed=2)
    first = init_assignment(Q0.n, config)
    agg = Q0.make_aggregate(first.H)
    clustering.sweep(Q0, first, config, agg)
    # Same aggregate object, restarted for a new pinned assignment.
    fast = init_assignment(Q0.n, config, pinned={0: 1})
    agg.S = Q0.make_aggregate(fast.H).S
    slow = init_assignment(Q0.n, config, pinned={0: 1})
    slow_agg = Q0.make_aggregate(slow.H)
    assert clustering.sweep(Q0, fast, config, agg) == oracle_sweep(
        Q0, slow, config, slow_agg)
    assert same_bytes(fast.H, slow.H) and same_bytes(agg.S, slow_agg.S)


def test_kept_kernel_follows_a_rebound_aggregate_array(karate):
    """Rebinding agg.S under the same operator, H and pinned dict keeps
    the kernel, which must then read and update the new array."""
    Q0 = karate.modularity_matrix(diag_zeroed=True)
    config = ClusterConfig(n_clusters=3, theta=20.0, seed=2)
    fast = init_assignment(Q0.n, config, pinned={0: 1})
    slow = init_assignment(Q0.n, config, pinned={0: 1})
    fast_agg, slow_agg = Q0.make_aggregate(fast.H), Q0.make_aggregate(slow.H)
    for _ in range(3):
        assert clustering.sweep(Q0, fast, config, fast_agg) == oracle_sweep(
            Q0, slow, config, slow_agg)
        assert same_bytes(fast.H, slow.H)
        assert same_bytes(fast_agg.S, slow_agg.S)
        fast_agg.S = Q0.make_aggregate(fast.H).S
        slow_agg.S = Q0.make_aggregate(slow.H).S


def test_kept_sphere_kernel_follows_a_rebound_aggregate_array(karate):
    Q = karate.modularity_matrix()
    fast = init_sphere(Q.n, 3, seed=4)
    slow = fast.copy()
    fast_agg, slow_agg = Q.make_aggregate(fast), Q.make_aggregate(slow)
    for _ in range(3):
        assert sphere.sphere_sweep(Q, fast, 0.5, fast_agg) == (
            oracle_sphere_sweep(Q, slow, 0.5, slow_agg))
        assert same_bytes(fast, slow)
        assert same_bytes(fast_agg.S, slow_agg.S)
        fast_agg.S = Q.make_aggregate(fast).S
        slow_agg.S = Q.make_aggregate(slow).S


# --- sphere sweeps -----------------------------------------------------------

def assert_same_sphere(Q, config, sweeps=3):
    got = sphere.run_sphere(Q, config)
    want = oracle_run_sphere(Q, config)
    assert same_bytes(got[0], want[0])
    assert same_bytes(got[4], want[4])
    assert got[1:4] == want[1:4] and got[5] == want[5]

    Q_full = Q.full_diagonal()
    fast = init_sphere(Q.n, config.n_dims, seed=config.seed)
    slow = fast.copy()
    fast_agg = Q_full.make_aggregate(fast)
    slow_agg = Q_full.make_aggregate(slow)
    degenerate = 0
    for _ in range(sweeps):
        result = sphere.sphere_sweep(Q_full, fast, config.beta, fast_agg)
        assert result == oracle_sphere_sweep(Q_full, slow, config.beta,
                                             slow_agg)
        degenerate += result[1]
        assert same_bytes(fast, slow)
        assert same_bytes(_aggregate(fast_agg), _aggregate(slow_agg))
    return degenerate


@SETTINGS
@given(case=sphere_case())
def test_sphere_matches_oracle(case):
    assert_same_sphere(*case)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("K", [1, 3, 17])
def test_sphere_matches_on_path_graph(beta, K):
    Q = _path_graph(12, isolated=2).modularity_matrix()
    assert_same_sphere(Q, SphereConfig(n_dims=K, beta=beta, seed=5))


def test_sphere_degenerate_rows_are_counted_alike():
    # With beta = 1 an isolated node's row is its covariance, which is 0.
    Q = _path_graph(6, isolated=2).modularity_matrix()
    assert assert_same_sphere(Q, SphereConfig(n_dims=3, beta=1.0)) == 6


# --- QL --------------------------------------------------------------------

@st.composite
def symmetric_matrix(draw):
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["dense", "repeated", "sparse", "skewed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    scale = 10.0 ** draw(st.integers(-8, 8))
    if kind == "repeated":
        # Repeated eigenvalues: a rotated diagonal with few distinct values.
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (V * rng.integers(-2, 3, n)) @ V.T / 2.0
    else:
        A = rng.standard_normal((n, n))
        if kind == "sparse":
            A *= rng.random((n, n)) < 0.2
    A = A + A.T
    if kind == "skewed":
        # Slightly asymmetric: the rotations must still match step for step.
        A += 1e-6 * rng.standard_normal((n, n))
    return scale * A


def assert_same_ql(d, e, Z, max_iter=50):
    got = outcome(spectral._ql_implicit, d.copy(), e.copy(), Z.copy(),
                  max_iter=max_iter)
    want = outcome(oracle_ql, d.copy(), e.copy(), Z.copy(),
                   max_iter=max_iter)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert same_bytes(got[1][0], want[1][0])
        assert same_bytes(got[1][1], want[1][1])
    else:
        assert got[1] == want[1]


@SETTINGS
@given(A=symmetric_matrix(), max_iter=st.sampled_from([0, 1, 2, 50]))
@example(A=np.zeros((3, 3)), max_iter=50)
@example(A=np.eye(4), max_iter=0)
def test_ql_matches_oracle(A, max_iter):
    assert_same_ql(*spectral._householder_tridiagonalize(A), max_iter)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("d, e", [
    # A zero off-diagonal beside a NaN does not deflate, so the shift
    # divides by 2 e[l] == 0 and must give numpy's inf/nan.
    ([np.nan, 1.0, 2.0], [0.0, 1.0]),
    ([1.0, np.nan, 2.0], [0.0, 1.0]),
    ([1.0, 2.0, np.nan], [0.0, 0.0]),
    ([1.0, 2.0, 3.0], [np.nan, 1.0]),
    ([np.inf, 1.0, 2.0], [0.0, 1.0]),
    ([np.inf, -np.inf, 2.0], [1.0, 1.0]),
    ([1.0, 2.0, 3.0], [np.inf, 1.0]),
])
def test_ql_matches_oracle_on_nan_and_inf(d, e):
    assert_same_ql(np.array(d), np.array(e), np.eye(3))


def test_ql_mutates_its_arguments():
    A = np.arange(16.0).reshape(4, 4)
    d, e, B = spectral._householder_tridiagonalize(A + A.T)
    d_out, Z_out = spectral._ql_implicit(d, e, B)
    assert d_out is d and Z_out is B


def test_ql_matches_oracle_at_mid_size():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((150, 150))
    d, e, B = spectral._householder_tridiagonalize(A + A.T)
    got = spectral._ql_implicit(d.copy(), e.copy(), B.copy())
    want = oracle_ql(d.copy(), e.copy(), B.copy())
    assert same_bytes(got[0], want[0]) and same_bytes(got[1], want[1])


# --- classifier fit ----------------------------------------------------------

@st.composite
def fit_case(draw):
    m = draw(st.integers(1, 30))
    d = draw(st.integers(1, 5))
    C = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    X = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-3, 4, d)
    X[:, rng.random(d) < 0.2] = 1.5  # constant columns: zero std
    y = rng.integers(0, C, m)
    return X, y, C, draw(st.sampled_from([1, 7, 60]))


@SETTINGS
@given(case=fit_case())
def test_fit_matches_oracle(case):
    X, y, C, iterations = case
    got = SoftmaxRegression(C, iterations=iterations).fit(X, y)
    want = oracle_fit(SoftmaxRegression(C, iterations=iterations), X, y)
    assert same_bytes(got.W, want.W) and same_bytes(got.b, want.b)
    assert same_bytes(got.predict_proba(X), want.predict_proba(X))


def test_fit_matches_oracle_at_default_recipe():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((400, 16))
    y = rng.integers(0, 16, 400)
    got = SoftmaxRegression(16).fit(X, y)
    want = oracle_fit(SoftmaxRegression(16), X, y)
    assert same_bytes(got.W, want.W) and same_bytes(got.b, want.b)
