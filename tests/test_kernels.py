"""Prepared and compiled fast paths against the plain implementations
they replaced, which are kept below or in the package as oracles.
Sweeps, the QL and Jacobi eigensolvers, the Householder reduction,
the operator's shifted store, the thin QR and the classifier fit must
agree bit for bit: every array is compared with
`tobytes()`, every count and trace exactly.  Every sweep check runs on
the compiled sweeps and again on the plain rules they fall back to.
The sweeps' row invariants are checked here too, one pass at a time,
and the objective after every single row update."""

import contextlib
import copy
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.linalg import lapack_lite
from scipy import sparse

from modembed import _native, clustering, graph, spectral, sphere, tasks
from modembed.clustering import (
    ClusterConfig, SoftAssignment, init_assignment, softmax_update)
from modembed.embedding import qr_embed
from modembed.pointcloud import GramOperator, center, torus_cloud
from modembed.sphere import SphereConfig, init_sphere, sphere_update
from modembed.spectral import ConvergenceError
from modembed.tasks import SoftmaxRegression


# --- oracles -----------------------------------------------------------------

def oracle_sweep(Q, assignment, config, aggregate, events=None):
    """The per-row softmax sweep: `row_covariance` + `softmax_update`.

    With `events`, also collects the rows where the 1e-300 clamp zeroed an
    entry and the rows that fell back to the bare exponentials
    (total <= 0).
    """
    H = assignment.H
    n, K = H.shape
    ops = 0
    for u in range(n):
        if u in assignment.pinned:
            continue
        z = Q.row_covariance(H, aggregate, u)
        if events is not None:
            t = config.theta * z
            row = np.exp(t - t.max()) * H[u]
            low = row < 1e-300
            if low.any() and row[low].any():
                events["clamp"].add(u)
            row[low] = 0.0
            if row.sum() <= 0.0:
                events["fallback"].add(u)
        softmax_update(H, u, z, config.theta, aggregate)
        # Counted here, not by the `row_cost` under test: the CSR row
        # length for a graph, L for a cloud, plus K.
        ops += K + (Q.X.shape[1] if isinstance(Q, GramOperator) else
                    int(Q.graph.indptr[u + 1] - Q.graph.indptr[u]))
    return float(np.sum(H * Q.apply(H))), ops


def oracle_run(Q, config, pinned=None):
    Q0 = Q.zero_diagonal()
    assignment = init_assignment(Q0.n, config, pinned=pinned)
    aggregate = Q0.make_aggregate(assignment.H)
    trace, ops_trace = [], []
    start = previous = float(np.sum(assignment.H * Q0.apply(assignment.H)))
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
    return assignment.H, start, previous, sweeps, converged, trace, ops_trace


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
    trace, degenerate = [], []
    start = previous = float(np.sum(H * Q_full.apply(H)))
    converged = False
    sweeps = 0
    for sweeps in range(1, config.max_sweeps + 1):
        objective, skipped = oracle_sphere_sweep(Q_full, H, config.beta,
                                                 aggregate)
        degenerate.append(skipped)
        trace.append(objective)
        if abs(objective - previous) < config.tol:
            converged = True
            previous = objective
            break
        previous = objective
    return H, start, previous, sweeps, converged, trace, degenerate


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
    for _ in range(tasks._ITERATIONS):
        P = model._softmax(Z @ model.W + model.b)
        G = P - Y
        model.W -= tasks._STEP * (Z.T @ G / m + tasks._L2 * model.W)
        model.b -= tasks._STEP * G.mean(axis=0)
    return model


def oracle_apply(Q, H):
    """`ModularityMatrix.apply` with whole-matrix temporaries and scipy's
    CSR product."""
    H = np.asarray(H, dtype=float)
    squeeze = H.ndim == 1
    if squeeze:
        H = H[:, None]
    g = Q.graph
    out = sparse.csr_array((g.data, g.indices, g.indptr),
                           shape=(g.n, g.n)) @ H
    pi = g.marginal
    out -= np.outer(pi, pi @ H)
    if Q.diag_zeroed:
        out += (pi ** 2)[:, None] * H
    else:
        out += g.diag_mass[:, None] * H
    return out[:, 0] if squeeze else out


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ConvergenceError as exc:
        return ConvergenceError, str(exc)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


PATHS = ("compiled", "plain")


def sweep_path(path):
    """The compiled sweeps, or the plain rules they fall back to when a
    numpy loop is reported missing."""
    if path == "plain":
        return mock.patch.object(_native, "numpy_loop",
                                 lambda ufunc, types: None)
    return contextlib.nullcontext()


def on_both_paths(check, *args, **kwargs):
    """`check` on the compiled sweeps, then on the plain rules; returns
    both results."""
    results = []
    for path in PATHS:
        with sweep_path(path):
            results.append(check(*args, **kwargs))
    return results


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
    H, start, objective, sweeps, converged, trace, ops = oracle_run(
        Q, config, pinned)
    climb = got.climb
    assert same_bytes(got.assignment.H, H)
    assert same_bytes(climb.start, start)
    assert same_bytes(climb.objective_trace, trace)
    assert same_bytes(climb.counts, ops)
    assert (climb.objective, climb.sweeps, climb.converged) == (
        objective, sweeps, converged)


def softmax_kernel(Q0, assignment, config, aggregate):
    """The kernel `run` prepares, over the unpinned rows; its visit()
    checks that no row was skipped and returns the op count `run` uses."""
    rows = np.delete(np.arange(Q0.n), list(assignment.pinned))
    ops = Q0.row_cost(rows) + config.n_clusters * rows.size
    kernel = clustering._kernel("softmax", softmax_update, Q0, assignment.H,
                                aggregate, rows, config.theta)

    def visit():
        assert kernel() == 0
        return ops

    return visit


def sphere_kernel(Q, H, beta, aggregate):
    """The kernel `run_sphere` prepares, over every row."""
    return clustering._kernel("sphere", sphere_update, Q, H, aggregate,
                              np.arange(Q.n), beta)


def assert_same_sweeps(Q, config, pinned, sweeps=3):
    """`sweep` with a kernel prepared once for all passes, H and the
    aggregate checked after every pass."""
    Q0 = Q.zero_diagonal()
    fast = init_assignment(Q0.n, config, pinned=pinned)
    slow = init_assignment(Q0.n, config, pinned=pinned)
    fast_agg, slow_agg = Q0.make_aggregate(fast.H), Q0.make_aggregate(slow.H)
    visit = softmax_kernel(Q0, fast, config, fast_agg)
    events = {"clamp": set(), "fallback": set()}
    for _ in range(sweeps):
        got = clustering.sweep(Q0, fast.H, visit)
        want = oracle_sweep(Q0, slow, config, slow_agg, events)
        assert got == want and type(got[1]) is int
        assert same_bytes(fast.H, slow.H)
        assert same_bytes(fast_agg.A, slow_agg.A)
    return events


@SETTINGS
@given(case=cluster_case())
def test_softmax_run_matches_oracle(case):
    on_both_paths(assert_same_run, *case)


@SETTINGS
@given(case=cluster_case())
# K = n on a graph and on a cloud.
@example(case=(_path_graph(5, isolated=2).modularity_matrix(),
               ClusterConfig(n_clusters=7, theta=1e4, seed=1), {0: 6}))
@example(case=(GramOperator(center(torus_cloud(9))),
               ClusterConfig(n_clusters=9, theta=2.0, seed=1), {}))
def test_softmax_sweeps_match_oracle(case):
    on_both_paths(assert_same_sweeps, *case)


@pytest.mark.parametrize("theta", [1e-6, 1.0, 1e4, 1e5, 1e8])
@pytest.mark.parametrize("K", [1, 2, 9, 17, 140])
def test_softmax_sweeps_match_on_path_graph(theta, K):
    # K = 17 and 140 take numpy's unrolled and recursive pairwise sums.
    Q = _path_graph(12, isolated=2).modularity_matrix()
    config = ClusterConfig(n_clusters=K, theta=theta, seed=3)
    on_both_paths(assert_same_sweeps, Q, config, {1: 0, 13: K - 1},
                  sweeps=4)


def test_clamp_and_fallback_both_fire():
    """The cases above reach both guarded branches of the row update."""
    seen = {"clamp": 0, "fallback": 0}
    for theta in (1e4, 1e5):
        for K in (2, 9):
            Q = _path_graph(12, isolated=2).modularity_matrix()
            config = ClusterConfig(n_clusters=K, theta=theta, seed=3)
            for events in on_both_paths(assert_same_sweeps, Q, config,
                                        {1: 0, 13: K - 1}, sweeps=4):
                for key in seen:
                    seen[key] += len(events[key])
    assert seen["clamp"] > 0 and seen["fallback"] > 0, seen


# --- sphere sweeps -----------------------------------------------------------

def assert_same_sphere(Q, config, sweeps=3):
    H, climb = sphere.run_sphere(Q, config)
    want_H, start, objective, passes, converged, trace, skipped = (
        oracle_run_sphere(Q, config))
    assert same_bytes(H, want_H)
    assert same_bytes(climb.start, start)
    assert same_bytes(climb.objective_trace, trace)
    assert climb.counts == skipped
    assert (climb.objective, climb.sweeps, climb.converged) == (
        objective, passes, converged)

    Q_full = Q.full_diagonal()
    fast = init_sphere(Q.n, config.n_dims, seed=config.seed)
    slow = fast.copy()
    fast_agg = Q_full.make_aggregate(fast)
    slow_agg = Q_full.make_aggregate(slow)
    visit = sphere_kernel(Q_full, fast, config.beta, fast_agg)
    degenerate = 0
    for _ in range(sweeps):
        result = sphere.sphere_sweep(Q_full, fast, visit)
        assert result == oracle_sphere_sweep(Q_full, slow, config.beta,
                                             slow_agg)
        degenerate += result[1]
        assert same_bytes(fast, slow)
        assert same_bytes(fast_agg.A, slow_agg.A)
    return degenerate


@SETTINGS
@given(case=sphere_case())
@example(case=(_path_graph(5, isolated=2).modularity_matrix(),
               SphereConfig(n_dims=7, beta=0.5, seed=1)))
def test_sphere_matches_oracle(case):
    on_both_paths(assert_same_sphere, *case)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("K", [1, 3, 17])
def test_sphere_matches_on_path_graph(beta, K):
    Q = _path_graph(12, isolated=2).modularity_matrix()
    on_both_paths(assert_same_sphere, Q,
                  SphereConfig(n_dims=K, beta=beta, seed=5))


def test_sphere_degenerate_rows_are_counted_alike():
    # With beta = 1 an isolated node's row is its covariance, which is 0.
    Q = _path_graph(6, isolated=2).modularity_matrix()
    assert on_both_paths(assert_same_sphere, Q,
                         SphereConfig(n_dims=3, beta=1.0)) == [6, 6]


START = st.one_of(st.sampled_from([0.0, -0.0, np.nan, 1e-300, 5e-324, 1.0]),
                  st.floats(-2.0, 2.0))


@st.composite
def any_start(draw):
    """An operator and an arbitrary start H (NaN, -0.0, zero rows and
    subnormals included) for both rules, with pinned rows, theta and
    beta."""
    Q = draw(OPERATOR)
    K = draw(st.integers(1, Q.n + 3))
    H = np.array(draw(st.lists(START, min_size=Q.n * K,
                               max_size=Q.n * K))).reshape(Q.n, K)
    pinned = draw(st.dictionaries(st.integers(0, Q.n - 1),
                                  st.integers(0, K - 1), max_size=Q.n))
    return Q, H, pinned, draw(THETA), draw(st.sampled_from([0.0, 0.5, 1.0]))


def assert_same_from(Q, H, pinned, theta, beta, sweeps=2):
    """Both kernels from the start H against the plain per-row sweeps:
    H, the aggregate and the op or degenerate counts, every pass."""
    config = ClusterConfig(n_clusters=H.shape[1], theta=theta)
    for Qr in (Q.zero_diagonal(), Q.full_diagonal()):
        fast, slow = H.copy(), H.copy()
        fast_agg, slow_agg = Qr.make_aggregate(fast), Qr.make_aggregate(slow)
        if Qr.diag_zeroed:
            visit = softmax_kernel(Qr, SoftAssignment(fast, pinned), config,
                                   fast_agg)
        else:
            visit = sphere_kernel(Qr, fast, beta, fast_agg)
        for _ in range(sweeps):
            if Qr.diag_zeroed:
                want = oracle_sweep(Qr, SoftAssignment(slow, pinned), config,
                                    slow_agg)[1]
            else:
                want = oracle_sphere_sweep(Qr, slow, beta, slow_agg)[1]
            assert visit() == want
            assert same_bytes(fast, slow)
            assert same_bytes(fast_agg.A, slow_agg.A)


@SETTINGS
@given(case=any_start())
@example(case=(GramOperator(np.array([[np.nan, 1.0], [-0.0, 2.0]])),
               np.array([[0.5, -0.0], [np.nan, 1.0]]), {}, 1e4, 0.5))
def test_sweeps_match_oracle_from_any_start(case):
    with np.errstate(all="ignore"):
        on_both_paths(assert_same_from, *case)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiled_sweeps_run_when_a_compiler_is_found(karate, monkeypatch):
    """One library call per pass and no plain rule: the plain rules give
    the same bytes, so only this test sees which path ran."""
    lib = _native.library()
    calls = []

    def spy(*args, _run=lib.modembed_sweep):
        calls.append(("softmax", "sphere")[args[6]])
        return _run(*args)

    monkeypatch.setattr(lib, "modembed_sweep", spy)
    monkeypatch.setattr(clustering, "softmax_update", None)
    monkeypatch.setattr(sphere, "sphere_update", None)
    Q = karate.modularity_matrix()
    clustering.run(Q, ClusterConfig(n_clusters=3, max_sweeps=2, tol=0.0))
    sphere.run_sphere(Q, SphereConfig(n_dims=3, max_sweeps=3, tol=0.0))
    assert calls == ["softmax"] * 2 + ["sphere"] * 3


def edited_struct(monkeypatch, ufunc, **fields):
    """`numpy_loop` reads a copy of the ufunc's struct with `fields`
    changed, and the other ufuncs' structs as they are."""
    struct = _native._UFunc

    class Edited(struct):
        @classmethod
        def from_address(cls, address):
            head = struct.from_buffer_copy(
                ctypes.string_at(address, ctypes.sizeof(struct)))
            if address == id(ufunc):
                for name, value in fields.items():
                    setattr(head, name, value)
            return head

    monkeypatch.setattr(_native, "_UFunc", Edited)


def test_numpy_loop_reads_numpy_own_loops():
    for ufunc, types in ((np.exp, "dd"), (np.add, "ddd"),
                         (np.maximum, "ddd"), (np.matmul, "ddd")):
        assert _native.numpy_loop(ufunc, types) is not None
    assert _native.numpy_loop(np.exp, "ddd") is None
    assert _native.numpy_loop(np.exp, "??") is None
    assert _native.numpy_loop(np.linalg._umath_linalg.det, "dd") is None


def test_numpy_loop_refuses_a_struct_with_another_name(monkeypatch):
    edited_struct(monkeypatch, np.exp, name=b"log")
    assert _native.numpy_loop(np.exp, "dd") is None


@pytest.mark.parametrize("field", ["nargs", "ntypes"])
def test_numpy_loop_refuses_a_struct_with_other_counts(monkeypatch, field):
    edited_struct(monkeypatch, np.add, **{field: 2})
    assert _native.numpy_loop(np.add, "ddd") is None


def test_numpy_loop_refuses_a_loop_that_fails_the_probe(monkeypatch):
    loop, data = _native.numpy_loop(np.sin, "dd")
    count = _native._UFunc.from_address(id(np.exp)).ntypes
    functions = (ctypes.c_void_p * count)(*[loop] * count)
    datas = (ctypes.c_void_p * count)(*[data] * count)
    edited_struct(monkeypatch, np.exp,
                  functions=ctypes.cast(functions,
                                        ctypes.POINTER(ctypes.c_void_p)),
                  data=ctypes.cast(datas, ctypes.POINTER(ctypes.c_void_p)))
    assert _native.numpy_loop(np.exp, "dd") is None
    # Without a loop the kernels take the plain rules.
    H = np.full((3, 2), 0.5)
    Q = graph.from_edge_list([(0, 1), (1, 2)]).modularity_matrix()
    assert _native.sweep("softmax", Q.zero_diagonal(), H,
                         Q.make_aggregate(H), [0], 1.0) is None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_sweep_leaves_arrays_not_in_c_order_to_the_plain_rules():
    """The compiled sweep reads the cloud and A = X^T H row-major, so a
    cloud or an aggregate in another layout takes the plain rules."""
    X = np.random.default_rng(6).standard_normal((9, 3))
    H = np.full((9, 2), 0.5)
    F = np.asfortranarray(X)
    for cloud, layout, compiled in ((X, "C", True), (F, "C", False),
                                    (X, "F", False)):
        Q = GramOperator(cloud)
        aggregate = Q.make_aggregate(H)
        aggregate.A = np.array(aggregate.A, order=layout)
        visit = _native.sweep("softmax", Q, H, aggregate, [0], 1.0)
        assert (visit is not None) == compiled


@SETTINGS
@given(Q=OPERATOR, data=st.data())
def test_one_aggregate_keeps_the_bytes_of_both_former_aggregates(Q, data):
    """Both operators' aggregate is `graph.Aggregate`, A = F^T H, and after
    any row updates it holds the bytes of the two formulas it replaced:
    S = pi @ H, S += pi[u] * delta for a graph's marginal pi and
    W = X^T H, W += outer(X[u], delta) for a cloud X."""
    K = data.draw(st.integers(1, 6))
    value = st.floats(-1e3, 1e3)
    block = st.lists(value, min_size=Q.n * K, max_size=Q.n * K)
    H = np.array(data.draw(block)).reshape(Q.n, K)
    agg = Q.make_aggregate(H)
    assert type(agg) is graph.Aggregate
    is_graph = isinstance(Q, graph.ModularityMatrix)
    if is_graph:
        pi = Q.graph.marginal
        want = pi @ H
    else:
        want = Q.X.T @ H
    assert same_bytes(agg.A, want)
    for u, delta in data.draw(st.lists(st.tuples(
            st.integers(0, Q.n - 1), st.lists(value, min_size=K,
                                              max_size=K)), max_size=8)):
        delta = np.array(delta)
        agg.update(u, delta)
        if is_graph:
            want += pi[u] * delta
        else:
            want += np.outer(Q.X[u], delta)
        assert same_bytes(agg.A, want)


# --- sweep invariants ---------------------------------------------------------

def fallback_rows(Q0, assignment, config, aggregate):
    """Rows whose update in the next pass takes the `total <= 0` branch:
    the pass replayed with the reference rules on copies of H and the
    aggregate."""
    replay = SoftAssignment(assignment.H.copy(), assignment.pinned)
    events = {"clamp": set(), "fallback": set()}
    oracle_sweep(Q0, replay, config, copy.deepcopy(aggregate), events)
    return events["fallback"]


@SETTINGS
@given(case=cluster_case())
# Clamped zeros and pinned rows occur in both, a fallback row in the first.
@example(case=(_path_graph(12, isolated=2).modularity_matrix(),
               ClusterConfig(n_clusters=2, theta=1e5, seed=3), {1: 0, 13: 1}))
@example(case=(_path_graph(6, isolated=2).modularity_matrix(),
               ClusterConfig(n_clusters=3, theta=1e5, seed=0), {1: 0}))
def test_softmax_sweeps_keep_rows_on_the_simplex(case):
    """After every pass: rows are pmfs within 1e-12, pinned rows are
    bitwise one-hot, and an exact zero stays zero unless its row took
    the fallback."""
    on_both_paths(assert_simplex_rows, *case)


def assert_simplex_rows(Q, config, pinned):
    Q0 = Q.zero_diagonal()
    assignment = init_assignment(Q0.n, config, pinned=pinned)
    H = assignment.H
    aggregate = Q0.make_aggregate(H)
    visit = softmax_kernel(Q0, assignment, config, aggregate)
    one_hot = np.eye(config.n_clusters)
    for _ in range(4):
        before = H.copy()
        fallback = fallback_rows(Q0, assignment, config, aggregate)
        clustering.sweep(Q0, H, visit)
        assert (H >= 0.0).all()
        assert np.abs(H.sum(axis=1) - 1.0).max() <= 1e-12
        for u, k in pinned.items():
            assert same_bytes(H[u], one_hot[k])
        revived = ((before == 0.0) & (H != 0.0)).any(axis=1)
        assert set(np.flatnonzero(revived).tolist()) <= fallback


@SETTINGS
@given(Q=OPERATOR, n_dims=st.integers(1, 12), beta=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_sphere_sweeps_keep_unit_rows(Q, n_dims, beta, seed):
    on_both_paths(assert_unit_rows, Q, n_dims, beta, seed)


def assert_unit_rows(Q, n_dims, beta, seed):
    H = init_sphere(Q.n, n_dims, seed=seed)
    visit = sphere_kernel(Q, H, beta, Q.make_aggregate(H))
    for _ in range(4):
        sphere.sphere_sweep(Q, H, visit)
        assert np.abs(np.sqrt((H * H).sum(axis=1)) - 1.0).max() <= 1e-12


@st.composite
def monotone_case(draw):
    """A weighted graph (degree-0 nodes occur), K, pinned rows, theta,
    beta and a seed."""
    g = draw(weighted_graph())
    K = draw(st.integers(1, g.n + 3))
    pinned = draw(st.dictionaries(st.integers(0, g.n - 1),
                                  st.integers(0, K - 1), max_size=g.n))
    return (g.modularity_matrix(), K, pinned, draw(THETA),
            draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2 ** 16)))


def update_row(rule, Q, H, aggregate, u, weight):
    """Row u's update alone: the kernel over the row list [u]."""
    update = softmax_update if rule == "softmax" else sphere_update
    clustering._kernel(rule, update, Q, H, aggregate, [u], weight)()


def assert_monotone_rows(rule, Q, H, rows, weight, passes=2):
    """tr(H^T Q H) never drops after a single row update by more than
    1e-12 of sum |H|^T |Q| |H|, its scale."""
    dense = Q.dense()
    aggregate = Q.make_aggregate(H)
    before = float(np.sum(H * (dense @ H)))
    for _ in range(passes):
        for u in rows:
            update_row(rule, Q, H, aggregate, u, weight)
            after = float(np.sum(H * (dense @ H)))
            scale = float(np.sum(np.abs(H) * (np.abs(dense) @ np.abs(H))))
            assert after >= before - 1e-12 * scale, (u, before, after)
            before = after


@SETTINGS
@given(case=monotone_case())
def test_single_softmax_row_updates_are_monotone(case):
    """With the diagonal zeroed, each row's softmax update alone never
    lowers the objective; pinned rows are not updated."""
    Q, K, pinned, theta, _, seed = case
    Q0 = Q.zero_diagonal()
    config = ClusterConfig(n_clusters=K, theta=theta, seed=seed)
    rows = [u for u in range(Q.n) if u not in pinned]
    for path in PATHS:
        with sweep_path(path):
            H = init_assignment(Q.n, config, pinned=pinned).H
            assert_monotone_rows("softmax", Q0, H, rows, theta)


@SETTINGS
@given(case=monotone_case())
def test_single_sphere_row_updates_are_monotone(case):
    """With the full diagonal and unit rows, each row's sphere update
    alone never lowers the objective."""
    Q, K, _, _, beta, seed = case
    for path in PATHS:
        with sweep_path(path):
            H = init_sphere(Q.n, K, seed=seed)
            assert_monotone_rows("sphere", Q.full_diagonal(), H,
                                 range(Q.n), beta)


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
    with mock.patch.object(spectral, "_QL_SHIFTS", max_iter):
        got = outcome(spectral._ql_implicit, d.copy(), e.copy(), Z.copy())
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


def in_python(fn, *args, **kwargs):
    """`outcome` with the compiled library switched off, so the numpy
    loops run."""
    with mock.patch.object(_native, "library", lambda: None):
        return outcome(fn, *args, **kwargs)


def test_ql_python_loop_matches_oracle():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 40))
    d, e, B = spectral._householder_tridiagonalize(A + A.T)
    got = in_python(spectral._ql_implicit, d.copy(), e.copy(), B.copy())
    want = oracle_ql(d.copy(), e.copy(), B.copy())
    assert got[0] == "ok"
    assert same_bytes(got[1][0], want[0]) and same_bytes(got[1][1], want[1])
    with mock.patch.object(spectral, "_QL_SHIFTS", 1):
        got = in_python(spectral._ql_implicit, d.copy(), e.copy(), B.copy())
    assert got == outcome(oracle_ql, d.copy(), e.copy(), B.copy(),
                          max_iter=1)


# --- Householder reduction ----------------------------------------------------

def assert_same_householder(A):
    """`_householder_tridiagonalize` with the compiled rank updates and
    with the numpy statements: same d, e and B bytes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = spectral._householder_tridiagonalize(A)
        with mock.patch.object(_native, "library", lambda: None):
            want = spectral._householder_tridiagonalize(A)
    for a, b in zip(got, want):
        assert same_bytes(a, b)


def _with_column(n, column, seed=0):
    """A random symmetric n x n matrix whose first column below the
    diagonal (and first row beside it) is `column`."""
    A = np.random.default_rng(seed).standard_normal((n, n))
    A = A + A.T
    A[1:, 0] = A[0, 1:] = column
    return A


def _with_value(i, j, value):
    A = np.arange(36.0).reshape(6, 6)
    A = A + A.T
    A[i, j] = value
    return A


@SETTINGS
@given(A=symmetric_matrix())
# A zero sub-column skips its step (norm_x == 0).
@example(A=_with_column(6, 0.0))
@example(A=np.diag([3.0, -1.0, 2.0, 0.0]))
# The vnorm == 0 branch: |v| >= |x| entry by entry, so once norm_x > 0
# vnorm is too; the nearest case is a sub-column whose squared norm is
# the smallest subnormal, where v[0] doubles it.
@example(A=_with_column(5, [2.2e-162, 0.0, 0.0, 0.0]))
@example(A=_with_column(5, [0.0, 2.2e-162, 0.0, 0.0]))
@example(A=np.ones((1, 1)))
@example(A=np.array([[1.0, 2.0], [2.0, -1.0]]))
@example(A=_with_value(0, 0, np.nan))
@example(A=_with_value(3, 1, np.nan))
@example(A=_with_value(2, 2, np.inf))
@example(A=_with_value(1, 4, -np.inf))
@example(A=_with_column(400, np.linspace(-1.0, 1.0, 399), seed=1))
def test_compiled_householder_matches_the_numpy_loop(A):
    assert_same_householder(A)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_householder_records_its_path():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((12, 12))
    for library, path in ((_native.library, "compiled"),
                          (lambda: None, "python")):
        _native.paths.clear()
        with mock.patch.object(_native, "library", library):
            spectral._householder_tridiagonalize(A + A.T)
        assert _native.paths == {"householder": path}
    # A column-major T is left to the numpy statements, with its bytes.
    _native.paths.clear()
    B = np.asfortranarray(A + 0.5 * A.T)
    assert_same_householder(B)
    assert _native.paths == {"householder": "python"}


# --- Jacobi -------------------------------------------------------------------

def assert_same_jacobi(A, max_sweeps=100):
    """`jacobi_eigh` compiled and in numpy, given up after `max_sweeps`
    sweeps: same bytes or same error."""
    with warnings.catch_warnings(), mock.patch.object(
            spectral, "_JACOBI_SWEEPS", max_sweeps):
        warnings.simplefilter("ignore", RuntimeWarning)
        got = outcome(spectral.jacobi_eigh, A)
        want = in_python(spectral.jacobi_eigh, A)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert same_bytes(got[1].eigenvalues, want[1].eigenvalues)
        assert same_bytes(got[1].eigenvectors, want[1].eigenvectors)
    else:
        assert got[1] == want[1]


@SETTINGS
@given(A=symmetric_matrix(), max_sweeps=st.sampled_from([0, 1, 2, 100]))
def test_jacobi_matches_python_loop(A, max_sweeps):
    assert_same_jacobi(A, max_sweeps)


@pytest.mark.parametrize("i, j, value", [
    (0, 0, np.nan), (0, 2, np.nan), (1, 1, np.inf), (0, 1, np.inf),
    (2, 1, -np.inf), (3, 3, -np.inf),
])
@pytest.mark.parametrize("max_sweeps", [1, 3])
def test_jacobi_matches_python_loop_on_nan_and_inf(i, j, value, max_sweeps):
    A = np.arange(16.0).reshape(4, 4)
    A = A + A.T
    A[i, j] = value
    assert_same_jacobi(A, max_sweeps)


def test_jacobi_matches_python_loop_on_f_order_input():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((30, 30))
    assert_same_jacobi(np.asfortranarray(A + A.T))


# --- operator apply -----------------------------------------------------------

def apply_path(path):
    """`Q.apply` compiled, or on its numpy path when no library loads."""
    if path == "plain":
        return mock.patch.object(_native, "library", lambda: None)
    return contextlib.nullcontext()


# Shapes on both sides of the 8192-value row blocks and across the
# compiled pass's eight-, four- and two-column blocks, K = 0 included.
@pytest.mark.parametrize("n, K", [(5, 0), (9000, 1), (3000, 3), (40, 205),
                                  (7, 8192), (5, 8193)])
@pytest.mark.parametrize("diag_zeroed", [False, True])
def test_apply_matches_oracle(n, K, diag_zeroed):
    Q = _path_graph(n, isolated=2).modularity_matrix(diag_zeroed=diag_zeroed)
    H = np.random.default_rng(n + K).standard_normal((n + 2, K))
    for X in (H, np.asfortranarray(H), H[:, 0] if K else H[:, :0]):
        for path in PATHS:
            with apply_path(path):
                assert same_bytes(Q.apply(X), oracle_apply(Q, X)), path


# Special values come from one family per block.  Where a NaN meets a
# NaN of the other sign (np.nan against the -NaN that inf - inf or
# 0 * inf makes), x86 returns one operand's sign, and numpy's own add
# loop picks a different operand from one position to the next, so no
# two paths could agree on those bytes.
SPECIALS = st.sampled_from([(0.0, -0.0, np.nan), (0.0, -0.0, np.inf, -np.inf)])


@st.composite
def apply_case(draw):
    """A weighted graph (isolated nodes, self-loops and empty rows all
    occur) and a block H over it in C order, F order, with strided
    columns, unaligned or 1-D, K = 1 to 40."""
    g = draw(weighted_graph())
    K = draw(st.integers(1, 40))
    value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(draw(SPECIALS)))
    H = np.array(draw(st.lists(value, min_size=g.n * 2 * K,
                               max_size=g.n * 2 * K))).reshape(g.n, 2 * K)
    layout = draw(st.sampled_from(["C", "F", "strided", "unaligned", "1-D"]))
    if layout == "strided":
        H = H[:, ::2]
    elif layout == "unaligned":
        H = unaligned(H[:, :K], order=draw(st.sampled_from("CF")))
    else:
        H = np.array(H[:, :K], order="F" if layout == "F" else "C")
        if layout == "1-D":
            H = H[:, 0]
    return g.modularity_matrix(diag_zeroed=draw(st.booleans())), H


def unaligned(H, order="C"):
    """A copy of H in the given order whose data start one byte past an
    8-byte boundary."""
    raw = np.zeros(H.size * H.itemsize + 1, np.uint8)[1:]
    shape = H.shape if order == "C" else H.shape[::-1]
    out = raw.view(np.float64).reshape(shape)
    out = out if order == "C" else out.T
    out[...] = H
    assert not out.flags.aligned
    return out


@SETTINGS
@given(case=apply_case(), path=st.sampled_from(PATHS))
def test_apply_matches_oracle_on_any_block(case, path):
    Q, H = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with apply_path(path):
            got = Q.apply(H)
        assert same_bytes(got, oracle_apply(Q, H))


def test_apply_rejects_a_block_of_another_height(karate):
    Q = karate.modularity_matrix()
    for H in (np.ones((karate.n + 1, 2)), np.ones(3), np.ones((karate.n, 2, 2))):
        for path in PATHS:
            with apply_path(path), pytest.raises(ValueError, match="rows"):
                Q.apply(H)


@st.composite
def shifted_case(draw):
    """A weighted graph, an n x K block Z in C order (K = 1 to 13, across
    the eight-, four- and two-column blocks), a shift and whether the step
    checks."""
    g = draw(weighted_graph())
    K = draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    Z = rng.standard_normal((g.n, K)) * 10.0 ** draw(st.integers(-3, 3))
    shift = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                           st.floats(-1e3, 1e3)))
    Q = g.modularity_matrix(diag_zeroed=draw(st.booleans()))
    return Q, Z, shift, draw(st.booleans())


def assert_same_shifted_step(Q, Z, shift, keep):
    """`Q.apply(Z, shift, buf, keep)` on both paths against the numpy
    statements of orthogonal iteration: Y = Q.apply(Z), then
    buf = shift * Z^T and buf += Y^T."""
    Y = oracle_apply(Q, Z)
    want = np.empty(Z.shape[::-1])
    np.multiply(shift, Z.T, out=want)
    np.add(want, Y.T, out=want)
    for path in PATHS:
        buf = np.full(Z.shape[::-1], np.nan)
        with apply_path(path):
            got = Q.apply(Z, shift, buf, keep=keep)
        assert same_bytes(buf, want), path
        assert same_bytes(got, Y) if keep else got is None


@SETTINGS
@given(case=shifted_case())
def test_shifted_store_matches_the_numpy_statements(case):
    assert_same_shifted_step(*case)


@pytest.mark.parametrize("K", range(1, 14))
@pytest.mark.parametrize("keep", [False, True])
def test_shifted_store_matches_at_every_width(karate, K, keep):
    Z = np.random.default_rng(K).standard_normal((karate.n, K))
    assert_same_shifted_step(karate.modularity_matrix(), Z, 0.25, keep)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_shifted_store_records_its_path_and_checks_its_buffer(karate):
    Q = karate.modularity_matrix()
    Z = np.ones((karate.n, 3))
    _native.paths.clear()
    Q.apply(Z, 1.0, np.empty((3, karate.n)), keep=False)
    assert _native.paths == {"apply": "compiled"}
    for buf in (np.empty((karate.n, 3)), np.empty((3, karate.n), order="F"),
                np.empty((3, karate.n), np.float32)):
        with pytest.raises(ValueError, match="shifted"):
            Q.apply(Z, 1.0, buf)
    # The driver checks the objective's product buffer the same way.
    c = karate.marginal @ Z
    for buf in (np.empty((3, karate.n)), np.empty((karate.n, 3), order="F"),
                np.empty((karate.n, 3), np.float32)):
        with pytest.raises(ValueError, match="product"):
            _native.apply(Q, Z, c, keep=False, product=buf)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("name, spoil", [
    ("indices", lambda a: a.astype(np.int32)),
    ("data", lambda a: np.repeat(a, 2)[::2]),
    ("data", unaligned)])
def test_operator_refuses_arrays_the_passes_cannot_read(karate, monkeypatch,
                                                        name, spoil):
    """The record hands C raw pointers, so `_operator` checks each
    array's dtype, order and alignment itself: a CSR array of another
    dtype, order or alignment is refused, and apply, objective and sweep
    take their numpy paths, with the same bytes, without calling into
    C."""
    g = graph.SampledGraph(karate.indptr, karate.indices, karate.data,
                           karate.diag_mass, karate.node_labels)
    Q = g.modularity_matrix()
    H = np.random.default_rng(3).random((g.n, 3))
    want_apply, want_objective = Q.apply(H), clustering._objective(Q, H)
    setattr(g, name, spoil(getattr(g, name)))
    assert _native._operator(Q) is None
    lib = _native.library()
    passes = ("modembed_apply", "modembed_objective", "modembed_sweep")

    class NoPass:
        def __getattr__(self, entry):
            assert entry not in passes, f"{entry} was called"
            return getattr(lib, entry)

    monkeypatch.setattr(_native, "library", NoPass)
    _native.paths.clear()
    assert same_bytes(Q.apply(H), want_apply)
    assert same_bytes(clustering._objective(Q, H), want_objective)
    zeroed = Q.zero_diagonal()
    assert _native.sweep("softmax", zeroed, H, zeroed.make_aggregate(H),
                         [0], 1.0) is None
    assert _native.paths == dict.fromkeys(("apply", "objective", "sweep"),
                                          "python")


# --- trace objective and zero skipping ---------------------------------------

def plain_objective(Q, H):
    """`np.sum(H * Q.apply(H))` with `Q.apply` on its numpy path."""
    with apply_path("plain"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(np.sum(H * Q.apply(H)))


def row_pattern(draw, n, K):
    """An n x K mask of the entries a start holds: every row dense,
    one-hot, two-hot, empty or random, row by row."""
    kind = st.sampled_from(["dense", "one-hot", "two-hot", "empty",
                            "random"])
    mask = np.zeros((n, K), bool)
    for u in range(n):
        pattern = draw(kind)
        if pattern == "dense":
            mask[u] = True
        elif pattern in ("one-hot", "two-hot"):
            mask[u, draw(st.integers(0, K - 1))] = True
            mask[u, draw(st.integers(0, K - 1))] |= pattern == "two-hot"
        elif pattern == "random":
            mask[u] = draw(st.lists(st.booleans(), min_size=K, max_size=K))
    return mask


def masked_start(draw, n, K, value):
    """An n x K block of `value`s held where `row_pattern` draws them,
    -0.0 or +0.0 elsewhere."""
    H = np.array(draw(st.lists(value, min_size=n * K,
                               max_size=n * K))).reshape(n, K)
    H[~row_pattern(draw, n, K)] = draw(st.sampled_from([0.0, -0.0]))
    return H


@st.composite
def objective_case(draw):
    """A weighted graph, either diagonal and a block H with rows of every
    density (empty rows included), K = 1-17 or n, with values from one
    family of specials."""
    g = draw(weighted_graph())
    K = draw(st.one_of(st.integers(1, 17), st.just(g.n)))
    value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(draw(SPECIALS)))
    return (g.modularity_matrix(diag_zeroed=draw(st.booleans())),
            masked_start(draw, g.n, K, value))


# The blocks the objective is handed: any float64 layout (the F-order
# H[:, keep] of `prune_zero_columns` among them), float32 and 1-D.
OBJECTIVE_LAYOUTS = ("C", "F", "columns", "rows", "unaligned C",
                     "unaligned F", "float32", "1-D")


def laid_out(H, layout):
    """H's values in `layout`: C or F order, every other column or row of
    a larger block, unaligned in C or F order, as float32 or its first
    column."""
    n, K = H.shape
    if layout in ("columns", "rows"):
        shape, at = ((n, 2 * K), np.s_[:, 1::2]) if layout == "columns" else (
            (2 * n, K), np.s_[1::2])
        larger = np.full(shape, np.nan)
        larger[at] = H
        return larger[at]
    if layout.startswith("unaligned"):
        return unaligned(H, order=layout[-1])
    if layout == "float32":
        return H.astype(np.float32)
    return H[:, 0] if layout == "1-D" else np.array(H, order=layout)


def one_hot_block(n, K, seed=0):
    H = np.zeros((n, K))
    H[np.arange(n), np.random.default_rng(seed).integers(0, K, n)] = 1.0
    return H


@SETTINGS
@given(case=objective_case(), layout=st.sampled_from(OBJECTIVE_LAYOUTS))
@example(case=(_path_graph(9).modularity_matrix(diag_zeroed=True),
               one_hot_block(9, 9)), layout="C")
@example(case=(_path_graph(9).modularity_matrix(diag_zeroed=True),
               one_hot_block(9, 9)), layout="F")
@example(case=(_path_graph(9).modularity_matrix(), -one_hot_block(9, 17)),
         layout="F")
@example(case=(_path_graph(9).modularity_matrix(),
               np.where(one_hot_block(9, 9) > 0, np.nan, -0.0)), layout="C")
@example(case=(_path_graph(9).modularity_matrix(diag_zeroed=True),
               np.where(one_hot_block(9, 9, 1) > 0, np.inf, 0.0)),
         layout="C")
@example(case=(_path_graph(9).modularity_matrix(), np.zeros((9, 9))),
         layout="C")
def test_objective_entry_matches_the_numpy_statement(case, layout):
    """`_native.objective` and `clustering._objective` give the bytes of
    `np.sum(H * Q.apply(H))` on the numpy path, for H in any layout,
    whether the pass sums over H's support or not; a 1-D H is left to
    the numpy path."""
    Q, H = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        H = laid_out(H, layout)
        want = plain_objective(Q, H)
        got = _native.objective(Q, H)
        assert (got is None) == (layout == "1-D" or
                                 _native.library() is None)
        if got is not None:
            assert same_bytes(got, want)
        assert same_bytes(clustering._objective(Q, H), want)


def test_objective_entry_takes_both_accumulations(zero_skips, karate):
    """One-hot, empty and sparse blocks sum over the support; dense ones,
    and a graph with an infinite weight, take the product store."""
    Q = karate.modularity_matrix()
    n = karate.n
    sparse = one_hot_block(n, n)
    sparse[::3] = 0.0
    dense = np.random.default_rng(1).random((n, 16))
    for H in (sparse, np.zeros((n, 5)), dense, one_hot_block(n, 5)):
        assert same_bytes(_native.objective(Q, H), plain_objective(Q, H))
    assert zero_skips.objective == [(n, 1), (5, 1), (16, 0), (5, 0)]
    g = karate
    inf = graph.SampledGraph(g.indptr, g.indices, np.where(
        np.arange(g.data.size) == 3, np.inf, g.data), g.diag_mass,
        g.node_labels)
    with np.errstate(invalid="ignore"):
        assert same_bytes(_native.objective(inf.modularity_matrix(), sparse),
                          plain_objective(inf.modularity_matrix(), sparse))
    assert zero_skips.objective[-1] == (n, 0)


def test_sparse_objective_allocates_no_block():
    """An objective on a one-hot H forms no n x K array: numpy allocates
    less than n K bytes for the whole call."""
    n = 2000
    g = graph.from_edge_list([(u, (u * 7 + 1) % n) for u in range(n)])
    H = one_hot_block(n, n)
    Q = g.modularity_matrix()
    want = plain_objective(Q, H)
    tracemalloc.start()
    try:
        got = _native.objective(Q, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if _native.library() is not None:
        assert same_bytes(got, want)
        assert peak < n * n


def test_objective_entry_records_its_path_and_declines_other_blocks(karate):
    """Every float64 layout and a float32 block take the compiled pass; a
    1-D block, which the numpy path takes as a column, and one of another
    height, which it rejects, are left to it."""
    Q = karate.modularity_matrix()
    H = np.random.default_rng(2).random((karate.n, 3))
    compiled = "python" if _native.library() is None else "compiled"
    for block in (H, np.asfortranarray(H), H[:, ::-1], H.astype(np.float32),
                  unaligned(H), unaligned(H, order="F")):
        want = plain_objective(Q, block)
        _native.paths.clear()
        assert same_bytes(clustering._objective(Q, block), want)
        assert _native.paths == {"objective": compiled}
    for other in (H[:, 0], np.ones((karate.n + 1, 3))):
        _native.paths.clear()
        assert _native.objective(Q, other) is None
        assert _native.paths == {"objective": "python"}
    assert same_bytes(clustering._objective(Q, H[:, 0]),
                      plain_objective(Q, H[:, 0]))
    with pytest.raises(ValueError, match="rows"):
        clustering._objective(Q, np.ones((karate.n + 1, 3)))
    cloud = GramOperator(center(torus_cloud(9)))
    _native.paths.clear()
    clustering._objective(cloud, np.ones((9, 2)))
    assert _native.paths == {}


# The exp loop is called on a row's support only, compacted to the front
# of a scratch vector: the bytes of each element must not depend on how
# many elements the call takes or where its pointer starts.
def test_numpy_exp_loop_gives_each_element_the_same_bytes_at_any_length():
    rng = np.random.default_rng(29)
    x = np.concatenate([
        -rng.exponential(50.0, 3000),
        -rng.uniform(700.0, 746.0, 1000),  # subnormal and zero results
        rng.uniform(-1.0, 0.0, 1000) * 10.0 ** rng.integers(-300, 1, 1000),
        [0.0, -0.0, -np.inf, -745.1332191019412, -708.3964185322641]])
    want = np.exp(x)
    buffer = np.empty(x.size + 8)
    for trial in range(3000):
        k = int(rng.integers(1, 2001))
        chosen = np.sort(rng.choice(x.size, k, replace=False))
        offset = int(rng.integers(0, 8))
        part = buffer[offset:offset + k]
        part[:] = x[chosen]
        assert same_bytes(np.exp(part), want[chosen]), (trial, k, offset)


# The objective sums a sparse product run by run as np.sum's pairwise
# summation does, skipping the runs that hold only zeros: np.sum of a
# C-order block must be +0.0 plus that split, each run of up to 128
# values summed by the add loop seeded with 0.0 (np.add.reduce).
def pairwise_split_sum(x):
    def part(lo, n):
        if n <= 128:
            run = x[lo:lo + n]
            return np.add.reduce(run) if run.any() else None
        half = n // 2 - n // 2 % 8
        left, right = part(lo, half), part(lo + half, n - half)
        return left if right is None else right if left is None else (
            left + right)

    total = part(0, x.size)
    return 0.0 + (0.0 if total is None else total)


def sparse_block(rng, shape, density):
    """Normal values at `density`, among them some -0.0, and +-0.0
    elsewhere."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, shape)
    x[rng.random(shape) >= density] = 0.0
    x[rng.random(shape) < 0.3] *= -0.0
    return x


def test_numpy_sum_is_the_pairwise_split_with_empty_runs_skipped():
    rng = np.random.default_rng(32)
    for size in range(1, 2001):
        block = sparse_block(rng, (size,), rng.choice([0.01, 0.1, 1.0]))
        assert same_bytes(np.sum(block), pairwise_split_sum(block)), size
    for density in (1e-3, 0.05):
        block = sparse_block(rng, (1500, 1500), density)
        assert same_bytes(np.sum(block), pairwise_split_sum(block.ravel()))
    assert same_bytes(np.sum(np.full((3, 5), -0.0)), 0.0)


def softmax_rows_case(Q, H, pinned, theta):
    """The compiled kernel over each unpinned row alone, against
    `softmax_update` on a copy: H and the aggregate after every row."""
    Q0 = Q.zero_diagonal()
    fast, slow = H.copy(), H.copy()
    fast_agg, slow_agg = Q0.make_aggregate(fast), Q0.make_aggregate(slow)
    for u in range(Q.n):
        if u in pinned:
            continue
        update_row("softmax", Q0, fast, fast_agg, u, theta)
        softmax_update(slow, u, Q0.row_covariance(slow, slow_agg, u), theta,
                       slow_agg)
        assert same_bytes(fast, slow), u
        assert same_bytes(fast_agg.A, slow_agg.A), u


@st.composite
def sparse_start(draw):
    """A weighted graph and a start whose rows are dense, one-hot, empty
    or random over K = 1-3 or either side of the softmax row's share of
    32, with -0.0 and tiny values among them, pinned rows and theta."""
    g = draw(weighted_graph())
    K = draw(st.one_of(st.integers(1, 3), st.sampled_from([31, 32, 63, 64,
                                                           65, 96])))
    value = st.one_of(st.floats(0.0, 2.0), st.sampled_from(
        [1.0, 5e-324, 1e-300, 1e300]))
    H = masked_start(draw, g.n, K, value)
    pinned = draw(st.dictionaries(st.integers(0, g.n - 1),
                                  st.integers(0, K - 1), max_size=g.n))
    return g.modularity_matrix(), H, pinned, draw(THETA)


def _toward(n, K, column, other):
    """A path-graph start whose rows are one-hot at `other`, but row 0,
    one-hot at `column`."""
    H = np.zeros((n, K))
    H[:, other] = 1.0
    H[0] = 0.0
    H[0, column] = 1.0
    return H


@SETTINGS
@given(case=sparse_start())
# NaN and infinite row maxima: a NaN neighbour, and theta * z overflowing.
@example(case=(_path_graph(4).modularity_matrix(),
               np.where(np.eye(4, 64) > 0, np.nan, 0.0), {}, 1.0))
@example(case=(_path_graph(4).modularity_matrix(),
               1e300 * np.eye(4, 64), {}, 1e8))
# Rows 1 and 2 hold one entry that underflows: a total of 0.
@example(case=(_path_graph(6).modularity_matrix(), _toward(6, 64, 0, 5), {},
               1e8))
# A clamped entry beside a kept one.
@example(case=(_path_graph(4).modularity_matrix(),
               np.eye(4, 64) + 5e-324 * np.eye(4, 64, 9), {}, 1.0))
# -0.0 beside the support, and pinned rows.
@example(case=(_path_graph(6).modularity_matrix(),
               np.where(np.eye(6, 32) > 0, 1.0, -0.0), {2: 3, 4: 31}, 1e4))
# K on either side of the share.
@example(case=(_path_graph(6).modularity_matrix(), np.eye(6, 31), {}, 50.0))
@example(case=(_path_graph(6).modularity_matrix(), np.eye(6, 32), {}, 50.0))
def test_support_only_softmax_rows_match_softmax_update(case):
    with np.errstate(all="ignore"):
        softmax_rows_case(*case)


def test_support_only_softmax_rows_and_their_fallbacks_run(zero_skips):
    """The examples above reach the support-only row, and the full row
    for a total of 0, a NaN maximum and K below the share: the rows that
    read only their support, one list per start."""
    Q = _path_graph(6).modularity_matrix()
    cases = {"one-hot": (np.eye(6, 64), 1e4),
             "below the share": (np.eye(6, 31), 1e4),
             "total 0": (_toward(6, 64, 0, 5), 1e8),
             "NaN maximum": (np.where(np.eye(6, 64) > 0, np.nan, 0.0), 1.0)}
    support = {}
    for name, (H, theta) in cases.items():
        zero_skips.sweeps.clear()
        with np.errstate(all="ignore"):
            softmax_rows_case(Q, H, {}, theta)
        support[name] = [u for u, (_, rows, _) in enumerate(zero_skips.sweeps)
                         if rows]
    # Rows 4 of the first start and 1-2 of the third hold one entry that
    # underflows: a total of 0, so the full row is redone.
    assert support == {"one-hot": [0, 1, 2, 3, 5], "below the share": [],
                       "total 0": [0, 3, 4, 5], "NaN maximum": []}


@st.composite
def finite_start(draw):
    """`sparse_start` on either operator with finite nonnegative rows."""
    Q = draw(OPERATOR)
    K = draw(st.one_of(st.integers(1, Q.n + 3), st.sampled_from([32, 64])))
    value = st.one_of(st.floats(0.0, 2.0), st.sampled_from([1.0, 5e-324]))
    H = masked_start(draw, Q.n, K, value)
    pinned = draw(st.dictionaries(st.integers(0, Q.n - 1),
                                  st.integers(0, K - 1), max_size=Q.n))
    config = ClusterConfig(n_clusters=K, theta=draw(THETA))
    return Q, H, pinned, config


@SETTINGS
@given(case=finite_start())
@example(case=(_path_graph(6).modularity_matrix(), _toward(6, 64, 0, 5), {},
               ClusterConfig(n_clusters=64, theta=1e8)))
def test_softmax_sweeps_keep_exact_zeros(case):
    """From any finite start, a compiled or plain softmax pass leaves
    every exact zero of H zero, but in rows that took the fallback for a
    total <= 0."""
    Q, H, pinned, config = case
    Q0 = Q.zero_diagonal()
    for path in PATHS:
        assignment = SoftAssignment(H.copy(), pinned)
        aggregate = Q0.make_aggregate(assignment.H)
        fallback = fallback_rows(Q0, assignment, config, aggregate)
        with sweep_path(path):
            softmax_kernel(Q0, assignment, config, aggregate)()
        revived = ((H == 0.0) & (assignment.H != 0.0)).any(axis=1)
        assert set(np.flatnonzero(revived).tolist()) <= fallback, path


# --- thin QR ------------------------------------------------------------------

def assert_same_qr(M):
    """`_thin_q` of M's column-major copy gives np.linalg.qr(M)'s bytes,
    Q in C order, and leaves M as it was."""
    before = M.tobytes()
    got_q, got_r = spectral._thin_q(np.array(M.T, order="C"))
    want_q, want_r = np.linalg.qr(M)
    assert same_bytes(got_q, want_q) and same_bytes(got_r, want_r)
    assert got_q.flags.c_contiguous and M.tobytes() == before


@pytest.mark.parametrize("order", ["C", "F"])
def test_thin_q_matches_numpy_qr(order):
    """Widths 1-40 cross dgeqrf's block size of 32."""
    rng = np.random.default_rng(4)
    for width in range(1, 41):
        for rows in (width, 3 * width + 7):
            assert_same_qr(np.array(rng.standard_normal((rows, width)),
                                    order=order))
    assert_same_qr(np.array(rng.standard_normal((10000, 12)), order=order))


@st.composite
def qr_input(draw):
    """An n x C block, C = 1, n = C, tall or wide, C- or F-order, some
    columns zero, repeated or sums of others."""
    n = draw(st.integers(1, 40))
    C = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    M = rng.standard_normal((n, C)) * 10.0 ** draw(st.integers(-200, 200))
    for j in range(1, C):
        kind = draw(st.sampled_from(["free", "free", "zero", "copy", "sum"]))
        if kind == "zero":
            M[:, j] = 0.0
        elif kind == "copy":
            M[:, j] = M[:, draw(st.integers(0, j - 1))]
        elif kind == "sum":
            M[:, j] = M[:, :j].sum(axis=1)
    return np.array(M, order=draw(st.sampled_from("CF")))


@SETTINGS
@given(M=qr_input())
def test_thin_q_matches_numpy_qr_on_any_shape(M):
    assert_same_qr(M)


def test_thin_q_raises_lapack_errors(monkeypatch):
    """A LAPACK routine's nonzero info is a LinAlgError naming it."""
    failing = dict(vars(lapack_lite))
    for name in ("dgeqrf", "dorgqr"):
        def fail(*args, routine=failing[name]):
            result = routine(*args)
            return dict(result, info=-4 if args[-2] != -1 else 0)
        monkeypatch.setattr(spectral, "lapack_lite", types.SimpleNamespace(
            **dict(failing, **{name: fail})))
        with pytest.raises(np.linalg.LinAlgError, match="LAPACK info -4"):
            spectral._thin_q(np.ones((2, 5)))


# --- the compiled library -----------------------------------------------------

@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiled_library_loads():
    """With a compiler present the rotations must run compiled: the numpy
    fallback computes the same bytes, so only this test sees it."""
    assert _native.library() is not None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_native_source_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        ["cc", *_native._FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "native.so"), _native._SOURCE, "-lm"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def plant_library(directory):
    """A file where `library()` would look for its cached build."""
    with open(_native._SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read())
    digest.update(" ".join((*_native._FLAGS, platform.machine())).encode())
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"_native-{digest.hexdigest()[:32]}.so")
    with open(path, "wb") as fh:
        fh.write(b"planted")
    return path


def load_without_cdll(monkeypatch):
    """`library()` uncached, with every `ctypes.CDLL` call recorded and
    refused; returns (result, loaded paths)."""
    loaded = []

    def cdll(path, *args, **kwargs):
        loaded.append(path)
        raise OSError("refused")

    monkeypatch.setattr(_native.ctypes, "CDLL", cdll)
    return _native.library.__wrapped__(), loaded


def test_an_unwritable_user_cache_loads_nothing_from_the_temp_dir(
        tmp_path, monkeypatch):
    """The shared temp directory is no fallback: anyone can plant a
    library there."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    plant_library(str(tmp_path / "tmp" / "modembed"))
    assert load_without_cdll(monkeypatch) == (None, [])


def test_a_cache_directory_others_can_write_is_not_used(tmp_path,
                                                        monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    plant_library(str(tmp_path / "modembed"))
    os.chmod(tmp_path / "modembed", 0o777)
    assert load_without_cdll(monkeypatch) == (None, [])


def test_a_new_cache_directory_is_private(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native._cache_dir() == str(tmp_path / "modembed")
    assert (tmp_path / "modembed").stat().st_mode & 0o077 == 0


def test_importing_the_cli_builds_and_loads_nothing(tmp_path):
    code = ("import sys, modembed.cli, modembed._native as native; "
            "sys.exit(native.library.cache_info().currsize)")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr or "the library was loaded"
    assert not any(tmp_path.iterdir())


# --- QR embedding -------------------------------------------------------------

@SETTINGS
@given(Q=OPERATOR, C=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
def test_qr_embed_is_an_orthonormal_factorization(Q, C, seed):
    """Columns orthonormal, R's diagonal nonnegative and H_hat R = Q H,
    all within 1e-12 (the last relative to Q H)."""
    H = np.random.default_rng(seed).random((Q.n, C))
    emb = qr_embed(Q, H, drop_dependent=False)
    H_hat, R = emb.H_hat, emb.R
    assert np.abs(H_hat.T @ H_hat - np.eye(H_hat.shape[1])).max() <= 1e-12
    assert (np.diag(R) >= 0.0).all()
    M = Q.full_diagonal().apply(H)
    assert np.abs(H_hat @ R - M).max() <= 1e-12 * max(np.abs(M).max(), 1e-300)


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
    with mock.patch.object(tasks, "_ITERATIONS", iterations):
        got = SoftmaxRegression(C).fit(X, y)
        want = oracle_fit(SoftmaxRegression(C), X, y)
    assert same_bytes(got.W, want.W) and same_bytes(got.b, want.b)
    assert same_bytes(got.predict_proba(X), want.predict_proba(X))


def test_fit_matches_oracle_at_default_recipe():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((400, 16))
    y = rng.integers(0, 16, 400)
    got = SoftmaxRegression(16).fit(X, y)
    want = oracle_fit(SoftmaxRegression(16), X, y)
    assert same_bytes(got.W, want.W) and same_bytes(got.b, want.b)


def assert_same_fit_without_the_library(X, y, C):
    """The compiled fit (when the library loads) and the numpy loop it
    falls back to give W, b and probabilities of the same bytes."""
    _native.paths.clear()
    # Overflow and NaN are expected at huge steps; numpy warns of them.
    with np.errstate(all="ignore"):
        got = SoftmaxRegression(C).fit(X, y)
        path = _native.paths["fit"]
        assert path == ("python" if _native.library() is None
                        else "compiled")
        with mock.patch.object(_native, "library", lambda: None):
            want = SoftmaxRegression(C).fit(X, y)
        assert same_bytes(got.W, want.W) and same_bytes(got.b, want.b)
        assert same_bytes(got.predict_proba(X), want.predict_proba(X))
    return got


# A step this large sends the weights to inf within two iterations, and
# the logits to inf and NaN.  Every NaN a fit makes has the same bits, so
# how the row maximum takes NaNs of two payloads is checked on the
# compiled row pass itself, in tests/native_scan_check.c.
HUGE_STEP = 1e300


@SETTINGS
@given(case=fit_case(), step=st.sampled_from([tasks._STEP, 1e6, HUGE_STEP]),
       order=st.sampled_from("CF"))
@example(case=(np.ones((1, 1)), np.zeros(1, int), 1, 60), step=tasks._STEP,
         order="C")
@example(case=(np.arange(6.0).reshape(3, 2), np.array([0, 1, 1]), 2, 60),
         step=HUGE_STEP, order="C")
@example(case=(np.array([[1.5, -2.0]]), np.array([1]), 2, 7),
         step=HUGE_STEP, order="F")
def test_compiled_fit_matches_the_numpy_loop(case, step, order):
    """C = 1 (the bias gradient's pairwise column sum), C = 2 (what `eval
    link` fits), d = 1, m = 1, constant columns, any layout of X, and
    logits that reach inf and NaN."""
    X, y, C, iterations = case
    X = np.asarray(X, order=order)
    with mock.patch.multiple(tasks, _ITERATIONS=iterations, _STEP=step):
        assert_same_fit_without_the_library(X, y, C)


def test_huge_steps_make_the_fit_nan_on_both_paths():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    y = rng.integers(0, 4, 40)
    with mock.patch.multiple(tasks, _ITERATIONS=7, _STEP=HUGE_STEP):
        got = assert_same_fit_without_the_library(X, y, 4)
    assert np.isnan(got.W).all() and np.isnan(got.b).all()


def test_compiled_fit_matches_the_numpy_loop_at_bench_size():
    """m = 10,000 rows of d = 15 features over C = 16 classes, the size
    `eval classify` fits on the 20k-node benchmark graph."""
    rng = np.random.default_rng(26)
    y = rng.integers(0, 16, 10_000)
    X = rng.standard_normal((10_000, 15)) + (y[:, None] % 3) * 0.5
    assert_same_fit_without_the_library(X, y, 16)
