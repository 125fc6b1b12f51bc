"""In-repo eigensolvers and spectral alignment, validated against numpy."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from modembed import datasets, graph, spectral
from modembed.clustering import ClusterConfig, run
from modembed.spectral import (
    AlignmentReport,
    ConvergenceError,
    _dense_spectrum,
    alignment_bounds,
    cosine,
    eigendecompose,
    jacobi_eigh,
    projection_residual,
    tridiagonal_eigh,
)

from conftest import dense_masses, dense_modularity, graph_from, random_edges


def _random_symmetric(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return (A + A.T) / 2.0


def _match_spectra(got, A, atol=1e-9):
    """Eigenvalues against numpy's, descending, plus reconstruction."""
    want = np.sort(np.linalg.eigvalsh(A))[::-1]
    assert np.abs(got.eigenvalues - want).max() < atol
    V = got.eigenvectors
    assert np.abs(V.T @ V - np.eye(A.shape[0])).max() < 1e-9
    recon = V @ np.diag(got.eigenvalues) @ V.T
    assert np.abs(recon - A).max() < atol * max(1.0, np.abs(A).max())


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = int(rng.integers(2, 50))
        A = _random_symmetric(rng, n, scale=float(rng.uniform(0.1, 10.0)))
        _match_spectra(jacobi_eigh(A), A)


def test_jacobi_hand_case():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    s = jacobi_eigh(A)
    assert np.abs(s.eigenvalues - [3.0, 1.0]).max() < 1e-14
    # Largest-magnitude entry of each eigenvector is positive.
    assert np.abs(np.abs(s.eigenvectors[0]) - 1 / np.sqrt(2)).max() < 1e-14
    assert s.eigenvectors[0, 0] > 0 and s.eigenvectors[0, 1] > 0


def test_tridiagonal_path_matches_numpy():
    rng = np.random.default_rng(19)
    A = _random_symmetric(rng, 150)
    _match_spectra(tridiagonal_eigh(A), A, atol=1e-8)


def test_dense_spectrum_dispatches_by_size():
    rng = np.random.default_rng(23)
    A = _random_symmetric(rng, 250)  # beyond the Jacobi cutoff
    _match_spectra(_dense_spectrum(A), A, atol=1e-8)


def test_topk_matches_full(karate, karate_dense):
    Q = karate.modularity_matrix()
    Qd = dense_modularity(karate_dense)
    full = np.sort(np.linalg.eigvalsh(Qd))[::-1]
    top = eigendecompose(Q, k=3)
    assert np.abs(top.eigenvalues - full[:3]).max() < 1e-9
    for j in range(3):
        v = top.eigenvectors[:, j]
        assert abs(abs(v @ Qd @ v) - abs(full[j])) < 1e-9


def test_topk_on_operator_matches_dense_vectors(karate, karate_dense):
    """Leading eigenvector from the sparse path aligns with numpy's."""
    Q = karate.modularity_matrix()
    top = eigendecompose(Q, k=1)
    w, V = np.linalg.eigh(dense_modularity(karate_dense))
    v_np = V[:, np.argmax(w)]
    assert abs(abs(cosine(top.eigenvectors[:, 0], v_np)) - 1.0) < 1e-9


def test_orthogonal_iteration_nonconvergence(monkeypatch):
    g = graph.from_edge_list(datasets.karate_club_edges())
    monkeypatch.setattr(spectral, "_ORTHO_ITERATIONS", 1)
    with pytest.raises(ConvergenceError, match="in 1 iterations"):
        spectral._orthogonal_iteration(g.modularity_matrix(), 2)


def test_ones_vector_in_kernel(karate):
    """Q 1 = 0 structurally; on complete graphs the kernel is the top."""
    Q = karate.modularity_matrix()
    assert np.abs(Q.apply(np.ones(34))).max() < 1e-12
    # Complete triangle: spectrum {0, -1/6, -1/6}, kernel vector on top.
    k3 = graph.from_edge_list(datasets.clique_edges(range(3)))
    s = eigendecompose(k3.modularity_matrix())
    assert np.abs(s.eigenvalues - [0.0, -1 / 6, -1 / 6]).max() < 1e-12
    assert abs(abs(cosine(s.eigenvectors[:, 0], np.ones(3))) - 1.0) < 1e-10


def test_cosine():
    assert cosine(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == 1.0
    assert abs(cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
               - 1 / np.sqrt(2)) < 1e-15
    with pytest.raises(ValueError):
        cosine(np.zeros(2), np.ones(2))


def test_projection_residual_hand_cases():
    basis = np.eye(4)[:, :2]
    inside = np.array([[1.0], [0.0], [0.0], [0.0]])
    outside = np.array([[0.0], [0.0], [0.0], [1.0]])
    mixed = np.full((4, 1), 0.5)
    assert abs(projection_residual(inside, basis)[0]) < 1e-15
    assert abs(projection_residual(outside, basis)[0] - 1.0) < 1e-15
    assert abs(projection_residual(mixed, basis)[0] - 0.5) < 1e-15
    with pytest.raises(ValueError, match="unit length"):
        projection_residual(inside * 2.0, basis)


def test_alignment_requires_two_columns(karate):
    Q = karate.modularity_matrix()
    with pytest.raises(ValueError, match="two-column"):
        alignment_bounds(Q, np.ones((34, 3)))


def test_alignment_requires_two_nodes():
    """lambda2 does not exist on one node: the size is named before any
    decomposition."""
    Q = graph.from_edge_list([("a", "a")]).modularity_matrix()
    with pytest.raises(ValueError, match="at least 2 nodes; the graph has n=1"):
        alignment_bounds(Q, np.array([[1.0, 0.0]]))


def test_alignment_on_gapped_sbm():
    """A clean two-block graph satisfies the precondition and the bounds."""
    edges, _ = datasets.sbm_edges([20, 20], [[0.9, 0.05], [0.05, 0.9]],
                                  seed=3)
    g = graph.from_edge_list(edges)
    Q = g.modularity_matrix()
    result = run(Q, ClusterConfig(n_clusters=2, theta=80.0, seed=0))
    report = alignment_bounds(Q, result.assignment.H)
    assert report.applicable
    assert report.holds
    assert 0.0 < report.delta1 < 1.0
    assert 0.0 <= report.epsilon <= 1.0 - report.delta1
    assert report.cos_x >= report.bound_x - 1e-10
    assert report.cos_qx >= report.cos_x - 1e-10
    assert report.cos_qx >= report.bound_qx - 1e-10


def test_alignment_exact_eigenvector_saturates():
    """Feeding v1 itself gives epsilon ~ 0 and cosines ~ 1."""
    edges, _ = datasets.sbm_edges([15, 15], [[0.9, 0.05], [0.05, 0.9]],
                                  seed=5)
    g = graph.from_edge_list(edges)
    Q = g.modularity_matrix()
    s = eigendecompose(Q.full_diagonal())
    v1 = s.eigenvectors[:, 0]
    if v1.sum() < 0:
        v1 = -v1
    H = np.column_stack([np.abs(v1) + 1e-6, np.abs(v1) + 1e-6])
    H = H / H.sum(axis=1, keepdims=True)
    # Use v1 directly as the tested column instead of a pmf row.
    report = alignment_bounds(Q, np.column_stack([v1, v1]))
    assert report.applicable
    assert report.epsilon < 1e-10
    assert report.cos_x > 1.0 - 1e-8
    assert report.holds


def test_alignment_vacuous_when_gap_fails(karate):
    """Karate's delta1 > 1, so the precondition fails but nothing breaks."""
    Q = karate.modularity_matrix()
    result = run(Q, ClusterConfig(n_clusters=2, theta=50.0, seed=0))
    report = alignment_bounds(Q, result.assignment.H)
    assert not report.applicable
    assert report.holds  # vacuously
    assert report.delta1 > 1.0
    assert np.isnan(report.bound_x)


def oracle_alignment_bounds(Q, H):
    """The three-branch `alignment_bounds` that one merged return
    replaced, returning each branch's own report, behind the same
    two-node precondition."""
    if Q.n < 2:
        raise ValueError(f"alignment bounds need lambda2, so at least 2 "
                         f"nodes; the graph has n={Q.n}")
    H = np.asarray(H, dtype=float)
    h1 = H[:, 0]
    x = h1 / np.linalg.norm(h1)
    Q_full = Q.full_diagonal()
    spectrum = eigendecompose(Q_full)
    lam = spectrum.eigenvalues
    lambda1, lambda2, lambda_min = (float(lam[0]), float(lam[1]),
                                    float(lam[-1]))
    v1 = spectrum.eigenvectors[:, 0]
    if v1 @ x < 0.0:
        v1 = -v1
    qx = Q_full.apply(x)
    cos_x = cosine(v1, x)
    cos_qx = cosine(v1, qx) if np.linalg.norm(qx) > 0.0 else float("nan")
    nan = float("nan")
    if lambda1 <= 0.0:
        return AlignmentReport(
            lambda1=lambda1, lambda2=lambda2, lambda_min=lambda_min,
            delta1=nan, epsilon=nan, cos_x=cos_x, cos_qx=cos_qx,
            bound_x=nan, bound_qx=nan, applicable=False, holds=True)
    delta1 = max(lambda2, -lambda_min) / lambda1
    epsilon = 1.0 - float(x @ qx) / lambda1
    if -1e-12 < epsilon < 0.0:
        epsilon = 0.0
    applicable = delta1 < 1.0 and 0.0 <= epsilon <= 1.0 - delta1 and (
        epsilon < 1.0)
    if not applicable:
        return AlignmentReport(
            lambda1=lambda1, lambda2=lambda2, lambda_min=lambda_min,
            delta1=delta1, epsilon=epsilon, cos_x=cos_x, cos_qx=cos_qx,
            bound_x=nan, bound_qx=nan, applicable=False, holds=True)
    bound_x = np.sqrt((1.0 - epsilon - delta1) / (1.0 - delta1))
    bound_qx = np.sqrt(
        (1.0 - epsilon - delta1) / (1.0 - epsilon - delta1 + delta1 ** 2))
    holds = (cos_x >= bound_x - 1e-10 and cos_qx >= cos_x - 1e-10
             and cos_qx >= bound_qx - 1e-10)
    return AlignmentReport(
        lambda1=lambda1, lambda2=lambda2, lambda_min=lambda_min,
        delta1=delta1, epsilon=epsilon, cos_x=cos_x, cos_qx=cos_qx,
        bound_x=float(bound_x), bound_qx=float(bound_qx), applicable=True,
        holds=bool(holds))


def assert_same_report(got, want):
    """Every field of the same type and bit for bit, any NaN equal to any
    NaN."""
    for field in dataclasses.fields(AlignmentReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(a, bool):
            assert a == b, field.name
        elif not (np.isnan(a) and np.isnan(b)):
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), \
                field.name


def outcome(fn, *args):
    """('ok', value) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except (ValueError, IndexError, ConvergenceError) as exc:
        return type(exc), str(exc)


# Weighted pairs on up to six labels, self-loops and repeats included.
SMALL_EDGES = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5),
              st.sampled_from([1.0, 0.5, 2.0, 1e-3, 7.25])),
    min_size=1, max_size=15)
# Two-column assignments; the first column gets a positive entry.
UNIT = st.floats(0.0, 1.0)


@st.composite
def graph_and_assignment(draw):
    edges = draw(SMALL_EDGES)
    g = graph.from_edge_list(edges)
    H = np.array(draw(st.lists(st.tuples(UNIT, UNIT), min_size=g.n,
                               max_size=g.n)))
    H[draw(st.integers(0, g.n - 1)), 0] = draw(st.floats(0.01, 1.0))
    return g, H


# The single edge's top eigenvalue comes out as exactly 0 and K4's as
# -1.6e-17: the lambda1 <= 0 branch.  The triangle's comes out +5.7e-18.
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=graph_and_assignment())
@example(case=(graph.from_edge_list([(0, 1)]), np.array([[1.0, 0.0],
                                                          [0.0, 1.0]])))
@example(case=(graph.from_edge_list(datasets.clique_edges(range(4))),
               np.array([[1.0, 0.0], [0.2, 0.8], [0.0, 1.0], [0.5, 0.5]])))
# Two self-loops: Q has rank one, x lies in its kernel and epsilon = 1.
@example(case=(graph.from_edge_list([(0, 0), (1, 1)]),
               np.array([[1.0, 0.0], [1.0, 0.0]])))
def test_alignment_bounds_matches_three_branch_oracle(case):
    g, H = case
    Q = g.modularity_matrix()
    got = outcome(alignment_bounds, Q, H)
    want = outcome(oracle_alignment_bounds, Q, H)
    if got[0] == "ok" and want[0] == "ok":
        assert_same_report(got[1], want[1])
    else:
        assert got == want


def test_alignment_bounds_with_x_in_the_kernel_of_a_rank_one_q():
    """Two self-loops: Q has rank one and x = (1, 1)/sqrt(2) lies in its
    kernel, so epsilon = 1, delta1 = 0 and Qx = 0.  The report is not
    applicable, where the Qx bound used to divide 0 by 0."""
    Q = graph.from_edge_list([(0, 0), (1, 1)]).modularity_matrix()
    report = alignment_bounds(Q, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert report.epsilon == 1.0 and report.delta1 == 0.0
    assert not report.applicable and report.holds
    assert np.isnan(report.bound_x) and np.isnan(report.bound_qx)


def test_alignment_oracle_cases_cover_every_branch(karate):
    """The three branches each occur: lambda1 <= 0, a failed precondition
    (delta1 > 1 on karate, epsilon > 1 - delta1 on a gapped SBM with a
    random assignment) and an applicable report."""
    edges, _ = datasets.sbm_edges([20, 20], [[0.9, 0.05], [0.05, 0.9]],
                                  seed=3)
    sbm = graph.from_edge_list(edges).modularity_matrix()
    single = graph.from_edge_list([(0, 1)]).modularity_matrix()
    cases = [
        (single, np.eye(2)),
        (karate.modularity_matrix(), run(
            karate.modularity_matrix(),
            ClusterConfig(n_clusters=2, seed=0)).assignment.H),
        (sbm, np.random.default_rng(0).random((40, 2))),
        (sbm, run(sbm, ClusterConfig(n_clusters=2, theta=80.0,
                                     seed=0)).assignment.H),
    ]
    reports = []
    for Q, H in cases:
        reports.append(alignment_bounds(Q, H))
        assert_same_report(reports[-1], oracle_alignment_bounds(Q, H))
    nan_delta, big_delta, big_epsilon, applicable = reports
    assert nan_delta.lambda1 <= 0.0 and np.isnan(nan_delta.delta1)
    assert np.isnan(nan_delta.epsilon) and not nan_delta.applicable
    assert big_delta.delta1 > 1.0 and not big_delta.applicable
    assert big_epsilon.delta1 < 1.0
    assert big_epsilon.epsilon > 1.0 - big_epsilon.delta1
    assert not big_epsilon.applicable and np.isnan(big_epsilon.bound_x)
    assert applicable.applicable and applicable.holds
