"""Point-cloud reduction: gram operator, PCA basis, residual selection."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modembed.pointcloud import (
    GramOperator,
    center,
    concentric_circles,
    embed_lift,
    load_xyz,
    pca_basis,
    reduce_cloud,
    torus_cloud,
)


def test_center_is_idempotent():
    rng = np.random.default_rng(2)
    X = rng.random((30, 4)) + 5.0
    C = center(X)
    assert np.abs(C.mean(axis=0)).max() < 1e-12
    assert np.abs(center(C) - C).max() < 1e-14


def test_gram_operator_matches_dense():
    rng = np.random.default_rng(6)
    X = center(rng.standard_normal((25, 5)))
    G = X @ X.T
    op = GramOperator(X)
    H = rng.standard_normal((25, 3))
    assert np.abs(op.apply(H) - G @ H).max() < 1e-12

    opz = op.zero_diagonal()
    Gz = G.copy()
    np.fill_diagonal(Gz, 0.0)
    assert np.abs(opz.apply(H) - Gz @ H).max() < 1e-12
    agg = opz.make_aggregate(H)
    for u in range(25):
        assert np.abs(opz.row_covariance(H, agg, u) - Gz[u] @ H).max() < 1e-12


def test_lift_preserves_gram():
    rng = np.random.default_rng(12)
    X = center(rng.standard_normal((40, 3)))
    Y = embed_lift(X, 10, seed=4)
    assert Y.shape == (40, 10)
    assert np.abs(Y @ Y.T - X @ X.T).max() < 1e-12
    with pytest.raises(ValueError):
        embed_lift(X, 2)


def test_weights_are_cluster_coordinate_sums():
    rng = np.random.default_rng(14)
    X = center(rng.standard_normal((20, 3)))
    labels = rng.integers(0, 4, size=20)
    H = np.zeros((20, 4))
    H[np.arange(20), labels] = 1.0
    W = GramOperator(X).make_aggregate(H).A
    for k in range(4):
        assert np.abs(W[:, k] - X[labels == k].sum(axis=0)).max() < 1e-12


def test_pca_basis_matches_numpy():
    rng = np.random.default_rng(18)
    X = center(rng.standard_normal((50, 6)) * np.array([5, 4, 3, 2, 1, 0.5]))
    V, sigma = pca_basis(X, 6)
    lam = np.sort(np.linalg.eigvalsh(X.T @ X))[::-1]
    assert np.abs(sigma ** 2 - lam[: sigma.size]).max() < 1e-8
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() < 1e-10
    # Full basis reproduces the cloud.
    assert np.abs(V @ (V.T @ X) - X).max() < 1e-10


def test_pca_basis_rank_deficient():
    rng = np.random.default_rng(20)
    thin = center(rng.standard_normal((30, 2)))
    X = np.hstack([thin, thin @ np.array([[1.0, 2.0], [0.5, -1.0]])])
    V, sigma = pca_basis(X, 4)
    assert V.shape[1] == 2  # true rank
    with pytest.raises(ValueError, match="zero variance"):
        pca_basis(np.zeros((5, 3)), 2)


def _distance_correlation(A, B):
    """Pearson correlation of pairwise distances, a rotation-blind score."""
    da = np.linalg.norm(A[:, None, :] - A[None, :, :], axis=2).ravel()
    db = np.linalg.norm(B[:, None, :] - B[None, :, :], axis=2).ravel()
    return np.corrcoef(da, db)[0, 1]


def test_reduce_cloud_recovers_circles():
    points = concentric_circles()
    lifted = embed_lift(center(points), 30, seed=0)
    result = reduce_cloud(lifted, n_dims=6, theta=0.010, seed=0)
    assert result.embedding.shape == (200, 6)
    assert ((result.residuals >= -1e-12) & (result.residuals <= 1.0 + 1e-12)).all()
    assert np.array_equal(result.selected, result.residuals <= 1e-3)
    assert int(result.selected.sum()) == 2  # planar cloud
    assert _distance_correlation(result.reconstruction, points) > 0.999


def test_reduce_cloud_recovers_torus():
    points = torus_cloud()
    lifted = embed_lift(center(points), 30, seed=0)
    result = reduce_cloud(lifted, n_dims=6, seed=0)
    assert int(result.selected.sum()) == 3  # genuinely 3-dimensional
    assert _distance_correlation(result.reconstruction, points) > 0.999


def test_reduce_cloud_sphere_method():
    points = concentric_circles()
    lifted = embed_lift(center(points), 30, seed=0)
    result = reduce_cloud(lifted, n_dims=6, method="sphere", seed=0)
    assert int(result.selected.sum()) == 2
    assert _distance_correlation(result.reconstruction, points) > 0.999


def test_reduce_cloud_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        reduce_cloud(np.random.default_rng(0).random((10, 3)), 2,
                     method="nope")


@pytest.mark.parametrize("method", ["cafe", "sphere"])
def test_reduce_cloud_rejects_more_dims_than_points(method):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.5]])
    with pytest.raises(ValueError,
                       match=r"^n_dims=6 exceeds the 4 points$"):
        reduce_cloud(pts, 6, method=method)
    result = reduce_cloud(pts, 4, method=method)
    assert result.embedding.shape == (4, 4)
    assert result.selected.shape == (4,)


def test_builtin_clouds_shapes():
    c = concentric_circles()
    assert c.shape == (200, 2)
    radii = np.linalg.norm(center(c), axis=1)
    assert set(np.round(radii, 6)) <= {1.0, 2.0}
    t = torus_cloud()
    assert t.shape == (240, 3)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pts=arrays(np.float64,
                  st.tuples(st.integers(1, 20), st.sampled_from([2, 3])),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_xyz_roundtrip(tmp_path, pts):
    """Every finite double comes back with its bits, -0.0 included."""
    path = tmp_path / "cloud.xyz"
    np.savetxt(path, pts, fmt="%.17g")
    back = load_xyz(path)
    assert back.shape == pts.shape
    assert back.tobytes() == pts.tobytes()


def test_load_xyz_two_columns(tmp_path):
    path = tmp_path / "flat.xyz"
    path.write_text("# plane\n0.0 1.0\n2.0 3.0\n")
    pts = load_xyz(path)
    assert pts.shape == (2, 2)
    path.write_text("1.0\n")
    with pytest.raises(ValueError):
        load_xyz(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_xyz_rejects_non_finite(tmp_path, value):
    path = tmp_path / "cloud.xyz"
    rows = [f"{k} {k % 3}.5" for k in range(6)]
    rows[4] = f"4 {value}"
    path.write_text("# points\n" + "\n".join(rows) + "\n")
    message = re.escape(f"{path}:6: bad coordinate")
    with pytest.raises(ValueError, match=message):
        load_xyz(path)
