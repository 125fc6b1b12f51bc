"""Dense spectral oracle and eigenvector-alignment bounds.

Everything here exists to check the sparse iterative code against ground
truth, so the eigensolvers are implemented in-repo rather than delegated:
cyclic Jacobi rotations for small dense matrices, Householder reduction
plus implicit-shift QL for mid-sized ones, and orthogonal iteration on
the implicit operator when only a few leading eigenvectors are needed.
The Jacobi and QL rotation loops, the Householder reduction's two rank
updates per step and orthogonal iteration's shifted block (stored by the
operator's apply, column-major for LAPACK) run compiled from `_native.c`
when a C compiler is available (see `_native`), bit for bit as their
numpy versions here and in `graph`, which run otherwise.

The alignment report quantifies how close a two-cluster assignment's
leading column is to the top modularity eigenvector: with
delta1 = max(lambda2, -lambda_n) / lambda1 and the shortfall epsilon
defined by x^T Q x = lambda1 (1 - epsilon), the cosine between x and v1
is at least sqrt((1 - epsilon - delta1) / (1 - delta1)), and applying Q
to x can only improve the alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# `_thin_q` calls LAPACK through numpy's own lapack_lite, not the public
# scipy.linalg.lapack: only numpy's module is linked against the BLAS
# that np.linalg.qr uses (scipy wheels bundle their own OpenBLAS), so
# only it gives np.linalg.qr's bytes.  Those bytes also rest on numpy's
# qr workspace rule, max(1, n, query); tests/test_kernels.py compares
# the two on every run, so a numpy that changes either shows there.
from numpy.linalg import lapack_lite

from . import _native

__all__ = [
    "Spectrum",
    "AlignmentReport",
    "ConvergenceError",
    "jacobi_eigh",
    "tridiagonal_eigh",
    "eigendecompose",
    "cosine",
    "alignment_bounds",
    "projection_residual",
]

_JACOBI_LIMIT = 200
_JACOBI_TOL = 1e-14  # off-diagonal at which Jacobi stops, relative to |A|
_JACOBI_SWEEPS = 100  # sweeps after which Jacobi gives up
_QL_SHIFTS = 50  # shifts per eigenvalue after which QL gives up
_RITZ_TOL = 1e-10  # Ritz residual at which orthogonal iteration stops
_ORTHO_ITERATIONS = 10000  # steps after which orthogonal iteration gives up


class ConvergenceError(RuntimeError):
    """An iterative eigensolver hit its iteration cap."""


@dataclass
class Spectrum:
    """Eigenvalues in descending order with matching eigenvector columns.

    Each eigenvector is sign-fixed so its largest-magnitude entry is
    positive, making decompositions comparable across runs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_signs(V):
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.where(V[idx, np.arange(V.shape[1])] < 0.0, -1.0, 1.0)
    return V * signs


def _finish(values, vectors):
    order = np.argsort(values)[::-1]
    return Spectrum(
        eigenvalues=values[order],
        eigenvectors=_fix_signs(vectors[:, order]),
    )


def jacobi_eigh(A):
    """Cyclic Jacobi rotations on a symmetric matrix.

    Simple and very accurate; quadratic convergence keeps the sweep count
    in single digits.  Intended for n up to a couple hundred.  The sweeps
    run compiled (`_native.jacobi`) when the library is available, with
    the same bytes as `_jacobi_sweeps`.
    """
    A = np.array(A, dtype=float, order="C")
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix must be square, got {A.shape}")
    if n == 1:
        return _finish(np.array([A[0, 0]]), np.ones((1, 1)))
    scale = np.linalg.norm(A)
    if scale == 0.0:
        return _finish(np.zeros(n), np.eye(n))
    V = np.eye(n)
    converged = _native.jacobi(A, V, _JACOBI_TOL, scale, _JACOBI_SWEEPS)
    if converged is None:
        converged = _jacobi_sweeps(A, V, _JACOBI_TOL, scale, _JACOBI_SWEEPS)
    if not converged:
        raise ConvergenceError(
            f"Jacobi failed to converge in {_JACOBI_SWEEPS} sweeps"
        )
    return _finish(np.diag(A).copy(), V)


def _jacobi_sweeps(A, V, tol, scale, max_sweeps):
    """The sweeps of `jacobi_eigh` in numpy, rotating A and V in place;
    True once the off-diagonal is within tol * scale."""
    n = A.shape[0]
    for _ in range(max_sweeps):
        off = np.abs(A - np.diag(np.diag(A))).max()
        if off <= tol * scale:
            return True
        skip = tol * scale / n
        for p in range(n - 1):
            row = A[p, p + 1:]
            if np.abs(row).max() <= skip:
                continue
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(tau) if tau != 0.0 else 1.0
                t /= abs(tau) + np.hypot(1.0, tau)
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                vec_p = V[:, p].copy()
                vec_q = V[:, q].copy()
                V[:, p] = c * vec_p - s * vec_q
                V[:, q] = s * vec_p + c * vec_q
    return False


def _householder_tridiagonalize(A):
    """Reduce a symmetric matrix to tridiagonal form, A = B T B^T.

    Returns (d, e, B): diagonal, subdiagonal, and the accumulated
    orthogonal transform.  Each step's norms and products are numpy's;
    its two rank updates run compiled (`_native.householder`) on a C-order
    T when the library is available, else as the numpy statements below,
    with the same bytes.
    """
    n = A.shape[0]
    T = np.array(A, dtype=float)
    B = np.eye(n)
    for k in range(n - 2):
        x = T[k + 1:, k]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        alpha = -np.copysign(norm_x, x[0] if x[0] != 0.0 else 1.0)
        v = x.copy()
        v[0] -= alpha
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            continue
        v /= vnorm
        sub = T[k + 1:, k + 1:]
        p = sub @ v
        K = v @ p
        acc = B[:, k + 1:]
        w = acc @ v
        if _native.householder(T, B, k, v, p, w, 4.0 * K) is None:
            sub -= (2.0 * np.outer(v, p) + 2.0 * np.outer(p, v)
                    - 4.0 * K * np.outer(v, v))
            acc -= 2.0 * np.outer(w, v)
        T[k + 1, k] = alpha
        T[k, k + 1] = alpha
        T[k + 2:, k] = 0.0
        T[k, k + 2:] = 0.0
    return np.diag(T).copy(), np.diag(T, -1).copy(), B


def _ql_implicit(d, e, Z):
    """Implicit-shift QL on a tridiagonal matrix, rotations accumulated
    into Z.  Mutates and returns (d, Z).

    Both paths run on copies, (d, e with a trailing 0.0, Z^T in C order),
    written back at the end: the compiled loop (`_native.ql`) when the
    library is available, else `_ql_loop`, with the same bytes.
    """
    n = d.size
    dv = np.array(d, dtype=float)
    ev = np.zeros(n)
    ev[:n - 1] = e[:n - 1]
    ZT = np.array(Z.T, dtype=float, order="C")
    if ZT.shape[0] < n:
        raise ValueError(f"Z needs at least {n} columns, got {ZT.shape[0]}")
    failed = _native.ql(dv, ev, ZT, _QL_SHIFTS)
    if failed is None:
        failed = _ql_loop(dv, ev, ZT, _QL_SHIFTS)
    if failed >= 0:
        raise ConvergenceError(
            f"QL failed at eigenvalue {failed} after {_QL_SHIFTS} shifts"
        )
    d[...] = dv
    Z[...] = ZT.T
    return d, Z


def _ql_loop(d, e, ZT, max_shifts):
    """`modembed_ql` in Python: QL on (d, e), e[-1] == 0, rotating the
    rows of the C-order ZT in place, the eigenvalues left in d; returns
    -1, or the index of the eigenvalue whose shifts ran out.

    The scalar recurrences run on Python floats (the same doubles and the
    same operations as on numpy scalars, with less dispatch).  Each
    Givens rotation acts on two contiguous rows of Z^T through
    preallocated buffers; scalars reach the ufuncs as 0-d arrays, which
    numpy dispatches faster.  `np.hypot` stays: `math.hypot` rounds
    differently.
    """
    n = d.size
    dv = d.tolist()
    ev = e.tolist()
    eps = float(np.finfo(float).eps)
    cols = list(ZT)
    lhs, rhs = np.empty(ZT.shape[1]), np.empty(ZT.shape[1])
    sin, cos = np.empty(()), np.empty(())
    leg_f, leg_g, hyp = np.empty(()), np.empty(()), np.empty(())
    hypot, copysign = np.hypot, math.copysign
    multiply, add, subtract = np.multiply, np.add, np.subtract
    for l in range(n):
        for iteration in range(max_shifts + 1):
            m = l
            while m < n - 1:
                dd = abs(dv[m]) + abs(dv[m + 1])
                if abs(ev[m]) <= eps * dd:
                    break
                m += 1
            if m == l:
                break
            if iteration == max_shifts:
                return l
            try:
                g = (dv[l + 1] - dv[l]) / (2.0 * ev[l])
            except ZeroDivisionError:
                # e[l] == 0 beside a NaN in d: numpy's inf/nan, as before.
                g = float(np.float64(dv[l + 1] - dv[l]) / (2.0 * ev[l]))
            r = float(hypot(g, 1.0))
            g = dv[m] - dv[l] + ev[l] / (g + copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * ev[i]
                b = c * ev[i]
                leg_f[()] = f
                leg_g[()] = g
                r = hypot(leg_f, leg_g, hyp).item()
                ev[i + 1] = r
                if r == 0.0:
                    dv[i + 1] -= p
                    ev[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = dv[i + 1] - p
                r = (dv[i] - g) * s + 2.0 * c * b
                p = s * r
                dv[i + 1] = g + p
                g = c * r - b
                # (z_i, z_i1) <- (c z_i - s z_i1, s z_i + c z_i1)
                z_i, z_i1 = cols[i], cols[i + 1]
                sin[()] = s
                cos[()] = c
                multiply(sin, z_i, lhs)
                multiply(cos, z_i1, rhs)
                add(lhs, rhs, lhs)
                multiply(cos, z_i, z_i)
                multiply(sin, z_i1, rhs)
                subtract(z_i, rhs, z_i)
                z_i1[...] = lhs
            else:
                dv[l] -= p
                ev[l] = g
                ev[m] = 0.0
    d[:] = dv
    return -1


def tridiagonal_eigh(A):
    """Householder reduction followed by implicit-shift QL; the dense
    path for matrices too large for Jacobi."""
    d, e, B = _householder_tridiagonalize(A)
    d, Z = _ql_implicit(d, e, B)
    return _finish(d, Z)


def _dense_spectrum(A):
    if A.shape[0] <= _JACOBI_LIMIT:
        return jacobi_eigh(A)
    return tridiagonal_eigh(A)


def _thin_q(At):
    """(Q, R) of the reduced QR of the matrix At.T, bit for bit
    `np.linalg.qr(At.T)`, Q as a new C-order array.

    At is that matrix in column-major order, a C-contiguous float64
    array, and is overwritten.  These are the LAPACK calls
    `np.linalg.qr` makes, dgeqrf then dorgqr with workspaces sized by
    the same queries, without its copies; R is the upper triangle of the
    leading rows that dgeqrf leaves, taken before dorgqr.  The C-order Q
    matters: of `Q.apply`'s work only `c = pi @ H` depends on the layout.
    """
    m, n = At.shape
    k = min(m, n)
    tau = np.empty(k)

    def call(routine, *dims):
        query = np.empty(1)
        routine(*dims, At, n, tau, query, -1, 0)
        work = np.empty(max(1, m, int(query[0])))
        info = routine(*dims, At, n, tau, work, work.size, 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(
                f"QR factorization failed (LAPACK info {info})")

    call(lapack_lite.dgeqrf, n, m)
    R = np.triu(At[:, :k].T)
    call(lapack_lite.dorgqr, n, k, k)
    return np.ascontiguousarray(At[:k].T), R


def _orthogonal_iteration(Q, k):
    """Leading-k eigenpairs of an implicit symmetric operator.

    Iterates on a shifted operator (shift from the operator's own bound
    on its most negative eigenvalue) so the dominant subspace is the
    algebraically largest one.  The block is oversampled beyond k: the
    convergence rate of the wanted pairs is then set by the gap at the
    padded boundary rather than at k, which keeps clustered interior
    eigenvalues (common in these spectra) from stalling the run.  Stops
    on the Rayleigh-Ritz residuals of the k wanted pairs, which is also
    well defined when the k-th eigenvalue is tied with the (k+1)-th.
    """
    n = Q.n
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    shift = Q.spectral_shift()
    m = min(n, k + 8)
    rng = np.random.default_rng(0)
    Z, _ = _thin_q(np.array(rng.standard_normal(size=(n, m)).T, order="C"))
    buf = np.empty((m, n))
    # Residuals shrink geometrically, so checking on a geometric schedule
    # overshoots the minimal sweep count by at most ~50% while keeping
    # the m x m Ritz solves to O(log) of the total.
    next_check = 0
    for it in range(_ORTHO_ITERATIONS):
        # buf = (Q Z + shift Z)^T, column-major for LAPACK; Y = Q Z only
        # on the steps that check it.
        Y = Q.apply(Z, shift, buf, keep=it >= next_check)
        if Y is not None:
            B = Z.T @ Y
            inner = jacobi_eigh((B + B.T) / 2.0)
            mu = inner.eigenvalues[:k]
            V = inner.eigenvectors[:, :k]
            ritz = Z @ V
            residual = Y @ V - ritz * mu
            if float(np.linalg.norm(residual, axis=0).max()) <= _RITZ_TOL:
                return _finish(mu, ritz)
            next_check = it + 1 + min(it // 2, 63)
        Z, _ = _thin_q(buf)
    raise ConvergenceError(
        f"orthogonal iteration: no convergence in {_ORTHO_ITERATIONS} "
        f"iterations"
    )


def eigendecompose(Q, k=None):
    """Spectrum of a modularity-style operator (anything with `dense()`
    and `apply`).

    k=None densifies and solves fully (bounded at n=5000); otherwise the
    leading k pairs come from orthogonal iteration without materializing
    the operator.
    """
    if k is None:
        return _dense_spectrum(Q.dense())
    return _orthogonal_iteration(Q, k)


def cosine(y, z):
    """cos of the angle between two vectors; rejects zero vectors."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    ny = np.linalg.norm(y)
    nz = np.linalg.norm(z)
    if ny == 0.0 or nz == 0.0:
        raise ValueError("cosine undefined for zero vectors")
    return float(y @ z) / (ny * nz)


@dataclass
class AlignmentReport:
    """Alignment of a two-cluster assignment with the leading eigenvector.

    applicable is False when the spectrum lacks a positive leading gap or
    the shortfall epsilon falls outside [0, 1 - delta1] or is 1; the cosine
    fields are still reported for inspection.  holds records whether all
    three bounds were met (with 1e-10 slack for roundoff), and is True
    vacuously when not applicable.
    """

    lambda1: float
    lambda2: float
    lambda_min: float
    delta1: float
    epsilon: float
    cos_x: float
    bound_x: float
    cos_qx: float
    bound_qx: float
    applicable: bool
    holds: bool


_BOUND_SLACK = 1e-10


def alignment_bounds(Q, H):
    """Check the spectral alignment bounds for a K=2 soft assignment.

    x is the first assignment column scaled to unit length; epsilon is
    its Rayleigh-quotient shortfall 1 - x^T Q x / lambda1.  The leading
    eigenvector's sign is fixed by nonnegative correlation with x (x is
    entrywise nonnegative, so this is the meaningful direction).
    """
    if Q.n < 2:
        raise ValueError(f"alignment bounds need lambda2, so at least 2 "
                         f"nodes; the graph has n={Q.n}")
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[1] != 2:
        raise ValueError(f"expected a two-column assignment, got {H.shape}")
    h1 = H[:, 0]
    norm = np.linalg.norm(h1)
    if norm == 0.0:
        raise ValueError("first assignment column is identically zero")
    x = h1 / norm

    Q_full = Q.full_diagonal()
    spectrum = eigendecompose(Q_full)
    lam = spectrum.eigenvalues
    lambda1 = float(lam[0])
    lambda2 = float(lam[1])
    lambda_min = float(lam[-1])
    v1 = spectrum.eigenvectors[:, 0]
    if v1 @ x < 0.0:
        v1 = -v1

    qx = Q_full.apply(x)
    cos_x = cosine(v1, x)
    cos_qx = cosine(v1, qx) if np.linalg.norm(qx) > 0.0 else float("nan")

    # Without a positive lambda1 the derived fields stay NaN: not applicable.
    delta1 = epsilon = bound_x = bound_qx = float("nan")
    if lambda1 > 0.0:
        delta1 = max(lambda2, -lambda_min) / lambda1
        epsilon = 1.0 - float(x @ qx) / lambda1
        # Roundoff can push an exact-eigenvector epsilon a hair negative.
        if -1e-12 < epsilon < 0.0:
            epsilon = 0.0
    # epsilon = 1 (so delta1 = 0: x is orthogonal to v1 and Qx = 0)
    # would make the Qx bound 0 / 0; there is nothing to bound.
    applicable = (delta1 < 1.0 and 0.0 <= epsilon <= 1.0 - delta1
                  and epsilon < 1.0)
    holds = True
    if applicable:
        bound_x = float(np.sqrt((1.0 - epsilon - delta1) / (1.0 - delta1)))
        bound_qx = float(np.sqrt((1.0 - epsilon - delta1)
                                 / (1.0 - epsilon - delta1 + delta1 ** 2)))
        holds = bool(cos_x >= bound_x - _BOUND_SLACK
                     and cos_qx >= cos_x - _BOUND_SLACK
                     and cos_qx >= bound_qx - _BOUND_SLACK)
    return AlignmentReport(lambda1, lambda2, lambda_min, delta1, epsilon,
                           cos_x, bound_x, cos_qx, bound_qx, applicable,
                           holds)


def projection_residual(H_hat, basis):
    """Per-column energy outside a reference eigenbasis.

    residual[j] = 1 - sum_l (H_hat[:, j] . basis[:, l])^2, in [0, 1] up
    to roundoff when both sets of columns are orthonormal (checked).
    """
    H_hat = np.asarray(H_hat, dtype=float)
    basis = np.asarray(basis, dtype=float)
    for name, M in (("H_hat", H_hat), ("basis", basis)):
        norms = np.linalg.norm(M, axis=0)
        if np.abs(norms - 1.0).max() > 1e-8:
            raise ValueError(f"{name} columns must be unit length")
    coeffs = basis.T @ H_hat
    return 1.0 - (coeffs ** 2).sum(axis=0)
