"""Dense complex-matrix substrate: vec/mat, tensor bookkeeping and factorizations.

Conventions used throughout the package:

* ``vec`` stacks the *columns* of a matrix (Fortran order), so that
  ``vec(A B C) = (C^T (x) A) vec(B)``.
* Bipartite matrices of size ``d1*d2`` are indexed row-major over the
  composite basis ``|i>|j> -> i*d2 + j``.
"""

from __future__ import annotations

import numpy as np

PSD_EIG_CLAMP = 1e-10


class LinalgError(ValueError):
    """Raised when an input violates a structural precondition."""


def vec(m):
    """Stack the columns of ``m`` into a vector."""
    return np.asarray(m).reshape(-1, order="F")


def mat(v, d):
    """Inverse of :func:`vec` for a square ``d x d`` matrix."""
    v = np.asarray(v)
    if v.size != d * d:
        raise LinalgError(f"vector of length {v.size} is not d^2 = {d * d}")
    return v.reshape((d, d), order="F")


def hermitize(m, atol=1e-8):
    """Return the Hermitian part ``(M + M^dag)/2``, rejecting grossly non-Hermitian input.

    Works on a matrix or on a stack ``(..., n, n)``, the empty stack included;
    anything else is rejected too.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise LinalgError(f"an array of shape {m.shape} is not a square matrix or stack")
    m_dag = m.conj().swapaxes(-1, -2)
    if np.abs(m - m_dag).max(initial=0.0) > atol:
        raise LinalgError("matrix is not Hermitian within tolerance")
    return 0.5 * (m + m_dag)


def perm_d4(d):
    """Permutation matrix P with vec(A (x) B) = P (vec A (x) vec B) for d x d blocks.

    Block diagonal with ``d`` identical blocks of size ``d**3``; inside a block
    the unit entry of row ``i`` (1-based) sits at column
    ``i + floor((i-1)/d) d(d-1) - floor((i-1)/d^2) d(d^2-1)``.
    """
    if d < 2:
        raise LinalgError("d must be >= 2")
    n = d**3
    i = np.arange(1, n + 1)
    j = i + (i - 1) // d * d * (d - 1) - (i - 1) // d**2 * d * (d**2 - 1)
    block = np.zeros((n, n))
    block[i - 1, j - 1] = 1.0
    out = np.zeros((d * n, d * n))
    for k in range(d):
        out[k * n : (k + 1) * n, k * n : (k + 1) * n] = block
    return out


def stacked_dot(a, b):
    """``a @ b`` over the last axis of broadcast stacks, rounded as for 1-D arrays.

    Each product is a vector-vector ``matmul``, which takes the same BLAS dot
    (with its fused multiply-adds) as ``a @ b`` on 1-D arrays; a sum of
    elementwise products rounds differently.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def partial_trace(m, dims, subsystem):
    """Trace out ``subsystem`` (1 or 2) of a matrix on a d1 (x) d2 space."""
    m = np.asarray(m)
    d1, d2 = dims
    if m.shape != (d1 * d2, d1 * d2):
        raise LinalgError(f"matrix of shape {m.shape} does not factor as {d1}x{d2}")
    r = m.reshape(d1, d2, d1, d2)
    if subsystem == 1:
        return np.einsum("ikil->kl", r)
    if subsystem == 2:
        return np.einsum("kili->kl", r)
    raise LinalgError("subsystem must be 1 or 2")


def partial_transpose(m):
    """Transpose the second factor of a bipartite matrix on d (x) d."""
    m = np.asarray(m)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise LinalgError("matrix must be square")
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise LinalgError(f"size {n} is not a perfect square")
    r = m.reshape(d, d, d, d)
    return r.transpose(0, 3, 2, 1).reshape(n, n)


def _gell_mann(d):
    """Generalized Gell-Mann matrices, each normalized to tr(G^2) = 2."""
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            out.append(sym)
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1j
            anti[k, j] = 1j
            out.append(anti)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[np.arange(l), np.arange(l)] = 1.0
        diag[l, l] = -l
        out.append(np.sqrt(2.0 / (l * (l + 1))) * diag)
    return out


def hermitian_basis(d):
    """Orthogonal Hermitian basis: identity first, then SU(d) generators.

    Normalization: tr(H^a H^b) = delta_ab * (d if a == 1 else 2).
    For d = 2 the basis is exactly (I, X, Y, Z).
    """
    if d < 2:
        raise LinalgError("d must be >= 2")
    if d == 2:
        return [
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
    return [np.eye(d, dtype=complex)] + _gell_mann(d)


PAULI = hermitian_basis(2)


def matrix_sqrt(m):
    """Unique PSD square root of a Hermitian PSD matrix (eigendecomposition route).

    Eigenvalues in ``[-PSD_EIG_CLAMP, 0)`` are clamped to zero; anything more
    negative is an error.
    """
    m = hermitize(m)
    w, u = np.linalg.eigh(m)
    if w.min() < -PSD_EIG_CLAMP:
        raise LinalgError(f"matrix has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def min_eig(m):
    """Smallest eigenvalue of the Hermitian part of ``m``."""
    return float(np.linalg.eigvalsh(0.5 * (m + np.asarray(m).conj().T)).min())
