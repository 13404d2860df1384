"""Quantum-operation calculus on density matrices and Choi matrices.

A channel Phi acting on ``d``-dimensional states is represented by its Choi matrix

    C = (I (x) Phi)(|Psi><Psi|) = sum_ij |i><j| (x) Phi(|i><j|),   |Psi> = sum_i |i>|i>,

which is PSD iff the map is completely positive and satisfies
``tr_2 C = I_d`` iff the map is trace preserving.

Every linear map on Choi matrices is one index contraction over the
``(d, d, d, d)`` view ``C[i, k, j, l] = Phi(|i><j|)_kl``: the map acts as
``Phi(rho)_kl = sum_ij rho_ij C[i, k, j, l]``, and x -> b(a(x)) has
``C[i, k, j, l] = sum_mn A[i, m, j, n] B[m, k, n, l]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    LinalgError,
    PAULI,
    hermitize,
    mat,
    min_eig,
    partial_trace,
    partial_transpose,
    stacked_dot,
    vec,
)

PSD_TOL = 1e-9
TP_TOL = 1e-9
_EYE2 = np.eye(2)
_EYE3 = np.eye(3)
# I/2 and the states (I + sigma_j)/2, whose images give a qubit channel's Bloch action
_BLOCH_PROBES = 0.5 * np.array([PAULI[0], *(PAULI[0] + p for p in PAULI[1:])])


@dataclass(frozen=True)
class DensityMatrix:
    """A d x d Hermitian, PSD, unit-trace state."""

    mat: np.ndarray

    def __post_init__(self):
        """Validated once: ``mat`` is a read-only Hermitian copy of the input."""
        m = hermitize(np.asarray(self.mat, dtype=complex))
        if not np.isfinite(m).all():
            raise LinalgError("state has non-finite entries")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise LinalgError(f"trace {np.trace(m).real:.12f} != 1")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise LinalgError("state has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def d(self):
        return self.mat.shape[0]

    @property
    def bloch(self):
        """Bloch vector (d = 2 only)."""
        if self.d != 2:
            raise LinalgError("Bloch vector defined only for qubits")
        return bloch_of(self.mat)

    def purity(self):
        return float(np.trace(self.mat @ self.mat).real)

    @classmethod
    def from_bloch(cls, r):
        r = np.asarray(r, dtype=float)
        if np.linalg.norm(r) > 1 + 1e-10:
            raise LinalgError("Bloch vector leaves the unit ball")
        m = 0.5 * (np.eye(2, dtype=complex) + sum(x * p for x, p in zip(r, PAULI[1:])))
        return cls(m)

    @classmethod
    def pure(cls, ket):
        ket = np.asarray(ket, dtype=complex)
        ket = ket / np.linalg.norm(ket)
        return cls(np.outer(ket, ket.conj()))

    @classmethod
    def maximally_mixed(cls, d):
        return cls(np.eye(d, dtype=complex) / d)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a linear map on d-dimensional operators."""

    d: int
    mat: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise LinalgError(f"channel dimension must be at least 1, got {self.d}")
        m = np.asarray(self.mat, dtype=complex)
        if not np.isfinite(m).all():
            raise LinalgError("Choi matrix has non-finite entries")
        m = hermitize(m)
        if m.shape != (self.d**2, self.d**2):
            raise LinalgError(f"Choi matrix must be {self.d ** 2} x {self.d ** 2}")
        object.__setattr__(self, "mat", m)

    @classmethod
    def identity(cls, d):
        psi = vec(np.eye(d, dtype=complex))
        return cls(d, np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class KrausSet:
    """A list of same-shaped Kraus operators."""

    operators: tuple

    def __init__(self, operators):
        ops = tuple(np.asarray(k, dtype=complex) for k in operators)
        if not ops:
            raise LinalgError("empty Kraus set")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != (shape[0], shape[0]) for k in ops):
            raise LinalgError("Kraus operators must be square matrices of one shape")
        object.__setattr__(self, "operators", ops)

    @property
    def d(self):
        return self.operators[0].shape[0]

    def is_tp(self):
        acc = sum(k.conj().T @ k for k in self.operators)
        return np.abs(acc - np.eye(self.d)).max() <= TP_TOL

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        out = sum(k @ rho.mat @ k.conj().T for k in self.operators)
        return DensityMatrix(out)


def choi_from_kraus(kraus: KrausSet) -> ChoiMatrix:
    """Choi matrix sum_K vec(K) vec(K)^dag: one product of the stacked vec(K) rows."""
    d = kraus.d
    rows = np.array(kraus.operators).mT.reshape(-1, d * d)  # row a is vec(K_a)
    return ChoiMatrix(d, rows.T @ rows.conj())


def kraus_from_choi(choi: ChoiMatrix) -> KrausSet:
    """Rank-many Kraus operators, reshaped from the eigenvectors of C scaled by sqrt(lambda)."""
    d = choi.d
    w, u = np.linalg.eigh(choi.mat)
    if w.min() < -PSD_TOL:
        raise LinalgError(f"Choi matrix is not PSD (min eig {w.min():.3e})")
    cutoff = max(1e-12 * max(w.max(), 1.0), 1e-13)
    ops = [mat(np.sqrt(lam) * u[:, i], d) for i, lam in enumerate(w) if lam > cutoff]
    if not ops:
        ops = [np.zeros((d, d), dtype=complex)]
    return KrausSet(ops)


def apply_choi(choi: ChoiMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Act with the channel: Phi(rho)_kl = sum_ij rho_ij C[i, k, j, l]."""
    if rho.d != choi.d:
        raise LinalgError("dimension mismatch between channel and state")
    return DensityMatrix(apply_choi_raw(choi.mat, rho.mat))


def apply_choi_raw(choi_mat, rho_mat):
    """Same as :func:`apply_choi` on bare arrays, over ``(..., d, d)`` stacks of
    states (no normalization checks)."""
    d = rho_mat.shape[-1]
    return np.einsum("...ij,ikjl->...kl", rho_mat, choi_mat.reshape(d, d, d, d))


def compose(a: ChoiMatrix, b: ChoiMatrix) -> ChoiMatrix:
    """Choi matrix of x -> b(a(x)): C[i, k, j, l] = sum_mn A[i, m, j, n] B[m, k, n, l]."""
    if a.d != b.d:
        raise LinalgError("channels act on different dimensions")
    d = a.d
    c = np.einsum("imjn,mknl->ikjl", a.mat.reshape(d, d, d, d), b.mat.reshape(d, d, d, d))
    return ChoiMatrix(d, c.reshape(d * d, d * d))


def check_cptp(choi: ChoiMatrix):
    """Report CP (Choi PSD) and TP (tr_2 = identity) with the observed residuals."""
    lam = min_eig(choi.mat)
    residual = float(np.abs(partial_trace(choi.mat, (choi.d, choi.d), 2) - np.eye(choi.d)).max())
    return {
        "cp": lam >= -PSD_TOL,
        "tp": residual <= TP_TOL,
        "min_eig": lam,
        "tp_residual": residual,
    }


def check_ppt(choi: ChoiMatrix):
    """Positivity of the partial transpose; certifies EBTP membership at d = 2."""
    lam = min_eig(partial_transpose(choi.mat))
    return {"ppt": lam >= -PSD_TOL, "min_eig_pt": lam}


# ---------------------------------------------------------------------------
# Qubit canonical (rotation-diagonal-rotation) representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QubitChannelCanonical:
    """Qubit channel as rho -> U D(V rho V^dag) U^dag, kept in Bloch frames.

    ``D`` scales the Bloch components by ``mu`` and translates by ``s``;
    ``rv`` and ``ru`` are the SO(3) actions of the input and output basis
    rotations ``V`` and ``U``, and every computation uses them.  ``V`` and
    ``U`` are built as SU(2) elements only when an output reads them.
    """

    rv: np.ndarray
    ru: np.ndarray
    mu: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        """LinalgError unless ``rv`` and ``ru`` are proper rotations and ``mu``
        and ``s`` finite; all fields as floats."""
        mu, s = np.asarray(self.mu, dtype=float), np.asarray(self.s, dtype=float)
        if not all(map(math.isfinite, mu.ravel().tolist() + s.ravel().tolist())):
            raise LinalgError(f"mu={mu.tolist()}, s={s.tolist()} is not a channel")
        vars(self).update(rv=_proper_rotation(self.rv), ru=_proper_rotation(self.ru), mu=mu, s=s)

    @classmethod
    def _checked(cls, rv, ru, mu, s):
        """The channel of float arrays the caller has checked already, as
        :func:`~qtrack.analytic.optimal_frames` does its rows: proper rotations
        ``rv``, ``ru`` and finite ``mu``, ``s``.  They are taken as they are."""
        q = object.__new__(cls)
        vars(q).update(rv=rv, ru=ru, mu=mu, s=s)
        return q

    @cached_property
    def V(self):
        return unitary_of_rotation(self.rv)

    @cached_property
    def U(self):
        return unitary_of_rotation(self.ru)


def _proper_rotation(r):
    """``r`` as a float array; LinalgError unless R R^T = I (to 1e-9) and det R > 0."""
    r = np.asarray(r, dtype=float)
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if not (np.abs(r @ r.T - _EYE3).max() <= 1e-9 and det >= 0):  # NaN fails too
        raise LinalgError("not a proper rotation matrix")
    return r


def unitary_of_rotation(r):
    """SU(2) element whose conjugation action on Bloch vectors is the rotation ``r``."""
    r = _proper_rotation(r)
    antisym = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin_part = 0.5 * np.linalg.norm(antisym)  # = sin(theta)
    cos_part = 0.5 * (np.trace(r) - 1.0)
    if sin_part > 1e-9:
        axis = antisym / (2.0 * sin_part)
        theta = np.arctan2(sin_part, cos_part)
    elif cos_part > 0.0:
        return np.eye(2, dtype=complex)
    else:
        # half turn: axis from the +1 eigenvector; its sign is irrelevant
        theta = np.pi
        w, v = np.linalg.eigh(0.5 * (r + r.T))
        axis = v[:, np.argmax(w)]
    axis = axis / np.linalg.norm(axis)
    n_sigma = sum(a * p for a, p in zip(axis, PAULI[1:]))
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * n_sigma


def rotation_aligning(a, b):
    """Rotations sending the directions of ``a`` onto those of ``b``, over ``(..., 3)``."""
    a, b = _unit(a), _unit(b)
    # nearly opposite rows, where dividing by 1 + a.b below would cost digits:
    # a half turn about an axis orthogonal to a, then -a onto b
    flip = 1.0 + stacked_dot(a, b) < 1e-4
    turned = a[flip]
    a = np.where(flip[..., None], _unit(-a), a)
    b = np.where(flip[..., None], _unit(b), b)
    v, c = np.cross(a, b), stacked_dot(a, b)
    vx = np.zeros(v.shape + (3,))
    vx[..., 0, 1], vx[..., 0, 2], vx[..., 1, 2] = -v[..., 2], v[..., 1], -v[..., 0]
    vx[..., 1, 0], vx[..., 2, 0], vx[..., 2, 1] = v[..., 2], -v[..., 1], v[..., 0]
    r = _EYE3 + vx + vx @ vx / (1.0 + c)[..., None, None]
    r[np.sqrt(stacked_dot(v, v)) < 1e-14] = _EYE3
    if flip.any():
        helper = np.where(np.abs(turned[:, :1]) < 0.9, _EYE3[0], _EYE3[1])
        axis = _unit(np.cross(turned, helper))
        r[flip] = r[flip] @ (2.0 * axis[:, :, None] * axis[:, None, :] - _EYE3)
    return r


def _unit(v):
    """``v`` over its Euclidean norm along the last axis."""
    v = np.asarray(v, dtype=float)
    return v / np.sqrt(stacked_dot(v, v))[..., None]


def _dot_sigma(coeffs):
    """Each row of ``coeffs`` dotted into the Pauli vector: (k, 3) -> (k, 2, 2)."""
    return sum(coeffs[:, j, None, None] * PAULI[j + 1] for j in range(3))


def _kron2(a, b):
    """``np.kron`` of 2 x 2 matrices, broadcast over leading axes: -> (k, 4, 4)."""
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(-1, 4, 4)


# [j, k] = sigma_j^T (x) sigma_k for j, k = 0..3 (sigma_0 = I)
_PAULI_PAIRS = _kron2(np.swapaxes(PAULI, 1, 2)[:, None], np.array(PAULI)).reshape(4, 4, 4, 4)


def _pauli_pairs(coeffs):
    """sum_jk coeffs[j, k] sigma_j^T (x) sigma_k for a real 4 x 4 ``coeffs``.

    One (1, 16) x (16, 16) product: the GEMM that ``np.tensordot(coeffs,
    _PAULI_PAIRS, 2)`` makes, without its set-up.
    """
    return np.dot(coeffs.reshape(1, 16), _PAULI_PAIRS.reshape(16, 16)).reshape(4, 4)


def _diagonal_choi(mu, s):
    """Choi matrix (I + s.(I (x) sigma) + sum_k mu_k sigma_k^T (x) sigma_k) / 2 of (mu, s)."""
    coeffs = np.diag([1.0, *mu])
    coeffs[0, 1:] = s
    return _pauli_pairs(0.5 * coeffs)


def assemble_qubit_choi(q: QubitChannelCanonical) -> ChoiMatrix:
    """Choi matrix 2C = I4 + sum_k s_k I (x) (u_k.sigma) + sum_k mu_k (v_k.sigma)^T (x) (u_k.sigma)."""
    u_sigma = _dot_sigma(q.ru.T)  # columns: U sigma_k U^dag = u_k . sigma
    v_sigma = _dot_sigma(q.rv)  # rows: V^dag sigma_k V = v_k . sigma
    shifts = q.s[:, None, None] * _kron2(_EYE2, u_sigma)
    scales = q.mu[:, None, None] * _kron2(v_sigma.transpose(0, 2, 1), u_sigma)
    two_c = np.eye(4, dtype=complex)
    for k in range(3):  # summed k by k, as in the per-k np.kron form, to round alike
        two_c += shifts[k]
        two_c += scales[k]
    return ChoiMatrix(2, 0.5 * two_c)


def canonical_qubit(choi: ChoiMatrix) -> QubitChannelCanonical:
    """Decompose a CPTP qubit Choi matrix into rotation-diagonal-rotation form.

    The 3x3 Bloch-action matrix is SVD'd into proper rotations; inversion signs
    are absorbed into ``mu``, with a deterministic sign convention (first
    nonzero entry of each left singular vector made positive).
    """
    if choi.d != 2:
        raise LinalgError("canonical form defined for qubit channels only")
    report = check_cptp(choi)
    if not (report["cp"] and report["tp"]):
        raise LinalgError(f"channel is not CPTP: {report}")
    # Bloch action: out = M r + tau
    out = bloch_of(apply_choi_raw(choi.mat, _BLOCH_PROBES))
    tau = out[0]
    m_aff = (out[1:] - tau).T
    o2, sing, o1t = np.linalg.svd(m_aff)
    o1 = o1t.T
    # deterministic column signs before absorbing inversions
    for k in range(3):
        col = o2[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            o2[:, k] = -col
            o1[:, k] = -o1[:, k]
            # singular value sign unchanged: both factors flipped
    mu = sing.copy()
    if np.linalg.det(o2) < 0:
        o2[:, 2] = -o2[:, 2]
        mu[2] = -mu[2]
    if np.linalg.det(o1) < 0:
        o1[:, 2] = -o1[:, 2]
        mu[2] = -mu[2]
    return QubitChannelCanonical(o1.T, o2, mu, o2.T @ tau)


def bloch_of(rho_mat):
    """Bloch vectors ``Re tr(rho sigma_k)`` of bare 2 x 2 matrices over ``(..., 2, 2)``.

    No normalization checks.  Read off the entries: ``Re(m01 + m10)``,
    ``Re(i m01 - i m10)`` and ``Re(m00 - m11)``, which round as the traces do.
    """
    m = np.asarray(rho_mat)
    if m.shape[-2:] != (2, 2):
        raise LinalgError(f"Bloch vector defined only for 2 x 2 matrices, not {m.shape}")
    # entries m00, m01, m10, m11 first; .T reverses the leading axes twice
    m00, m01, m10, m11 = m.reshape(*m.shape[:-2], 4).T
    return np.array([(m01 + m10).real, (1j * m01 - 1j * m10).real, (m00 - m11).real]).T


def check_rsw(mu, s):
    """Feasibility (CPTP) and extremality of a diagonal qubit map (mu, s).

    The map is a channel iff its Choi matrix :func:`_diagonal_choi` is PSD (to
    ``PSD_TOL``); non-finite ``mu`` or ``s`` never is.  Extremality is checked
    in closed form up to a relabeling of the axes: one axis carries the
    translation ``s_k`` with ``mu_k = mu_i mu_j`` and
    ``s_k^2 = (1 - mu_i^2)(1 - mu_j^2)``.
    """
    mu = np.asarray(mu, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (np.isfinite(mu).all() and np.isfinite(s).all()):  # before inf * 0 in the GEMM
        return {"feasible": False, "extremal": False}
    feasible = bool(np.linalg.eigvalsh(_diagonal_choi(mu, s)).min() >= -PSD_TOL)

    extremal = False
    for k in range(3):
        i, j = [x for x in range(3) if x != k]
        if (
            abs(s[i]) <= 1e-9
            and abs(s[j]) <= 1e-9
            and abs(mu[k] - mu[i] * mu[j]) <= 1e-9
            and abs(s[k] ** 2 - (1.0 - mu[i] ** 2) * (1.0 - mu[j] ** 2)) <= 1e-9
        ):
            extremal = True
    return {"feasible": feasible, "extremal": extremal and feasible}


# ---------------------------------------------------------------------------
# Random states and channels
# ---------------------------------------------------------------------------


def haar_random_unitary(d, rng):
    """Haar-distributed unitary via QR of a complex Gaussian with phase-fixed diagonal."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_state(d, rng, pure=False) -> DensityMatrix:
    """Random state: Haar-random pure, or simplex-uniform eigenvalues conjugated by Haar U."""
    if pure:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return DensityMatrix.pure(z)
    gaps = rng.uniform(size=d - 1)
    lam = np.diff(np.concatenate(([0.0], np.sort(gaps), [1.0])))
    u = haar_random_unitary(d, rng)
    return DensityMatrix((u * lam) @ u.conj().T)


def random_channel(d, rng) -> ChoiMatrix:
    """Random CPTP channel with d^2 Kraus operators, from a Haar-random Stinespring isometry."""
    k = d * d
    z = rng.standard_normal((d * k, d)) + 1j * rng.standard_normal((d * k, d))
    q, _ = np.linalg.qr(z)
    ops = [q[i * d : (i + 1) * d, :] for i in range(k)]
    return choi_from_kraus(KrausSet(ops))


def single_state_converter(target: DensityMatrix) -> KrausSet:
    """TP Kraus set A_jk = sqrt(a_j) |j><k| that outputs ``target`` for every input."""
    w, u = np.linalg.eigh(target.mat)
    d = target.d
    ops = []
    for j in range(d):
        if w[j] <= 0:
            continue
        for k in range(d):
            ops.append(np.sqrt(w[j]) * np.outer(u[:, j], u[:, k].conj()))
    return KrausSet(ops)
