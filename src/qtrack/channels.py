"""Quantum-operation calculus on density matrices and Choi matrices.

A channel acting on ``d``-dimensional states is represented by its Choi matrix

    C = (I (x) C)(|Psi><Psi|),   |Psi> = sum_i |i>|i>   (unnormalized),

which is PSD iff the map is completely positive and satisfies
``tr_2 C = I_d`` iff the map is trace preserving.  The map acts as
``C(rho) = tr_1[(rho^T (x) I) C]``.
"""

from __future__ import annotations

import cmath
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
    perm_d4,
    stacked_dot,
    vec,
)

PSD_TOL = 1e-9
TP_TOL = 1e-9
RSW_SLACK = 1e-10
_EYE3 = np.eye(3)


@dataclass(frozen=True)
class DensityMatrix:
    """A d x d Hermitian, PSD, unit-trace state."""

    mat: np.ndarray

    def __post_init__(self):
        m = hermitize(np.asarray(self.mat, dtype=complex))
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise LinalgError(f"trace {np.trace(m).real:.12f} != 1")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise LinalgError("state has a negative eigenvalue")
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
        m = hermitize(np.asarray(self.mat, dtype=complex))
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
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise LinalgError("Kraus operators must share a square shape")
        object.__setattr__(self, "operators", ops)

    @property
    def d(self):
        return self.operators[0].shape[0]

    def is_tp(self, tol=TP_TOL):
        acc = sum(k.conj().T @ k for k in self.operators)
        return np.abs(acc - np.eye(self.d)).max() <= tol

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        out = sum(k @ rho.mat @ k.conj().T for k in self.operators)
        return DensityMatrix(out)


def choi_from_kraus(kraus: KrausSet) -> ChoiMatrix:
    """Choi matrix as the sum of vec(K) vec(K)^dag over the Kraus operators."""
    d = kraus.d
    acc = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus.operators:
        v = vec(k)
        acc += np.outer(v, v.conj())
    return ChoiMatrix(d, acc)


def kraus_from_choi(choi: ChoiMatrix, method="eig", tol=PSD_TOL) -> KrausSet:
    """Kraus operators by reshaping columns of a factor S^dag with C = S^dag S.

    ``method='eig'`` returns rank-many operators; ``method='cholesky'`` returns
    the full d^2 operators from the (regularized) Cholesky factor.
    """
    d = choi.d
    if method == "eig":
        w, u = np.linalg.eigh(choi.mat)
        if w.min() < -tol:
            raise LinalgError(f"Choi matrix is not PSD (min eig {w.min():.3e})")
        cutoff = max(1e-12 * max(w.max(), 1.0), 1e-13)
        ops = [mat(np.sqrt(lam) * u[:, i], d) for i, lam in enumerate(w) if lam > cutoff]
        if not ops:
            ops = [np.zeros((d, d), dtype=complex)]
        return KrausSet(ops)
    if method == "cholesky":
        shift = max(0.0, -min_eig(choi.mat)) + 1e-14
        s = np.linalg.cholesky(choi.mat + shift * np.eye(d * d)).conj().T
        return KrausSet([mat(s.conj().T[:, i], d) for i in range(d * d)])
    raise LinalgError(f"unknown method {method!r}")


def apply_choi(choi: ChoiMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Act with the channel: C(rho) = tr_1[(rho^T (x) I) C]."""
    if rho.d != choi.d:
        raise LinalgError("dimension mismatch between channel and state")
    return DensityMatrix(apply_choi_raw(choi.mat, rho.mat))


def apply_choi_raw(choi_mat, rho_mat):
    """Same as :func:`apply_choi` on bare arrays (no normalization checks)."""
    d = rho_mat.shape[0]
    big = np.kron(rho_mat.T, np.eye(d)) @ choi_mat
    return partial_trace(big, (d, d), 1)


def compose(a: ChoiMatrix, b: ChoiMatrix) -> ChoiMatrix:
    """Choi matrix of x -> b(a(x)) via tr_1[(C_a^T (x) I) P (|Psi><Psi| (x) C_b) P]."""
    if a.d != b.d:
        raise LinalgError("channels act on different dimensions")
    d = a.d
    p = perm_d4(d)
    psi = ChoiMatrix.identity(d).mat
    inner = p @ np.kron(psi, b.mat) @ p
    big = np.kron(a.mat.T, np.eye(d * d)) @ inner
    return ChoiMatrix(d, partial_trace(big, (d * d, d * d), 1))


def check_cptp(choi: ChoiMatrix, tol=PSD_TOL):
    """Report CP (Choi PSD) and TP (tr_2 = identity) with the observed residuals."""
    lam = min_eig(choi.mat)
    residual = float(np.abs(partial_trace(choi.mat, (choi.d, choi.d), 2) - np.eye(choi.d)).max())
    return {
        "cp": lam >= -tol,
        "tp": residual <= TP_TOL,
        "min_eig": lam,
        "tp_residual": residual,
    }


def check_ppt(choi: ChoiMatrix, tol=PSD_TOL):
    """Positivity of the partial transpose; certifies EBTP membership at d = 2."""
    lam = min_eig(partial_transpose(choi.mat))
    return {"ppt": lam >= -tol, "min_eig_pt": lam}


# ---------------------------------------------------------------------------
# Qubit canonical (rotation-diagonal-rotation) representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class QubitChannelCanonical:
    """Qubit channel as rho -> U D(V rho V^dag) U^dag, kept in Bloch frames.

    ``D`` scales the Bloch components by ``mu`` and translates by ``s``;
    ``rv`` and ``ru`` are the SO(3) actions of the input and output basis
    rotations ``V`` and ``U``.  ``QubitChannelCanonical(V, U, mu, s)`` takes
    the unitaries and keeps them; :meth:`from_rotations` takes the rotations,
    and ``V``/``U`` are then built as SU(2) elements when first read.
    """

    rv: np.ndarray
    ru: np.ndarray
    mu: np.ndarray
    s: np.ndarray

    def __init__(self, V, U, mu, s):
        self.__dict__.update(V=V, U=U, mu=mu, s=s)
        self.__post_init__()

    @classmethod
    def from_rotations(cls, rv, ru, mu, s):
        """Channel from proper rotations ``rv``, ``ru`` (LinalgError otherwise)."""
        q = cls.__new__(cls)
        q.__dict__.update(rv=rv, ru=ru, mu=mu, s=s)
        q.__post_init__()
        return q

    def __post_init__(self):
        """Check and normalise the data of either constructor; rv/ru from V/U if given."""
        fields = self.__dict__
        for rot, name in (("rv", "V"), ("ru", "U")):
            if name in fields:
                w = np.asarray(fields[name], dtype=complex)
                if np.abs(w @ w.conj().T - np.eye(2)).max() > 1e-10:
                    raise LinalgError(f"{name} is not unitary")
                fields[name] = w
                fields[rot] = rotation_of_unitary(w)
            else:
                fields[rot] = _proper_rotation(fields[rot])
        fields["mu"] = np.asarray(fields["mu"], dtype=float)
        fields["s"] = np.asarray(fields["s"], dtype=float)

    @cached_property
    def V(self):
        return unitary_of_rotation(self.rv)

    @cached_property
    def U(self):
        return unitary_of_rotation(self.ru)

    def bloch_map(self, r):
        """Affine Bloch action of the channel on a (possibly unnormalized) vector."""
        return self.ru @ (self.mu * (self.rv @ np.asarray(r, dtype=float)) + self.s)


def rotation_of_unitary(w):
    """SO(3) matrix R with (W rho W^dag) Bloch vector = R r.

    With the phase of sqrt(det W) removed, W = a I - i (b X + c Y + d Z), and
    R is the rotation matrix of the quaternion (a, b, c, d); this equals the
    trace form R_pq = tr(sigma_p W sigma_q W^dag) / 2.
    """
    (w00, w01), (w10, w11) = np.asarray(w, dtype=complex).tolist()
    phase = cmath.sqrt(w00 * w11 - w01 * w10)
    phase = phase.conjugate() / abs(phase)
    a = 0.5 * ((w00 + w11) * phase).real
    b = -0.5 * ((w01 + w10) * phase).imag
    c = 0.5 * ((w10 - w01) * phase).real
    d = 0.5 * ((w11 - w00) * phase).imag
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2.0 * (b * c - a * d), 2.0 * (b * d + a * c)],
            [2.0 * (b * c + a * d), a * a - b * b + c * c - d * d, 2.0 * (c * d - a * b)],
            [2.0 * (b * d - a * c), 2.0 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


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


def assemble_qubit_choi(q: QubitChannelCanonical) -> ChoiMatrix:
    """Choi matrix 2C = I4 + sum_k s_k I (x) (u_k.sigma) + sum_k mu_k (v_k.sigma)^T (x) (u_k.sigma)."""
    v_set = [q.rv[k] for k in range(3)]  # rows: V^dag sigma_k V = v_k . sigma
    u_set = [q.ru[:, k] for k in range(3)]  # columns: U sigma_k U^dag = u_k . sigma
    two_c = np.eye(4, dtype=complex)
    for k in range(3):
        u_sigma = sum(x * p for x, p in zip(u_set[k], PAULI[1:]))
        v_sigma = sum(x * p for x, p in zip(v_set[k], PAULI[1:]))
        two_c += q.s[k] * np.kron(np.eye(2), u_sigma)
        two_c += q.mu[k] * np.kron(v_sigma.T, u_sigma)
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
    m_aff = np.zeros((3, 3))
    basis = np.eye(3)
    out0 = bloch_of(apply_choi_raw(choi.mat, 0.5 * np.eye(2)))
    for j in range(3):
        rho_j = 0.5 * (np.eye(2) + sum(x * p for x, p in zip(basis[j], PAULI[1:])))
        m_aff[:, j] = bloch_of(apply_choi_raw(choi.mat, rho_j)) - out0
    tau = out0
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
    return QubitChannelCanonical.from_rotations(o1.T, o2, mu, o2.T @ tau)


def bloch_of(rho_mat):
    """Bloch vector of a bare 2 x 2 matrix (no normalization checks)."""
    return np.array([np.trace(rho_mat @ p).real for p in PAULI[1:]])


def check_rsw(mu, s, slack=RSW_SLACK):
    """Feasibility (CPTP) and extremality of a diagonal qubit map (mu, s).

    Feasibility uses the closed inequalities for scale factors ``mu`` and
    translation ``s`` (both sign branches).  Extremality is checked up to a
    relabeling of the axes: one axis carries the translation ``s_k`` with
    ``mu_k = mu_i mu_j`` and ``s_k^2 = (1 - mu_i^2)(1 - mu_j^2)``.
    """
    mu = np.asarray(mu, dtype=float)
    s = np.asarray(s, dtype=float)
    feasible = True
    s12 = s[0] ** 2 + s[1] ** 2
    for sign in (+1.0, -1.0):
        den1 = 1.0 - mu[2] + sign * s[2]
        den2 = 1.0 + mu[2] + sign * s[2]
        for lhs, base, den_num, den_den in (
            ((mu[0] + mu[1]) ** 2, (1.0 + mu[2]) ** 2 - s[2] ** 2, 1.0 + mu[2] + sign * s[2], den1),
            ((mu[0] - mu[1]) ** 2, (1.0 - mu[2]) ** 2 - s[2] ** 2, 1.0 - mu[2] + sign * s[2], den2),
        ):
            if abs(den_den) < 1e-14:
                if s12 > slack:
                    feasible = False
                continue
            if lhs > base - s12 * (den_num / den_den) + slack:
                feasible = False
    lhs3 = (1.0 - (mu @ mu) - (s @ s)) ** 2
    rhs3 = 4.0 * (
        mu[0] ** 2 * (s[0] ** 2 + mu[1] ** 2)
        + mu[1] ** 2 * (s[1] ** 2 + mu[2] ** 2)
        + mu[2] ** 2 * (s[2] ** 2 + mu[0] ** 2)
        - 2.0 * mu[0] * mu[1] * mu[2]
    )
    if lhs3 < rhs3 - slack:
        feasible = False

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


def random_channel(d, rng, kraus_count=None) -> ChoiMatrix:
    """Random CPTP channel from a Haar-random Stinespring isometry."""
    k = kraus_count or d * d
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
