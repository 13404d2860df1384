"""Closed-form optimal tracking for pairs of qubit states.

Everything is driven by the Bloch-vector geometry of the two sources and the
two priority-scaled targets.  The indicator Omega decides between a
closed-loop extremal channel (procedure A) and an open-loop unitary
(procedure B).  Both are written once, in the SO(3) canonical form, by the
stacked kernel :func:`optimal_frames`; a single pair is a stack of one.  Each
optimum comes with a certificate built from the dual of the underlying
semidefinite program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChoiMatrix,
    DensityMatrix,
    QubitChannelCanonical,
    assemble_qubit_choi,
    rotation_aligning,
)
from .linalg import PAULI, LinalgError, stacked_dot

OMEGA_TIE = 1e-12
_EYE3 = np.eye(3)
# Kronecker products every certificate takes: sigma_k (x) I, I (x) X, sigma_k (x) sigma_k
_SIGMA_I = [np.kron(p, np.eye(2)) for p in PAULI[1:]]
_I_X = np.kron(np.eye(2), PAULI[1])
_SIGMA_SIGMA = [np.kron(p, p) for p in PAULI[1:]]


class DegenerateGeometryError(LinalgError):
    """Sources coincide, or both targets are maximally mixed."""


@dataclass(frozen=True)
class PairGeometry:
    """Bloch data of a two-state tracking instance.

    ``rb1``/``rb2`` are the Bloch vectors of the *priority-scaled* targets
    ``pi_i rhobar_i`` and ``c1``/``c2`` their scalar parts ``pi_i tr(rhobar_i)``
    (so ``c = c1 + c2 = 1`` for normalized targets).
    """

    r1: np.ndarray
    r2: np.ndarray
    rb1: np.ndarray
    rb2: np.ndarray
    c1: float = 0.5
    c2: float = 0.5

    def __post_init__(self):
        for name in ("r1", "r2", "rb1", "rb2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.linalg.norm(self.r1 - self.r2) <= 1e-12:
            raise DegenerateGeometryError("source states coincide")
        if np.linalg.norm(self.rb1) <= 1e-14 and np.linalg.norm(self.rb2) <= 1e-14:
            raise DegenerateGeometryError(
                "both targets are maximally mixed; use the depolarizing channel"
            )
        set_ = object.__setattr__
        set_(self, "r_minus", self.r1 - self.r2)
        set_(self, "r_cross", _cross3(self.r1, self.r2))
        set_(self, "rb_plus", self.rb1 + self.rb2)
        set_(self, "rb_cross", _cross3(self.rb1, self.rb2))
        r, rb = (self.r1, self.r2), (self.rb1, self.rb2)
        t_val = sum(
            (1.0 - r[i] @ r[j]) * (rb[i] @ rb[j]) for i in range(2) for j in range(2)
        )
        rm2 = self.r_minus @ self.r_minus
        rx2 = self.r_cross @ self.r_cross
        rbx2 = self.rb_cross @ self.rb_cross
        s_val = float(np.sqrt(t_val * t_val + 4.0 * rbx2 * (rm2 - rx2)))
        set_(self, "t_scalar", float(t_val))
        set_(self, "s_scalar", s_val)
        set_(self, "omega", float(s_val + t_val - 2.0 * np.sqrt(rbx2 * rx2)))
        set_(self, "c", float(self.c1 + self.c2))
        rbp = self.rb_plus
        set_(
            self,
            "xi_upper",
            float(
                (self.r1 @ self.r_minus) * (self.rb1 @ rbp)
                + (self.r2 @ self.r_minus) * (self.rb2 @ rbp)
            ),
        )
        set_(
            self,
            "xi_lower",
            float(np.sqrt(rx2) * (rbp @ rbp) + np.sqrt(rbx2) * rm2),
        )

    @classmethod
    def from_states(cls, rho1, rho2, rbar1, rbar2, pi1=0.5):
        rho1, rho2 = DensityMatrix(rho1.mat if isinstance(rho1, DensityMatrix) else rho1), \
            DensityMatrix(rho2.mat if isinstance(rho2, DensityMatrix) else rho2)
        pi2 = 1.0 - pi1
        b1 = _bloch(rbar1)
        b2 = _bloch(rbar2)
        t1 = _trace(rbar1)
        t2 = _trace(rbar2)
        return cls(
            r1=rho1.bloch,
            r2=rho2.bloch,
            rb1=pi1 * b1,
            rb2=pi2 * b2,
            c1=pi1 * t1,
            c2=pi2 * t2,
        )

    # Derived data (set in __post_init__): r_minus, r_cross, rb_plus,
    # rb_cross, t_scalar, s_scalar, omega, c, xi_upper, xi_lower.


def _cross3(a, b):
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def _bloch(state):
    m = state.mat if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)
    return np.array([np.trace(m @ p).real for p in PAULI[1:]])


def _trace(state):
    m = state.mat if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)
    return float(np.trace(m).real)


def gamma_a(g: PairGeometry):
    st = g.s_scalar + g.t_scalar
    rm2 = g.r_minus @ g.r_minus
    rbx2 = g.rb_cross @ g.rb_cross
    rbp2 = g.rb_plus @ g.rb_plus
    if st <= 1e-15:
        raise DegenerateGeometryError("S + T vanishes; instance belongs to procedure B")
    return float(np.sqrt(rbp2 + 2.0 * rm2 * rbx2 / st))


def gamma_b(g: PairGeometry):
    rbp2 = g.rb_plus @ g.rb_plus
    rx = np.linalg.norm(g.r_cross)
    rbx = np.linalg.norm(g.rb_cross)
    return float(np.sqrt(rbp2 - g.t_scalar + 2.0 * rx * rbx))


def optimal_fidelity(g: PairGeometry):
    """Maximal priority-weighted Hilbert-Schmidt overlap (c + Gamma)/2."""
    if g.omega > OMEGA_TIE:
        return 0.5 * (g.c + gamma_a(g))
    return 0.5 * (g.c + gamma_b(g))


def optimal_canonical(g: PairGeometry) -> QubitChannelCanonical:
    """Optimal tracker of one pair: :func:`optimal_frames` on a stack of one.

    LinalgError when the frames of this geometry are no proper rotations.
    """
    rv, ru, mu, s, ok = optimal_frames(g.r1, g.r2, g.rb1, g.rb2)
    if not ok:
        raise LinalgError("the optimal tracker's frames are not proper rotations")
    return QubitChannelCanonical.from_rotations(rv, ru, mu, s)


def optimal_frames(r1, r2, rb1, rb2):
    """Frames ``rv``, ``ru``, ``mu``, ``s`` of the optimal tracker for stacked pairs.

    Procedure A (the extremal, closed-loop channel) where Omega > 0 and
    procedure B (the open-loop unitary) elsewhere, over ``(..., 3)`` Bloch
    arrays of one shape (targets priority-scaled, as in :class:`PairGeometry`).
    Returns ``rv``, ``ru`` of shape ``(..., 3, 3)``, ``mu``, ``s`` of shape
    ``(..., 3)`` and a mask ``ok`` of the rows that have a tracker.  The other
    rows (coincident sources, maximally mixed targets, S + T = 0 in procedure
    A, frames that are no proper rotation) hold the identity channel.  Each
    row is computed from its own data only, with BLAS dots and Python's float
    power, so it rounds the same in any stack.
    """
    lead = np.shape(r1)[:-1]
    # component-first (3, n) stacks, so _cross3 works component-wise
    r1, r2, rb1, rb2 = (np.asarray(v, dtype=float).reshape(-1, 3).T for v in (r1, r2, rb1, rb2))
    with np.errstate(divide="ignore", invalid="ignore"):
        r_minus, rb_plus = r1 - r2, rb1 + rb2
        r_cross, rb_cross = _cross3(r1, r2), _cross3(rb1, rb2)
        r11, r12, r22, rb11, rb12, rb22, rm2, rx2, rbx2, rbp2, p1, p2 = stacked_dot(
            np.array([r1, r1, r2, rb1, rb1, rb2, r_minus, r_cross, rb_cross, rb_plus, r1, r2]
                     ).transpose(0, 2, 1),
            np.array([r1, r2, r2, rb1, rb2, rb2, r_minus, r_cross, rb_cross, rb_plus, r_minus,
                      r_minus]).transpose(0, 2, 1),
        )
        rm, rx, rbx = np.sqrt(rm2), np.sqrt(rx2), np.sqrt(rbx2)
        # the (1, 2) and (2, 1) terms of PairGeometry's T, which round alike
        t_val = ((1.0 - r11) * rb11 + (1.0 - r12) * rb12 + (1.0 - r12) * rb12
                 + (1.0 - r22) * rb22)
        s_val = np.sqrt(t_val * t_val + 4.0 * rbx2 * (rm2 - rx2))
        proc_a = s_val + t_val - 2.0 * np.sqrt(rbx2 * rx2) > OMEGA_TIE
        st = s_val + t_val
        st2, st3 = _pypow(st, 2), _pypow(st, 3)
        k_a = np.sqrt(2.0 / (s_val * st))
        alpha = np.where(proc_a, np.sqrt(st / (2.0 * s_val)), rx / rm)
        beta1 = np.where(proc_a, k_a * p1, p1 / (rbx * rm))
        beta2 = np.where(proc_a, k_a * p2, p2 / (rbx * rm))
        gamma = np.where(proc_a, np.sqrt(rbp2 + 2.0 * rm2 * rbx2 / st),
                         np.sqrt(rbp2 - t_val + 2.0 * rx * rbx))
        rbx_sq = rbx * rbx
        mu = np.where(proc_a, [2.0 * np.sqrt(2.0 / (s_val * st3)) * rbx_sq * rx * rm,
                               (2.0 / st) * rbx * rx, k_a * rbx * rm], 1.0)
        s = np.zeros(mu.shape)
        s[0] = np.where(proc_a, np.sqrt(1.0 / (2.0 * s_val * st3)) * (st2 - 4.0 * rbx_sq * rx * rx),
                        0.0)
        # rv takes both sources into the xz half-plane with a common +x part
        v2, v3 = r_cross / rx, r_minus / rm
        collinear = rx <= 1e-14
        if collinear.any():
            # collinear sources: any unit vector orthogonal to R- will do
            w = _cross3(v3, np.where(np.abs(v3[0]) < 0.9, _EYE3[:, :1], _EYE3[:, 1:2]))
            v2 = np.where(collinear, w / np.sqrt(stacked_dot(w.T, w.T)), v2)
        u2 = rb_cross / rbx
        u3 = ((alpha / rbx) * _cross3(rb_plus, rb_cross) + rbx * (beta1 * rb1 + beta2 * rb2)) / gamma
        # rows of rv and columns of ru, C-ordered (the order decides how BLAS
        # rounds products with them)
        rv = np.ascontiguousarray(np.array([_cross3(v2, v3), v2, v3]).transpose(2, 0, 1))
        ru = np.ascontiguousarray(np.array([_cross3(u2, u3), u2, u3]).transpose(2, 1, 0))
        f = np.flatnonzero(rbx <= 1e-14)
        if f.size:
            # Rb x = 0 (parallel, opposite or vanishing targets): procedure A
            # sends every state along Rb+, procedure B turns within the
            # xz-plane and then takes +z onto the longer target
            a = proc_a[f]
            len1, len2, rbp = np.sqrt(rb11[f]), np.sqrt(rb22[f]), np.sqrt(rbp2[f])
            sin_t = np.clip(rx[f] * (len1 - len2)
                            / (rm[f] * np.sqrt(np.maximum(rbp * rbp - t_val[f], 1e-300))),
                            -1.0, 1.0)
            cos_t = np.sqrt(1.0 - sin_t * sin_t)
            zero, one = np.zeros_like(cos_t), np.ones_like(cos_t)
            plane = np.array([[cos_t, zero, -sin_t], [zero, one, zero],
                              [sin_t, zero, cos_t]]).transpose(2, 0, 1)
            longer = np.where(len1 > 1e-14, rb1[:, f] / len1, -rb2[:, f] / len2)
            turn = rotation_aligning(np.where(a, _EYE3[:, :1], _EYE3[:, 2:]).T,
                                     np.where(a, rb_plus[:, f] / rbp, longer).T)
            ru[f] = np.where(a[:, None, None], turn, turn @ plane)
            mu[:, f], s[0, f] = np.where(a, 0.0, 1.0), np.where(a, 1.0, 0.0)
        mixed = (np.sqrt(rb11) <= 1e-14) & (np.sqrt(rb22) <= 1e-14)
        ok = ~((rm <= 1e-12) | mixed | (proc_a & (st <= 1e-15)) | _improper(rv, ru))
        if not ok.all():
            rv[~ok] = ru[~ok] = _EYE3
            mu[:, ~ok], s[:, ~ok] = 1.0, 0.0
    return (rv.reshape(*lead, 3, 3), ru.reshape(*lead, 3, 3), mu.T.reshape(*lead, 3),
            s.T.reshape(*lead, 3), ok.reshape(lead))


def _pypow(x, k):
    """``x ** k`` per element, rounded as Python's float power (numpy's may differ)."""
    return np.array([v**k for v in x.tolist()])


def _improper(*frames):
    """Rows where some R R^T differs from I by more than 1e-9, or holds NaN.

    The frames of :func:`optimal_frames` are [a x b, a, b] (as rows or
    columns, so det R = |a x b|^2 >= 0) or products of rotations, so
    R R^T = I forces det R = 1 as ``from_rotations`` demands.
    """
    r = np.stack(frames)
    dev = np.abs(r @ np.swapaxes(r, -1, -2) - _EYE3)
    return ~(dev.reshape(len(frames), -1, 9).max(-1) <= 1e-9).all(0)


def assemble_optimal_choi(g: PairGeometry) -> ChoiMatrix:
    """Choi matrix of the optimal tracker for this geometry."""
    return assemble_qubit_choi(optimal_canonical(g))


def diag_choi(mu, s1):
    """Choi matrix of the diagonal map with scale ``mu`` and x-translation ``s1``."""
    two_d = (
        np.eye(4, dtype=complex)
        + s1 * _I_X
        + mu[0] * _SIGMA_SIGMA[0]
        - mu[1] * _SIGMA_SIGMA[1]
        + mu[2] * _SIGMA_SIGMA[2]
    )
    return 0.5 * two_d


@dataclass
class DualCertificate:
    coefficients: np.ndarray  # (x0, x1, x2, x3)
    f_matrix: np.ndarray
    min_eig: float
    weak_duality_residual: float
    slackness_residual: float
    poly_roots: np.ndarray
    spectrum: np.ndarray
    canonical: QubitChannelCanonical  # the optimal channel this certifies

    @property
    def valid(self):
        return (
            self.min_eig >= -1e-9
            and self.weak_duality_residual <= 1e-9
            and self.slackness_residual <= 1e-8
        )


def dual_certificate(g: PairGeometry) -> DualCertificate:
    """Dual-feasible coefficients proving optimality of the analytic tracker.

    The certificate matrix ``F`` must be PSD, reproduce the primal value via
    ``2 x0 = -tr(F0~ D)``, and annihilate the diagonal Choi matrix ``D``.
    Its nonzero spectrum is cross-checked against the closed-form
    characteristic polynomial of the matching procedure.
    """
    canonical = optimal_canonical(g)
    rm = np.linalg.norm(g.r_minus)
    rx = np.linalg.norm(g.r_cross)
    rbx = np.linalg.norm(g.rb_cross)
    xi_u = g.xi_upper
    xi_l = g.xi_lower
    c_tot = g.c
    weighted = g.c1 * g.r1 + g.c2 * g.r2

    if g.omega > OMEGA_TIE:
        gam = gamma_a(g)
        x0 = 0.25 * (c_tot + gam)
        x1 = rx / (4.0 * rm) * (c_tot + gam)
        x3 = ((weighted @ g.r_minus) + xi_u / gam) / (4.0 * rm)
        s_val, t_val = g.s_scalar, g.t_scalar
        st = s_val + t_val
        upsilon = (4.0 * rm * rm * rbx * rbx + st * st) / (
            8.0 * rm * rm * gam * gam * s_val * st
        )
        const = upsilon * (
            (rm * rm - rx * rx) * gam**4 - xi_u * xi_u
        )
        roots = np.roots([1.0, -gam, const])
    else:
        gam = gamma_b(g)
        x0 = 0.25 * (c_tot + gam)
        x1 = (c_tot * rx + xi_l / gam) / (4.0 * rm)
        x3 = ((weighted @ g.r_minus) + xi_u / gam) / (4.0 * rm)
        varpi = 0.25 * (-g.omega + g.s_scalar + rx * rbx)
        omega_c = -(
            (rx * gam * gam - xi_l)
            * (rm * rm * gam * gam * xi_l - rx * (xi_l * xi_l + xi_u * xi_u))
        ) / (8.0 * rm**4 * gam**3)
        roots = np.roots([1.0, -gam, varpi, omega_c])

    coeffs = np.array([x0, x1, 0.0, x3])
    rho_mats = [0.5 * (np.eye(2) + sum(a * p for a, p in zip(r, PAULI[1:]))) for r in (g.r1, g.r2)]
    tgt_mats = [
        0.5 * (c_i * np.eye(2) + sum(a * p for a, p in zip(rb, PAULI[1:])))
        for c_i, rb in ((g.c1, g.rb1), (g.c2, g.rb2))
    ]
    v, u = canonical.V, canonical.U
    f0_tilde = -sum(
        np.kron((v @ r @ v.conj().T).T, u.conj().T @ t @ u)
        for r, t in zip(rho_mats, tgt_mats)
    )
    f_matrix = (
        f0_tilde
        + coeffs[0] * np.eye(4)
        + coeffs[1] * _SIGMA_I[0]
        + coeffs[2] * _SIGMA_I[1]
        + coeffs[3] * _SIGMA_I[2]
    )
    d_choi = diag_choi(canonical.mu, canonical.s[0])
    weak = abs(2.0 * coeffs[0] + np.trace(f0_tilde @ d_choi).real)
    slackness = float(np.abs(d_choi @ f_matrix).max())
    spectrum = np.linalg.eigvalsh(0.5 * (f_matrix + f_matrix.conj().T))
    return DualCertificate(
        coefficients=coeffs,
        f_matrix=f_matrix,
        min_eig=float(spectrum.min()),
        weak_duality_residual=float(weak),
        slackness_residual=slackness,
        poly_roots=np.sort(np.real(roots)),
        spectrum=spectrum,
        canonical=canonical,
    )


@dataclass
class QubitTrackerResult:
    omega: float
    procedure: str
    canonical: QubitChannelCanonical
    fidelity: float
    certificate: DualCertificate
    choi: ChoiMatrix
    unique: bool = True


def track_pair(rho1, rho2, rbar1, rbar2, pi1=0.5) -> QubitTrackerResult:
    """Solve the two-state tracking problem in closed form.

    At exactly Omega = 0 both procedures achieve the optimum; the unitary one
    is returned and flagged as non-unique.
    """
    g = PairGeometry.from_states(rho1, rho2, rbar1, rbar2, pi1)
    return track_geometry(g)


def track_geometry(g: PairGeometry) -> QubitTrackerResult:
    omega = g.omega
    procedure = "A" if omega > OMEGA_TIE else "B"
    certificate = dual_certificate(g)
    return QubitTrackerResult(
        omega=float(omega),
        procedure=procedure,
        canonical=certificate.canonical,
        fidelity=optimal_fidelity(g),
        certificate=certificate,
        choi=assemble_qubit_choi(certificate.canonical),
        unique=abs(omega) > OMEGA_TIE,
    )


def feedback_decomposition(g: PairGeometry):
    """Measurement-plus-feedback Kraus pair implementing procedure A.

    Returns V, M1, M2, U with channel rho -> (U M1 V) rho (.)^dag +
    (U Y M2 V) rho (.)^dag; the Y correction is applied on the second
    outcome.  Measurement strengths: sin(chi) = mu_3, sin(eta) = mu_2.
    """
    canonical = optimal_canonical(g)
    if g.omega <= OMEGA_TIE:
        return {
            "V": canonical.V,
            "U": canonical.U,
            "M1": np.eye(2, dtype=complex),
            "M2": np.zeros((2, 2), dtype=complex),
            "open_loop": True,
        }
    mu = canonical.mu
    chi = np.arcsin(np.clip(mu[2], -1.0, 1.0))
    eta = np.arcsin(np.clip(mu[1], -1.0, 1.0))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    p_plus = np.outer(plus, plus)
    p_minus = np.outer(minus, minus)
    m1 = np.cos((chi - eta) / 2.0) * p_plus + np.sin((chi + eta) / 2.0) * p_minus
    m2 = np.sin((chi - eta) / 2.0) * p_plus - np.cos((chi + eta) / 2.0) * p_minus
    return {
        "V": canonical.V,
        "U": canonical.U,
        "M1": m1.astype(complex),
        "M2": m2.astype(complex),
        "open_loop": False,
    }
