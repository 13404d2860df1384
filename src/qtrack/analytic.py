"""Closed-form optimal tracking for pairs of qubit states.

Everything is driven by the Bloch-vector geometry of the two sources and the
two priority-scaled targets.  A scalar indicator decides between a
closed-loop extremal channel (procedure A) and an open-loop unitary
(procedure B); both come with an optimality certificate built from the dual
of the underlying semidefinite program.
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
        set_(self, "r_plus", self.r1 + self.r2)
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

    # Derived data (set in __post_init__): r_minus, r_plus, r_cross, rb_plus,
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


def indicator(g: PairGeometry):
    """Indicator Omega = S + T - 2 Rb_x R_x; positive means non-unitary control."""
    return float(g.omega)


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


def _v_rotation(g: PairGeometry):
    """Rotation taking both sources into the xz half-plane with common +x part."""
    rm = g.r_minus / np.linalg.norm(g.r_minus)
    rx_vec = g.r_cross
    rx = np.linalg.norm(rx_vec)
    if rx > 1e-14:
        v2 = rx_vec / rx
    else:
        # collinear sources: any unit vector orthogonal to r_minus works
        helper = np.array([1.0, 0.0, 0.0]) if abs(rm[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        v2 = _cross3(rm, helper)
        v2 /= np.linalg.norm(v2)
    v3 = rm
    v1 = _cross3(v2, v3)
    return np.vstack([v1, v2, v3])  # rows


def _u_rotation_from_versors(g: PairGeometry, alpha, betas, gamma):
    rbx_vec = g.rb_cross
    rbx = np.linalg.norm(rbx_vec)
    u2 = rbx_vec / rbx
    u3 = (
        (alpha / rbx) * _cross3(g.rb_plus, rbx_vec)
        + rbx * (betas[0] * g.rb1 + betas[1] * g.rb2)
    ) / gamma
    u1 = _cross3(u2, u3)
    return np.column_stack([u1, u2, u3])  # columns


def procedure_a(g: PairGeometry) -> QubitChannelCanonical:
    """Extremal (closed-loop) optimal channel for Omega > 0."""
    if g.omega <= OMEGA_TIE:
        raise LinalgError("procedure A requires Omega > 0")
    s_val, t_val = g.s_scalar, g.t_scalar
    st = s_val + t_val
    rm = np.linalg.norm(g.r_minus)
    rx = np.linalg.norm(g.r_cross)
    rbx = np.linalg.norm(g.rb_cross)
    rbx2 = rbx * rbx

    if rbx <= 1e-14:
        mu = np.zeros(3)
        s1 = 1.0
        rbp = g.rb_plus
        ru = rotation_aligning(np.array([1.0, 0.0, 0.0]), rbp / np.linalg.norm(rbp))
    else:
        mu1 = 2.0 * np.sqrt(2.0 / (s_val * st**3)) * rbx2 * rx * rm
        mu2 = (2.0 / st) * rbx * rx
        mu3 = np.sqrt(2.0 / (s_val * st)) * rbx * rm
        s1 = np.sqrt(1.0 / (2.0 * s_val * st**3)) * (st**2 - 4.0 * rbx2 * rx * rx)
        mu = np.array([mu1, mu2, mu3])
        alpha = np.sqrt(st / (2.0 * s_val))
        betas = [np.sqrt(2.0 / (s_val * st)) * (g.r1 @ g.r_minus),
                 np.sqrt(2.0 / (s_val * st)) * (g.r2 @ g.r_minus)]
        ru = _u_rotation_from_versors(g, alpha, betas, gamma_a(g))
    return QubitChannelCanonical.from_rotations(_v_rotation(g), ru, mu, np.array([s1, 0.0, 0.0]))


def procedure_b(g: PairGeometry) -> QubitChannelCanonical:
    """Unitary (open-loop) optimal channel for Omega <= 0."""
    if g.omega > OMEGA_TIE:
        raise LinalgError("procedure B requires Omega <= 0")
    rv = _v_rotation(g)
    rm = np.linalg.norm(g.r_minus)
    rx = np.linalg.norm(g.r_cross)
    rbx = np.linalg.norm(g.rb_cross)
    if rbx > 1e-14:
        alpha = rx / rm
        betas = [(g.r1 @ g.r_minus) / (rbx * rm), (g.r2 @ g.r_minus) / (rbx * rm)]
        ru = _u_rotation_from_versors(g, alpha, betas, gamma_b(g))
    else:
        # anti-parallel targets: rotate within the xz-plane, then align +z
        # with the direction of the longer target
        len1, len2 = np.linalg.norm(g.rb1), np.linalg.norm(g.rb2)
        rbp = np.linalg.norm(g.rb_plus)
        denom = rm * np.sqrt(max(rbp * rbp - g.t_scalar, 1e-300))
        sin_t = rx * (len1 - len2) / denom
        sin_t = float(np.clip(sin_t, -1.0, 1.0))
        cos_t = np.sqrt(1.0 - sin_t * sin_t)
        rot_plane = np.array(
            [[cos_t, 0.0, -sin_t], [0.0, 1.0, 0.0], [sin_t, 0.0, cos_t]]
        )
        if len1 > 1e-14:
            axis = g.rb1 / len1
        else:
            axis = -g.rb2 / len2
        ru = rotation_aligning(np.array([0.0, 0.0, 1.0]), axis) @ rot_plane
    return QubitChannelCanonical.from_rotations(rv, ru, np.ones(3), np.zeros(3))


def optimal_canonical(g: PairGeometry) -> QubitChannelCanonical:
    return procedure_a(g) if g.omega > OMEGA_TIE else procedure_b(g)


def optimal_frames(r1, r2, rb1, rb2):
    """Frames ``rv``, ``ru``, ``mu``, ``s`` of the optimal tracker for stacked pairs.

    The stacked form of :func:`optimal_canonical` over ``(..., 3)`` Bloch
    arrays of one shape (targets priority-scaled, as in :class:`PairGeometry`),
    for the generic branches of procedures A and B.  Returns ``rv``, ``ru`` of
    shape ``(..., 3, 3)``, ``mu``, ``s`` of shape ``(..., 3)`` and a mask
    ``ok`` of the rows it covers.  There it repeats the scalar route's
    arithmetic in the same order (BLAS dots, Python's float power), so the
    values round as the scalar route's do.  The other rows
    (coincident or collinear sources, maximally mixed or parallel targets,
    S + T = 0, frames that are no proper rotation) hold no meaningful values
    and need the scalar route.
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
        # procedure A where Omega > 0, procedure B elsewhere
        k_a = np.sqrt(2.0 / (s_val * st))
        alpha = np.where(proc_a, np.sqrt(st / (2.0 * s_val)), rx / rm)
        beta1 = np.where(proc_a, k_a * p1, p1 / (rbx * rm))
        beta2 = np.where(proc_a, k_a * p2, p2 / (rbx * rm))
        gamma = np.where(proc_a, np.sqrt(rbp2 + 2.0 * rm2 * rbx2 / st),
                         np.sqrt(rbp2 - t_val + 2.0 * rx * rbx))
        rbx_sq = rbx * rbx
        mu = np.where(proc_a, [2.0 * np.sqrt(2.0 / (s_val * st3)) * rbx_sq * rx * rm,
                               (2.0 / st) * rbx * rx, k_a * rbx * rm], 1.0)
        s = np.zeros_like(mu)
        s[0] = np.where(proc_a, np.sqrt(1.0 / (2.0 * s_val * st3)) * (st2 - 4.0 * rbx_sq * rx * rx),
                        0.0)
        v2, v3 = r_cross / rx, r_minus / rm
        u2 = rb_cross / rbx
        u3 = ((alpha / rbx) * _cross3(rb_plus, rb_cross) + rbx * (beta1 * rb1 + beta2 * rb2)) / gamma
        # rows of rv and columns of ru, C-ordered like the scalar route's frames
        # (the order decides how BLAS rounds products with them)
        rv = np.ascontiguousarray(np.array([_cross3(v2, v3), v2, v3]).transpose(2, 0, 1))
        ru = np.ascontiguousarray(np.array([_cross3(u2, u3), u2, u3]).transpose(2, 1, 0))
        mixed = (np.sqrt(rb11) <= 1e-14) & (np.sqrt(rb22) <= 1e-14)
        ok = ~((rm <= 1e-12) | mixed | (rx <= 1e-14) | (rbx <= 1e-14)
               | (proc_a & (st <= 1e-15)) | _improper(rv) | _improper(ru))
    return (rv.reshape(*lead, 3, 3), ru.reshape(*lead, 3, 3), mu.T.reshape(*lead, 3),
            s.T.reshape(*lead, 3), ok.reshape(lead))


def _pypow(x, k):
    """``x ** k`` per element, rounded as Python's float power (numpy's may differ)."""
    return np.array([v**k for v in x.tolist()])


def _improper(r):
    """Stacked ``from_rotations`` test failure: R R^T differs from I by more than 1e-9.

    The frames of :func:`optimal_frames` are [a x b, a, b] (as rows or columns),
    so det R = |a x b|^2 >= 0 and R R^T = I forces det R = 1.
    """
    dev = np.abs(r @ np.swapaxes(r, -1, -2) - _EYE3)
    return dev.reshape(-1, 9).max(-1) > 1e-9


def assemble_optimal_choi(g: PairGeometry) -> ChoiMatrix:
    """Choi matrix of the optimal tracker for this geometry."""
    return assemble_qubit_choi(optimal_canonical(g))


def diag_choi(mu, s1):
    """Choi matrix of the diagonal map with scale ``mu`` and x-translation ``s1``."""
    x, y, z = PAULI[1], PAULI[2], PAULI[3]
    two_d = (
        np.eye(4, dtype=complex)
        + s1 * np.kron(np.eye(2), x)
        + mu[0] * np.kron(x, x)
        - mu[1] * np.kron(y, y)
        + mu[2] * np.kron(z, z)
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
        mu, s1 = canonical.mu, canonical.s[0]
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
        mu, s1 = np.ones(3), 0.0

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
        + coeffs[1] * np.kron(PAULI[1], np.eye(2))
        + coeffs[2] * np.kron(PAULI[2], np.eye(2))
        + coeffs[3] * np.kron(PAULI[3], np.eye(2))
    )
    d_choi = diag_choi(mu, s1)
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
    canonical = optimal_canonical(g)
    return QubitTrackerResult(
        omega=float(omega),
        procedure=procedure,
        canonical=canonical,
        fidelity=optimal_fidelity(g),
        certificate=dual_certificate(g),
        choi=assemble_qubit_choi(canonical),
        unique=abs(omega) > OMEGA_TIE,
    )


def feedback_decomposition(g: PairGeometry):
    """Measurement-plus-feedback Kraus pair implementing procedure A.

    Returns V, M1, M2, U with channel rho -> (U M1 V) rho (.)^dag +
    (U Y M2 V) rho (.)^dag; the Y correction is applied on the second
    outcome.  Measurement strengths: sin(chi) = mu_3, sin(eta) = mu_2.
    """
    if g.omega <= OMEGA_TIE:
        canonical = procedure_b(g)
        return {
            "V": canonical.V,
            "U": canonical.U,
            "M1": np.eye(2, dtype=complex),
            "M2": np.zeros((2, 2), dtype=complex),
            "open_loop": True,
        }
    canonical = procedure_a(g)
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
