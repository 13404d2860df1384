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
    _diagonal_choi,
    _pauli_pairs,
    assemble_qubit_choi,
    bloch_of,
    rotation_aligning,
)
from .linalg import LinalgError, stacked_dot

OMEGA_TIE = 1e-12
_EYE3 = np.eye(3)
_WRAP3 = np.array([0, 1, 2, 0, 1])
# the dot products optimal_frames takes, as pairs of rows of its vector stack
_DOT_LEFT = np.array([0, 0, 2, 1, 1, 3, 6, 4, 5, 7, 0, 2])
_DOT_RIGHT = np.array([0, 2, 2, 1, 3, 3, 6, 4, 5, 7, 6, 6])
# (mu, s_1) of the identity, which procedure B's rows take
_UNITARY_MU_S1 = np.array([[1.0], [1.0], [1.0], [0.0]])


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
        set_ = object.__setattr__
        for name in ("r1", "r2", "rb1", "rb2"):
            set_(self, name, np.asarray(getattr(self, name), dtype=float))
        set_(self, "r_minus", self.r1 - self.r2)
        rm2 = self.r_minus @ self.r_minus
        # sqrt of the BLAS dot, as np.linalg.norm rounds it
        set_(self, "r_minus_norm", np.sqrt(rm2))
        if self.r_minus_norm <= 1e-12:
            raise DegenerateGeometryError("source states coincide")
        if np.sqrt(self.rb1 @ self.rb1) <= 1e-14 and np.sqrt(self.rb2 @ self.rb2) <= 1e-14:
            raise DegenerateGeometryError(
                "both targets are maximally mixed; use the depolarizing channel"
            )
        set_(self, "r_cross", _cross3(self.r1, self.r2))
        set_(self, "rb_plus", self.rb1 + self.rb2)
        set_(self, "rb_cross", _cross3(self.rb1, self.rb2))
        r, rb = (self.r1, self.r2), (self.rb1, self.rb2)
        t_val = sum(
            (1.0 - r[i] @ r[j]) * (rb[i] @ rb[j]) for i in range(2) for j in range(2)
        )
        rx2 = self.r_cross @ self.r_cross
        rbx2 = self.rb_cross @ self.rb_cross
        set_(self, "r_cross_norm", np.sqrt(rx2))
        set_(self, "rb_cross_norm", np.sqrt(rbx2))
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
            float(self.r_cross_norm * (rbp @ rbp) + self.rb_cross_norm * rm2),
        )

    @classmethod
    def from_states(cls, rho1, rho2, rbar1, rbar2, pi1=0.5):
        """Geometry of sources ``rho1``, ``rho2`` (validated unless already
        :class:`DensityMatrix`) and targets ``rbar1``, ``rbar2`` with priority ``pi1``."""
        rho1, rho2 = (r if isinstance(r, DensityMatrix) else DensityMatrix(r) for r in (rho1, rho2))
        pi2 = 1.0 - pi1
        m1, m2 = (t.mat if isinstance(t, DensityMatrix) else np.asarray(t, dtype=complex)
                  for t in (rbar1, rbar2))
        return cls(
            r1=rho1.bloch,
            r2=rho2.bloch,
            rb1=pi1 * bloch_of(m1),
            rb2=pi2 * bloch_of(m2),
            c1=pi1 * float(np.trace(m1).real),
            c2=pi2 * float(np.trace(m2).real),
        )

    # Derived data (set in __post_init__): r_minus, r_cross, rb_plus,
    # rb_cross, their norms r_minus_norm, r_cross_norm, rb_cross_norm,
    # t_scalar, s_scalar, omega, c, xi_upper, xi_lower.


def _cross3(a, b):
    """``a x b`` for arrays over the first axis, whose three entries are the components.

    Component j is ``a[j+1] b[j+2] - a[j+2] b[j+1]`` (indices mod 3), taken
    for all j at once from the components in the order 0, 1, 2, 0, 1.
    """
    a, b = a.take(_WRAP3, 0), b.take(_WRAP3, 0)
    return a[1:4] * b[2:5] - a[2:5] * b[1:4]


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
    return float(np.sqrt(rbp2 - g.t_scalar + 2.0 * g.r_cross_norm * g.rb_cross_norm))


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
    return QubitChannelCanonical(rv, ru, mu, s)


def optimal_frames(r1, r2, rb1, rb2):
    """Frames ``rv``, ``ru``, ``mu``, ``s`` of the optimal tracker for stacked pairs.

    Procedure A (the extremal, closed-loop channel) where Omega > 0 and
    procedure B (the open-loop unitary) elsewhere, over ``(..., 3)`` Bloch
    arrays of one shape (targets priority-scaled, as in :class:`PairGeometry`).
    Returns ``rv``, ``ru`` of shape ``(..., 3, 3)``, ``mu``, ``s`` of shape
    ``(..., 3)`` and a mask ``ok`` of the rows that have a tracker.  The other
    rows (coincident sources, maximally mixed targets, frames that are no
    proper rotation) hold the identity channel.  Procedure A's rows have
    S + T >= Omega > 0, so none of them divides by S + T = 0.  Each row is
    computed from its own data only, with BLAS dots and Python's float power,
    so it rounds the same in any stack.  Each procedure's closed form is
    evaluated only on stacks with a row that takes it.
    """
    given = np.array([r1, rb1, r2, rb2], dtype=float)
    lead = given.shape[1:-1]
    # the eight vectors r1, rb1, r2, rb2, R x, Rb x, R-, Rb+, each a
    # component-first (3, n) block of one array
    vecs = np.empty((8, 3, given.size // 12))
    vecs[:4] = given.reshape(4, -1, 3).transpose(0, 2, 1)
    r1, rb1, r2, rb2, r_cross, rb_cross, r_minus, rb_plus = vecs
    with np.errstate(divide="ignore", invalid="ignore"):
        # sources and targets crossed side by side, as (3, 2, n) stacks
        crosses = _cross3(vecs[:2].swapaxes(0, 1), vecs[2:4].swapaxes(0, 1))
        vecs[4:6] = crosses.swapaxes(0, 1)
        np.subtract(r1, r2, out=r_minus)
        np.add(rb1, rb2, out=rb_plus)
        # r1.r1, r1.r2, r2.r2, rb1.rb1, rb1.rb2, rb2.rb2, |R-|^2, |R x|^2,
        # |Rb x|^2, |Rb+|^2, r1.R-, r2.R-
        dots = stacked_dot(vecs.take(_DOT_LEFT, 0).transpose(0, 2, 1),
                           vecs.take(_DOT_RIGHT, 0).transpose(0, 2, 1))
        rb11, rb22 = dots[3], dots[5]
        rm2, rx2, rbx2, rbp2 = dots[6], dots[7], dots[8], dots[9]
        norms = np.sqrt(dots[6:9])
        rm, rx, rbx = norms[0], norms[1], norms[2]
        # (1 - r_i.r_j)(rb_i.rb_j) for ij = 11, 12, 22; the (1, 2) and (2, 1)
        # terms of PairGeometry's T round alike
        terms = (1.0 - dots[:3]) * dots[3:6]
        t_val = terms[0] + terms[1] + terms[1] + terms[2]
        s_val = np.sqrt(t_val * t_val + 4.0 * rbx2 * (rm2 - rx2))
        st = s_val + t_val
        proc_a = st - 2.0 * np.sqrt(rbx2 * rx2) > OMEGA_TIE
        rows_a = np.count_nonzero(proc_a)
        # an empty stack takes procedure B's (empty) branch
        some_a, some_b = rows_a > 0, rows_a < len(st) or rows_a == 0
        if some_a:
            st2, st3 = _pypow(st, 2, 3)
            k_a = np.sqrt(2.0 / (s_val * st))
            rbx_sq = rbx * rbx
            two_s = 2.0 * s_val
            frame_a = [np.sqrt(st / two_s), *(k_a * dots[10:]),
                       np.sqrt(rbp2 + 2.0 * rm2 * rbx2 / st)]
            mu_s1_a = [2.0 * np.sqrt(2.0 / (s_val * st3)) * rbx_sq * rx * rm,
                       (2.0 / st) * rbx * rx, k_a * rbx * rm,
                       np.sqrt(1.0 / (two_s * st3)) * (st2 - 4.0 * rbx_sq * rx * rx)]
        if some_b:
            frame_b = [rx / rm, *(dots[10:] / (rbx * rm)), np.sqrt(rbp2 - t_val + 2.0 * rx * rbx)]
        # (alpha, beta_1, beta_2, Gamma) and (mu, s_1); procedure B is the
        # unitary (1, 1, 1), (0, 0, 0)
        if some_a and some_b:
            alpha, beta1, beta2, gamma = np.where(proc_a, frame_a, frame_b)
            mu_s1 = np.where(proc_a, mu_s1_a, _UNITARY_MU_S1)
        elif some_a:
            alpha, beta1, beta2, gamma = frame_a
            mu_s1 = np.array(mu_s1_a)
        else:
            alpha, beta1, beta2, gamma = frame_b
            mu_s1 = _UNITARY_MU_S1.repeat(len(st), 1)
        mu, s = mu_s1[:3], np.zeros(r1.shape)
        s[0] = mu_s1[3]
        # rv = [v1, v2, v3] takes both sources into the xz half-plane with a
        # common +x part; ru = [u1, u2, u3] as columns.  Side by side, as
        # (3, 2, n) stacks [v_k, u_k]
        vu2 = crosses / norms[1:]
        v3 = r_minus / rm
        collinear = rx <= 1e-14
        if np.count_nonzero(collinear):
            # collinear sources: any unit vector orthogonal to R- will do
            w = _cross3(v3, np.where(np.abs(v3[0]) < 0.9, _EYE3[:, :1], _EYE3[:, 1:2]))
            vu2[:, 0] = np.where(collinear, w / np.sqrt(stacked_dot(w.T, w.T)), vu2[:, 0])
        u3 = ((alpha / rbx) * _cross3(rb_plus, rb_cross) + rbx * (beta1 * rb1 + beta2 * rb2)) / gamma
        vu3 = np.array([v3, u3]).swapaxes(0, 1)
        axes = np.array([_cross3(vu2, vu3), vu2, vu3])
        # rows of rv and columns of ru, as one C-ordered stack (the order
        # decides how BLAS rounds products with them)
        frames = np.array([axes[:, :, 0].transpose(2, 0, 1), axes[:, :, 1].transpose(2, 1, 0)])
        rv, ru = frames[0], frames[1]
        # a row with NaN fails this test or, with NaN frames, the orthogonality test
        ok = rm > 1e-12
        flat = rbx <= 1e-14
        if np.count_nonzero(flat):
            # Rb x = 0 (parallel, opposite or vanishing targets): procedure A
            # sends every state along Rb+, procedure B turns within the
            # xz-plane and then takes +z onto the longer target
            f = np.flatnonzero(flat)
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
            # only here can both targets be maximally mixed
            ok[f] &= (len1 > 1e-14) | (len2 > 1e-14)
        ok &= _orthogonal(frames)
        if np.count_nonzero(ok) < len(ok):
            bad = ~ok
            rv[bad] = ru[bad] = _EYE3
            mu[:, bad], s[:, bad] = 1.0, 0.0
    return (rv.reshape(*lead, 3, 3), ru.reshape(*lead, 3, 3), mu.T.reshape(*lead, 3),
            s.T.reshape(*lead, 3), ok.reshape(lead))


def _pypow(x, *powers):
    """``x ** k`` per element for each k, rounded as Python's float power (numpy's may differ)."""
    values = x.tolist()
    return [np.array([v**k for v in values]) for k in powers]


def _orthogonal(frames):
    """Rows where every R R^T of a ``(k, n, 3, 3)`` stack is I to 1e-9 (no NaN).

    The frames of :func:`optimal_frames` are [a x b, a, b] (as rows or
    columns, so det R = |a x b|^2 >= 0) or products of rotations, so
    R R^T = I forces det R = 1 as :class:`QubitChannelCanonical` demands.
    """
    dev = np.abs(frames @ frames.swapaxes(-1, -2) - _EYE3)
    return dev.max(axis=(0, 2, 3)) <= 1e-9


def assemble_optimal_choi(g: PairGeometry) -> ChoiMatrix:
    """Choi matrix of the optimal tracker for this geometry."""
    return assemble_qubit_choi(optimal_canonical(g))


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

    All of it lives in the SO(3) frames of the optimal channel: with sources
    (1, R_V r_i) and targets (c_i, R_U^T rb_i) there,
    ``F0~ = -1/4 sum_jk G_jk sigma_j^T (x) sigma_k`` for
    ``G = sum_i (1, R_V r_i)^T (c_i, R_U^T rb_i)``, and
    ``D = (I + s.(I (x) sigma) + sum_k mu_k sigma_k^T (x) sigma_k) / 2``.
    """
    canonical = optimal_canonical(g)
    rm, rx, rbx = g.r_minus_norm, g.r_cross_norm, g.rb_cross_norm
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
    rv, ru = canonical.rv, canonical.ru
    sources = np.array([[1.0, *(rv @ g.r1)], [1.0, *(rv @ g.r2)]])
    targets = np.array([[g.c1, *(ru.T @ g.rb1)], [g.c2, *(ru.T @ g.rb2)]])
    f0_tilde = _pauli_pairs(-0.25 * sources.T @ targets)
    shift = np.zeros((4, 4))
    shift[:, 0] = coeffs  # x0 I + x1 X (x) I + x3 Z (x) I, as x2 = 0
    f_matrix = f0_tilde + _pauli_pairs(shift)
    d_choi = _diagonal_choi(canonical.mu, canonical.s)
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
    open_loop = g.omega <= OMEGA_TIE
    if open_loop:
        m1, m2 = np.eye(2), np.zeros((2, 2))
    else:
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
        "open_loop": open_loop,
    }
