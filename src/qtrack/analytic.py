"""Closed-form optimal tracking for pairs of qubit states.

Everything is driven by the Bloch-vector geometry of the two sources and the
two priority-scaled targets.  The indicator Omega decides between a
closed-loop extremal channel (procedure A) and an open-loop unitary
(procedure B).  That rule and each Gamma come from the geometry stage alone
(:func:`_geometry`, :class:`PairGeometry`), which all else reads.  Both
procedures are written once, in the SO(3) canonical form, by the
stacked kernel :func:`optimal_frames`; a single pair is a stack of one.  Each
optimum comes with a certificate built from the dual of the underlying
semidefinite program.  Pair data and priorities enter through one intake,
:func:`pair_bloch`.
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
from .distances import check_priorities
from .linalg import LinalgError, hermitize, stacked_dot

OMEGA_TIE = 1e-12
_EYE3 = np.eye(3)
_WRAP3 = np.array([0, 1, 2, 0, 1])
# the dot products _geometry takes, as pairs of rows of its vector stack
_DOT_LEFT = np.array([0, 0, 2, 1, 1, 3, 6, 4, 5, 7, 0, 2])
_DOT_RIGHT = np.array([0, 2, 2, 1, 3, 3, 6, 4, 5, 7, 6, 6])
# thresholds on |R-|, |R x| and |Rb x|: no tracker, collinear sources, flat targets
_TINY = np.array([[1e-12], [1e-14], [1e-14]])
# (mu, s_1) of the identity, which procedure B's rows take
_UNITARY_MU_S1 = np.array([[1.0], [1.0], [1.0], [0.0]])


class DegenerateGeometryError(LinalgError):
    """Sources coincide, or both targets are maximally mixed."""


@dataclass(frozen=True)
class PairGeometry:
    """Bloch data of a two-state tracking instance.

    ``rb1``/``rb2`` are the Bloch vectors of the *priority-scaled* targets
    ``pi_i rhobar_i`` and ``c1``/``c2`` their scalar parts ``pi_i tr(rhobar_i)``
    (so ``c = c1 + c2 = 1`` for normalized targets).  Every derived field is
    read from :func:`_geometry` on a stack of one, the computation that
    :func:`optimal_frames` runs, so ``procedure`` is the one whose frames the
    kernel builds.  That stage is kept as ``stage``, and
    :func:`optimal_canonical` builds the frames from it.
    """

    r1: np.ndarray
    r2: np.ndarray
    rb1: np.ndarray
    rb2: np.ndarray
    c1: float = 0.5
    c2: float = 0.5

    def __post_init__(self):
        for name in ("r1", "r2", "rb1", "rb2"):
            vars(self)[name] = np.asarray(getattr(self, name), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            stage = _geometry(self.r1, self.r2, self.rb1, self.rb2)
        _, vecs, dots, t_val, s_val, omega, proc_a, unique = stage
        dots, t_val, s_val, omega = dots[:, 0], t_val[0], s_val[0], float(omega[0])
        rb1_plus, rb2_plus = stacked_dot(vecs[[1, 3], :, 0], vecs[7, :, 0])  # rb_i . Rb+
        rm, rx, rbx = np.sqrt(dots[6:9])
        if rm <= 1e-12:
            raise DegenerateGeometryError("source states coincide")
        if np.sqrt(dots[3]) <= 1e-14 and np.sqrt(dots[5]) <= 1e-14:
            raise DegenerateGeometryError(
                "both targets are maximally mixed; use the depolarizing channel"
            )
        gamma = _gamma_a(dots, s_val + t_val) if proc_a[0] else _gamma_b(dots, t_val, rx, rbx)
        vars(self).update(
            stage=stage, dots=dots, procedure="A" if proc_a[0] else "B",
            gamma=float(gamma), unique=bool(unique[0]),
            r_cross=vecs[4, :, 0], rb_cross=vecs[5, :, 0],
            r_minus=vecs[6, :, 0], rb_plus=vecs[7, :, 0],
            r_minus_norm=rm, r_cross_norm=rx, rb_cross_norm=rbx,
            t_scalar=float(t_val), s_scalar=float(s_val), omega=omega,
            c=float(self.c1 + self.c2),
            xi_upper=float(dots[10] * rb1_plus + dots[11] * rb2_plus),
            xi_lower=float(rx * dots[9] + rbx * dots[6]),
        )

    @classmethod
    def from_states(cls, rho1, rho2, rbar1, rbar2, pi1=0.5):
        """Geometry of sources ``rho1``, ``rho2`` and targets ``rbar1``, ``rbar2``
        with priorities ``pi1``, ``1 - pi1``, read by :func:`pair_bloch`."""
        r, rb, c = pair_bloch((rho1, rho2), (rbar1, rbar2), (pi1, 1.0 - pi1))
        return cls(*r, *rb, *c.tolist())

    # Derived data (set in __post_init__): the _geometry tuple stage and its
    # 12 dots; r_minus, r_cross, rb_plus, rb_cross, their norms r_minus_norm,
    # r_cross_norm, rb_cross_norm, t_scalar, s_scalar, omega, c, xi_upper,
    # xi_lower; and, from the stage's two masks alone, procedure ("A"/"B"),
    # gamma (that procedure's Gamma) and unique (a single optimum).


def pair_bloch(sources, targets, priorities):
    """Sources r_i, scaled targets pi_i rb_i and c_i = pi_i tr rb_i of a pair, as arrays over i.

    Each input is a :class:`DensityMatrix` or a Bloch 3-vector of length at
    most 1 + 1e-10, both of trace 1, or a 2 x 2 matrix: a state for a source;
    for a target, any finite Hermitian matrix with no eigenvalue below -1e-10
    (a state's floor), of any trace.  The priorities pass :func:`check_priorities`.
    """
    pis = check_priorities(priorities)
    if not len(sources) == len(targets) == pis.size == 2:
        raise LinalgError("a pair needs two sources, two targets and two priorities")
    bloch, trace = np.empty((4, 3)), np.ones(4)
    states = {}  # position -> the matrix of a state, read by one bloch_of below
    for k, x in enumerate((*sources, *targets)):
        if k < 2 and not isinstance(x, DensityMatrix) and np.shape(x) != (3,):
            x = DensityMatrix(x)  # a source matrix must be a state
        if isinstance(x, DensityMatrix):
            if x.d != 2:
                raise LinalgError("Bloch vector defined only for qubits")
            states[k] = x.mat
        elif np.shape(x) == (3,):
            bloch[k] = x
            if not np.linalg.norm(bloch[k]) <= 1.0 + 1e-10:  # NaN fails too
                raise LinalgError(f"Bloch vector {bloch[k].tolist()} leaves the unit ball")
        else:  # a bare target: a positive operator, its trace free
            m = np.asarray(x, dtype=complex)
            bloch[k], trace[k] = bloch_of(m), np.trace(m).real
            if not (np.isfinite(m).all() and np.linalg.eigvalsh(hermitize(m)).min() >= -1e-10):
                raise LinalgError("a bare target must be a finite positive operator")
    if states:
        bloch[list(states)] = bloch_of(np.array(list(states.values())))
    return bloch[:2], pis[:, None] * bloch[2:], pis * trace[2:]


def _cross3(a, b, out=None):
    """``a x b`` for arrays over the first axis, whose three entries are the components.

    Component j is ``a[j+1] b[j+2] - a[j+2] b[j+1]`` (indices mod 3), taken
    for all j at once from the components in the order 0, 1, 2, 0, 1.
    """
    a, b = a.take(_WRAP3, 0), b.take(_WRAP3, 0)
    return np.subtract(a[1:4] * b[2:5], a[2:5] * b[1:4], out=out)


def _gamma_a(dots, st):
    """Procedure A's Gamma from :func:`_geometry`'s dots and S + T (> 0 on its rows)."""
    return np.sqrt(dots[9] + 2.0 * dots[6] * dots[8] / st)


def _gamma_b(dots, t_val, rx, rbx):
    """Procedure B's Gamma from :func:`_geometry`'s dots, T, |R x| and |Rb x|."""
    return np.sqrt(dots[9] - t_val + 2.0 * rx * rbx)


def optimal_fidelity(g: PairGeometry):
    """Maximal priority-weighted Hilbert-Schmidt overlap (c + Gamma)/2."""
    return 0.5 * (g.c + g.gamma)


def optimal_canonical(g: PairGeometry) -> QubitChannelCanonical:
    """Optimal tracker of one pair: :func:`optimal_frames` on its kept stage.

    LinalgError when the frames of this geometry are no proper rotations.
    The kernel has checked the frames of a row it keeps, so they are not
    checked again.
    """
    rv, ru, mu, s, ok = optimal_frames(g.r1, g.r2, g.rb1, g.rb2, g.stage)
    if not ok:
        raise LinalgError("the optimal tracker's frames are not proper rotations")
    return QubitChannelCanonical._checked(rv, ru, mu, s)


def _geometry(r1, r2, rb1, rb2):
    """The Bloch geometry of stacked pairs: the one place it is computed.

    Over ``(..., 3)`` arrays of one shape, returns the stack shape ``lead``;
    the eight vectors r1, rb1, r2, rb2, R x, Rb x, R-, Rb+ as one ``(8, 3, n)``
    array, each a component-first block; their BLAS dots r1.r1, r1.r2, r2.r2,
    rb1.rb1, rb1.rb2, rb2.rb2, |R-|^2, |R x|^2, |Rb x|^2, |Rb+|^2, r1.R-, r2.R-
    as ``(12, n)``; T, S and Omega as ``(n,)``; and, the one place the tie
    ``OMEGA_TIE`` is applied, the masks Omega > tie (procedure A) and
    |Omega| > tie (a unique optimum).  Each row is computed from its own data
    only, so it rounds the same in any stack.
    Callers run it under ``np.errstate`` for the rows of degenerate pairs.
    """
    given = np.array([r1, rb1, r2, rb2], dtype=float)
    lead = given.shape[1:-1]
    vecs = np.empty((8, 3, given.size // 12))
    vecs[:4] = given.reshape(4, -1, 3).transpose(0, 2, 1)
    # sources and targets crossed side by side, as (3, 2, n) stacks
    vecs[4:6] = _cross3(vecs[:2].swapaxes(0, 1), vecs[2:4].swapaxes(0, 1)).swapaxes(0, 1)
    np.subtract(vecs[0], vecs[2], out=vecs[6])
    np.add(vecs[1], vecs[3], out=vecs[7])
    dots = stacked_dot(vecs.take(_DOT_LEFT, 0).transpose(0, 2, 1),
                       vecs.take(_DOT_RIGHT, 0).transpose(0, 2, 1))
    # T sums (1 - r_i.r_j)(rb_i.rb_j) over ij = 11, 12, 21, 22
    terms = (1.0 - dots[:3]) * dots[3:6]
    t_val = terms[0] + terms[1] + terms[1] + terms[2]
    s_val = np.sqrt(t_val * t_val + 4.0 * dots[8] * (dots[6] - dots[7]))
    omega = s_val + t_val - 2.0 * np.sqrt(dots[8] * dots[7])
    return lead, vecs, dots, t_val, s_val, omega, omega > OMEGA_TIE, np.abs(omega) > OMEGA_TIE


def optimal_frames(r1, r2, rb1, rb2, stage=None):
    """Frames ``rv``, ``ru``, ``mu``, ``s`` of the optimal tracker for stacked pairs.

    Procedure A (the extremal, closed-loop channel) where Omega > 0 and
    procedure B (the open-loop unitary) elsewhere, over ``(..., 3)`` Bloch
    arrays of one shape (targets priority-scaled, as in :class:`PairGeometry`).
    The geometry, the procedure mask included, is :func:`_geometry`'s, as in
    :class:`PairGeometry`; ``stage`` is that geometry of these arrays where
    the caller has it already.  Returns ``rv``, ``ru`` of shape ``(..., 3, 3)``,
    ``mu``, ``s`` of shape ``(..., 3)`` and a mask ``ok`` of the rows that have
    a tracker.  The other rows (coincident sources, maximally mixed targets,
    frames that are no proper rotation) hold the identity channel.  So every
    row is a channel that :class:`QubitChannelCanonical` accepts: its frames
    pass :func:`_orthogonal`, and its ``mu``, ``s`` are finite, since a
    non-finite one comes only with a non-finite frame.  Procedure
    A's rows have S + T >= Omega > 0, so none of them divides by S + T = 0.
    Each procedure's closed form is evaluated only on stacks with a row that
    takes it.  Each row is computed from its own data only, so it rounds the
    same in any stack: every dot is a BLAS dot, as :func:`stacked_dot` takes
    it; (S + T)^2, (S + T)^3 are Python's float powers (:func:`_pypow`); and
    ``rv``, ``ru`` are C-ordered, the layout whose matrix-vector products the
    chain takes (a transposed one takes another BLAS kernel, off by 1 ulp).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lead, vecs, dots, t_val, s_val, _, proc_a, _ = stage or _geometry(r1, r2, rb1, rb2)
        n = len(t_val)
        norms = np.sqrt(dots[6:9])
        rm, rx, rbx = norms[0], norms[1], norms[2]
        rows_a = np.count_nonzero(proc_a)
        # an empty stack takes procedure B's (empty) branch
        some_a, some_b = rows_a > 0, rows_a < n or rows_a == 0
        if some_a:
            st = s_val + t_val
            st2, st3 = _pypow(st, 2, 3)
            k_a = np.sqrt(2.0 / (s_val * st))
            rbx_sq = rbx * rbx
            two_s = 2.0 * s_val
            frame_a = [np.sqrt(st / two_s), k_a * dots[10:12], _gamma_a(dots, st)]
            mu_s1_a = [2.0 * np.sqrt(2.0 / (s_val * st3)) * rbx_sq * rx * rm,
                       (2.0 / st) * rbx * rx, k_a * rbx * rm,
                       np.sqrt(1.0 / (two_s * st3)) * (st2 - 4.0 * rbx_sq * rx * rx)]
        if some_b:
            frame_b = [rx / rm, dots[10:12] / (rbx * rm), _gamma_b(dots, t_val, rx, rbx)]
        # (alpha, (beta_1, beta_2), Gamma), and (mu, s) as one (2, 3, n) stack that
        # starts with (mu, s_1); procedure B is the unitary (1, 1, 1), (0, 0, 0)
        mu_s = np.zeros((2, 3, n))
        if some_a and some_b:
            alpha, beta, gamma = (np.where(proc_a, a, b) for a, b in zip(frame_a, frame_b))
            mu_s.reshape(6, n)[:4] = np.where(proc_a, mu_s1_a, _UNITARY_MU_S1)
        elif some_a:
            alpha, beta, gamma = frame_a
            mu_s.reshape(6, n)[:4] = mu_s1_a
        else:
            alpha, beta, gamma = frame_b
            mu_s[0] = 1.0
        mu, s = mu_s
        # axes[k] holds v_k and u_k side by side, as a (3, 2, n) stack: rv =
        # [v1, v2, v3] takes both sources into the xz half-plane with a common
        # +x part, and ru = [u1, u2, u3] as columns
        axes = np.empty((3, 3, 2, n))
        np.divide(vecs[4:6].swapaxes(0, 1), norms[1:], out=axes[1])
        v3 = np.divide(vecs[6], rm, out=axes[2, :, 0])
        # a row with NaN passes the first test only to fail the orthogonality test
        tiny = norms <= _TINY
        ok, collinear, flat = ~tiny[0], tiny[1], tiny[2]
        if np.count_nonzero(collinear):
            # collinear sources: any unit vector orthogonal to R- will do
            w = _cross3(v3, np.where(np.abs(v3[0]) < 0.9, _EYE3[:, :1], _EYE3[:, 1:2]))
            axes[1, :, 0] = np.where(collinear, w / np.sqrt(stacked_dot(w.T, w.T)), axes[1, :, 0])
        np.divide((alpha / rbx) * _cross3(vecs[7], vecs[5])
                  + rbx * (beta[0] * vecs[1] + beta[1] * vecs[3]), gamma, out=axes[2, :, 1])
        _cross3(axes[1], axes[2], out=axes[0])
        # rows of rv and columns of ru, as one C-ordered stack
        frames = np.array([axes[:, :, 0].transpose(2, 0, 1), axes[:, :, 1].transpose(2, 1, 0)])
        rv, ru = frames[0], frames[1]
        if np.count_nonzero(flat):
            # Rb x = 0 (parallel, opposite or vanishing targets): procedure A
            # sends every state along Rb+, procedure B turns within the
            # xz-plane and then takes +z onto the longer target
            f = np.flatnonzero(flat)
            a = proc_a[f]
            len1, len2, rbp = np.sqrt(dots[3, f]), np.sqrt(dots[5, f]), np.sqrt(dots[9, f])
            sin_t = np.clip(rx[f] * (len1 - len2)
                            / (rm[f] * np.sqrt(np.maximum(rbp * rbp - t_val[f], 1e-300))),
                            -1.0, 1.0)
            cos_t = np.sqrt(1.0 - sin_t * sin_t)
            zero, one = np.zeros_like(cos_t), np.ones_like(cos_t)
            plane = np.array([[cos_t, zero, -sin_t], [zero, one, zero],
                              [sin_t, zero, cos_t]]).transpose(2, 0, 1)
            longer = np.where(len1 > 1e-14, vecs[1][:, f] / len1, -vecs[3][:, f] / len2)
            turn = rotation_aligning(np.where(a, _EYE3[:, :1], _EYE3[:, 2:]).T,
                                     np.where(a, vecs[7][:, f] / rbp, longer).T)
            ru[f] = np.where(a[:, None, None], turn, turn @ plane)
            mu[:, f], s[0, f] = np.where(a, 0.0, 1.0), np.where(a, 1.0, 0.0)
            # only here can both targets be maximally mixed
            ok[f] &= (len1 > 1e-14) | (len2 > 1e-14)
        ok &= _orthogonal(frames)
        if np.count_nonzero(ok) < n:
            bad = ~ok
            rv[bad] = ru[bad] = _EYE3
            mu[:, bad], s[:, bad] = 1.0, 0.0
    frames = frames.reshape(2, *lead, 3, 3)
    mu_s = mu_s.transpose(0, 2, 1).reshape(2, *lead, 3)
    return frames[0], frames[1], mu_s[0], mu_s[1], ok.reshape(lead)


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
    return np.logical_and.reduce(np.abs(frames @ frames.swapaxes(-1, -2) - _EYE3) <= 1e-9,
                                 axis=(0, 2, 3))


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


def _monic_roots(*tail):
    """Real parts, sorted, of ``np.roots([1, *tail])``, from the same companion matrix.

    As in ``np.roots``, each trailing zero coefficient is a root at 0 and
    the rest are the eigenvalues of the companion matrix whose first row is
    -tail (the leading coefficient is 1), without its generic set-up.
    """
    tail = list(tail)
    zeros = 0
    while tail and tail[-1] == 0:
        tail.pop()
        zeros += 1
    roots = np.zeros(zeros)
    if tail:
        companion = np.eye(len(tail), k=-1)
        companion[0] = [-c for c in tail]
        roots = np.concatenate([np.linalg.eigvals(companion).real, roots])
    return np.sort(roots)


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
    gam = g.gamma
    weighted = g.c1 * g.r1 + g.c2 * g.r2
    x0 = 0.25 * (c_tot + gam)
    x3 = ((weighted @ g.r_minus) + xi_u / gam) / (4.0 * rm)

    if g.procedure == "A":
        x1 = rx / (4.0 * rm) * (c_tot + gam)
        s_val, t_val = g.s_scalar, g.t_scalar
        st = s_val + t_val
        upsilon = (4.0 * rm * rm * rbx * rbx + st * st) / (
            8.0 * rm * rm * gam * gam * s_val * st
        )
        const = upsilon * (
            (rm * rm - rx * rx) * gam**4 - xi_u * xi_u
        )
        roots = _monic_roots(-gam, const)
    else:
        x1 = (c_tot * rx + xi_l / gam) / (4.0 * rm)
        varpi = 0.25 * (-g.omega + g.s_scalar + rx * rbx)
        omega_c = -(
            (rx * gam * gam - xi_l)
            * (rm * rm * gam * gam * xi_l - rx * (xi_l * xi_l + xi_u * xi_u))
        ) / (8.0 * rm**4 * gam**3)
        roots = _monic_roots(-gam, varpi, omega_c)

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
    spectrum = np.linalg.eigvalsh(f_matrix)  # exactly Hermitian, as _pauli_pairs builds it
    return DualCertificate(
        coefficients=coeffs,
        f_matrix=f_matrix,
        min_eig=float(spectrum.min()),
        weak_duality_residual=float(weak),
        slackness_residual=slackness,
        poly_roots=roots,
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
    unique: bool


def track_pair(rho1, rho2, rbar1, rbar2, pi1=0.5) -> QubitTrackerResult:
    """Solve the two-state tracking problem in closed form.

    At exactly Omega = 0 both procedures achieve the optimum; the unitary one
    is returned and flagged as non-unique.
    """
    g = PairGeometry.from_states(rho1, rho2, rbar1, rbar2, pi1)
    return track_geometry(g)


def track_geometry(g: PairGeometry) -> QubitTrackerResult:
    certificate = dual_certificate(g)
    return QubitTrackerResult(
        omega=g.omega,
        procedure=g.procedure,
        canonical=certificate.canonical,
        fidelity=optimal_fidelity(g),
        certificate=certificate,
        choi=assemble_qubit_choi(certificate.canonical),
        unique=g.unique,
    )


def feedback_decomposition(g: PairGeometry):
    """Measurement-plus-feedback Kraus pair implementing procedure A.

    Returns V, M1, M2, U with channel rho -> (U M1 V) rho (.)^dag +
    (U Y M2 V) rho (.)^dag; the Y correction is applied on the second
    outcome.  Measurement strengths: sin(chi) = mu_3, sin(eta) = mu_2.
    """
    canonical = optimal_canonical(g)
    open_loop = g.procedure == "B"
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
