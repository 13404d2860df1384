"""Closed-form control recipes: dephasing stabilization, discrimination,
purification, cloning, and the exact two-state convertibility test.

The dephasing task: a qubit prepared in one of two pure states straddling the
Bloch equator by a half-angle ``theta_bar`` passes through a phase-flip
channel of strength ``p``; a controller then tries to restore it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import track_pair
from .channels import ChoiMatrix, DensityMatrix, KrausSet, _pauli_pairs, choi_from_kraus
from .distances import check_priorities
from .linalg import PAULI, LinalgError, min_eig


@dataclass(frozen=True)
class DephasingTask:
    p: float
    theta_bar: float

    def __post_init__(self):
        if not 0.0 < self.p <= 0.5:
            raise LinalgError("flip probability must lie in (0, 0.5]")
        if not 0.0 < self.theta_bar < np.pi / 2 + 1e-12:
            raise LinalgError("half-angle must lie in (0, pi/2)")

    @property
    def r_x(self):
        return (1.0 - 2.0 * self.p) * np.cos(self.theta_bar)

    def ideal_states(self):
        tb = self.theta_bar
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        k1 = np.cos(tb / 2) * plus + np.sin(tb / 2) * minus
        k2 = np.cos(tb / 2) * plus - np.sin(tb / 2) * minus
        return DensityMatrix.pure(k1), DensityMatrix.pure(k2)

    def noisy_states(self):
        noise = dephasing_choi(self.p)
        from .channels import apply_choi

        return tuple(apply_choi(noise, s) for s in self.ideal_states())


def dephasing_choi(p):
    """Choi matrix of the phase-flip channel rho -> p Z rho Z + (1-p) rho."""
    z = PAULI[3]
    return choi_from_kraus(
        KrausSet([np.sqrt(1.0 - p) * np.eye(2), np.sqrt(p) * z])
    )


def stabilization_fidelities(task: DephasingTask):
    """Average fidelities of the four stabilization schemes plus the optimum.

    ddr1/ddr2: reprepare after a projective discrimination; sdr: post-selected
    variant; dn: do nothing; qc_opt: weak measurement plus feedback at the
    optimal strength chi_opt.  sdr and qc_opt coincide identically.
    """
    th = task.theta_bar
    rx2 = task.r_x**2
    sin2, cos2 = np.sin(th) ** 2, np.cos(th) ** 2
    ddr1 = 1.0 - 0.5 * (sin2 - np.sin(th) ** 3)
    ddr2 = 0.5 + 0.5 * np.sqrt(cos2 + sin2**2)
    sdr = 0.5 + 0.5 * np.sqrt(cos2 + sin2**2 / (1.0 - rx2))
    dn = 1.0 - task.p * cos2
    denom = (1.0 - rx2) ** 2 * cos2 + (1.0 - rx2) * sin2**2
    chi_opt = float(np.arcsin(np.sqrt(sin2**2 / denom))) if denom > 0 else 0.0
    qc_opt = sdr
    return {
        "ddr1": float(ddr1),
        "ddr2": float(ddr2),
        "sdr": float(sdr),
        "dn": float(dn),
        "qc_opt": float(qc_opt),
        "chi_opt": chi_opt,
        "f_dif": float(qc_opt - max(ddr2, dn)),
    }


def qc_fidelity(task: DephasingTask, chi):
    """Average fidelity of the weak-measurement scheme at strength chi."""
    th = task.theta_bar
    rx2 = task.r_x**2
    return float(
        0.5
        * (
            1.0
            + np.sin(th) ** 2 * np.sin(chi)
            + np.cos(th) * np.sqrt(1.0 - (1.0 - rx2) * np.sin(chi) ** 2)
        )
    )


def qc_channel(task: DephasingTask, chi) -> ChoiMatrix:
    """Weak measurement along y followed by the z-rotation feedback, as a channel.

    chi = pi/2 is no measurement (identity); chi = 0 is a projective
    measurement onto the y eigenstates.
    """
    if not 0.0 <= chi <= np.pi / 2 + 1e-12:
        raise LinalgError("measurement strength must lie in [0, pi/2]")
    ket_pi = np.array([1.0, 1j]) / np.sqrt(2.0)
    ket_mi = np.array([1.0, -1j]) / np.sqrt(2.0)
    p_pi = np.outer(ket_pi, ket_pi.conj())
    p_mi = np.outer(ket_mi, ket_mi.conj())
    m0 = np.cos(chi / 2) * p_pi + np.sin(chi / 2) * p_mi
    m1 = np.sin(chi / 2) * p_pi + np.cos(chi / 2) * p_mi
    tan_chi = np.tan(chi)
    if task.r_x * tan_chi < 1e-300:
        eta = np.pi / 2
    else:
        eta = np.arctan(1.0 / (task.r_x * tan_chi))
    # outcome 0 (weighted toward |+i>) kicks the state to +y; rotate back by
    # -eta about z, and conversely for outcome 1
    z_minus = np.diag([np.exp(1j * eta / 2), np.exp(-1j * eta / 2)])
    z_plus = np.diag([np.exp(-1j * eta / 2), np.exp(1j * eta / 2)])
    return choi_from_kraus(KrausSet([z_minus @ m0, z_plus @ m1]))


def _fidelity_operator(task: DephasingTask):
    """R = (1/2) sum_i E_p(psi_i)^T (x) psi_i, the objective of the tracking SDP."""
    ideal = task.ideal_states()
    noisy = task.noisy_states()
    return 0.5 * sum(np.kron(n.mat.T, i.mat) for n, i in zip(noisy, ideal))


def quantum_optimality_certificate(task: DephasingTask):
    """Dual-feasible point certifying the weak-measurement optimum over CPTP maps."""
    th = task.theta_bar
    rx = task.r_x
    b0 = 0.25 + 0.25 * np.sqrt(np.cos(th) ** 2 + np.sin(th) ** 4 / (1.0 - rx**2))
    coeffs = np.zeros((4, 4))
    coeffs[0, 0], coeffs[1, 0] = b0, rx * b0  # b0 I + rx b0 X (x) I
    return _certificate_report(task, "b0", coeffs)


def classical_optimality_certificate(task: DephasingTask):
    """Dual-feasible point certifying ddr2 as the optimum over EBTP maps."""
    th = task.theta_bar
    rx = task.r_x
    root = np.sqrt(np.cos(th) ** 2 + np.sin(th) ** 4)
    a0 = 0.25 + 0.25 * root
    ax = rx / 4.0 + (rx / 4.0) * np.cos(th) ** 2 / root
    ay = -(rx / 4.0) * np.cos(th) * np.sin(th) ** 2 / root
    coeffs = np.zeros((4, 4))
    coeffs[0, 0], coeffs[1, 0], coeffs[2, 2] = a0, ax, -ay  # Y (x) Y = -Y^T (x) Y
    return _certificate_report(task, "a0", coeffs)


def _certificate_report(task: DephasingTask, name, coeffs):
    """The dual point M = sum_jk coeffs[j, k] sigma_j^T (x) sigma_k passes iff M - R is PSD.

    Its value is 2 coeffs[0, 0], reported under ``name`` as the identity's share.
    """
    lam = min_eig(_pauli_pairs(coeffs) - _fidelity_operator(task))
    return {
        name: float(coeffs[0, 0]),
        "value": float(2 * coeffs[0, 0]),
        "min_eig": lam,
        "pass": lam >= -1e-9,
    }


def discriminate(rho1: DensityMatrix, rho2: DensityMatrix, p1):
    """Minimum-error discrimination vs. tracking onto orthogonal targets.

    Both success probabilities coincide; the tracking branch is decided by the
    sign of T = (p1 - p2)^2 - ||p1 R1 - p2 R2||^2.
    """
    if rho1.d != rho2.d:
        raise LinalgError(f"cannot discriminate a d = {rho1.d} state from a d = {rho2.d} state")
    p1, p2 = check_priorities([p1, 1.0 - p1]).tolist()
    diff = p1 * rho1.mat - p2 * rho2.mat
    p_hel = 0.5 + 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    bloch_gap = np.linalg.norm(p1 * rho1.bloch - p2 * rho2.bloch)
    t_branch = (p1 - p2) ** 2 - bloch_gap**2
    if t_branch > 0:
        p_track = 0.5 + 0.5 * abs(p1 - p2)
    else:
        p_track = 0.5 + 0.5 * bloch_gap
    return {
        "p_helstrom": float(p_hel),
        "p_track": float(p_track),
        "T": float(t_branch),
    }


def purification(r_len, theta, theta_bar, pi1=0.5):
    """Optimal transfer of two equally mixed states onto two pure states.

    Sources have Bloch length ``r_len`` and half-angle ``theta``; targets are
    pure with half-angle ``theta_bar``; both pairs straddle the x axis in the
    xz-plane.
    """
    if not 0.0 < r_len <= 1.0:
        raise LinalgError("source length must lie in (0, 1]")
    r1 = r_len * np.array([np.cos(theta), 0.0, np.sin(theta)])
    r2 = r_len * np.array([np.cos(theta), 0.0, -np.sin(theta)])
    b1 = np.array([np.cos(theta_bar), 0.0, np.sin(theta_bar)])
    b2 = np.array([np.cos(theta_bar), 0.0, -np.sin(theta_bar)])
    res = track_pair(r1, r2, b1, b2, pi1)
    return {
        "omega": res.omega,
        "procedure": res.procedure,
        "fidelity": res.fidelity,
        "mu": res.canonical.mu,
        "s1": float(res.canonical.s[0]),
        "result": res,
    }


def purification_fidelity_closed_form(r_len, theta, theta_bar):
    """Uniform-priority closed form for the purification fidelity (both branches)."""
    rc = r_len**2 * np.cos(theta) ** 2
    omega = 2.0 * (
        np.cos(theta_bar) ** 2
        - r_len**2 * np.cos(theta) * np.cos(theta_bar) * np.cos(theta - theta_bar)
    )
    if omega > 0:
        val = 0.5 + 0.5 * np.sqrt(
            np.cos(theta_bar) ** 2
            + r_len**2 * np.sin(theta) ** 2 * np.sin(theta_bar) ** 2 / (1.0 - rc)
        )
    else:
        val = 0.5 + 0.5 * r_len * np.cos(theta - theta_bar)
    return float(omega), float(val)


def clone_fidelity(phi, pi1=0.5):
    """Optimal global fidelity for the two-state cloner |a> -> |aa|, |b> -> |bb>.

    The overlap of the fictitious source pair is sin(2 phi) and of the target
    pair sin^2(2 phi); the task is always in the unitary branch.
    """
    if not 0.0 <= phi < np.pi / 4:
        raise LinalgError("phi must lie in [0, pi/4)")
    pi1, pi2 = check_priorities([pi1, 1.0 - pi1]).tolist()
    omega_t = 2.0 * np.arccos(np.clip(np.sin(2 * phi), -1, 1)) - 2.0 * np.arccos(
        np.clip(np.sin(2 * phi) ** 2, -1, 1)
    )
    return float(
        0.5 + 0.5 * np.sqrt(pi1**2 + pi2**2 + 2 * pi1 * pi2 * np.cos(omega_t))
    )


def alberti_uhlmann(rho1, rho2, rbar1, rbar2):
    """Exact two-state convertibility test (necessary and sufficient for qubits).

    Checks ||rbar1 - t rbar2||_tr <= ||rho1 - t rho2||_tr over 600 values of
    t spaced logarithmically from 1e-3 to 1e3, with the closed-form corollary
    as a fast path when both targets are pure.
    """
    states = [
        s if isinstance(s, DensityMatrix) else DensityMatrix(s)
        for s in (rho1, rho2, rbar1, rbar2)
    ]
    rho1, rho2, rbar1, rbar2 = states
    report = {"corollary": None}
    if rbar1.purity() > 1.0 - 1e-10 and rbar2.purity() > 1.0 - 1e-10:
        src_pure = rho1.purity() > 1.0 - 1e-9 and rho2.purity() > 1.0 - 1e-9
        cos_t = np.clip(rho1.bloch @ rho2.bloch / max(np.linalg.norm(rho1.bloch) * np.linalg.norm(rho2.bloch), 1e-300), -1, 1)
        cos_tb = np.clip(rbar1.bloch @ rbar2.bloch, -1, 1)
        theta = np.arccos(cos_t)
        theta_bar = np.arccos(cos_tb)
        report["corollary"] = bool(src_pure and theta >= theta_bar - 1e-9)
    t_grid = np.logspace(-3, 3, 600)
    t = t_grid[:, None, None]
    lhs = np.abs(np.linalg.eigvalsh(rbar1.mat - t * rbar2.mat)).sum(-1)
    rhs = np.abs(np.linalg.eigvalsh(rho1.mat - t * rho2.mat)).sum(-1)
    worst = int(np.argmin(rhs - lhs))
    slack, worst_t = (rhs - lhs)[worst], t_grid[worst]
    feasible = slack >= -1e-9
    if report["corollary"] is not None:
        feasible = report["corollary"]
    report.update({"feasible": bool(feasible), "worst_t": float(worst_t), "slack": float(slack)})
    return report
