"""Tracking SDPs: turn (source sequence, target sequence, objective) into a program.

Six objectives are supported over two feasible sets (CPTP; CPTP with positive
partial transpose).  The decision variable is always the controller's Choi
matrix, expanded as ``C = I/d + sum_{mu, nu>=2} x_munu H^mu (x) H^nu`` in the
inequality-form programs; the Hilbert-Schmidt objectives over plain CPTP keep
the Choi matrix itself as a standard-form variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .channels import TP_TOL, ChoiMatrix, DensityMatrix, apply_choi_raw, check_cptp, check_ppt
from .distances import WeightedSequence, hs_distance, sequence_distance
from .linalg import LinalgError, hermitian_basis, vec

OBJECTIVES = ("Davg", "H2avg1", "Havg2", "Oavg2", "FHSavg1", "FHSavg2")
FEASIBLE_SETS = ("cptp", "ppt")

CLOSENESS = {"FHSavg1", "FHSavg2"}


@dataclass(frozen=True)
class TrackingProblem:
    source: WeightedSequence
    target: WeightedSequence
    objective: str
    feasible: str = "cptp"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise LinalgError(f"unknown objective {self.objective!r}")
        if self.feasible not in FEASIBLE_SETS:
            raise LinalgError(f"unknown feasible set {self.feasible!r}")
        if len(self.source) != len(self.target) or self.source.d != self.target.d:
            raise LinalgError("source/target sequences must match")
        if np.abs(self.source.priorities - self.target.priorities).max() > 1e-12:
            raise LinalgError("source/target priorities must match")

    @property
    def d(self):
        return self.source.d

    @property
    def size(self):
        return len(self.source)


def _dsum(blocks):
    sizes = [b.shape[0] for b in blocks]
    out = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    at = 0
    for b in blocks:
        out[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    return out


def _choi_pairs(d):
    """Index pairs (mu, nu) of the traceless Choi expansion, nu >= 2."""
    return [(mu, nu) for mu in range(d * d) for nu in range(1, d * d)]


def _cptp_blocks(basis, mu, nu, ppt):
    k = np.kron(basis[mu], basis[nu])
    if ppt:
        return _dsum([k, np.kron(basis[mu], basis[nu].T)])
    return k


def _cptp_const(d, ppt):
    eye = np.eye(d * d, dtype=complex) / d
    return _dsum([eye, eye]) if ppt else eye


def choi_from_coefficients(x, d):
    """Rebuild the Choi matrix from the traceless expansion coefficients."""
    basis = hermitian_basis(d)
    c = np.eye(d * d, dtype=complex) / d
    for (mu, nu), val in zip(_choi_pairs(d), x):
        c += val * np.kron(basis[mu], basis[nu])
    return ChoiMatrix(d, c)


def assemble(tp: TrackingProblem):
    """Build the SDP for a tracking problem.

    Returns :class:`~qtrack.sdp.SdpStandard` for the Hilbert-Schmidt
    objectives over plain CPTP (their natural form) and
    :class:`~qtrack.sdp.SdpInequality` otherwise.
    """
    d, i_count = tp.d, tp.size
    ppt = tp.feasible == "ppt"
    basis = hermitian_basis(d)
    pis = tp.source.priorities
    weights = pis**2 if tp.objective == "FHSavg2" else pis
    sources = [s.mat for s in tp.source.states]
    targets = [s.mat for s in tp.target.states]
    pairs = _choi_pairs(d)
    rho_coef = np.array(
        [[np.trace(r.T @ basis[mu]).real for mu in range(d * d)] for r in sources]
    )

    if tp.objective in CLOSENESS:
        if not ppt:
            e0 = -sum(w * np.kron(r.T, t) for w, r, t in zip(weights, sources, targets))
            cons = [
                (np.kron(basis[a], np.eye(d)), float(d) if a == 0 else 0.0)
                for a in range(d * d)
            ]
            return sdp.SdpStandard(e0, cons)
        a_coef = np.array(
            [
                sum(
                    w * rho_coef[i, mu] * np.trace(basis[nu] @ targets[i]).real
                    for i, w in enumerate(weights)
                )
                for mu, nu in pairs
            ]
        )
        f0 = _cptp_const(d, ppt=True)
        fs = [_cptp_blocks(basis, mu, nu, ppt=True) for mu, nu in pairs]
        return sdp.SdpInequality(-a_coef, f0, fs)

    cone = _cptp_const(d, ppt)
    cone_dim = cone.shape[0]

    if tp.objective == "Davg":
        big = hermitian_basis(i_count * d)
        top = 2 * i_count * d
        total = top + cone_dim
        f0 = np.zeros((total, total), dtype=complex)
        off = _dsum([0.5 * p * (np.eye(d) / d - t) for p, t in zip(pis, targets)])
        f0[: i_count * d, i_count * d : top] = off
        f0[i_count * d : top, : i_count * d] = off.conj().T
        f0[top:, top:] = cone
        fs, c = [], []
        for mu, nu in pairs:
            f = np.zeros((total, total), dtype=complex)
            off = _dsum([0.5 * p * rc * basis[nu] for p, rc in zip(pis, rho_coef[:, mu])])
            f[: i_count * d, i_count * d : top] = off
            f[i_count * d : top, : i_count * d] = off.conj().T
            f[top:, top:] = _cptp_blocks(basis, mu, nu, ppt)
            fs.append(f)
            c.append(0.0)
        for alpha in range((i_count * d) ** 2):
            for corner in (0, i_count * d):
                f = np.zeros((total, total), dtype=complex)
                f[corner : corner + i_count * d, corner : corner + i_count * d] = big[alpha]
                fs.append(f)
                c.append(0.5 * i_count * d if alpha == 0 else 0.0)
        return sdp.SdpInequality(np.array(c), f0, fs)

    if tp.objective == "H2avg1":
        top = i_count * d * d + 1
        total = top + cone_dim
        f0 = np.zeros((total, total), dtype=complex)
        for i, p in enumerate(pis):
            f0[i * d * d : (i + 1) * d * d, i * d * d : (i + 1) * d * d] = (
                np.eye(d * d) / p
            )
            col = vec(np.eye(d) / d - targets[i])
            f0[i * d * d : (i + 1) * d * d, top - 1] = col
            f0[top - 1, i * d * d : (i + 1) * d * d] = col.conj()
        f0[top:, top:] = cone
        fs, c = [], []
        for mu, nu in pairs:
            f = np.zeros((total, total), dtype=complex)
            u_nu = vec(basis[nu])
            for i in range(i_count):
                f[i * d * d : (i + 1) * d * d, top - 1] = rho_coef[i, mu] * u_nu
                f[top - 1, i * d * d : (i + 1) * d * d] = rho_coef[i, mu] * u_nu.conj()
            f[top:, top:] = _cptp_blocks(basis, mu, nu, ppt)
            fs.append(f)
            c.append(0.0)
        t_mat = np.zeros((total, total), dtype=complex)
        t_mat[top - 1, top - 1] = 1.0
        fs.append(t_mat)
        c.append(1.0)
        return sdp.SdpInequality(np.array(c), f0, fs)

    if tp.objective == "Havg2":
        top = (i_count * d) ** 2 + 1
        total = top + cone_dim
        f0 = np.zeros((total, total), dtype=complex)
        f0[: top - 1, : top - 1] = np.eye((i_count * d) ** 2)
        col = vec(_dsum([p * (np.eye(d) / d - t) for p, t in zip(pis, targets)]))
        f0[: top - 1, top - 1] = col
        f0[top - 1, : top - 1] = col.conj()
        f0[top:, top:] = cone
        fs, c = [], []
        for mu, nu in pairs:
            f = np.zeros((total, total), dtype=complex)
            col = vec(_dsum([p * rc * basis[nu] for p, rc in zip(pis, rho_coef[:, mu])]))
            f[: top - 1, top - 1] = col
            f[top - 1, : top - 1] = col.conj()
            f[top:, top:] = _cptp_blocks(basis, mu, nu, ppt)
            fs.append(f)
            c.append(0.0)
        t_mat = np.zeros((total, total), dtype=complex)
        t_mat[top - 1, top - 1] = 1.0
        fs.append(t_mat)
        c.append(1.0)
        return sdp.SdpInequality(np.array(c), f0, fs)

    if tp.objective == "Oavg2":
        top = 2 * i_count * d
        total = top + cone_dim
        f0 = np.zeros((total, total), dtype=complex)
        off = _dsum([p * (np.eye(d) / d - t) for p, t in zip(pis, targets)])
        f0[: i_count * d, i_count * d : top] = off
        f0[i_count * d : top, : i_count * d] = off.conj().T
        f0[top:, top:] = cone
        fs, c = [], []
        for mu, nu in pairs:
            f = np.zeros((total, total), dtype=complex)
            off = _dsum([p * rc * basis[nu] for p, rc in zip(pis, rho_coef[:, mu])])
            f[: i_count * d, i_count * d : top] = off
            f[i_count * d : top, : i_count * d] = off.conj().T
            f[top:, top:] = _cptp_blocks(basis, mu, nu, ppt)
            fs.append(f)
            c.append(0.0)
        t_mat = np.zeros((total, total), dtype=complex)
        t_mat[:top, :top] = np.eye(top)
        fs.append(t_mat)
        c.append(1.0)
        return sdp.SdpInequality(np.array(c), f0, fs)

    raise LinalgError(f"unhandled objective {tp.objective!r}")


def problem_size(assembled):
    """(n, m): number of scalar variables and LMI dimension of an assembled program."""
    if isinstance(assembled, sdp.SdpStandard):
        return len(assembled.constraints), assembled.dim
    return len(assembled.c), assembled.dim


def evaluate_objective(choi: ChoiMatrix, tp: TrackingProblem):
    """Objective value achieved by an arbitrary controller on a tracking problem.

    Outputs whose trace misses one by no more than ``TP_TOL`` (the tolerance
    of :func:`check_cptp`) are scored after rescaling to unit trace.
    """
    outs = WeightedSequence(
        [
            (p, _output_state(choi, s))
            for p, s in zip(tp.source.priorities, tp.source.states)
        ]
    )
    if tp.objective == "Davg":
        return sequence_distance("D", "avg1", outs, tp.target)
    if tp.objective == "H2avg1":
        return float(
            sum(
                p * hs_distance(a, b) ** 2
                for p, a, b in zip(outs.priorities, outs.states, tp.target.states)
            )
        )
    if tp.objective == "Havg2":
        return sequence_distance("H", "avg2", outs, tp.target)
    if tp.objective == "Oavg2":
        return sequence_distance("O", "avg2", outs, tp.target)
    if tp.objective == "FHSavg1":
        return sequence_distance("FHS", "avg1", outs, tp.target)
    if tp.objective == "FHSavg2":
        return sequence_distance("FHS", "avg2", outs, tp.target)
    raise LinalgError(f"unhandled objective {tp.objective!r}")


def _output_state(choi: ChoiMatrix, rho: DensityMatrix) -> DensityMatrix:
    if rho.d != choi.d:
        raise LinalgError("dimension mismatch between channel and state")
    out = apply_choi_raw(choi.mat, rho.mat)
    trace = np.trace(out).real
    if abs(trace - 1.0) > TP_TOL:
        raise LinalgError(f"output trace {trace:.12f} != 1")
    return DensityMatrix(out / trace)


@dataclass
class TrackingResult:
    controller: ChoiMatrix
    value: float
    solution: sdp.SdpSolution | None
    cptp_report: dict
    ppt_report: dict | None


def solve_tracking(tp: TrackingProblem, opts: sdp.SolverOptions | None = None) -> TrackingResult:
    """Assemble and solve; returns the controller Choi matrix and achieved value.

    For ``Havg2`` the reported value is sqrt(optimal t) so that it measures
    <H>_2 rather than <H^2>_2.
    """
    d = tp.d
    if all(np.abs(t.mat - np.eye(d) / d).max() < 1e-14 for t in tp.target.states):
        # all targets maximally mixed: the completely depolarizing channel wins
        controller = ChoiMatrix(d, np.kron(np.eye(d), np.eye(d) / d))
        value = evaluate_objective(controller, tp)
        return TrackingResult(
            controller,
            value,
            None,
            check_cptp(controller),
            check_ppt(controller) if tp.feasible == "ppt" else None,
        )

    program = assemble(tp)
    sol = sdp.solve(program, opts)
    if sol.status != "optimal":
        raise sdp.SolverError(f"tracking SDP ended with status {sol.status!r}")
    if isinstance(program, sdp.SdpStandard):
        controller = ChoiMatrix(d, sol.z)
        value = sol.primal_value
    else:
        n_x = len(_choi_pairs(d))
        controller = choi_from_coefficients(sol.x[:n_x], d)
        if tp.objective in CLOSENESS:
            weights = tp.source.priorities ** (2 if tp.objective == "FHSavg2" else 1)
            value = float(weights.sum()) / d - sol.primal_value
        elif tp.objective == "Havg2":
            value = float(np.sqrt(max(sol.primal_value, 0.0)))
        else:
            value = sol.primal_value
    ppt_report = None
    if tp.feasible == "ppt":
        ppt_report = check_ppt(controller)
        if d >= 3:
            # PPT only relaxes separability beyond qubits; rank <= 3 is the
            # one case with a separability guarantee
            w = np.linalg.eigvalsh(controller.mat)
            rank = int((w > 1e-9 * max(w.max(), 1.0)).sum())
            ppt_report["choi_rank"] = rank
            ppt_report["separability"] = (
                "guaranteed (rank <= 3)" if rank <= 3 else "undetermined (PPT-relaxed)"
            )
    return TrackingResult(controller, value, sol, check_cptp(controller), ppt_report)


def reduce_nto2(group1, group2, target1: DensityMatrix, target2: DensityMatrix,
                objective="FHSavg1", feasible="cptp") -> TrackingProblem:
    """Collapse two groups of weighted sources onto a two-element tracking problem.

    ``group1``/``group2`` are lists of (q_j, state) with all q_j > 0 summing to
    one across both groups; each group is replaced by its weight and its
    weighted mean state.
    """
    if not group1 or not group2:
        raise LinalgError("both groups must be non-empty")
    q1 = float(sum(q for q, _ in group1))
    q2 = float(sum(q for q, _ in group2))
    if abs(q1 + q2 - 1.0) > 1e-12:
        raise LinalgError("group weights must sum to one")
    mean1 = sum((q / q1) * (s.mat if isinstance(s, DensityMatrix) else np.asarray(s)) for q, s in group1)
    mean2 = sum((q / q2) * (s.mat if isinstance(s, DensityMatrix) else np.asarray(s)) for q, s in group2)
    src = WeightedSequence([(q1, DensityMatrix(mean1)), (q2, DensityMatrix(mean2))])
    tgt = WeightedSequence([(q1, target1), (q2, target2)])
    return TrackingProblem(src, tgt, objective, feasible)


COMPAT_MEASURES = ("Davg", "H2avg1", "Oavg2", "FHSavg1")


def compatibility_experiment(cells, samples, seed, source_pure=False, target_pure=True,
                             measures=COMPAT_MEASURES, opts=None):
    """Average cross-objective performance drops on random unbiased transformations.

    For each (I, d) cell, ``samples`` random source/target sequences are drawn
    with uniform priorities; each measure is optimized over CPTP and the
    resulting controller is scored against every other measure.  The reported
    drop Delta(X|Y) = X(Y-optimal controller) - X* is quoted in percent
    (x100), signed so that closeness measures also yield positive drops.
    """
    from .channels import random_state

    results = {}
    for i_count, d in cells:
        drops = {(x, y): [] for x in measures for y in measures}
        for k in range(samples):
            # per-sample generator so batches stay reproducible under any split
            rng = np.random.default_rng([seed, i_count, d, k])
            pis = [1.0 / i_count] * i_count
            src = WeightedSequence(
                [(p, random_state(d, rng, pure=source_pure)) for p in pis]
            )
            tgt = WeightedSequence(
                [(p, random_state(d, rng, pure=target_pure)) for p in pis]
            )
            best = {}
            controllers = {}
            for tag in measures:
                tp = TrackingProblem(src, tgt, tag, "cptp")
                res = solve_tracking(tp, opts)
                best[tag] = res.value
                controllers[tag] = res.controller
            for x_tag in measures:
                tp_x = TrackingProblem(src, tgt, x_tag, "cptp")
                for y_tag in measures:
                    achieved = evaluate_objective(controllers[y_tag], tp_x)
                    diff = achieved - best[x_tag]
                    if x_tag in CLOSENESS:
                        diff = -diff
                    drops[(x_tag, y_tag)].append(100.0 * diff)
        cell = {}
        for key, vals in drops.items():
            arr = np.asarray(vals)
            cell[key] = (float(arr.mean()), float(arr.std()))
        orderings = {}
        for x_tag in measures:
            others = [y for y in measures if y != x_tag]
            orderings[x_tag] = sorted(others, key=lambda y: cell[(x_tag, y)][0])
        results[(i_count, d)] = {"drops": cell, "orderings": orderings}
    return results
