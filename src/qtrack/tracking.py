"""Tracking SDPs: turn (source sequence, target sequence, objective) into a program.

Six objectives are supported over two feasible sets (CPTP; CPTP with positive
partial transpose).  The decision variable is always the controller's Choi
matrix.  The Hilbert-Schmidt closeness objectives over plain CPTP are linear
in it under d^2 trace-preserving equalities, so their program is the dual of
a d^2-variable inequality program, whose ``z`` is the Choi matrix.  Every
other program is built by one builder with one layout:

* variables: first the Choi coefficients x_munu of
  ``C = I/d + sum_{mu, nu>=2} x_munu H^mu (x) H^nu``, then the objective's
  extra variables (Davg's block-diagonal P = (+)_i P_i, d^2 real coefficients
  per P_i; t for H2avg1, Havg2, Oavg2);
* LMI: the objective's own block (+) the Choi cone (C, and C^{T_B} for PPT).
  The objective block holds the weighted residuals w_i (Phi(rho_i) - rhobar_i):
  as (P + M) (+) (P - M) for Davg, with M = (+)_i R_i, and as the off-diagonal
  corner of a 2 x 2 block for the other distances.  It is empty for the
  closeness objectives, which are linear in C.

What (objective, I, d) fix, the objective's layout and block size, the
extras' blocks and the cost, is cached per shape as ``_shape``.  ``assemble``
fills one stack F0, F_1, ..., F_m: the objective blocks of all rows in one
call of the layout, which broadcasts over leading axes, and the Choi cone
copied from the cached table of H^mu (x) H^nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from . import sdp
from .channels import TP_TOL, ChoiMatrix, DensityMatrix, apply_choi_raw, check_cptp, check_ppt
from .distances import (WeightedSequence, check_matching, check_priorities, hs_distance,
                        sequence_distance)
from .linalg import LinalgError, direct_sum, hermitian_basis

FEASIBLE_SETS = ("cptp", "ppt")


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
        check_matching(self.source, self.target)

    @property
    def d(self):
        return self.source.d


def _choi_pairs(d):
    """Index pairs (mu, nu) of the traceless Choi expansion, nu >= 2."""
    return [(mu, nu) for mu in range(d * d) for nu in range(1, d * d)]


@cache
def _kron_table(d):
    """Read-only stacks of H^mu (x) H^nu and of H^mu (x) (H^nu)^T, indexed [mu, nu]."""
    basis = np.array(hermitian_basis(d))
    tables = []
    for right in (basis, basis.swapaxes(1, 2)):
        # the entrywise products np.kron forms, laid out as [mu, nu, (i, k), (j, l)]
        k = basis[:, None, :, None, :, None] * right[None, :, None, :, None, :]
        k = k.reshape(d * d, d * d, d * d, d * d)
        k.flags.writeable = False
        tables.append(k)
    return tuple(tables)


def _off_diagonal(layout, blocks):
    """[[0, M], [M^dag, 0]] for the rectangular M = layout(blocks)."""
    m = layout(blocks)
    r, size = m.shape[-2], sum(m.shape[-2:])
    out = np.zeros((*m.shape[:-2], size, size), dtype=complex)
    out[..., :r, r:] = m
    out[..., r:, :r] = m.conj().mT
    return out


def _plus_minus(blocks):
    """M (+) -M for the Hermitian M = (+)_i R_i."""
    m = direct_sum(blocks)
    return direct_sum([m, -m])


def _trace_norm(i_count, d):
    """Davg: ||(+)_i R_i||_1 = min tr P over P = (+)_i P_i with P + M >= 0 and P - M >= 0.

    The block is (P + M) (+) (P - M), and each P_i carries the d^2
    coefficients of the Hermitian basis, at cost tr P.
    """
    zero = np.zeros((d, d))
    extras = []
    for i in range(i_count):
        for a, h in enumerate(hermitian_basis(d)):
            p_k = direct_sum([h if j == i else zero for j in range(i_count)])
            extras.append(([p_k, p_k], float(d) if a == 0 else 0.0))
    return _plus_minus, extras


def _residual_column(blocks):
    """The residual blocks as one column: vec R_1, ..., vec R_I stacked."""
    return np.concatenate([b.mT.reshape(*b.shape[:-2], -1) for b in blocks], axis=-1)[..., None]


def _norm_epigraph(layout, i_count, d):
    """Oavg2 and Havg2: ||M||_inf <= t for a p x q layout M, as P = t I_p and Q = t I_q.

    Havg2's M is the residual column, whose operator norm is ||(+)_i R_i||_2.
    """
    p, q = layout([np.zeros((d, d))] * i_count).shape
    return partial(_off_diagonal, layout), [([np.eye(p), np.eye(q)], 1.0)]


def _mean_hs_squared(i_count, d):
    """H2avg1: sum_i p_i ||R_i||_2^2 <= t as M^dag P^-1 M <= t, P = (+)_i I / p_i, Q = t."""
    head = [np.zeros((i_count * d * d,) * 2), np.ones((1, 1))]
    return partial(_off_diagonal, _residual_column), [(head, 1.0)]


def _inverse_priorities(pis, d):
    """H2avg1's fixed part: P = (+)_i I / p_i beside Q's zero."""
    return direct_sum([np.eye(d * d) / p for p in pis] + [np.zeros((1, 1))])


def _linear(i_count, d):
    """Closeness: linear in the Choi matrix, so the objective's block is empty."""
    return lambda blocks: np.zeros((0, 0)), []


def _h2avg1(outs, tgt):
    terms = zip(outs.priorities, outs.states, tgt.states)
    return float(sum(p * hs_distance(a, b) ** 2 for p, a, b in terms))


@dataclass(frozen=True)
class _Objective:
    """Everything that differs between the objectives.

    ``score`` evaluates the measure on (outputs, targets) and ``weight`` maps
    the priorities to the residual weights w_i.  The objective's LMI block is
    layout(R_1, ..., R_I) + fixed(pis, d) + sum_k t_k E_k >= 0 over its extra
    variables t_k; ``block(I, d)`` returns (layout, extras): ``layout`` maps
    the weighted residual blocks R_i linearly onto the block ([[0, M],
    [M^dag, 0]] for the epigraphs, M (+) -M for Davg), over any leading axes
    the R_i share, and ``extras`` lists the extra variables as (diagonal
    blocks of E_k, cost).  ``fixed`` is the block's constant part (0: none).
    """

    score: Callable
    block: Callable = _linear
    fixed: Callable = lambda pis, d: 0.0
    weight: Callable = lambda p: p
    closeness: bool = False

    def value(self, primal, pis, d):
        """The measure's optimum from the inequality program's optimal value."""
        if self.closeness:
            # the program minimizes sum_i w_i / d - sum_i w_i tr(Phi(rho_i) rhobar_i)
            return float(self.weight(pis).sum()) / d - primal
        return primal


_OBJECTIVES = {
    "Davg": _Objective(
        partial(sequence_distance, "D", "avg1"), _trace_norm, weight=lambda p: 0.5 * p
    ),
    "H2avg1": _Objective(_h2avg1, _mean_hs_squared, _inverse_priorities, weight=np.ones_like),
    "Havg2": _Objective(
        partial(sequence_distance, "H", "avg2"), partial(_norm_epigraph, _residual_column)
    ),
    "Oavg2": _Objective(partial(sequence_distance, "O", "avg2"), partial(_norm_epigraph, direct_sum)),
    "FHSavg1": _Objective(partial(sequence_distance, "FHS", "avg1"), closeness=True),
    "FHSavg2": _Objective(
        partial(sequence_distance, "FHS", "avg2"), weight=np.square, closeness=True
    ),
}
OBJECTIVES = tuple(_OBJECTIVES)


def choi_from_coefficients(x, d):
    """Rebuild the Choi matrix I/d + sum x_munu H^mu (x) H^nu over the pairs nu >= 2."""
    kron, _ = _kron_table(d)
    x = np.reshape(x, (d * d, d * d - 1))  # [mu, nu - 1], in _choi_pairs order
    return ChoiMatrix(d, np.eye(d * d) / d + np.tensordot(x, kron[:, 1:], 2))


def _choi_is_dual(tp: TrackingProblem):
    """Closeness over plain CPTP: the Choi matrix is the dual variable ``z`` of the program."""
    return _OBJECTIVES[tp.objective].closeness and tp.feasible == "cptp"


@cache
def _shape(objective, i_count, d):
    """What (objective, I, d) fix in ``assemble``'s program: (layout, nb, extras, c, basis).

    ``layout`` maps the slot inputs onto the objective's nb x nb block,
    ``extras`` is the (k, nb, nb) stack of the extra variables' blocks, ``c``
    the cost and ``basis`` the Hermitian basis H^mu; the arrays are read-only.
    """
    layout, extras = _OBJECTIVES[objective].block(i_count, d)
    nb = layout([np.zeros((d, d))] * i_count).shape[0]
    blocks = np.array([direct_sum(diagonal) for diagonal, _ in extras], dtype=complex)
    shape = (layout, nb, blocks.reshape(len(extras), nb, nb),
             np.array([0.0] * len(_choi_pairs(d)) + [cost for _, cost in extras]),
             np.array(hermitian_basis(d)))
    for value in shape[2:]:
        value.flags.writeable = False
    return shape


def assemble(tp: TrackingProblem) -> sdp.SdpInequality:
    """Build the SDP for a tracking problem from its shape's cached ``_shape``.

    The slot inputs of F0 and of every Choi pair's F_j form one (rows, I, d,
    d) stack, and one layout call over it gives all their objective blocks.

    Closeness over plain CPTP maximizes -tr(E0 C) over Choi matrices C >= 0
    with tr((H^a (x) I) C) = d delta_a0: the dual of minimizing -d nu_0 over
    E0 - sum_a nu_a (H^a (x) I) >= 0, whose ``z`` is C.
    """
    d, ppt, obj = tp.d, tp.feasible == "ppt", _OBJECTIVES[tp.objective]
    pis = tp.source.priorities
    w = obj.weight(pis)
    sources = np.array([s.mat for s in tp.source.states])
    targets = np.array([s.mat for s in tp.target.states])
    if _choi_is_dual(tp):
        # sum_i w_i rho_i^T (x) rhobar_i, each Kronecker product as np.kron forms it
        krons = sources.mT[:, :, None, :, None] * targets[:, None, :, None, :]
        e0 = -sum(w[:, None, None, None, None] * krons).reshape(d * d, d * d)
        kron, _ = _kron_table(d)
        b = np.array([float(d) if a == 0 else 0.0 for a in range(d * d)])
        return sdp.SdpInequality(-b, e0, -kron[:, 0])

    layout, nb, extras, c, basis = _shape(tp.objective, len(pis), d)
    n = nb + d * d * (1 + ppt)
    # residual i, w_i (Phi(rho_i) - rhobar_i), is w_i (I/d - rhobar_i) plus
    # x_munu scale[i, mu] H^nu over the Choi pairs (mu, nu): these are the
    # objective block's slot inputs, in F0 and in each pair's F_j
    scale = w[:, None] * np.trace(sources.mT[:, None] @ basis, axis1=-2, axis2=-1).real
    rows = 1 + d * d * (d * d - 1)
    slots = np.empty((rows, len(pis), d, d), dtype=complex)
    slots[0] = w[:, None, None] * (np.eye(d) / d - targets)
    pair_slots = slots[1:].reshape(d * d, d * d - 1, len(pis), d, d)  # [mu, nu - 1, i]
    np.multiply(scale.T[:, None, :, None, None], basis[None, 1:, None], out=pair_slots)
    stack = np.zeros((1 + len(c), n, n), dtype=complex)  # F0, F_1, ..., F_m
    stack[:rows, :nb, :nb] = layout(list(slots.swapaxes(0, 1)))
    stack[0, :nb, :nb] += obj.fixed(pis, d)
    # the Choi cone: C = I/d + sum x_munu H^mu (x) H^nu, beside C^{T_B} for PPT
    for k, table in enumerate(_kron_table(d)[: 1 + ppt]):
        cone = slice(nb + k * d * d, nb + (k + 1) * d * d)
        stack[0, cone, cone] = table[0, 0] / d
        stack[1:rows].reshape(d * d, d * d - 1, n, n)[..., cone, cone] = table[:, 1:]
    stack[rows:, :nb, :nb] = extras
    if obj.closeness:
        # maximize sum_i w_i tr(Phi(rho_i) rhobar_i): a linear cost on x, per pair
        overlap = np.trace(basis @ targets[:, None], axis1=-2, axis2=-1).real
        c = -sum((scale[:, :, None] * overlap[:, None, 1:]).reshape(len(pis), -1))
    return sdp.SdpInequality(np.array(c), stack[0], stack[1:])  # c copied off the cache


def problem_size(assembled):
    """(n, m): number of scalar variables and LMI dimension of an assembled program."""
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
    return _OBJECTIVES[tp.objective].score(outs, tp.target)


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


def solve_tracking(tp: TrackingProblem) -> TrackingResult:
    """Assemble and solve; returns the controller Choi matrix and achieved value.

    The value is the objective's measure itself (for ``Havg2`` <H>_2, not <H^2>_2).
    The SDP runs at :mod:`~qtrack.sdp`'s fixed tolerances; a solve that ends
    other than ``optimal`` raises :class:`~qtrack.sdp.SolverError`.
    """
    d = tp.d
    sol = None
    if all(np.abs(t.mat - np.eye(d) / d).max() < 1e-14 for t in tp.target.states):
        # all targets maximally mixed: the completely depolarizing channel wins
        controller = ChoiMatrix(d, np.kron(np.eye(d), np.eye(d) / d))
        value = evaluate_objective(controller, tp)
    else:
        program = assemble(tp)
        sol = sdp.solve(program)
        if sol.status != "optimal":
            raise sdp.SolverError(f"tracking SDP ended with status {sol.status!r}")
        if _choi_is_dual(tp):
            controller = ChoiMatrix(d, sol.z)
            value = sol.dual_value
        else:
            controller = choi_from_coefficients(sol.x[: len(_choi_pairs(d))], d)
            value = _OBJECTIVES[tp.objective].value(sol.primal_value, tp.source.priorities, d)
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

    ``group1``/``group2`` are lists of (q_j, state) whose q_j, across both
    groups, are priorities (:func:`~qtrack.distances.check_priorities`); each
    group is replaced by its weight and its weighted mean state.
    """
    if not group1 or not group2:
        raise LinalgError("both groups must be non-empty")
    check_priorities([q for q, _ in (*group1, *group2)])
    q1 = float(sum(q for q, _ in group1))
    q2 = float(sum(q for q, _ in group2))
    mean1 = sum((q / q1) * (s.mat if isinstance(s, DensityMatrix) else np.asarray(s)) for q, s in group1)
    mean2 = sum((q / q2) * (s.mat if isinstance(s, DensityMatrix) else np.asarray(s)) for q, s in group2)
    src = WeightedSequence([(q1, DensityMatrix(mean1)), (q2, DensityMatrix(mean2))])
    tgt = WeightedSequence([(q1, target1), (q2, target2)])
    return TrackingProblem(src, tgt, objective, feasible)


COMPAT_MEASURES = ("Davg", "H2avg1", "Oavg2", "FHSavg1")


def compatibility_experiment(cells, samples, seed):
    """Average cross-objective performance drops on random unbiased transformations.

    For each (I, d) cell, ``samples`` random sequences of mixed sources and
    pure targets are drawn with uniform priorities; each of the
    ``COMPAT_MEASURES`` is optimized over CPTP and the resulting controller is
    scored against every other one.  The reported drop Delta(X|Y) =
    X(Y-optimal controller) - X* is quoted in percent (x100), signed so that
    closeness measures also yield positive drops.
    """
    from .channels import random_state

    measures = COMPAT_MEASURES
    results = {}
    for i_count, d in cells:
        drops = {(x, y): [] for x in measures for y in measures}
        for k in range(samples):
            # per-sample generator so batches stay reproducible under any split
            rng = np.random.default_rng([seed, i_count, d, k])
            pis = [1.0 / i_count] * i_count
            src = WeightedSequence([(p, random_state(d, rng)) for p in pis])
            tgt = WeightedSequence([(p, random_state(d, rng, pure=True)) for p in pis])
            problems = {tag: TrackingProblem(src, tgt, tag, "cptp") for tag in measures}
            solved = {tag: solve_tracking(tp) for tag, tp in problems.items()}
            for x_tag, tp_x in problems.items():
                sign = -1.0 if _OBJECTIVES[x_tag].closeness else 1.0
                for y_tag in measures:
                    achieved = evaluate_objective(solved[y_tag].controller, tp_x)
                    drops[(x_tag, y_tag)].append(100.0 * sign * (achieved - solved[x_tag].value))
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
