import json

import numpy as np
import pytest

from qtrack import cli, sdp, serialize, tracking
from qtrack.channels import (ChoiMatrix, DensityMatrix, apply_choi, check_cptp, random_channel,
                             random_state)
from qtrack.distances import WeightedSequence
from qtrack.linalg import LinalgError, hermitian_basis, vec


def random_problem(rng, i_count=2, d=2, pure_targets=True, uniform=True):
    if uniform:
        pis = [1.0 / i_count] * i_count
    else:
        pis = rng.dirichlet(np.ones(i_count) * 4).tolist()
    src = WeightedSequence([(p, random_state(d, rng)) for p in pis])
    tgt = WeightedSequence([(p, random_state(d, rng, pure=pure_targets)) for p in pis])
    return src, tgt


# (objective, feasible set, variables, LMI size, (K, B) of the LMI's K blocks of size B)
SIZE_TABLE = [
    ("Davg", "cptp", 20, 12, (3, 4)),
    ("Davg", "ppt", 20, 16, (4, 4)),
    ("H2avg1", "cptp", 13, 13, (1, 13)),
    ("H2avg1", "ppt", 13, 17, (2, 9)),
    ("Havg2", "cptp", 13, 13, (1, 13)),
    ("Havg2", "ppt", 13, 17, (2, 9)),
    ("Oavg2", "cptp", 13, 12, (3, 4)),
    ("Oavg2", "ppt", 13, 16, (4, 4)),
    ("FHSavg1", "cptp", 4, 4, (1, 4)),
    ("FHSavg1", "ppt", 12, 8, (2, 4)),
    ("FHSavg2", "cptp", 4, 4, (1, 4)),
    ("FHSavg2", "ppt", 12, 8, (2, 4)),
]


@pytest.mark.parametrize("objective,feasible,n_want,m_want,blocks", [
    pytest.param(*row, id="-".join(map(str, row[:4]))) for row in SIZE_TABLE
])
def test_program_sizes_match_reference(objective, feasible, n_want, m_want, blocks):
    rng = np.random.default_rng(0)
    src, tgt = random_problem(rng)
    tp = tracking.TrackingProblem(src, tgt, objective, feasible)
    program = tracking.assemble(tp)
    n, m = tracking.problem_size(program)
    assert (n, m) == (n_want, m_want)
    c_mat, a_stack, _ = sdp._prepare(program)
    dropped, rows = sdp._block_layout(c_mat, a_stack)
    assert not dropped.any() and rows.shape == blocks


@pytest.mark.parametrize("objective", tracking.OBJECTIVES)
@pytest.mark.parametrize("feasible", tracking.FEASIBLE_SETS)
def test_solve_and_cross_evaluate(objective, feasible):
    rng = np.random.default_rng(1)
    src, tgt = random_problem(rng, uniform=False)
    tp = tracking.TrackingProblem(src, tgt, objective, feasible)
    res = tracking.solve_tracking(tp)
    assert res.cptp_report["cp"] and res.cptp_report["tp"]
    if feasible == "ppt":
        assert res.ppt_report["ppt"]
    direct = tracking.evaluate_objective(res.controller, tp)
    assert abs(res.value - direct) < 1e-7


def test_identical_sequences_give_zero_distance():
    rng = np.random.default_rng(2)
    pis = [0.4, 0.6]
    states = [random_state(2, rng, pure=True) for _ in pis]
    seq = WeightedSequence(list(zip(pis, states)))
    tp = tracking.TrackingProblem(seq, seq, "Davg", "cptp")
    res = tracking.solve_tracking(tp)
    assert res.value < 1e-6


def test_trace_distance_scheme_degeneracy():
    # <D>_1 and <D>_2 agree for every controller, so one program serves both
    rng = np.random.default_rng(3)
    src, tgt = random_problem(rng, uniform=False)
    tp = tracking.TrackingProblem(src, tgt, "Davg", "cptp")
    res = tracking.solve_tracking(tp)
    outs = WeightedSequence(
        [(p, apply_choi(res.controller, s)) for p, s in zip(src.priorities, src.states)]
    )
    from qtrack.distances import sequence_distance

    v1 = sequence_distance("D", "avg1", outs, tgt)
    v2 = sequence_distance("D", "avg2", outs, tgt)
    assert abs(v1 - v2) < 1e-12
    assert abs(res.value - v1) < 1e-7


def test_uniform_h_objectives_interchangeable():
    rng = np.random.default_rng(4)
    src, tgt = random_problem(rng, uniform=True)
    tp_h21 = tracking.TrackingProblem(src, tgt, "H2avg1", "cptp")
    tp_h2 = tracking.TrackingProblem(src, tgt, "Havg2", "cptp")
    res_h21 = tracking.solve_tracking(tp_h21)
    res_h2 = tracking.solve_tracking(tp_h2)
    # each optimizer achieves the other's optimum
    cross1 = tracking.evaluate_objective(res_h21.controller, tp_h2)
    cross2 = tracking.evaluate_objective(res_h2.controller, tp_h21)
    assert abs(cross1 - res_h2.value) <= 1e-7
    assert abs(cross2 - res_h21.value) <= 1e-7


def test_uniform_fhs_proportionality():
    rng = np.random.default_rng(5)
    src, tgt = random_problem(rng, uniform=True)
    v1 = tracking.solve_tracking(
        tracking.TrackingProblem(src, tgt, "FHSavg1", "cptp")
    ).value
    v2 = tracking.solve_tracking(
        tracking.TrackingProblem(src, tgt, "FHSavg2", "cptp")
    ).value
    assert abs(v1 - len(src) * v2) <= 1e-8


def test_ppt_never_beats_cptp():
    rng = np.random.default_rng(6)
    for objective in ("Davg", "Oavg2", "FHSavg1"):
        src, tgt = random_problem(rng, uniform=False)
        v_cptp = tracking.solve_tracking(
            tracking.TrackingProblem(src, tgt, objective, "cptp")
        ).value
        v_ppt = tracking.solve_tracking(
            tracking.TrackingProblem(src, tgt, objective, "ppt")
        ).value
        if objective.startswith("FHS"):
            assert v_ppt <= v_cptp + 1e-7
        else:
            assert v_ppt >= v_cptp - 1e-7


def test_depolarizing_short_circuit():
    rng = np.random.default_rng(7)
    pis = [0.5, 0.5]
    src = WeightedSequence([(p, random_state(2, rng)) for p in pis])
    tgt = WeightedSequence([(p, DensityMatrix.maximally_mixed(2)) for p in pis])
    res = tracking.solve_tracking(tracking.TrackingProblem(src, tgt, "Davg", "cptp"))
    assert res.solution is None
    assert res.value < 1e-12
    for s in src.states:
        out = apply_choi(res.controller, s)
        assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12


def _ref_choi_from_coefficients(x, d):
    """I/d + sum x_munu H^mu (x) H^nu, one np.kron per pair (mu, nu >= 2), mu-major."""
    basis = hermitian_basis(d)
    pairs = [(mu, nu) for mu in range(d * d) for nu in range(1, d * d)]
    c = np.eye(d * d, dtype=complex) / d
    for (mu, nu), val in zip(pairs, x):
        c += val * np.kron(basis[mu], basis[nu])
    return c


@pytest.mark.parametrize("d", [2, 3, 4])
def test_choi_from_coefficients_matches_the_pair_loop(d):
    rng = np.random.default_rng(60 + d)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, d * d * (d * d - 1))
        got = tracking.choi_from_coefficients(x, d).mat
        assert np.abs(got - _ref_choi_from_coefficients(x, d)).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 3])
def test_choi_from_coefficients_rebuilds_a_channel(d):
    # the traceless coefficients x_munu = tr(C H^mu (x) H^nu) / (n_mu n_nu) of a
    # CPTP map's Choi matrix, where tr(H^a H^a) = n_a, give that matrix back
    rng = np.random.default_rng(64 + d)
    basis = hermitian_basis(d)
    norms = [float(d)] + [2.0] * (d * d - 1)
    for _ in range(10):
        choi = random_channel(d, rng).mat
        x = [np.trace(choi @ np.kron(basis[mu], basis[nu])).real / (norms[mu] * norms[nu])
             for mu in range(d * d) for nu in range(1, d * d)]
        assert np.abs(tracking.choi_from_coefficients(x, d).mat - choi).max() <= 1e-14


def test_ppt_report_has_the_same_fields_on_the_maximally_mixed_shortcut():
    rng = np.random.default_rng(71)
    pis = [0.5, 0.5]
    src = WeightedSequence([(p, random_state(3, rng)) for p in pis])
    keys = []
    for eps in (0.0, 1e-13):
        # 1e-13 away from I/3 the shortcut no longer applies and the SDP runs
        target = DensityMatrix(np.eye(3) / 3 + eps * np.diag([1.0, -1.0, 0.0]))
        tgt = WeightedSequence([(p, target) for p in pis])
        res = tracking.solve_tracking(tracking.TrackingProblem(src, tgt, "FHSavg1", "ppt"))
        assert (res.solution is None) == (eps == 0.0)
        keys.append(sorted(res.ppt_report))
    assert keys[0] == keys[1]
    assert {"choi_rank", "separability"} <= set(keys[0])


def test_reduce_nto2_trivial_cases():
    rng = np.random.default_rng(8)
    s1, s2 = random_state(2, rng), random_state(2, rng)
    t1, t2 = random_state(2, rng, pure=True), random_state(2, rng, pure=True)
    tp = tracking.reduce_nto2([(0.4, s1)], [(0.6, s2)], t1, t2)
    assert np.abs(tp.source.states[0].mat - s1.mat).max() < 1e-14
    assert np.abs(tp.source.priorities - [0.4, 0.6]).max() < 1e-14
    tp2 = tracking.reduce_nto2([(0.25, s1), (0.25, s1)], [(0.5, s2)], t1, t2)
    assert np.abs(tp2.source.states[0].mat - s1.mat).max() < 1e-14


def test_reduce_nto2_agrees_with_direct_assembly():
    rng = np.random.default_rng(9)
    taus = [random_state(2, rng) for _ in range(5)]
    qs = rng.dirichlet(np.ones(5) * 3)
    t1, t2 = random_state(2, rng, pure=True), random_state(2, rng, pure=True)
    group1 = list(zip(qs[:3], taus[:3]))
    group2 = list(zip(qs[3:], taus[3:]))
    reduced = tracking.reduce_nto2(group1, group2, t1, t2)
    res_red = tracking.solve_tracking(reduced)
    # direct 5-term <F_HS>_1 objective with the grouped targets
    src5 = WeightedSequence(list(zip(qs, taus)))
    tgt5 = WeightedSequence(list(zip(qs, [t1] * 3 + [t2] * 2)))
    res_dir = tracking.solve_tracking(
        tracking.TrackingProblem(src5, tgt5, "FHSavg1", "cptp")
    )
    assert abs(res_red.value - res_dir.value) <= 1e-8


def test_compatibility_experiment_small():
    results = tracking.compatibility_experiment([(2, 2)], samples=4, seed=123)
    cell = results[(2, 2)]
    for x in tracking.COMPAT_MEASURES:
        mean, _ = cell["drops"][(x, x)]
        assert abs(mean) < 1e-6  # Delta(X|X) = 0
        for y in tracking.COMPAT_MEASURES:
            mean_xy, _ = cell["drops"][(x, y)]
            assert mean_xy >= -1e-6
    assert set(cell["orderings"]) == set(tracking.COMPAT_MEASURES)


def test_compatibility_reproducible():
    a = tracking.compatibility_experiment([(2, 2)], samples=2, seed=7)
    b = tracking.compatibility_experiment([(2, 2)], samples=2, seed=7)
    assert a[(2, 2)]["drops"] == b[(2, 2)]["drops"]


def test_evaluate_objective_accepts_trace_error_within_tp_tolerance():
    # TP residual 5e-10 passes check_cptp (1e-9), but the outputs miss unit
    # trace by more than a DensityMatrix accepts (1e-10)
    depol = np.kron(np.eye(2), np.eye(2) / 2)
    choi = ChoiMatrix(2, depol + 5e-10 * np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
    assert check_cptp(choi)["tp"]
    src = WeightedSequence([(0.5, DensityMatrix.from_bloch([0.0, 0.0, 0.8])),
                            (0.5, DensityMatrix.from_bloch([0.6, 0.0, 0.6]))])
    tgt = WeightedSequence([(0.5, DensityMatrix.from_bloch([1.0, 0.0, 0.0])),
                            (0.5, DensityMatrix.from_bloch([0.0, 0.6, 0.0]))])
    for objective in tracking.OBJECTIVES:
        tp = tracking.TrackingProblem(src, tgt, objective)
        got = tracking.evaluate_objective(choi, tp)
        assert abs(got - tracking.evaluate_objective(ChoiMatrix(2, depol), tp)) <= 1e-8


def test_havg2_ppt_extreme_priorities_converges():
    # mixed sources, pure targets, priorities (0.999, 0.001): the solver once
    # ended this program in max_iter
    rng = np.random.default_rng(5)
    sources = [random_state(2, rng) for _ in range(2)]
    targets = [random_state(2, rng, pure=True) for _ in range(2)]
    pis = (0.999, 0.001)
    tp = tracking.TrackingProblem(
        WeightedSequence(list(zip(pis, sources))), WeightedSequence(list(zip(pis, targets))),
        "Havg2", "ppt",
    )
    res = tracking.solve_tracking(tp)
    assert res.solution.status == "optimal"
    assert abs(res.value - 1.2434e-3) <= 1e-6
    assert abs(tracking.evaluate_objective(res.controller, tp) - res.value) <= 1e-6


def _assert_havg2_value_is_achieved(sources, targets, pis, feasible, truth_is_zero):
    # Havg2 is the norm epigraph of the residual column, so the reported
    # value is t itself, not the square root of a bound on the square
    tp = tracking.TrackingProblem(
        WeightedSequence(list(zip(pis, sources))), WeightedSequence(list(zip(pis, targets))),
        "Havg2", feasible,
    )
    res = tracking.solve_tracking(tp)
    assert res.solution.status == "optimal"
    assert abs(tracking.evaluate_objective(res.controller, tp) - res.value) <= 1e-9
    if truth_is_zero:
        assert res.value <= 1e-9


@pytest.mark.parametrize("pis", [(0.5, 0.5), (0.999, 0.001)])
@pytest.mark.parametrize("feasible", tracking.FEASIBLE_SETS)
def test_havg2_targets_equal_to_pure_sources(pis, feasible):
    # two pure states serve as both sources and targets: the identity channel
    # reaches 0 over CPTP; the squared form ended (0.999, 0.001) in max_iter
    rng = np.random.default_rng(5)
    for pure in (False, False, True, True):
        random_state(2, rng, pure=pure)
    states = [random_state(2, rng, pure=True) for _ in range(2)]
    _assert_havg2_value_is_achieved(states, states, pis, feasible, feasible == "cptp")


@pytest.mark.parametrize("feasible", tracking.FEASIBLE_SETS)
def test_havg2_orthogonal_axes_tracked_onto_themselves(feasible):
    # the squared form reported 1.8e-5 over CPTP, where the identity reaches 0
    states = [DensityMatrix.from_bloch([0.0, 0.0, 1.0]), DensityMatrix.from_bloch([1.0, 0.0, 0.0])]
    _assert_havg2_value_is_achieved(states, states, (0.5, 0.5), feasible, feasible == "cptp")


# --- frozen reference: the assembly as it was written per objective ----------


def _ref_dsum(blocks):
    sizes = [b.shape[0] for b in blocks]
    out = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    at = 0
    for b in blocks:
        out[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    return out


def _ref_choi_pairs(d):
    """Index pairs (mu, nu) of the traceless Choi expansion, nu >= 2."""
    return [(mu, nu) for mu in range(d * d) for nu in range(1, d * d)]


def _ref_cptp_blocks(basis, mu, nu, ppt):
    k = np.kron(basis[mu], basis[nu])
    if ppt:
        return _ref_dsum([k, np.kron(basis[mu], basis[nu].T)])
    return k


def _ref_cptp_const(d, ppt):
    eye = np.eye(d * d, dtype=complex) / d
    return _ref_dsum([eye, eye]) if ppt else eye


def _reference_assemble(tp):
    """The per-objective assembly the shared builder replaced, kept frozen."""
    d, i_count = tp.d, len(tp.source)
    ppt = tp.feasible == "ppt"
    basis = hermitian_basis(d)
    pis = tp.source.priorities
    weights = pis**2 if tp.objective == "FHSavg2" else pis
    sources = [s.mat for s in tp.source.states]
    targets = [s.mat for s in tp.target.states]
    pairs = _ref_choi_pairs(d)
    rho_coef = np.array(
        [[np.trace(r.T @ basis[mu]).real for mu in range(d * d)] for r in sources]
    )

    if tp.objective in ("FHSavg1", "FHSavg2"):
        if not ppt:
            e0 = -sum(w * np.kron(r.T, t) for w, r, t in zip(weights, sources, targets))
            b = np.array([float(d) if a == 0 else 0.0 for a in range(d * d)])
            return sdp.SdpInequality(-b, e0, [-np.kron(basis[a], np.eye(d)) for a in range(d * d)])
        a_coef = np.array(
            [
                sum(
                    w * rho_coef[i, mu] * np.trace(basis[nu] @ targets[i]).real
                    for i, w in enumerate(weights)
                )
                for mu, nu in pairs
            ]
        )
        f0 = _ref_cptp_const(d, ppt=True)
        fs = [_ref_cptp_blocks(basis, mu, nu, ppt=True) for mu, nu in pairs]
        return sdp.SdpInequality(-a_coef, f0, fs)

    cone = _ref_cptp_const(d, ppt)
    cone_dim = cone.shape[0]

    if tp.objective == "Davg":
        top = 2 * i_count * d
        total = top + cone_dim
        f0 = np.zeros((total, total), dtype=complex)
        res = _ref_dsum([0.5 * p * (np.eye(d) / d - t) for p, t in zip(pis, targets)])
        f0[: i_count * d, : i_count * d] = res
        f0[i_count * d : top, i_count * d : top] = -res
        f0[top:, top:] = cone
        fs, c = [], []
        for mu, nu in pairs:
            f = np.zeros((total, total), dtype=complex)
            res = _ref_dsum([0.5 * p * rc * basis[nu] for p, rc in zip(pis, rho_coef[:, mu])])
            f[: i_count * d, : i_count * d] = res
            f[i_count * d : top, i_count * d : top] = -res
            f[top:, top:] = _ref_cptp_blocks(basis, mu, nu, ppt)
            fs.append(f)
            c.append(0.0)
        for i in range(i_count):
            for alpha in range(d * d):
                f = np.zeros((total, total), dtype=complex)
                for corner in (i * d, (i_count + i) * d):
                    f[corner : corner + d, corner : corner + d] = basis[alpha]
                fs.append(f)
                c.append(float(d) if alpha == 0 else 0.0)
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
            f[top:, top:] = _ref_cptp_blocks(basis, mu, nu, ppt)
            fs.append(f)
            c.append(0.0)
        t_mat = np.zeros((total, total), dtype=complex)
        t_mat[top - 1, top - 1] = 1.0
        fs.append(t_mat)
        c.append(1.0)
        return sdp.SdpInequality(np.array(c), f0, fs)

    if tp.objective == "Havg2":
        top = i_count * d * d + 1
        total = top + cone_dim
        f0 = np.zeros((total, total), dtype=complex)
        col = np.concatenate([vec(p * (np.eye(d) / d - t)) for p, t in zip(pis, targets)])
        f0[: top - 1, top - 1] = col
        f0[top - 1, : top - 1] = col.conj()
        f0[top:, top:] = cone
        fs, c = [], []
        for mu, nu in pairs:
            f = np.zeros((total, total), dtype=complex)
            col = np.concatenate([vec(p * rc * basis[nu]) for p, rc in zip(pis, rho_coef[:, mu])])
            f[: top - 1, top - 1] = col
            f[top - 1, : top - 1] = col.conj()
            f[top:, top:] = _ref_cptp_blocks(basis, mu, nu, ppt)
            fs.append(f)
            c.append(0.0)
        t_mat = np.zeros((total, total), dtype=complex)
        t_mat[:top, :top] = np.eye(top)
        fs.append(t_mat)
        c.append(1.0)
        return sdp.SdpInequality(np.array(c), f0, fs)

    if tp.objective == "Oavg2":
        top = 2 * i_count * d
        total = top + cone_dim
        f0 = np.zeros((total, total), dtype=complex)
        off = _ref_dsum([p * (np.eye(d) / d - t) for p, t in zip(pis, targets)])
        f0[: i_count * d, i_count * d : top] = off
        f0[i_count * d : top, : i_count * d] = off.conj().T
        f0[top:, top:] = cone
        fs, c = [], []
        for mu, nu in pairs:
            f = np.zeros((total, total), dtype=complex)
            off = _ref_dsum([p * rc * basis[nu] for p, rc in zip(pis, rho_coef[:, mu])])
            f[: i_count * d, i_count * d : top] = off
            f[i_count * d : top, : i_count * d] = off.conj().T
            f[top:, top:] = _ref_cptp_blocks(basis, mu, nu, ppt)
            fs.append(f)
            c.append(0.0)
        t_mat = np.zeros((total, total), dtype=complex)
        t_mat[:top, :top] = np.eye(top)
        fs.append(t_mat)
        c.append(1.0)
        return sdp.SdpInequality(np.array(c), f0, fs)

    raise LinalgError(f"unhandled objective {tp.objective!r}")


CELLS = [(2, 2), (3, 3), (2, 4), (3, 2)]


def _assert_same_program(got, want):
    assert type(got) is type(want)
    assert got.c.dtype == want.c.dtype and np.array_equal(got.c, want.c)
    assert np.array_equal(got.f0, want.f0)
    assert len(got.fs) == len(want.fs)
    for j, (f_got, f_want) in enumerate(zip(got.fs, want.fs)):
        assert np.array_equal(f_got, f_want), f"F_{j + 1} differs"


def _degenerate_problem(rng, i_count, d, first):
    """Sources I/d and a state diagonal in the computational basis, in slot order ``first``.

    Every scale[i, mu >= 1] of the I/d source is zero (exactly so at d <= 3),
    and a diagonal source has zero scales on the off-diagonal H^mu.  A third
    source, when I = 3, is random; targets are random, priorities not uniform.
    """
    pis = rng.dirichlet(np.ones(i_count) * 4).tolist()
    degenerate = [np.eye(d) / d, np.diag(rng.dirichlet(np.ones(d)))]
    sources = [DensityMatrix(m) for m in (degenerate if first else degenerate[::-1])]
    sources += [random_state(d, rng) for _ in range(i_count - 2)]
    src = WeightedSequence(list(zip(pis, sources)))
    tgt = WeightedSequence([(p, random_state(d, rng)) for p in pis])
    return src, tgt


def _cell_problems(i_count, d):
    """The random draws of a cell, then its two degenerate draws."""
    for draw, pure in enumerate((True, False, True)):
        rng = np.random.default_rng([17, i_count, d, draw])
        yield random_problem(rng, i_count, d, pure_targets=pure, uniform=draw == 0)
    for first in (True, False):
        yield _degenerate_problem(np.random.default_rng([19, i_count, d, first]), i_count, d, first)


@pytest.mark.parametrize("i_count,d", CELLS)
def test_assemble_matches_the_per_objective_reference(i_count, d):
    for src, tgt in _cell_problems(i_count, d):
        for objective in tracking.OBJECTIVES:
            for feasible in tracking.FEASIBLE_SETS:
                tp = tracking.TrackingProblem(src, tgt, objective, feasible)
                _assert_same_program(tracking.assemble(tp), _reference_assemble(tp))


def _layout_assemble(tp):
    """The builder before the per-shape template: each F_j from its own layout call, kept frozen."""
    d, ppt, obj = tp.d, tp.feasible == "ppt", tracking._OBJECTIVES[tp.objective]
    basis = hermitian_basis(d)
    pis = tp.source.priorities
    w = obj.weight(pis)
    pairs = _ref_choi_pairs(d)
    scale = w[:, None] * np.array([[np.trace(s.mat.T @ h).real for h in basis]
                                   for s in tp.source.states])
    layout, extras = obj.block(len(pis), d)
    const = [wi * (np.eye(d) / d - t.mat) for wi, t in zip(w, tp.target.states)]
    blocks = [layout([s * basis[nu] for s in scale[:, mu]]) for mu, nu in pairs]
    c = np.array([0.0] * len(pairs) + [cost for _, cost in extras])
    if obj.closeness:
        overlap = np.array([[np.trace(h @ t.mat).real for h in basis] for t in tp.target.states])
        c = -np.array([sum(scale[:, mu] * overlap[:, nu]) for mu, nu in pairs])
    cone = _ref_cptp_blocks(basis, 0, 0, ppt) / d
    fs = [_ref_dsum([b, _ref_cptp_blocks(basis, mu, nu, ppt)]) for b, (mu, nu) in zip(blocks, pairs)]
    fs += [_ref_dsum(diagonal + [np.zeros_like(cone)]) for diagonal, _ in extras]
    return sdp.SdpInequality(c, _ref_dsum([layout(const) + obj.fixed(pis, d), cone]), fs)


def _program_bytes(program):
    return [m.tobytes() for m in (program.c, program.f0, *program.fs)]


@pytest.mark.parametrize("i_count,d", CELLS)
def test_template_gives_the_layout_calls_byte_for_byte(i_count, d):
    # the template places every entry the layout writes, zeros with their
    # signs included, so the program is the per-pair layout calls' own bytes
    for src, tgt in _cell_problems(i_count, d):
        for objective in tracking.OBJECTIVES:
            for feasible in tracking.FEASIBLE_SETS:
                tp = tracking.TrackingProblem(src, tgt, objective, feasible)
                if tracking._choi_is_dual(tp):
                    continue
                assert _program_bytes(tracking.assemble(tp)) == _program_bytes(_layout_assemble(tp))


@pytest.mark.parametrize("objective", tracking.OBJECTIVES)
@pytest.mark.parametrize("feasible", tracking.FEASIBLE_SETS)
def test_template_cache_is_isolated(objective, feasible):
    # problem A, a different problem of the same shape, then A again: the
    # cached shape is shared, and nothing of one program reaches the next
    rng = np.random.default_rng([23, 2, 3])
    first, second = (random_problem(rng, 2, 3, pure_targets=False, uniform=False) for _ in "ab")
    programs = [tracking.assemble(tracking.TrackingProblem(*pair, objective, feasible))
                for pair in (first, second, first)]
    assert _program_bytes(programs[0]) == _program_bytes(programs[2])
    assert _program_bytes(programs[0]) != _program_bytes(programs[1])
    arrays = [v for v in tracking._shape(objective, 2, 3) if isinstance(v, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("objective", ["FHSavg1", "FHSavg2"])
@pytest.mark.parametrize("i_count,d", [(2, 2), (3, 3), (2, 4)])
def test_plain_cptp_closeness_is_the_dual_program(i_count, d, objective, tmp_path, capsys):
    # the d^2-variable inequality program whose z is the Choi matrix, at its
    # dual value, and dumped as that program; the primal refinement returns
    # an exactly Hermitian z, so the controller is z itself
    rng = np.random.default_rng([29, i_count, d])
    src, tgt = random_problem(rng, i_count, d, pure_targets=False, uniform=False)
    res = tracking.solve_tracking(tracking.TrackingProblem(src, tgt, objective, "cptp"))
    z = res.solution.z
    assert np.array_equal(z, z.conj().T)
    assert np.array_equal(res.controller.mat, z)
    assert res.value == res.solution.dual_value
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"source": serialize.sequence_to_json(src),
                                   "target": serialize.sequence_to_json(tgt)}))
    dump = tmp_path / "dump.json"
    assert cli.main(["solve", "--problem", str(problem), "--objective", objective,
                     "--dump-problem", str(dump)]) == 0
    printed = json.loads(capsys.readouterr().out)["value"]
    dumped = json.loads(dump.read_text())
    assert dumped["form"] == "inequality" and len(dumped["c"]) == d * d
    rebuilt = sdp.SdpInequality(dumped["c"], serialize.matrix_from_json(dumped["f0"]),
                                [serialize.matrix_from_json(f) for f in dumped["fs"]])
    sol = sdp.solve(rebuilt)
    assert sol.status == "optimal"
    assert abs(sol.dual_value - printed) <= 1e-9
