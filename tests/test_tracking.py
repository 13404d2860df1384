import numpy as np
import pytest

from qtrack import tracking
from qtrack.channels import ChoiMatrix, DensityMatrix, apply_choi, check_cptp, random_state
from qtrack.distances import WeightedSequence


def random_problem(rng, i_count=2, d=2, pure_targets=True, uniform=True):
    if uniform:
        pis = [1.0 / i_count] * i_count
    else:
        pis = rng.dirichlet(np.ones(i_count) * 4).tolist()
    src = WeightedSequence([(p, random_state(d, rng)) for p in pis])
    tgt = WeightedSequence([(p, random_state(d, rng, pure=pure_targets)) for p in pis])
    return src, tgt


SIZE_TABLE = [
    ("Davg", "cptp", 44, 12),
    ("Davg", "ppt", 44, 16),
    ("H2avg1", "cptp", 13, 13),
    ("H2avg1", "ppt", 13, 17),
    ("Havg2", "cptp", 13, 21),
    ("Havg2", "ppt", 13, 25),
    ("Oavg2", "cptp", 13, 12),
    ("Oavg2", "ppt", 13, 16),
    ("FHSavg1", "cptp", 4, 4),
    ("FHSavg1", "ppt", 12, 8),
    ("FHSavg2", "cptp", 4, 4),
    ("FHSavg2", "ppt", 12, 8),
]


@pytest.mark.parametrize("objective,feasible,n_want,m_want", SIZE_TABLE)
def test_program_sizes_match_reference(objective, feasible, n_want, m_want):
    rng = np.random.default_rng(0)
    src, tgt = random_problem(rng)
    tp = tracking.TrackingProblem(src, tgt, objective, feasible)
    n, m = tracking.problem_size(tracking.assemble(tp))
    assert (n, m) == (n_want, m_want)


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
    if objective == "Havg2":
        assert abs(res.value - direct) < 1e-6
    else:
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
