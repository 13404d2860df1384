import numpy as np
import pytest

from qtrack import sdp, tracking
from qtrack.channels import haar_random_unitary, random_state
from qtrack.distances import WeightedSequence
from qtrack.linalg import hermitian_basis


def fhs_problem(rng, d=2, pi1=0.5):
    basis = hermitian_basis(d)
    r1, r2 = random_state(d, rng), random_state(d, rng)
    t1, t2 = random_state(d, rng), random_state(d, rng)
    e0 = -(pi1 * np.kron(r1.mat.T, t1.mat) + (1 - pi1) * np.kron(r2.mat.T, t2.mat))
    cons = [
        (np.kron(basis[a], np.eye(d)), float(d) if a == 0 else 0.0)
        for a in range(d * d)
    ]
    return sdp.SdpStandard(e0, cons)


def test_trivial_standard_problem():
    p = sdp.SdpStandard(-np.diag([1.0, 0.0]), [(np.eye(2), 1.0)])
    sol = sdp.solve(p)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-8
    assert abs(sol.dual_value - 1.0) < 1e-8
    assert np.abs(sol.z - np.diag([1.0, 0.0])).max() < 1e-6


def test_dualize_single_constraint():
    p = sdp.SdpStandard(-np.diag([1.0, 0.0]), [(np.eye(2), 1.0)])
    dual = sdp.dualize(p)
    assert np.array_equal(dual.c, [-1.0])
    assert np.abs(dual.f0 + np.diag([1.0, 0.0])).max() == 0
    sol = sdp.solve(dual)
    assert abs(sol.x[0] + 1.0) < 1e-7  # nu* = -1, value -b nu = 1
    assert abs(sol.primal_value - 1.0) < 1e-8


def test_empty_constraints_psd_objective():
    # maximize -tr(E0 Z), Z >= 0 with E0 >= 0: optimum 0 at Z = 0
    p = sdp.SdpStandard(np.diag([1.0, 2.0]), [])
    sol = sdp.solve(p)
    assert abs(sol.primal_value) < 1e-7
    # the dual of a constraint-free problem has no variables; it is feasible
    # (value 0) exactly because E0 >= 0
    dual = sdp.dualize(p)
    assert len(dual.c) == 0
    assert np.linalg.eigvalsh(dual.slack([])).min() >= 0


def test_complex_standard_and_certificate():
    rng = np.random.default_rng(0)
    prob = fhs_problem(rng)
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    report = sdp.verify_certificate(sol.z, sol.nu, prob)
    assert report["pass"]
    assert report["primal_residual"] <= 1e-8
    assert report["dual_slack_min_eig"] >= -1e-9
    assert abs(report["gap"]) <= 1e-8
    assert report["complementary_slackness"] <= 1e-8 * max(np.abs(prob.e0).max(), 1.0) * 10


def test_perturbed_primal_fails_gap_check():
    rng = np.random.default_rng(1)
    prob = fhs_problem(rng)
    sol = sdp.solve(prob)
    # mix the optimal Choi towards the identity channel's: feasible, suboptimal
    d2 = prob.dim
    depol = np.kron(np.eye(2), np.eye(2) / 2)
    z_bad = 0.7 * sol.z + 0.3 * depol
    report = sdp.verify_certificate(z_bad, sol.nu, prob)
    assert report["primal_residual"] <= 1e-9  # still feasible
    assert report["gap"] > 1e-4
    assert not report["pass"]


def test_weak_duality_along_iterates():
    rng = np.random.default_rng(2)
    prob = fhs_problem(rng)
    opts = sdp.SolverOptions(trace_iterates=True)
    sol = sdp.solve(prob, opts)
    # restore feasibility of each iterate by mixing toward a strictly feasible
    # point, then check p <= d + 1e-12
    a_mats = [np.kron(h, np.eye(2)) for h in hermitian_basis(2)]
    b = np.array([2.0, 0, 0, 0])
    feas = np.kron(np.eye(2), np.eye(2) / 2)  # maximally depolarizing Choi
    for z, y, s in sol.iterates[1:]:
        resid = np.array([np.trace(e @ z).real for e in a_mats]) - b
        # affine restoration: absorb the residual into the feasible reference
        z_fixed = z - sum(
            r * np.kron(h, np.eye(2)) / (4.0 if i == 0 else 4.0)
            for i, (r, h) in enumerate(zip(resid, hermitian_basis(2)))
        )
        lam = np.linalg.eigvalsh(z_fixed).min()
        if lam < 0:
            t = min(1.0, -lam / (0.25 - lam))
            z_fixed = (1 - t) * z_fixed + t * feas
        pval = -np.trace(prob.e0 @ z_fixed).real
        nu = y
        slack_min = np.linalg.eigvalsh(
            prob.e0 - sum(v * e for v, (e, _) in zip(nu, prob.constraints))
        ).min()
        if slack_min >= -1e-14:  # dual feasible iterate
            dval = -np.array([bi for _, bi in prob.constraints]) @ nu
            assert pval <= dval + 1e-12


def test_refine_primal_keeps_input_when_face_is_too_small():
    # the slack diag(0, 1) leaves the face span(e1), which cannot carry the
    # 5e-10 that the second constraint puts on e2
    c_mat = np.diag([0.0, 1.0]).astype(complex)
    a_stack = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    b = np.array([1.0 - 5e-10, 5e-10])
    x = np.diag(b).astype(complex)
    assert sdp._refine_primal(x, np.zeros(2), a_stack, b, c_mat) is x
    # on a face that can satisfy the constraints the projection is taken
    b_face = np.array([1.0, 0.0])
    x_near = np.diag([1.0 - 1e-7, 1e-7]).astype(complex)
    refined = sdp._refine_primal(x_near, np.zeros(2), a_stack, b_face, c_mat)
    assert np.abs(refined - np.diag(b_face)).max() < 1e-15


def test_solver_deterministic():
    rng = np.random.default_rng(3)
    prob = fhs_problem(rng)
    sol1 = sdp.solve(prob)
    sol2 = sdp.solve(prob)
    assert sol1.primal_value == sol2.primal_value
    assert np.array_equal(sol1.z, sol2.z)
    assert sol1.iterations == sol2.iterations


def test_inequality_form_complex():
    # minimize x s.t. F0 + x F1 >= 0 with complex Hermitian blocks
    y = np.array([[0, -1j], [1j, 0]])
    f0 = np.eye(2) + 0.3 * y
    prob = sdp.SdpInequality([1.0], f0, [np.eye(2)])
    sol = sdp.solve(prob)
    # need 1 + x - 0.3 >= 0 -> x* = -0.7
    assert abs(sol.x[0] + 0.7) < 1e-7
    assert sol.status == "optimal"


def test_infeasible_not_reported_optimal():
    # contradictory equalities: tr(Z) = 1 and tr(Z) = 2
    p = sdp.SdpStandard(np.eye(2), [(np.eye(2), 1.0), (np.eye(2), 2.0)])
    with pytest.raises(sdp.SolverError):
        sol = sdp.solve(p, sdp.SolverOptions(max_iter=60))
        if sol.status == "optimal":  # pragma: no cover - must not happen
            raise AssertionError("infeasible problem reported optimal")
        raise sdp.SolverError(sol.status)


def test_solution_slack_is_psd():
    rng = np.random.default_rng(4)
    prob = fhs_problem(rng)
    dual = sdp.dualize(prob)
    sol = sdp.solve(dual)
    assert sol.status == "optimal"
    assert np.linalg.eigvalsh(dual.slack(sol.x)).min() >= -1e-8
    # inequality optimum equals the primal optimum of the original problem
    primal = sdp.solve(prob)
    assert abs(sol.primal_value - primal.primal_value) < 1e-7


def _inverse_sqrt(m):
    w, u = np.linalg.eigh(m)
    return (u / np.sqrt(w)) @ u.conj().T


def test_max_step_reaches_the_cone_boundary():
    rng = np.random.default_rng(41)
    shorter = 0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        u = haar_random_unitary(d, rng)
        w = np.logspace(0, -rng.uniform(0, 10), d)  # condition numbers up to 1e10
        m = (u * w) @ u.conj().T
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        delta = rng.uniform(0.01, 10) * (g + g.conj().T)
        alpha = sdp._max_step(_inverse_sqrt(m), delta)
        assert 0 < alpha <= 1
        if alpha < 1:
            shorter += 1
            lam = np.linalg.eigvalsh(m + alpha * delta).min()
            # m^(-1/2) delta m^(-1/2) is up to cond(m) times larger than delta, and its
            # eigenvalues are known to round-off relative to its norm
            scale = np.linalg.norm(m, 2) + alpha * np.linalg.norm(delta, 2)
            assert abs(lam) <= 1e-14 * (w.max() / w.min()) * scale
        psd = g @ g.conj().T
        assert sdp._max_step(_inverse_sqrt(m), psd) == 1.0
    assert shorter >= 150


@pytest.mark.parametrize("objective,feasible", [("FHSavg1", "cptp"), ("Davg", "ppt")])
def test_one_eigendecomposition_per_iterate(objective, feasible, monkeypatch):
    # NT scaling decomposes X, X^(1/2) S X^(1/2) and S once per iteration, and
    # every step-length test reuses those; the primal refinement adds one
    rng = np.random.default_rng(43)
    src = WeightedSequence([(0.3, random_state(2, rng)), (0.7, random_state(2, rng))])
    tgt = WeightedSequence([(0.3, random_state(2, rng)), (0.7, random_state(2, rng, pure=True))])
    program = tracking.assemble(tracking.TrackingProblem(src, tgt, objective, feasible))
    assert isinstance(program, sdp.SdpStandard if feasible == "cptp" else sdp.SdpInequality)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
    sol = sdp.solve(program, sdp.SolverOptions(trace_iterates=True))
    assert sol.status == "optimal"
    # one traced iterate per pass of the loop, the last of which returns
    passes = len(sol.iterates) - 1
    assert passes == sol.iterations
    assert len(calls) <= 3 * passes + 1
