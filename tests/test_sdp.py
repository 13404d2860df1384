import numpy as np
import pytest

from qtrack import sdp, tracking
from qtrack.channels import DensityMatrix, haar_random_unitary, random_state
from qtrack.distances import WeightedSequence
from qtrack.linalg import LinalgError, hermitian_basis, hermitize


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
    # the inequality form is certified with x as the multiplier vector
    for program, multipliers in ((prob, "nu"), (sdp.dualize(prob), "x")):
        sol = sdp.solve(program)
        assert sol.status == "optimal"
        report = sdp.verify_certificate(sol.z, getattr(sol, multipliers), program)
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


def test_constraint_stack_is_validated_as_per_matrix():
    rng = np.random.default_rng(61)
    g = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    mats = [m + m.conj().T + 1e-11 * rng.normal(size=(3, 3)) for m in g]  # Hermitian to 1e-11
    want = [hermitize(m, atol=1e-9) for m in mats]
    ineq = sdp.SdpInequality(np.ones(4), mats[0], mats[1:])
    std = sdp.SdpStandard(mats[0], [(m, 1.0) for m in mats[1:]])
    for got in (ineq.fs, [e for e, _ in std.constraints]):
        assert all(np.array_equal(a, b) for a, b in zip(got, want[1:], strict=True))
    assert sdp.SdpInequality([], mats[0], []).fs == ()
    assert sdp.SdpStandard(mats[0], []).constraints == ()
    skew = mats[1] + np.triu(np.ones((3, 3)), 1)
    with pytest.raises(LinalgError):
        sdp.SdpInequality(np.ones(2), mats[0], [mats[1], skew])
    with pytest.raises(LinalgError):
        sdp.SdpStandard(mats[0], [(mats[1], 1.0), (skew, 0.0)])
    # mismatched shapes are named before anything is stacked
    with pytest.raises(LinalgError, match="dimension"):
        sdp.SdpInequality(np.ones(2), mats[0], [mats[1], np.eye(2)])
    with pytest.raises(LinalgError, match="dimension"):
        sdp.SdpStandard(mats[0], [(mats[1], 1.0), (np.eye(2), 0.0)])


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


# -- the stacked pass against the unstacked loop it replaced -----------------


def _reference_herm(m):
    return 0.5 * (m + m.conj().T)


def _reference_max_step(m_ihalf, delta):
    """Largest alpha in (0, 1] with m + alpha * delta PSD, given m_ihalf = m^(-1/2), m near-PD."""
    lam = np.linalg.eigvalsh(_reference_herm(m_ihalf @ delta @ m_ihalf)).min()
    if lam >= 0:
        return 1.0
    return min(1.0, -1.0 / lam)


def _reference_solve_textbook(c_mat, a_stack, b, opts):
    """The solver loop as it was before its stages were stacked: one call per matrix.

    Kept as the reference the stacked loop must match bit for bit.  Since
    then it has gained the ``passes`` count and lost the anti-stall lift, as
    the loop did, and it reads the loop's constants as literals.
    """
    n = c_mat.shape[0]
    m = len(b)
    a_flat = sdp._flat(a_stack)
    c_flat = sdp._flat(c_mat)
    x = np.eye(n, dtype=complex)
    scale = max(1.0, np.abs(c_mat).max())
    s = scale * np.eye(n, dtype=complex)
    y = np.zeros(m)
    iterates = []

    def a_dot(mat):
        return a_flat @ sdp._flat(mat)

    def a_comb(vec_):
        return (vec_ @ a_flat).view(complex).reshape(n, n)

    def mu_of(x_, s_):
        return float(sdp._flat(x_) @ sdp._flat(s_)) / n  # tr(X S) / n

    info = {"iterations": 0}
    accepted = None
    for it in range(opts.max_iter):
        rp = b - a_dot(x)
        rd = c_mat - s - a_comb(y)
        mu = mu_of(x, s)
        pobj = float(c_flat @ sdp._flat(x))
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pres = np.linalg.norm(rp) / (1.0 + np.linalg.norm(b))
        dres = np.abs(rd).max() / (1.0 + np.abs(c_mat).max())
        if opts.trace_iterates:
            iterates.append((x.copy(), y.copy(), s.copy()))
        comp = np.abs(x @ s).max() / scale
        converged = gap <= opts.gap_tol and pres <= 1e-9 and dres <= 1e-9
        if converged and (comp <= 5e-9 or mu <= 1e-13 * scale):
            info.update(iterations=it, passes=it, status="optimal", gap=gap, pres=pres, dres=dres)
            return x, y, s, info, iterates
        # gap and feasibility are in: polish complementarity for 15 more
        # passes, converged or not, then return the first converged iterate
        if converged and accepted is None:
            accepted = (x.copy(), y.copy(), s.copy(), it, gap, pres, dres)
        elif accepted is not None and it - accepted[3] >= 15:
            x, y, s, it0, gap, pres, dres = accepted
            info.update(
                iterations=it0, passes=it, status="optimal", gap=gap, pres=pres, dres=dres
            )
            return x, y, s, info, iterates

        # Nesterov-Todd scaling point: W S W = X
        try:
            wx, ux = np.linalg.eigh(x)
            if wx.min() < -1e-10 * max(wx.max(), 1.0):
                raise sdp.SolverError("primal iterate left the cone")
            wx = np.clip(wx, 1e-16 * max(wx.max(), 1.0), None)
            x_half = (ux * np.sqrt(wx)) @ ux.conj().T
            x_ihalf = (ux / np.sqrt(wx)) @ ux.conj().T  # for _max_step, as is s_ihalf
            wt, ut = np.linalg.eigh(_reference_herm(x_half @ s @ x_half))
            if wt.min() < -1e-10 * max(wt.max(), 1.0):
                raise sdp.SolverError("dual iterate left the cone")
            wt = np.clip(wt, 1e-16 * max(wt.max(), 1.0), None)
            t_mhalf = (ut / np.sqrt(wt)) @ ut.conj().T  # T^(-1/2)
            w_nt = _reference_herm(x_half @ t_mhalf @ x_half)
            ws, us = np.linalg.eigh(s)
            ws = np.clip(ws, 1e-16 * max(ws.max(), 1.0), None)
            s_inv = (us / ws) @ us.conj().T
            s_ihalf = (us / np.sqrt(ws)) @ us.conj().T
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise sdp.SolverError(f"factorization failed: {exc}") from exc

        # Schur complement M_ij = tr(A_i W A_j W), one real GEMM
        m_mat = a_flat @ sdp._flat(w_nt @ a_stack @ w_nt).T
        ridge = 1e-14 * max(np.trace(m_mat) / max(m, 1), 1.0)
        w_rd_w = w_nt @ rd @ w_nt  # the same for every direction of this iteration
        m_mat = m_mat + ridge * np.eye(m)
        try:
            np.linalg.cholesky(m_mat)
        except np.linalg.LinAlgError as exc:
            raise sdp.SolverError(f"singular normal system: {exc}") from exc

        def direction(sigma_mu, correction):
            rhs_mat = sigma_mu * s_inv - x if correction is None else sigma_mu * s_inv - x - correction
            rhs = rp - a_dot(rhs_mat - w_rd_w)
            dy = np.linalg.solve(m_mat, rhs)
            ds = rd - a_comb(dy)
            dx = rhs_mat - w_nt @ ds @ w_nt
            return _reference_herm(dx), dy, _reference_herm(ds)

        dx_a, dy_a, ds_a = direction(0.0, None)
        ap = _reference_max_step(x_ihalf, dx_a)
        ad = _reference_max_step(s_ihalf, ds_a)
        mu_aff = mu_of(x + ap * dx_a, s + ad * ds_a)
        sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3)
        if max(pres, dres) > max(gap, 1e-15):
            # keep complementarity from racing ahead of feasibility
            sigma = max(sigma, 0.5)
        corr = _reference_herm(dx_a @ ds_a @ s_inv)

        rp_norm, rd_norm = np.linalg.norm(rp), np.linalg.norm(rd)

        def try_step(delta):
            dx, dy, ds = delta
            a_p = min(0.98 * _reference_max_step(x_ihalf, dx), 1.0)
            a_d = min(0.98 * _reference_max_step(s_ihalf, ds), 1.0)
            mu_n = mu_of(x + a_p * dx, s + a_d * ds)
            merit = mu_n + 0.1 * ((1 - a_p) * rp_norm + (1 - a_d) * rd_norm)
            return merit, a_p, a_d, delta

        candidates = [
            try_step(direction(sigma * mu, corr)),
            try_step(direction(sigma * mu, None)),
        ]
        if min(max(c[1], c[2]) for c in candidates) < 0.2:
            candidates.append(try_step(direction(0.5 * mu, None)))
        _, a_p, a_d, (dx, dy, ds) = min(candidates, key=lambda c: c[0])
        x = _reference_herm(x + a_p * dx)
        y = y + a_d * dy
        s = _reference_herm(s + a_d * ds)

    info["passes"] = opts.max_iter
    if accepted is not None:
        x, y, s, it0, gap, pres, dres = accepted
        info.update(iterations=it0, status="optimal", gap=gap, pres=pres, dres=dres)
        return x, y, s, info, iterates
    info.update(
        iterations=opts.max_iter,
        status="max_iter",
        gap=gap,
        pres=pres,
        dres=dres,
    )
    return x, y, s, info, iterates


def _draw_program(rng, i_count, d, objective, feasible, draw):
    pis = [1.0 / i_count] * i_count if draw == 0 else rng.dirichlet(np.ones(i_count) * 4).tolist()
    src = WeightedSequence([(p, random_state(d, rng)) for p in pis])
    tgt = WeightedSequence([(p, random_state(d, rng, pure=draw != 1)) for p in pis])
    return tracking.assemble(tracking.TrackingProblem(src, tgt, objective, feasible))


PROGRAMS_22 = [(obj, fs) for obj in tracking.OBJECTIVES for fs in tracking.FEASIBLE_SETS]


@pytest.mark.parametrize(
    "i_count,d,objective,feasible,draws",
    [(2, 2, obj, fs, 3) for obj, fs in PROGRAMS_22] + [(3, 3, "Davg", "ppt", 1)],
)
def test_stacked_pass_matches_the_unstacked_reference(i_count, d, objective, feasible, draws):
    for draw in range(draws):
        rng = np.random.default_rng([47, i_count, d, draw])
        program = _draw_program(rng, i_count, d, objective, feasible, draw)
        c_mat, a_stack, b = sdp._prepare(program)
        x, y, s, info, _ = sdp._solve_textbook(c_mat, a_stack, b, sdp.SolverOptions())
        x0, y0, s0, info0, _ = _reference_solve_textbook(c_mat, a_stack, b, sdp.SolverOptions())
        assert np.array_equal(x, x0) and np.array_equal(y, y0) and np.array_equal(s, s0)
        for key in ("status", "iterations", "passes"):
            assert info[key] == info0[key], key


def test_stacked_max_step_matches_single_calls():
    rng = np.random.default_rng(53)
    for n in (2, 4, 7):
        ihalf = np.empty((6, 2, n, n), dtype=complex)
        delta = np.empty_like(ihalf)
        for j in range(6):
            for k in range(2):
                u = haar_random_unitary(n, rng)
                ihalf[j, k] = _inverse_sqrt((u * np.logspace(0, -3, n)) @ u.conj().T)
                g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                # PSD, then indefinite from min eig > -1 (a full step) to << -1
                delta[j, k] = g @ g.conj().T if j == 0 else 10.0 ** (j - 4) * (g + g.conj().T)
        want = [[_reference_max_step(ihalf[j, k], delta[j, k]) for k in range(2)] for j in range(6)]
        assert np.array_equal(sdp._max_step(ihalf, delta), want)
        # the (2, n, n) NT pair broadcast over a stack of directions, as the solver calls it
        assert np.array_equal(sdp._max_step(ihalf[0], delta), want[:1] + [
            [_reference_max_step(ihalf[0, k], delta[j, k]) for k in range(2)] for j in range(1, 6)
        ])
        assert sdp._max_step(ihalf[1, 0], delta[1, 0]) == want[1][0]


@pytest.mark.parametrize("objective,feasible", PROGRAMS_22)
def test_passes_count_every_loop_pass(objective, feasible):
    program = _draw_program(np.random.default_rng(59), 2, 2, objective, feasible, 1)
    _assert_one_newton_step_per_pass(program)


def _assert_one_newton_step_per_pass(program):
    sol = sdp.solve(program, sdp.SolverOptions(trace_iterates=True))
    assert sol.status == "optimal"
    assert sol.passes == len(sol.iterates) - 1
    assert sol.passes >= sol.iterations
    ys = [y for _, y, _ in sol.iterates]
    assert all(not np.array_equal(y0, y1) for y0, y1 in zip(ys, ys[1:]))
    return sol


def test_no_pass_without_a_newton_step():
    # pool pair 4 Oavg2/cptp stalls long enough that an anti-stall lift, which
    # moved X and S but left y, once took a 29th pass here
    sol = _assert_one_newton_step_per_pass(_bench_program([2009, 1, 4], 2, 2, "Oavg2", "cptp"))
    assert sol.passes == 28


# -- the polish window and the normal-equation solves ------------------------


def _bench_program(seed, i_count, d, objective, feasible):
    """The program of the benchmark's ``draw_problem(i_count, d, default_rng(seed))``.

    Ginibre sources, and Haar-pure or Ginibre targets by one coin flip.  A
    pair's priorities are (p, 1 - p) with p ~ U[0.05, 0.95]; more are
    independent U[0.05, 0.95] draws, normalised.  ``seed`` [2009, 1, k] is
    pair k of the qubit solve pool, and [7, I, d] the heavy draw at (I, d).
    """
    rng = np.random.default_rng(seed)
    if i_count == 2:
        p1 = rng.uniform(0.05, 0.95)
        pis = [p1, 1.0 - p1]
    else:
        u = rng.uniform(0.05, 0.95, i_count)
        pis = u / u.sum()

    def ginibre():
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    def haar_pure():
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())

    sources = [ginibre() for _ in pis]
    draw_target = haar_pure if rng.integers(0, 2) else ginibre
    targets = [draw_target() for _ in pis]
    src = WeightedSequence([(p, DensityMatrix(r)) for p, r in zip(pis, sources)])
    tgt = WeightedSequence([(p, DensityMatrix(t)) for p, t in zip(pis, targets)])
    return tracking.assemble(tracking.TrackingProblem(src, tgt, objective, feasible))


def test_polish_window_closes_15_passes_after_acceptance():
    # after the first converged iterate the primal residual drifts just past
    # feas_tol while mu falls to round-off, so no later pass converges; the
    # accepted iterate is still returned 15 passes on, not at max_iter
    sol = sdp.solve(_bench_program([7, 3, 3], 3, 3, "Oavg2", "cptp"))
    assert sol.status == "optimal"
    assert sol.passes == sol.iterations + 15
    assert sol.residuals["primal"] <= 1e-9 and sol.residuals["dual"] <= 1e-9


@pytest.mark.parametrize("objective,feasible", [("FHSavg1", "cptp"), ("Davg", "ppt")])
def test_one_normal_solve_per_direction_stage(objective, feasible, monkeypatch):
    # the affine direction, the two centering candidates and the fallback
    # candidate are three stages, each one np.linalg.solve of M + ridge I
    # over its stacked right-hand sides
    rng = np.random.default_rng(43)
    src = WeightedSequence([(0.3, random_state(2, rng)), (0.7, random_state(2, rng))])
    tgt = WeightedSequence([(0.3, random_state(2, rng)), (0.7, random_state(2, rng, pure=True))])
    program = tracking.assemble(tracking.TrackingProblem(src, tgt, objective, feasible))
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or solve(a, b))
    sol = sdp.solve(program)
    assert sol.status == "optimal"
    assert 0 < len(calls) <= 3 * sol.passes


# -- constant rows: dropped before the loop, X = 0 on them -------------------


class _LoopEntered(Exception):
    pass


def _loop_arrays(program, monkeypatch):
    """(C, A) that _prepare returns and (C, A) that reach _solve_textbook; the loop is not run."""
    prepared, looped = [], []
    prepare = sdp._prepare
    monkeypatch.setattr(sdp, "_prepare", lambda p: prepared.append(prepare(p)) or prepared[0])

    def capture(c_mat, a_stack, b, opts):
        looped.append((c_mat, a_stack))
        raise _LoopEntered

    monkeypatch.setattr(sdp, "_solve_textbook", capture)
    with pytest.raises(_LoopEntered):
        sdp.solve(program)
    return prepared[0][:2], looped[0]


# Havg2's residual block [[I, v], [v^dag, t]]: v vectorises a block-diagonal
# residual, so the rows of I facing its off-block entries are constant
HAVG2_LOOP_SIZES = [
    (2, 2, "cptp", 13), (2, 2, "ppt", 17),
    (3, 3, "cptp", 37), (3, 3, "ppt", 46),
    (2, 4, "cptp", 49), (2, 4, "ppt", 65),
]


@pytest.mark.parametrize("i_count,d,feasible,n_loop", HAVG2_LOOP_SIZES)
def test_havg2_loop_runs_without_the_constant_rows(i_count, d, feasible, n_loop, monkeypatch):
    program = _bench_program([7, i_count, d], i_count, d, "Havg2", feasible)
    (c_mat, a_stack), (c_loop, a_loop) = _loop_arrays(program, monkeypatch)
    assert c_loop.shape == (n_loop, n_loop)
    assert a_loop.shape == (len(a_stack), n_loop, n_loop)
    dropped = sdp._constant_rows(c_mat, a_stack)
    assert int(dropped.sum()) == program.dim - n_loop
    assert np.array_equal(c_mat[np.ix_(dropped, dropped)], np.eye(program.dim - n_loop))


@pytest.mark.parametrize("objective,feasible", [p for p in PROGRAMS_22 if p[0] != "Havg2"])
def test_programs_without_constant_rows_reach_the_loop_untouched(objective, feasible,
                                                                 monkeypatch):
    program = _bench_program([7, 2, 2], 2, 2, objective, feasible)
    (c_mat, a_stack), (c_loop, a_loop) = _loop_arrays(program, monkeypatch)
    assert np.array_equal(c_loop, c_mat) and np.array_equal(a_loop, a_stack)


def test_constant_rows_follow_the_coupling_of_c():
    # row 0 carries the variable; C couples 0-1 and 1-2, so only row 3 is constant
    c_mat = np.eye(4, dtype=complex)
    c_mat[0, 1] = c_mat[1, 0] = c_mat[1, 2] = c_mat[2, 1] = 0.5
    a_stack = np.zeros((1, 4, 4), dtype=complex)
    a_stack[0, 0, 0] = 1.0
    assert sdp._constant_rows(c_mat, a_stack).tolist() == [False, False, False, True]


def test_solution_and_iterates_are_full_size():
    program = _bench_program([2009, 1, 21], 2, 2, "Havg2", "cptp")
    c_mat, a_stack, _ = sdp._prepare(program)
    dropped = sdp._constant_rows(c_mat, a_stack)
    assert dropped.sum() == 8
    sol = sdp.solve(program, sdp.SolverOptions(trace_iterates=True))
    assert sol.status == "optimal"
    for z in [sol.z] + [x for x, _, _ in sol.iterates]:
        assert z.shape == (program.dim, program.dim)
        assert not z[dropped].any() and not z[:, dropped].any()
    for _, _, s in sol.iterates:
        # the dual slack C - sum_i y_i A_i is C's constant block there
        assert s.shape == (program.dim, program.dim)
        assert np.array_equal(s[np.ix_(dropped, dropped)], c_mat[np.ix_(dropped, dropped)])
        assert not s[np.ix_(dropped, ~dropped)].any()


def test_negative_constant_block_stops_before_the_loop(monkeypatch):
    # row 1 is constant with C = -1 there: maximize -tr(E0 Z) is unbounded,
    # and its dual E0 - nu E_1 >= 0 is infeasible
    monkeypatch.setattr(sdp, "_solve_textbook", lambda *args: pytest.fail("loop entered"))
    standard = sdp.SdpStandard(np.diag([1.0, -1.0]), [(np.diag([1.0, 0.0]), 1.0)])
    for program, status in ((standard, "unbounded"), (sdp.dualize(standard), "infeasible")):
        sol = sdp.solve(program)
        assert sol.status == status
        assert sol.iterations == sol.passes == 0


def test_every_row_constant_skips_the_loop(monkeypatch):
    monkeypatch.setattr(sdp, "_solve_textbook", lambda *args: pytest.fail("loop entered"))
    sol = sdp.solve(sdp.SdpStandard(np.diag([1.0, 2.0]), []))
    assert sol.status == "optimal" and sol.primal_value == 0.0
    assert np.array_equal(sol.z, np.zeros((2, 2)))
    # a constraint no Z can meet: tr(0 Z) = 1
    assert sdp.solve(sdp.SdpStandard(np.eye(2), [(np.zeros((2, 2)), 1.0)])).status == "infeasible"


@pytest.mark.parametrize(
    "seed,i_count,d,feasible",
    [([2009, 1, k], 2, 2, fs) for k in range(32) for fs in tracking.FEASIBLE_SETS]
    + [([7, 3, 3], 3, 3, "cptp")],
)
def test_reduced_havg2_solutions_certify_on_the_full_problem(seed, i_count, d, feasible):
    program = _bench_program(seed, i_count, d, "Havg2", feasible)
    sol = sdp.solve(program)
    assert sol.status == "optimal"
    # verify_certificate works on the unreduced (C, A, b)
    multipliers = sol.nu if isinstance(program, sdp.SdpStandard) else sol.x
    report = sdp.verify_certificate(sol.z, multipliers, program)
    assert report["primal_residual"] <= 1e-8
    assert report["primal_min_eig"] >= -1e-9
    assert report["dual_slack_min_eig"] >= -1e-9
    assert abs(report["gap"]) <= 1e-8
