import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtrack import sdp, tracking
from qtrack.channels import DensityMatrix, haar_random_unitary, random_state
from qtrack.distances import WeightedSequence
from qtrack.linalg import LinalgError, hermitian_basis, hermitize


def standard_form(e0, cons):
    """maximize -tr(E0 Z) s.t. tr(E_i Z) = b_i, Z >= 0, as the dual of (-b, E0, [-E_i])."""
    b = np.array([bi for _, bi in cons], dtype=float)
    return sdp.SdpInequality(-b, e0, [-np.asarray(e, dtype=complex) for e, _ in cons])


def fhs_problem(rng, d=2, pi1=0.5):
    basis = hermitian_basis(d)
    r1, r2 = random_state(d, rng), random_state(d, rng)
    t1, t2 = random_state(d, rng), random_state(d, rng)
    e0 = -(pi1 * np.kron(r1.mat.T, t1.mat) + (1 - pi1) * np.kron(r2.mat.T, t2.mat))
    cons = [
        (np.kron(basis[a], np.eye(d)), float(d) if a == 0 else 0.0)
        for a in range(d * d)
    ]
    return standard_form(e0, cons)


def test_trivial_standard_problem():
    p = standard_form(-np.diag([1.0, 0.0]), [(np.eye(2), 1.0)])
    sol = sdp.solve(p)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - 1.0) < 1e-8
    assert abs(sol.dual_value - 1.0) < 1e-8
    assert np.abs(sol.z - np.diag([1.0, 0.0])).max() < 1e-6


def test_empty_constraints_psd_objective():
    # maximize -tr(E0 Z), Z >= 0 with E0 >= 0: optimum 0 at Z = 0
    p = standard_form(np.diag([1.0, 2.0]), [])
    sol = sdp.solve(p)
    assert abs(sol.dual_value) < 1e-7
    # the dual of a constraint-free problem has no variables; it is feasible
    # (value 0) exactly because E0 >= 0
    assert len(p.c) == 0
    assert np.linalg.eigvalsh(p.slack([])).min() >= 0


def test_complex_standard_and_certificate():
    rng = np.random.default_rng(0)
    prob = fhs_problem(rng)
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    report = sdp.verify_certificate(sol.z, sol.x, prob)
    assert report["pass"]
    assert report["primal_residual"] <= 1e-8
    assert report["dual_slack_min_eig"] >= -1e-9
    assert abs(report["gap"]) <= 1e-8
    assert report["complementary_slackness"] <= 1e-8 * max(np.abs(prob.f0).max(), 1.0) * 10


def test_perturbed_primal_fails_gap_check():
    rng = np.random.default_rng(1)
    prob = fhs_problem(rng)
    sol = sdp.solve(prob)
    # mix the optimal Choi towards the identity channel's: feasible, suboptimal
    d2 = prob.dim
    depol = np.kron(np.eye(2), np.eye(2) / 2)
    z_bad = 0.7 * sol.z + 0.3 * depol
    report = sdp.verify_certificate(z_bad, sol.x, prob)
    assert report["primal_residual"] <= 1e-9  # still feasible
    assert report["gap"] > 1e-4
    assert not report["pass"]


def test_certificate_values_are_named_as_in_the_solution():
    # primal_value is c^T x and dual_value -tr(F0 Z), as in SdpSolution; a
    # suboptimal Z moves the dual value alone
    prob = fhs_problem(np.random.default_rng(1))
    sol = sdp.solve(prob)
    report = sdp.verify_certificate(sol.z, sol.x, prob)
    assert abs(report["primal_value"] - sol.primal_value) <= 1e-12
    assert abs(report["dual_value"] - sol.dual_value) <= 1e-12
    assert report["gap"] == report["primal_value"] - report["dual_value"]
    z_bad = 0.7 * sol.z + 0.3 * np.kron(np.eye(2), np.eye(2) / 2)
    report = sdp.verify_certificate(z_bad, sol.x, prob)
    assert abs(report["primal_value"] - sol.primal_value) <= 1e-12
    assert report["dual_value"] < sol.dual_value - 1e-4


def test_weak_duality_along_iterates():
    rng = np.random.default_rng(2)
    prob = fhs_problem(rng)
    sol = sdp.solve(prob, trace_iterates=True)
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
        pval = -np.trace(prob.f0 @ z_fixed).real
        slack_min = np.linalg.eigvalsh(prob.f0 + sum(v * f for v, f in zip(y, prob.fs))).min()
        if slack_min >= -1e-14:  # dual feasible iterate
            dval = prob.c @ y
            assert pval <= dval + 1e-12


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


def test_infeasible_not_reported_optimal(monkeypatch):
    # contradictory equalities: tr(Z) = 1 and tr(Z) = 2
    p = standard_form(np.eye(2), [(np.eye(2), 1.0), (np.eye(2), 2.0)])
    monkeypatch.setattr(sdp, "MAX_ITER", 60)
    with pytest.raises(sdp.SolverError):
        sol = sdp.solve(p)
        if sol.status == "optimal":  # pragma: no cover - must not happen
            raise AssertionError("infeasible problem reported optimal")
        raise sdp.SolverError(sol.status)


def test_constraint_stack_is_validated_as_per_matrix():
    rng = np.random.default_rng(61)
    g = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    mats = [m + m.conj().T + 1e-11 * rng.normal(size=(3, 3)) for m in g]  # Hermitian to 1e-11
    want = [hermitize(m, atol=1e-9) for m in mats]
    ineq = sdp.SdpInequality(np.ones(4), mats[0], mats[1:])
    assert all(np.array_equal(a, b) for a, b in zip(ineq.fs, want[1:], strict=True))
    assert sdp.SdpInequality([], mats[0], []).fs == ()
    skew = mats[1] + np.triu(np.ones((3, 3)), 1)
    with pytest.raises(LinalgError):
        sdp.SdpInequality(np.ones(2), mats[0], [mats[1], skew])
    # mismatched shapes are named before anything is stacked
    with pytest.raises(LinalgError, match="dimension"):
        sdp.SdpInequality(np.ones(2), mats[0], [mats[1], np.eye(2)])


def test_solution_slack_is_psd():
    rng = np.random.default_rng(4)
    prob = fhs_problem(rng)
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert np.linalg.eigvalsh(prob.slack(sol.x)).min() >= -1e-8
    # the inequality optimum equals the optimum of the standard-form program
    assert abs(sol.primal_value - sol.dual_value) < 1e-7


TWO_VARIABLES = sdp.SdpInequality([1.0, 1.0], np.eye(2), [np.eye(2), np.diag([1.0, -1.0])])


def test_slack_refuses_a_point_of_the_wrong_length():
    # a short x must not be read as padded with zeros, nor a long one cut to the program
    prob = TWO_VARIABLES
    assert np.array_equal(prob.slack([5.0, 0.0]), 6 * np.eye(2))
    for x in ([5.0], [1.0, 2.0, 3.0]):
        with pytest.raises(LinalgError, match=f"x has {len(x)} entries, the program 2 variables"):
            prob.slack(x)


def test_certificate_refuses_a_pair_of_the_wrong_size():
    prob, z, x = TWO_VARIABLES, np.eye(2), np.zeros(2)
    assert sdp.verify_certificate(z, x, prob)["primal_value"] == 0.0
    for z_bad, x_bad in ((z, x[:1]), (z, np.zeros(3)), (np.eye(3), x), (np.eye(1), x)):
        with pytest.raises(LinalgError, match=rf"x has {x_bad.size} entries and z shape "
                                              rf"\({len(z_bad)}, {len(z_bad)}\)"):
            sdp.verify_certificate(z_bad, x_bad, prob)


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
    # the HKM direction needs X^(-1/2), S^(-1/2) and S^-1 alone: one eigh of the
    # (X, S) pair per pass, which every step-length test reuses; the primal
    # refinement adds one
    rng = np.random.default_rng(43)
    src = WeightedSequence([(0.3, random_state(2, rng)), (0.7, random_state(2, rng))])
    tgt = WeightedSequence([(0.3, random_state(2, rng)), (0.7, random_state(2, rng, pure=True))])
    program = tracking.assemble(tracking.TrackingProblem(src, tgt, objective, feasible))
    assert isinstance(program, sdp.SdpInequality)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
    sol = sdp.solve(program, trace_iterates=True)
    assert sol.status == "optimal"
    # one traced iterate per pass of the loop, the last of which returns
    passes = len(sol.iterates) - 1
    assert passes == sol.iterations
    assert len(calls) <= passes + 1


# -- the stacked pass against the unstacked loop it replaced -----------------


def _reference_herm(m):
    return 0.5 * (m + m.conj().T)


def _reference_max_step(m_ihalf, delta):
    """Largest alpha in (0, 1] with m + alpha * delta PSD, given m_ihalf = m^(-1/2), m near-PD."""
    lam = np.linalg.eigvalsh(_reference_herm(m_ihalf @ delta @ m_ihalf)).min()
    if lam >= 0:
        return 1.0
    return min(1.0, -1.0 / lam)


def _reference_solve_textbook(c_mat, a_stack, b, trace_iterates):
    """The solver loop as it was before its stages were stacked: one call per matrix.

    Kept as the reference the stacked loop must match bit for bit.  Since
    then it has gained the ``passes`` count and the refinement of dy after a
    missed primal step, lost the anti-stall lift, moved from the
    Nesterov-Todd scaling point to the HKM direction, gone from two
    centering candidates to one corrected step per pass, and come to stop on
    verify_certificate's check instead of max|X S| or mu, as the loop did, and
    it reads the loop's constants as literals.
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
    aim = None
    for it in range(200):
        rp = b - a_dot(x)
        rd = c_mat - s - a_comb(y)
        mu = mu_of(x, s)
        pobj = float(c_flat @ sdp._flat(x))
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pres = np.linalg.norm(rp) / (1.0 + np.linalg.norm(b))
        dres = np.abs(rd).max() / (1.0 + np.abs(c_mat).max())
        if trace_iterates:
            iterates.append((x.copy(), y.copy(), s.copy()))
        converged = gap <= 1e-9 and pres <= 1e-9 and dres <= 1e-9
        slack = s + rd  # C - sum_i y_i A_i, the slack of (X, y)
        if (converged and np.abs(rp).max() <= 1e-8 and np.linalg.eigvalsh(x).min() >= -1e-8
                and np.linalg.eigvalsh(slack).min() >= -1e-8
                and abs(pobj - dobj) <= 1e-8 * scale * 10
                and np.abs(slack @ x).max() <= 1e-8 * scale * 10):
            info.update(iterations=it, passes=it, status="optimal", gap=gap, pres=pres, dres=dres)
            return x, y, s, info, iterates
        # gap and feasibility are in but the certificate is not: run 15 more
        # passes, converged or not, then return the first converged iterate
        if converged and accepted is None:
            accepted = (x.copy(), y.copy(), s.copy(), it, gap, pres, dres)
        elif accepted is not None and it - accepted[3] >= 15:
            x, y, s, it0, gap, pres, dres = accepted
            info.update(
                iterations=it0, passes=it, status="optimal", gap=gap, pres=pres, dres=dres
            )
            return x, y, s, info, iterates

        # HKM direction: no scaling point, only X^(-1/2), S^(-1/2) and S^-1
        try:
            wx, ux = np.linalg.eigh(x)
            if wx.min() < -1e-10 * max(wx.max(), 1.0):
                raise sdp.SolverError("primal iterate left the cone")
            wx = np.clip(wx, 1e-16 * max(wx.max(), 1.0), None)
            x_ihalf = (ux / np.sqrt(wx)) @ ux.conj().T  # for _max_step, as is s_ihalf
            ws, us = np.linalg.eigh(s)
            if ws.min() < -1e-10 * max(ws.max(), 1.0):
                raise sdp.SolverError("dual iterate left the cone")
            ws = np.clip(ws, 1e-16 * max(ws.max(), 1.0), None)
            s_inv = (us / ws) @ us.conj().T
            s_ihalf = (us / np.sqrt(ws)) @ us.conj().T
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise sdp.SolverError(f"factorization failed: {exc}") from exc

        # Schur complement M_ij = Re tr(A_i X A_j S^-1), one real GEMM
        m_mat = a_flat @ sdp._flat(x @ a_stack @ s_inv).T
        ridge = 1e-14 * max(np.trace(m_mat) / max(m, 1), 1.0)
        x_rd_s = x @ rd @ s_inv  # the same for every direction of this iteration
        m_ridge = m_mat + ridge * np.eye(m)
        try:
            np.linalg.cholesky(m_ridge)
        except np.linalg.LinAlgError as exc:
            raise sdp.SolverError(f"singular normal system: {exc}") from exc
        refine = aim is not None and np.linalg.norm(rp - aim) > 1e-9 * (1.0 + np.linalg.norm(b))

        def direction(sigma_mu, correction):
            rhs_mat = sigma_mu * s_inv - x if correction is None else sigma_mu * s_inv - x - correction
            rhs = rp - a_dot(rhs_mat - x_rd_s)
            dy = np.linalg.solve(m_ridge, rhs)
            for _ in range(2 if refine else 0):
                dy = dy + np.linalg.solve(m_ridge, rhs - m_mat @ dy)
            ds = rd - a_comb(dy)
            dx = rhs_mat - x @ ds @ s_inv
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

        dx, dy, ds = direction(sigma * mu, corr)
        a_p = min(0.95 * _reference_max_step(x_ihalf, dx), 1.0)
        a_d = min(0.95 * _reference_max_step(s_ihalf, ds), 1.0)
        aim = (1 - a_p) * rp
        x = _reference_herm(x + a_p * dx)
        y = y + a_d * dy
        s = _reference_herm(s + a_d * ds)

    info["passes"] = 200
    if accepted is not None:
        x, y, s, it0, gap, pres, dres = accepted
        info.update(iterations=it0, status="optimal", gap=gap, pres=pres, dres=dres)
        return x, y, s, info, iterates
    info.update(
        iterations=200,
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
    [(2, 2, obj, fs, 3) for obj, fs in PROGRAMS_22]
    + [(3, 3, "Davg", "ppt", 1)]
    # ``draws`` as a list names qubit pool pairs: Davg/cptp refines dy after
    # missed primal steps on pair 126 (on 3 of its 16 passes) and pair 87 (2 of
    # 19), and pair 111 runs the whole polish window and refines on 7 of its 26
    + [
        pytest.param(2, 2, "Davg", "cptp", [126], id="pool126-Davg-cptp"),
        pytest.param(2, 2, "Davg", "cptp", [87], id="pool87-Davg-cptp"),
        pytest.param(2, 2, "Davg", "cptp", [111], id="pool111-Davg-cptp"),
    ],
)
def test_stacked_pass_matches_the_unstacked_reference(i_count, d, objective, feasible, draws):
    if isinstance(draws, int):
        programs = [
            _draw_program(np.random.default_rng([47, i_count, d, draw]), i_count, d, objective,
                          feasible, draw)
            for draw in range(draws)
        ]
    else:
        programs = [_bench_program([2009, 1, k], i_count, d, objective, feasible) for k in draws]
    for program in programs:
        c_mat, a_stack, b = sdp._prepare(program)
        x, y, s, info, iterates = sdp._solve_textbook(c_mat, a_stack, b, True)
        x0, y0, s0, info0, iterates0 = _reference_solve_textbook(c_mat, a_stack, b, True)
        assert np.array_equal(x, x0) and np.array_equal(y, y0) and np.array_equal(s, s0)
        assert info == info0
        assert len(iterates) == len(iterates0) == info["passes"] + 1
        for it, (got, want) in enumerate(zip(iterates, iterates0)):
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), f"iterate {it}"


# -- the blocked loop against the one-block loop -----------------------------


def _blocked_and_one_block(c_mat, a_stack, b, rows):
    """(tr(C X), b^T y, status) of the loop on ``rows``' blocks and on their live rows as one block.

    tr(C X) is taken at full size, where X has no padding rows.
    """
    out = []
    for layout in (rows, np.sort(rows[rows >= 0])[None]):
        x, y, _, info, _ = sdp._solve_textbook(*sdp._gather(c_mat, a_stack, layout), b, False)
        x = sdp._scatter(x, layout, np.zeros_like(c_mat))
        out.append((float(sdp._flat(c_mat) @ sdp._flat(x)), float(b @ y), info["status"]))
    return out


@pytest.mark.parametrize(
    "i_count,d,objective,feasible,draws",
    [(2, 2, obj, fs, 3) for obj, fs in PROGRAMS_22]
    + [(3, 3, "Davg", "ppt", 1)]
    # padded layouts: (3,3) Oavg2/cptp is 9 + 3 x 6 rows in (4, 9) blocks and
    # (4,3) Davg/cptp 9 + 8 x 3 rows in (4, 9)
    + [(3, 3, "Oavg2", "cptp", 1), (4, 3, "Davg", "cptp", 1)]
    # pool pairs whose blocked values lie farthest from the dense ones
    + [
        pytest.param(2, 2, "Davg", "cptp", [88, 126], id="pool88,126-Davg-cptp"),
        pytest.param(2, 2, "Oavg2", "cptp", [110], id="pool110-Oavg2-cptp"),
        pytest.param(2, 2, "Davg", "ppt", [126], id="pool126-Davg-ppt"),
        pytest.param(2, 2, "H2avg1", "ppt", [117], id="pool117-H2avg1-ppt"),
        pytest.param(2, 2, "Havg2", "ppt", [27], id="pool27-Havg2-ppt"),
    ],
)
def test_blocked_loop_matches_one_block(i_count, d, objective, feasible, draws):
    if isinstance(draws, int):
        programs = [
            _draw_program(np.random.default_rng([47, i_count, d, draw]), i_count, d, objective,
                          feasible, draw)
            for draw in range(draws)
        ]
    else:
        programs = [_bench_program([2009, 1, k], i_count, d, objective, feasible) for k in draws]
    for program in programs:
        c_mat, a_stack, b = sdp._prepare(program)
        _, rows = sdp._block_layout(c_mat, a_stack)
        blocked, one = _blocked_and_one_block(c_mat, a_stack, b, rows)
        assert blocked[2] == one[2] == "optimal"
        assert abs(blocked[0] - one[0]) <= 1e-9 and abs(blocked[1] - one[1]) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_block_analysis_finds_planted_blocks(planted, seed):
    # Hermitian blocks of the given sizes on randomly permuted rows; a block
    # flagged True is touched only by C, which is positive definite there
    rng = np.random.default_rng(seed)
    n = sum(size for size, _ in planted)
    order = rng.permutation(n)
    c_mat = np.zeros((n, n), dtype=complex)
    cons, live_blocks, constant = [], [], np.zeros(n, dtype=bool)
    at = 0
    for size, only_c in planted:
        rows = np.sort(order[at:at + size])
        at += size
        block = np.ix_(rows, rows)
        g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        if only_c:
            c_mat[block] = g @ g.conj().T + np.eye(size)
            constant[rows] = True
            continue
        c_mat[block] = g + g.conj().T
        live_blocks.append(rows)
        for a_block in (np.eye(size), rng.normal(size=(size, size)) * (1 + 1j)):
            a = np.zeros((n, n), dtype=complex)
            a[block] = a_block + a_block.conj().T
            # X = I / size on every live block is strictly feasible
            cons.append((a, np.trace(a[block]).real / size))
    program = standard_form(c_mat, cons)
    c_mat, a_stack, b = sdp._prepare(program)
    dropped, rows = sdp._block_layout(c_mat, a_stack)
    assert np.array_equal(dropped, constant)
    if not live_blocks:
        assert rows is None
        return
    # every live row in exactly one block, ascending there, padding (-1) only
    # at the tail of a block, and every planted block inside one block
    k_count, b_size = rows.shape
    live = rows >= 0
    assert np.array_equal(np.sort(rows[live]), np.flatnonzero(~constant))
    assert all((np.diff(r[r >= 0]) > 0).all() for r in rows)
    assert (live[:, :-1] >= live[:, 1:]).all()
    assert all(sum(np.isin(planted, r).all() for r in rows) == 1 for planted in live_blocks)
    sizes = [len(r) for r in live_blocks]
    n_live = sum(sizes)
    if k_count == 1:
        assert b_size == n_live and live.all()
    else:
        # a padded layout has blocks of the largest planted block and at most
        # half the eigen-work of one block
        assert b_size == max(sizes) and 2 * k_count * b_size**3 <= n_live**3
    if len(set(sizes)) == 1:
        assert (k_count, b_size) == (len(sizes), sizes[0])
    # gather then scatter gives back C (its constant block from the base) and every A_i
    base = np.where(np.outer(constant, constant), c_mat, 0)
    c_blocks, a_blocks = sdp._gather(c_mat, a_stack, rows)
    assert np.array_equal(sdp._scatter(c_blocks, rows, base), c_mat)
    assert all(np.array_equal(sdp._scatter(g, rows, np.zeros_like(c_mat)), a)
               for g, a in zip(a_blocks, a_stack))
    blocked, one = _blocked_and_one_block(c_mat, a_stack, b, rows)
    assert blocked[2] == one[2] == "optimal"
    # values here reach 10 and more, and the loop stops at a relative gap of
    # GAP_TOL, so 1e-9 is relative to the values
    tol = sdp.GAP_TOL * (1.0 + abs(one[0]) + abs(one[1]))
    assert abs(blocked[0] - one[0]) <= tol and abs(blocked[1] - one[1]) <= tol


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
        # one (2, n, n) pair of inverse square roots broadcast over a stack of directions
        assert np.array_equal(sdp._max_step(ihalf[0], delta), want[:1] + [
            [_reference_max_step(ihalf[0, k], delta[j, k]) for k in range(2)] for j in range(1, 6)
        ])
        assert sdp._max_step(ihalf[1, 0], delta[1, 0]) == want[1][0]


@pytest.mark.parametrize("objective,feasible", PROGRAMS_22)
def test_passes_count_every_loop_pass(objective, feasible):
    program = _draw_program(np.random.default_rng(59), 2, 2, objective, feasible, 1)
    _assert_one_newton_step_per_pass(program)


def _assert_one_newton_step_per_pass(program):
    sol = sdp.solve(program, trace_iterates=True)
    assert sol.status == "optimal"
    assert sol.passes == len(sol.iterates) - 1
    assert sol.passes >= sol.iterations
    ys = [y for _, y, _ in sol.iterates]
    assert all(not np.array_equal(y0, y1) for y0, y1 in zip(ys, ys[1:]))
    return sol


def _longest_mu_stall(sol):
    """The most passes in a row whose mu = tr(X S) / n stays above 0.9 times its least so far.

    The anti-stall lift counted passes this way and fired at 4.
    """
    least, stall, longest = np.inf, 0, 0
    for x, _, s in sol.iterates[:-1]:
        mu = np.trace(x @ s).real / x.shape[0]
        if mu < 0.9 * least:
            least, stall = mu, 0
        else:
            stall += 1
        longest = max(longest, stall)
    return longest


def test_no_pass_without_a_newton_step():
    # pool pair 87 Davg/cptp is the first pool solve (pairs in order, programs
    # in PROGRAMS_22's order) whose mu stalls for 4 passes running (5 here)
    # and that runs the whole polish window (accepted at pass 11), where an
    # anti-stall lift, which moved X and S but left y, took an extra pass;
    # every pass is still one Newton step
    sol = _assert_one_newton_step_per_pass(_bench_program([2009, 1, 87], 2, 2, "Davg", "cptp"))
    assert _longest_mu_stall(sol) >= 4
    assert sol.passes == sol.iterations + 15
    assert sol.passes == 26


# -- the polish window and the normal-equation solves ------------------------


def _bench_program(seed, i_count, d, objective, feasible):
    return tracking.assemble(_bench_problem(seed, i_count, d, objective, feasible))


def _bench_problem(seed, i_count, d, objective, feasible):
    """The problem of the benchmark's ``draw_problem(i_count, d, default_rng(seed))``.

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
    return tracking.TrackingProblem(src, tgt, objective, feasible)


def test_polish_window_closes_15_passes_after_acceptance():
    # pool pair 111 Davg/cptp is the first pool solve (pairs in order,
    # programs in PROGRAMS_22's order) that runs the whole window: it
    # converges at pass 11 with max|X S| near 8e-7; mu then falls to round-off
    # (1e-14 to 1e-13) and max|X S| to 1.4e-9, but from pass 13 the primal
    # residual drifts past FEAS_TOL (up to 4.3e-9), so no later iterate
    # converges; the accepted iterate is still returned 15 passes on, not at
    # max_iter
    sol = sdp.solve(_bench_program([2009, 1, 111], 2, 2, "Davg", "cptp"))
    assert sol.status == "optimal"
    assert sol.passes == sol.iterations + 15
    assert sol.residuals["primal"] <= 1e-9 and sol.residuals["dual"] <= 1e-9


@pytest.mark.parametrize("objective,feasible", [("Havg2", "cptp"), ("FHSavg1", "cptp"),
                                                ("Davg", "cptp")])
def test_loop_buffers_do_not_leak_into_results(objective, feasible):
    # the loop updates (X, S) in place; Havg2/cptp and FHSavg1/cptp reach it
    # as one block, so X and the iterates come back as the loop's own arrays
    sol = sdp.solve(_bench_program([2009, 1, 111], 2, 2, objective, feasible), trace_iterates=True)
    xs = [x for x, _, _ in sol.iterates]
    assert len(xs) == sol.passes + 1
    for j, x in enumerate(xs):
        assert not np.shares_memory(x, sol.z)
        assert not any(np.shares_memory(x, other) for other in xs[j + 1 :])


def test_fallback_returns_the_accepted_iterate_not_the_last():
    # pool pair 111 Davg/cptp returns through the 15-pass fallback: the
    # iterate kept at acceptance is returned as it was then
    sol = sdp.solve(_bench_program([2009, 1, 111], 2, 2, "Davg", "cptp"), trace_iterates=True)
    assert sol.passes == sol.iterations + 15
    assert np.array_equal(sol.z, sol.iterates[sol.iterations][0])
    assert not np.array_equal(sol.z, sol.iterates[-1][0])


def test_pool_pairs_0_to_7_stay_within_the_pass_budget():
    # 96 qubit solves, 1,188 passes when the loop stops on its certificate
    # (1,310 when it stopped on max|X S| or mu, 1,328 with two centering
    # candidates, 1,438 with those and Nesterov-Todd scaling at
    # STEP_FRACTION = 0.95, 1,686 at 0.98)
    passes = 0
    for k in range(8):
        for objective, feasible in PROGRAMS_22:
            sol = sdp.solve(_bench_program([2009, 1, k], 2, 2, objective, feasible))
            assert sol.status == "optimal", (k, objective, feasible)
            passes += sol.passes
    assert passes <= 1225


@pytest.mark.parametrize("objective,feasible", [("FHSavg1", "cptp"), ("Davg", "ppt")])
def test_one_normal_solve_per_direction_stage(objective, feasible, monkeypatch):
    # the affine direction and the corrected centering direction are two
    # stages, each one np.linalg.solve of M + ridge I with a 1-D right-hand
    # side; a pass after a missed primal step adds two refinement solves to
    # each stage, and on these programs few passes miss, so the total stays
    # within three solves per pass
    rng = np.random.default_rng(43)
    src = WeightedSequence([(0.3, random_state(2, rng)), (0.7, random_state(2, rng))])
    tgt = WeightedSequence([(0.3, random_state(2, rng)), (0.7, random_state(2, rng, pure=True))])
    program = tracking.assemble(tracking.TrackingProblem(src, tgt, objective, feasible))
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(np.ndim(b)) or solve(a, b))
    sol = sdp.solve(program)
    assert sol.status == "optimal"
    assert calls and set(calls) == {1}
    refined = len(calls) - 2 * sol.passes
    assert refined >= 0 and refined % 4 == 0
    assert len(calls) <= 3 * sol.passes


# -- constant rows: dropped before the loop, X = 0 on them -------------------


class _LoopEntered(Exception):
    pass


def _loop_arrays(program, monkeypatch):
    """(C, A) that _prepare returns and (C, A) that reach _solve_textbook; the loop is not run."""
    prepared, looped = [], []
    prepare = sdp._prepare
    monkeypatch.setattr(sdp, "_prepare", lambda p: prepared.append(prepare(p)) or prepared[0])

    def capture(c_mat, a_stack, b, trace_iterates):
        looped.append((c_mat, a_stack))
        raise _LoopEntered

    monkeypatch.setattr(sdp, "_solve_textbook", capture)
    with pytest.raises(_LoopEntered):
        sdp.solve(program)
    return prepared[0][:2], looped[0]


# every tracking program, Havg2's norm epigraph included, has no constant rows;
# (K, B) is its block layout
BLOCKS_22 = {("Davg", "cptp"): (3, 4), ("Davg", "ppt"): (4, 4), ("H2avg1", "cptp"): (1, 13),
             ("H2avg1", "ppt"): (2, 9), ("Havg2", "cptp"): (1, 13), ("Havg2", "ppt"): (2, 9),
             ("Oavg2", "cptp"): (3, 4), ("Oavg2", "ppt"): (4, 4), ("FHSavg1", "cptp"): (1, 4),
             ("FHSavg1", "ppt"): (2, 4), ("FHSavg2", "cptp"): (1, 4), ("FHSavg2", "ppt"): (2, 4)}
LOOP_PROGRAMS = [
    pytest.param(2, 2, obj, fs, BLOCKS_22[obj, fs], id=f"{obj}-{fs}") for obj, fs in PROGRAMS_22
] + [
    pytest.param(i_count, d, "Havg2", fs, blocks, id=f"{i_count}-{d}-Havg2-{fs}")
    for i_count, d, fs, blocks in ((3, 3, "cptp", (1, 37)), (3, 3, "ppt", (2, 28)),
                                   (2, 4, "cptp", (1, 49)), (2, 4, "ppt", (2, 33)))
]


@pytest.mark.parametrize("i_count,d,objective,feasible,blocks", LOOP_PROGRAMS)
def test_programs_without_constant_rows_reach_the_loop_untouched(i_count, d, objective, feasible,
                                                                 blocks, monkeypatch):
    program = _bench_program([7, i_count, d], i_count, d, objective, feasible)
    (c_mat, a_stack), (c_loop, a_loop) = _loop_arrays(program, monkeypatch)
    dropped, rows = sdp._block_layout(c_mat, a_stack)
    assert not dropped.any() and rows.shape == blocks
    if blocks[0] == 1:
        # the one block is _prepare's arrays themselves, not a copy
        assert c_loop is c_mat and a_loop is a_stack
    else:
        # the blocks of C and the A_i on the live rows; a padding row carries C =
        # scale = max(1, max|C|) on its diagonal and is 0 elsewhere
        assert c_loop.shape == blocks + blocks[1:]
        live = rows[:, :, None] >= 0
        live = live & live.swapaxes(1, 2)
        c_want = np.where(live, c_mat[rows[:, :, None], rows[:, None, :]], 0)
        a_want = np.where(live, a_stack[:, rows[:, :, None], rows[:, None, :]], 0)
        k, i = np.nonzero(rows < 0)
        c_want[k, i, i] = max(1.0, np.abs(c_mat).max())
        assert np.array_equal(c_loop, c_want) and np.array_equal(a_loop, a_want)
    assert a_loop.flags.c_contiguous


def test_constant_rows_follow_the_coupling_of_c():
    # row 0 carries the variable; C couples 0-1 and 1-2, so only row 3 is constant
    c_mat = np.eye(4, dtype=complex)
    c_mat[0, 1] = c_mat[1, 0] = c_mat[1, 2] = c_mat[2, 1] = 0.5
    a_stack = np.zeros((1, 4, 4), dtype=complex)
    a_stack[0, 0, 0] = 1.0
    assert sdp._block_layout(c_mat, a_stack)[0].tolist() == [False, False, False, True]


def test_solution_and_iterates_are_full_size():
    # rows 0-1 carry tr Z = 1 over a complex E0 block; row 2 is constant, C = 3 there
    e0 = np.array([[1.0, 0.5 - 0.25j, 0.0], [0.5 + 0.25j, 2.0, 0.0], [0.0, 0.0, 3.0]])
    program = standard_form(e0, [(np.diag([1.0, 1.0, 0.0]), 1.0)])
    c_mat, a_stack, _ = sdp._prepare(program)
    dropped = sdp._block_layout(c_mat, a_stack)[0]
    assert dropped.tolist() == [False, False, True]
    sol = sdp.solve(program, trace_iterates=True)
    assert sol.status == "optimal"
    assert abs(sol.dual_value + np.linalg.eigvalsh(e0[:2, :2]).min()) <= 1e-8
    assert len(sol.iterates) > 1
    for z in [sol.z] + [x for x, _, _ in sol.iterates]:
        assert z.shape == (program.dim, program.dim)
        assert not z[dropped].any() and not z[:, dropped].any()
    for _, _, s in sol.iterates:
        # the dual slack C - sum_i y_i A_i is C's constant block there
        assert s.shape == (program.dim, program.dim)
        assert np.array_equal(s[np.ix_(dropped, dropped)], c_mat[np.ix_(dropped, dropped)])
        assert not s[np.ix_(dropped, ~dropped)].any()


def test_padded_solution_and_iterates_are_full_size():
    # (2,2) H2avg1/ppt: components of 9, 4 and 4 rows in (2, 9) blocks, the
    # second ending in one padding row, which the loop keeps and the solution drops
    program = _bench_program([2009, 1, 0], 2, 2, "H2avg1", "ppt")
    c_mat, a_stack, b = sdp._prepare(program)
    rows = sdp._block_layout(c_mat, a_stack)[1]
    assert rows.shape == (2, 9) and rows[1, -1] == -1 and (rows >= 0).sum() == program.dim
    sol = sdp.solve(program, trace_iterates=True)
    assert sol.status == "optimal" and sol.z.shape == (program.dim, program.dim)
    assert np.array_equal(sol.z, sol.iterates[sol.iterations][0])
    *_, loop_iterates = sdp._solve_textbook(*sdp._gather(c_mat, a_stack, rows), b, True)
    assert len(loop_iterates) == len(sol.iterates)
    blocks = [np.ix_(r[r >= 0], r[r >= 0]) for r in rows]
    off = np.ones(c_mat.shape, dtype=bool)
    for block in blocks:
        off[block] = False
    for (x, _, s), (x_loop, _, s_loop) in zip(sol.iterates, loop_iterates):
        # the loop's X is positive on its padding row, and the full-size X and S
        # hold only the live rows of the loop's blocks; off them X, and C, are 0
        assert x_loop[1, -1, -1].real > 0
        for full, looped in ((x, x_loop), (s, s_loop)):
            assert full.shape == (program.dim, program.dim) and not full[off].any()
            for k, block in enumerate(blocks):
                live = len(block[0])
                assert np.array_equal(full[block], looped[k, :live, :live])


@pytest.mark.parametrize("sizes,blocks", [((9, 4), (1, 13)), ((9, 4, 4), (2, 9))])
def test_padding_is_kept_at_half_the_eigen_work_or_less(sizes, blocks):
    # padded into blocks of 9, both patterns take K B^3 = 2 x 729 = 1,458, against
    # n^3 / 2 = 1,098.5 at n = 13 and 2,456.5 at n = 17
    n = sum(sizes)
    c_mat = np.zeros((n, n), dtype=complex)
    at = 0
    for size in sizes:
        c_mat[at : at + size, at : at + size] = 1.0
        at += size
    assert sdp._block_layout(c_mat, np.eye(n, dtype=complex)[None])[1].shape == blocks


def test_negative_constant_block_stops_before_the_loop(monkeypatch):
    # row 1 is constant with C = -1 there: E0 - nu E_1 >= 0 is infeasible
    monkeypatch.setattr(sdp, "_solve_textbook", lambda *args: pytest.fail("loop entered"))
    sol = sdp.solve(standard_form(np.diag([1.0, -1.0]), [(np.diag([1.0, 0.0]), 1.0)]))
    assert sol.status == "infeasible"
    assert sol.iterations == sol.passes == 0


def test_every_row_constant_skips_the_loop(monkeypatch):
    monkeypatch.setattr(sdp, "_solve_textbook", lambda *args: pytest.fail("loop entered"))
    sol = sdp.solve(standard_form(np.diag([1.0, 2.0]), []))
    assert sol.status == "optimal" and sol.dual_value == 0.0
    assert np.array_equal(sol.z, np.zeros((2, 2)))
    # a constraint no Z can meet, tr(0 Z) = 1: minimize -nu over E0 - nu 0 >= 0 is unbounded
    assert sdp.solve(standard_form(np.eye(2), [(np.zeros((2, 2)), 1.0)])).status == "unbounded"


@pytest.mark.parametrize(
    "seed,i_count,d,feasible,objective",
    [
        # Havg2, the program this test first covered, keeps its ids
        pytest.param(seed, i_count, d, fs, obj, id=f"seed{n}-{i_count}-{d}-{fs}"
                     + ("" if obj == "Havg2" else f"-{obj}"))
        for n, (seed, i_count, d, fs) in enumerate(
            [([2009, 1, k], 2, 2, fs) for k in range(32) for fs in tracking.FEASIBLE_SETS]
            + [([7, 3, 3], 3, 3, "cptp")])
        for obj in tracking.OBJECTIVES
    ],
)
def test_reduced_havg2_solutions_certify_on_the_full_problem(seed, i_count, d, feasible,
                                                             objective):
    # when the loop stopped on max|X S| or mu, pool pairs 9 H2avg1/ppt, 24
    # H2avg1/cptp and 26 FHSavg1/cptp failed the complementarity rule
    program = _bench_program(seed, i_count, d, objective, feasible)
    sol = sdp.solve(program)
    assert sol.status == "optimal"
    # verify_certificate works on the unreduced (C, A, b)
    report = sdp.verify_certificate(sol.z, sol.x, program)
    assert report["primal_residual"] <= 1e-8
    assert report["primal_min_eig"] >= -1e-9
    assert report["dual_slack_min_eig"] >= -1e-9
    assert abs(report["gap"]) <= 1e-8
    assert report["pass"]


@pytest.mark.parametrize("objective,feasible", PROGRAMS_22)
def test_ci_qubit_pair_solutions_certify(objective, feasible):
    # Bloch (0.7, 0, +-0.7) tracked onto the swapped pair at priorities 0.4
    # and 0.6; Davg/cptp, Havg2/cptp and FHSavg1/cptp left by the mu exit with
    # max|slack Z| of 1.14-1.65e-7 against the 1e-7 bound
    s1, s2 = (DensityMatrix.from_bloch([0.7, 0.0, z]) for z in (0.7, -0.7))
    src = WeightedSequence([(0.4, s1), (0.6, s2)])
    tgt = WeightedSequence([(0.4, s2), (0.6, s1)])
    program = tracking.assemble(tracking.TrackingProblem(src, tgt, objective, feasible))
    sol = sdp.solve(program)
    assert sol.status == "optimal"
    assert sdp.verify_certificate(sol.z, sol.x, program)["pass"]


def test_pool_pair_81_havg2_value_is_what_its_controller_achieves():
    # the squared form reported sqrt(t) here, 8.8e-7 above its own controller's value
    tp = _bench_problem([2009, 1, 81], 2, 2, "Havg2", "cptp")
    res = tracking.solve_tracking(tp)
    assert res.solution.status == "optimal"
    assert abs(tracking.evaluate_objective(res.controller, tp) - res.value) <= 1e-9


@pytest.mark.parametrize("feasible", tracking.FEASIBLE_SETS)
def test_pool_pair_126_davg_value_is_what_its_controller_achieves(feasible):
    # over CPTP the ridge on M bends dy off A(dx) = r_p late in the solve, and
    # without refining dy after the missed primal step, Davg's P +- M form
    # ended here in max_iter
    tp = _bench_problem([2009, 1, 126], 2, 2, "Davg", feasible)
    res = tracking.solve_tracking(tp)
    assert res.solution.status == "optimal"
    assert abs(tracking.evaluate_objective(res.controller, tp) - res.value) <= 1e-9


@pytest.mark.parametrize("lazy", [False, True])
def test_certificate_check_fails_each_conjunct_alone(lazy):
    # sdp._certificate, the check of both the loop and verify_certificate, on
    # complementary pairs that break one conjunct only: an eigenvalue of Z or
    # of the slack at -delta (max|slack Z| = delta passes its 1e-7 bound), and
    # a gap past CERT_TOL * scale * 10
    rp = np.zeros(2)

    def verdict(z_diag, slack_diag, gap=0.0):
        return sdp._certificate(np.diag(z_diag), np.diag(slack_diag), rp, gap, 1.0, lazy)["pass"]

    for delta, want in ((2e-8, False), (5e-9, True)):
        assert verdict([1.0, -delta], [0.0, 1.0]) is want  # the Z floor
        assert verdict([0.0, 1.0], [1.0, -delta]) is want  # the slack floor
    assert not verdict([1.0, 0.0], [0.0, 1.0], gap=1.5e-7)
    assert verdict([1.0, 0.0], [0.0, 1.0], gap=0.5e-7)
