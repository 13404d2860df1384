import numpy as np
import pytest

from qtrack import applications as app
from qtrack import analytic, tracking
from qtrack.channels import DensityMatrix, apply_choi, check_cptp, random_state
from qtrack.distances import WeightedSequence, hs_inner
from qtrack.linalg import LinalgError


def test_stabilization_values_representative_point():
    task = app.DephasingTask(0.145, 0.715)
    f = app.stabilization_fidelities(task)
    # closed form evaluated independently
    th, rx = 0.715, (1 - 2 * 0.145) * np.cos(0.715)
    want_qc = 0.5 + 0.5 * np.sqrt(np.cos(th) ** 2 + np.sin(th) ** 4 / (1 - rx**2))
    assert abs(f["qc_opt"] - want_qc) < 1e-14
    assert f["sdr"] == f["qc_opt"]
    assert f["f_dif"] >= 0
    assert 0.5 <= min(f["ddr1"], f["ddr2"], f["dn"], f["qc_opt"])
    assert max(f["ddr1"], f["ddr2"], f["dn"], f["qc_opt"]) <= 1.0


def test_stabilization_limits():
    # theta = pi/2: states untouched by the noise, every scheme is perfect
    f = app.stabilization_fidelities(app.DephasingTask(0.3, np.pi / 2))
    for key in ("ddr1", "ddr2", "sdr", "dn", "qc_opt"):
        assert abs(f[key] - 1.0) < 1e-12
    # p -> 0: quantum and do-nothing reach 1, the p-independent DDR family
    # stays strictly below it
    f = app.stabilization_fidelities(app.DephasingTask(1e-12, 0.7))
    assert abs(f["qc_opt"] - 1.0) < 1e-9
    assert abs(f["dn"] - 1.0) < 1e-9
    assert f["ddr1"] < 1.0 - 1e-3
    assert f["ddr2"] < 1.0 - 1e-3


def test_qc_channel_matches_closed_form():
    task = app.DephasingTask(0.25, 0.5)
    ideal = task.ideal_states()
    noisy = task.noisy_states()
    for chi in np.linspace(0.0, np.pi / 2, 9):
        choi = app.qc_channel(task, chi)
        rep = check_cptp(choi)
        assert rep["cp"] and rep["tp"]
        avg = 0.5 * sum(
            hs_inner(apply_choi(choi, n), i) for n, i in zip(noisy, ideal)
        )
        assert abs(avg - app.qc_fidelity(task, chi)) < 1e-12


def test_qc_channel_limits():
    task = app.DephasingTask(0.2, 0.6)
    ident = app.qc_channel(task, np.pi / 2)
    psi = np.array([1.0, 0, 0, 1.0])
    assert np.abs(ident.mat - np.outer(psi, psi)).max() < 1e-12
    tiny = app.DephasingTask(0.37, 1e-9)
    assert abs(app.qc_fidelity(tiny, 0.0) - 1.0) < 1e-8


def test_chi_opt_is_stationary():
    rng = np.random.default_rng(0)
    for _ in range(20):
        task = app.DephasingTask(float(rng.uniform(0.02, 0.5)), float(rng.uniform(0.1, 1.4)))
        chi = app.stabilization_fidelities(task)["chi_opt"]
        h = 1e-6
        if chi < h or chi > np.pi / 2 - h:
            continue
        grad = (app.qc_fidelity(task, chi + h) - app.qc_fidelity(task, chi - h)) / (2 * h)
        assert abs(grad) <= 1e-6


def test_f_dif_nonnegative_on_grid():
    ps = np.linspace(0.5 / 40, 0.5, 40)
    thetas = np.linspace(np.pi / 2 / 40, np.pi / 2, 40)
    for p in ps:
        for th in thetas:
            f = app.stabilization_fidelities(app.DephasingTask(p, th))
            assert f["f_dif"] >= -1e-12


def test_optimality_certificates_psd():
    rng = np.random.default_rng(1)
    for _ in range(30):
        task = app.DephasingTask(float(rng.uniform(0.02, 0.5)), float(rng.uniform(0.05, 1.5)))
        q = app.quantum_optimality_certificate(task)
        c = app.classical_optimality_certificate(task)
        assert q["pass"] and c["pass"]
        f = app.stabilization_fidelities(task)
        assert abs(q["value"] - f["qc_opt"]) < 1e-12
        assert abs(c["value"] - f["ddr2"]) < 1e-12


def test_stabilization_matches_tracking_sdps():
    # qc_opt equals the CPTP optimum, ddr2 the PPT optimum
    for p, th in ((0.145, 0.715), (0.3, 0.4), (0.05, 1.2)):
        task = app.DephasingTask(p, th)
        f = app.stabilization_fidelities(task)
        ideal = task.ideal_states()
        noisy = task.noisy_states()
        src = WeightedSequence([(0.5, noisy[0]), (0.5, noisy[1])])
        tgt = WeightedSequence([(0.5, ideal[0]), (0.5, ideal[1])])
        cptp = tracking.solve_tracking(
            tracking.TrackingProblem(src, tgt, "FHSavg1", "cptp")
        ).value
        ppt = tracking.solve_tracking(
            tracking.TrackingProblem(src, tgt, "FHSavg1", "ppt")
        ).value
        assert abs(cptp - f["qc_opt"]) <= 1e-6
        assert abs(ppt - f["ddr2"]) <= 1e-6


def test_discriminate_edge_cases():
    zero = DensityMatrix.pure([1, 0])
    one = DensityMatrix.pure([0, 1])
    rep = app.discriminate(zero, one, 0.5)
    assert abs(rep["p_helstrom"] - 1.0) < 1e-12
    assert abs(rep["p_track"] - 1.0) < 1e-12
    same = DensityMatrix.from_bloch([0.4, 0.1, 0.2])
    rep = app.discriminate(same, same, 0.3)
    assert abs(rep["p_helstrom"] - 0.7) < 1e-12
    assert abs(rep["p_track"] - 0.7) < 1e-12


def test_discriminate_matches_helstrom_randomly():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b = random_state(2, rng), random_state(2, rng)
        p1 = float(rng.uniform(0.05, 0.95))
        rep = app.discriminate(a, b, p1)
        # independent eigenvalue oracle for the trace norm
        want = 0.5 + 0.5 * np.abs(
            np.linalg.eigvalsh(p1 * a.mat - (1 - p1) * b.mat)
        ).sum()
        assert abs(rep["p_helstrom"] - want) < 1e-12
        assert abs(rep["p_track"] - rep["p_helstrom"]) <= 1e-10


def test_purification_do_nothing_at_right_angle():
    out = app.purification(0.7, np.pi / 2, np.pi / 2)
    assert abs(out["omega"]) < 1e-12
    assert out["procedure"] == "B"
    assert abs(out["fidelity"] - (0.5 + 0.5 * 0.7)) < 1e-12


def test_purification_closed_form_branches():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r_len = float(rng.uniform(0.1, 0.99))
        th = float(rng.uniform(0.1, np.pi / 2))
        tb = float(rng.uniform(0.1, np.pi / 2))
        omega, val = app.purification_fidelity_closed_form(r_len, th, tb)
        out = app.purification(r_len, th, tb)
        assert abs(out["fidelity"] - val) < 1e-10
        assert np.sign(out["omega"]) == np.sign(omega) or abs(omega) < 1e-12


def test_purification_reproduces_dephasing_optimum():
    # noisy dephased pure pair mapped back onto itself: the Ch5 closed form
    for p, tb in ((0.145, 0.715), (0.3, 0.5), (0.02, 1.1)):
        task = app.DephasingTask(p, tb)
        noisy = task.noisy_states()
        r_len = np.linalg.norm(noisy[0].bloch)
        theta = np.arctan2(np.sin(tb), (1 - 2 * p) * np.cos(tb))
        out = app.purification(r_len, theta, tb)
        f = app.stabilization_fidelities(task)
        assert out["omega"] > 0
        assert abs(out["fidelity"] - f["qc_opt"]) < 1e-12


def test_purification_against_general_tracker():
    rng = np.random.default_rng(4)
    for _ in range(50):
        r_len = float(rng.uniform(0.2, 0.95))
        th = float(rng.uniform(0.1, np.pi / 2))
        tb = float(rng.uniform(0.1, np.pi / 2))
        out = app.purification(r_len, th, tb)
        up = DensityMatrix.from_bloch(r_len * np.array([np.cos(th), 0, np.sin(th)]))
        dn = DensityMatrix.from_bloch(r_len * np.array([np.cos(th), 0, -np.sin(th)]))
        t1 = DensityMatrix.from_bloch([np.cos(tb), 0, np.sin(tb)])
        t2 = DensityMatrix.from_bloch([np.cos(tb), 0, -np.sin(tb)])
        res = analytic.track_pair(up, dn, t1, t2, 0.5)
        assert abs(res.fidelity - out["fidelity"]) < 1e-12


def test_clone_limits_and_oracle():
    assert abs(app.clone_fidelity(np.pi / 4 - 1e-9) - 1.0) < 1e-6
    assert abs(app.clone_fidelity(0.0) - 1.0) < 1e-12  # orthogonal pair
    # cross-check against the pure-state tracker at the cloning angles
    for phi in (0.2, 0.45, 0.7):
        th = np.arccos(np.sin(2 * phi))  # source half-angle
        tb = np.arccos(np.sin(2 * phi) ** 2)  # target half-angle
        s1 = DensityMatrix.from_bloch([np.cos(th), 0, np.sin(th)])
        s2 = DensityMatrix.from_bloch([np.cos(th), 0, -np.sin(th)])
        t1 = DensityMatrix.from_bloch([np.cos(tb), 0, np.sin(tb)])
        t2 = DensityMatrix.from_bloch([np.cos(tb), 0, -np.sin(tb)])
        res = analytic.track_pair(s1, s2, t1, t2, 0.5)
        assert abs(res.fidelity - app.clone_fidelity(phi)) < 1e-10


def test_clone_validates_range():
    with pytest.raises(LinalgError):
        app.clone_fidelity(np.pi / 3)
    for pi1 in (0.0, 1.0, 1.5, -0.5, float("nan")):
        with pytest.raises(LinalgError):
            app.clone_fidelity(0.3, pi1)


def test_alberti_uhlmann_pure_targets():
    def pair(r_len, half):
        return (
            DensityMatrix.from_bloch(r_len * np.array([np.cos(half), 0, np.sin(half)])),
            DensityMatrix.from_bloch(r_len * np.array([np.cos(half), 0, -np.sin(half)])),
        )

    s1, s2 = pair(1.0, 0.9)
    t1, t2 = pair(1.0, 0.4)
    rep = app.alberti_uhlmann(s1, s2, t1, t2)
    assert rep["feasible"] and rep["corollary"]
    res = analytic.track_pair(s1, s2, t1, t2, 0.5)
    assert abs(res.fidelity - 1.0) < 1e-9
    # mixed sources with distinct pure targets: never feasible
    m1, m2 = pair(0.8, 0.9)
    rep = app.alberti_uhlmann(m1, m2, t1, t2)
    assert not rep["feasible"]
    # reversed angles: infeasible even for pure sources
    rep = app.alberti_uhlmann(t1, t2, s1, s2)
    assert not rep["feasible"]


def test_alberti_uhlmann_trivial_and_grid():
    rng = np.random.default_rng(5)
    a, b = random_state(2, rng), random_state(2, rng)
    rep = app.alberti_uhlmann(a, b, a, b)
    assert rep["feasible"]
    assert rep["slack"] >= -1e-12
    # strictly more mixed targets: the grid criterion accepts
    shrink = 0.5
    ta = DensityMatrix.from_bloch(shrink * a.bloch)
    tb = DensityMatrix.from_bloch(shrink * b.bloch)
    rep = app.alberti_uhlmann(a, b, ta, tb)
    assert rep["feasible"]


def test_ddr2_channel_from_holevo_form():
    # measure in the z basis, reprepare the hedged states: an EBTP channel
    # whose average fidelity is exactly ddr2 and whose Choi matrix is PPT
    from qtrack.channels import ChoiMatrix, check_ppt

    task = app.DephasingTask(0.27, 0.8)
    th = task.theta_bar
    gamma = np.sqrt(np.sin(th) ** 4 + np.cos(th) ** 2)
    kets = []
    for sign in (+1.0, -1.0):
        a = np.sqrt(0.5 + sign * np.sin(th) ** 2 / (2 * gamma))
        b = np.sqrt(0.5 - sign * np.sin(th) ** 2 / (2 * gamma))
        kets.append(np.array([a, b]))
    q_plus, q_minus = (np.outer(k, k) for k in kets)
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    choi = ChoiMatrix(2, np.kron(p0.T, q_plus) + np.kron(p1.T, q_minus))
    assert check_ppt(choi)["ppt"]
    ideal, noisy = task.ideal_states(), task.noisy_states()
    avg = 0.5 * sum(hs_inner(apply_choi(choi, n), i) for n, i in zip(noisy, ideal))
    assert abs(avg - app.stabilization_fidelities(task)["ddr2"]) < 1e-12


def test_quantum_dual_as_sdp():
    # the two-variable dual program reproduces the closed-form optimum
    from qtrack import sdp

    task = app.DephasingTask(0.145, 0.715)
    r_op = app._fidelity_operator(task)
    prob = sdp.SdpInequality(
        c=[2.0, 0.0],
        f0=-r_op,
        fs=[np.eye(4), np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))],
    )
    sol = sdp.solve(prob)
    f = app.stabilization_fidelities(task)
    assert abs(sol.primal_value - f["qc_opt"]) < 1e-7
    assert abs(sol.x[1] - task.r_x * sol.x[0]) < 1e-6  # b_x = r_x b_0


def test_dephasing_task_validation():
    with pytest.raises(LinalgError):
        app.DephasingTask(0.7, 0.5)
    with pytest.raises(LinalgError):
        app.DephasingTask(0.2, 2.0)
