"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Sample counts and
tolerances are pinned here; nothing is deferred to later calibration.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from qtrack import analytic, applications as app, distances as ds, multistep as ms
from qtrack import tracking
from qtrack.cli import emit_plotdata
from qtrack.channels import (
    DensityMatrix,
    apply_choi,
    assemble_qubit_choi,
    canonical_qubit,
    choi_from_kraus,
    compose,
    haar_random_unitary,
    kraus_from_choi,
    random_channel,
    random_state,
)
from qtrack.distances import WeightedSequence
from qtrack.linalg import partial_trace, perm_d4, vec

DATA = Path(__file__).parent / "data"


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _bloch_pair(r_len, half_angle):
    up = r_len * np.array([np.cos(half_angle), 0, np.sin(half_angle)])
    return (
        DensityMatrix.from_bloch(up),
        DensityMatrix.from_bloch(up * np.array([1, 1, -1])),
    )


def test_criterion_01_analytic_vs_sdp():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for k in range(200):
        pure_src = bool(rng.integers(0, 2))
        pure_tgt = bool(rng.integers(0, 2))
        r1, r2 = (random_state(2, rng, pure=pure_src) for _ in range(2))
        t1, t2 = (random_state(2, rng, pure=pure_tgt) for _ in range(2))
        pi1 = float(rng.uniform(0.05, 0.95))
        res = analytic.track_pair(r1, r2, t1, t2, pi1)
        src = WeightedSequence([(pi1, r1), (1 - pi1, r2)])
        tgt = WeightedSequence([(pi1, t1), (1 - pi1, t2)])
        sdp_value = tracking.solve_tracking(
            tracking.TrackingProblem(src, tgt, "FHSavg1", "cptp")
        ).value
        worst = max(worst, abs(res.fidelity - sdp_value))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-6 and elapsed < 300,
        f"max |F_analytic - F_SDP| = {worst:.2e} over 200 instances in {elapsed:.1f}s",
    )


def test_criterion_02_dual_certificates():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst_eig, worst_weak, worst_slack = 0.0, 0.0, 0.0
    n_a = n_b = 0
    for k in range(10_000):
        if k % 3 == 2:
            # force the unitary branch: pure pairs with theta < theta_bar
            th, tb = np.sort(rng.uniform(0.1, np.pi / 2 - 0.02, 2))
            r1, r2 = _bloch_pair(1.0, th)
            t1, t2 = _bloch_pair(1.0, tb)
            pi1 = 0.5
        else:
            r1, r2 = (random_state(2, rng) for _ in range(2))
            t1, t2 = (
                random_state(2, rng, pure=bool(rng.integers(0, 2))) for _ in range(2)
            )
            pi1 = float(rng.uniform(0.05, 0.95))
        res = analytic.track_pair(r1, r2, t1, t2, pi1)
        cert = res.certificate
        if res.procedure == "A":
            n_a += 1
        else:
            n_b += 1
        worst_eig = min(worst_eig, cert.min_eig)
        worst_weak = max(worst_weak, cert.weak_duality_residual)
        worst_slack = max(worst_slack, cert.slackness_residual)
    elapsed = time.perf_counter() - start
    ok = worst_eig >= -1e-9 and worst_weak <= 1e-9 and worst_slack <= 1e-8
    _report(
        2,
        ok and elapsed < 120,
        f"10^4 instances (A/B = {n_a}/{n_b}): min eig {worst_eig:.2e}, "
        f"weak duality {worst_weak:.2e}, slackness {worst_slack:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_dephasing_chapter():
    n = 100
    ps = np.linspace(0.5 / n, 0.5, n)
    thetas = np.linspace(np.pi / 2 / n, np.pi / 2, n)
    dp, dth = ps[1] - ps[0], thetas[1] - thetas[0]
    worst_fdif = np.inf
    worst_sdr_gap = 0.0
    best = (-np.inf, None, None)
    for p in ps:
        for th in thetas:
            f = app.stabilization_fidelities(app.DephasingTask(p, th))
            worst_fdif = min(worst_fdif, f["f_dif"])
            worst_sdr_gap = max(worst_sdr_gap, abs(f["sdr"] - f["qc_opt"]))
            if f["f_dif"] > best[0]:
                best = (f["f_dif"], p, th)
    # polish the argmax off the grid: the optimum sits on the flat diagonal
    # ridge where ddr2 = dn, so zoom with two local grid refinements
    p_star, th_star = best[1], best[2]
    for span_p, span_t in ((2 * dp, 2 * dth), (0.2 * dp, 0.2 * dth)):
        pp = np.linspace(max(p_star - span_p, 1e-4), min(p_star + span_p, 0.5), 60)
        tt = np.linspace(max(th_star - span_t, 1e-4), min(th_star + span_t, np.pi / 2), 60)
        vals = np.array(
            [
                [app.stabilization_fidelities(app.DephasingTask(p, t))["f_dif"] for t in tt]
                for p in pp
            ]
        )
        i, j = np.unravel_index(vals.argmax(), vals.shape)
        p_star, th_star = float(pp[i]), float(tt[j])
    max_ok = abs(best[0] - 0.026) <= 1e-3
    loc_ok = abs(p_star - 0.115) <= dp and abs(th_star - 0.715) <= dth

    sdp_gap = 0.0
    rng = np.random.default_rng(1003)
    for _ in range(10):
        task = app.DephasingTask(float(rng.uniform(0.03, 0.5)), float(rng.uniform(0.1, 1.45)))
        f = app.stabilization_fidelities(task)
        noisy, ideal = task.noisy_states(), task.ideal_states()
        src = WeightedSequence([(0.5, noisy[0]), (0.5, noisy[1])])
        tgt = WeightedSequence([(0.5, ideal[0]), (0.5, ideal[1])])
        cptp = tracking.solve_tracking(
            tracking.TrackingProblem(src, tgt, "FHSavg1", "cptp")
        ).value
        ppt = tracking.solve_tracking(
            tracking.TrackingProblem(src, tgt, "FHSavg1", "ppt")
        ).value
        sdp_gap = max(sdp_gap, abs(cptp - f["qc_opt"]), abs(ppt - f["ddr2"]))
    ok = worst_fdif >= -1e-12 and worst_sdr_gap <= 1e-12 and max_ok and loc_ok and sdp_gap <= 1e-6
    _report(
        3,
        ok,
        f"min f_dif {worst_fdif:.1e}; grid max {best[0]:.4f} at refined "
        f"({p_star:.4f}, {th_star:.4f}); |sdr - qc| {worst_sdr_gap:.1e}; SDP gap {sdp_gap:.2e}",
    )


def test_criterion_04_triangle_table():
    rho = np.eye(3) / 3
    sig = np.diag([1.0, 0.0, 0.0])
    tau = np.array([[0.90, 0.04, 0.03], [0.04, 0.05, 0.02], [0.03, 0.02, 0.05]])
    table = {"A": (0.9553, 0.9241), "B": (0.9194, 0.9137), "C": (0.8165, 0.8828)}
    worst = 0.0
    for kind, (w_side, w_sum) in table.items():
        side = ds.metric_functional(kind, ds.super_fidelity(rho, sig))
        total = ds.metric_functional(kind, ds.super_fidelity(rho, tau)) + ds.metric_functional(
            kind, ds.super_fidelity(tau, sig)
        )
        worst = max(worst, abs(side - w_side), abs(total - w_sum))
        if kind in ("A", "B"):
            assert side > total  # triangle inequality violated
        else:
            assert side <= total
    _report(4, worst <= 5e-5, f"max deviation from tabulated values {worst:.2e}")


def test_criterion_05_super_fidelity():
    rng = np.random.default_rng(1005)
    worst = max(
        abs(
            ds.super_fidelity(a := random_state(2, rng), b := random_state(2, rng))
            - ds.fidelity_uhlmann(a, b)
        )
        for _ in range(1000)
    )
    rho = np.zeros((4, 4))
    rho[0, 0] = rho[1, 1] = 0.5
    sig = np.zeros((4, 4))
    sig[2, 2] = sig[3, 3] = 0.5
    oz = [
        abs(ds.super_fidelity(rho, sig) - 0.5),
        abs(
            ds.super_fidelity(partial_trace(rho, (2, 2), 1), partial_trace(sig, (2, 2), 1))
            - 1.0
        ),
        abs(
            ds.super_fidelity(partial_trace(rho, (2, 2), 2), partial_trace(sig, (2, 2), 2))
            - 0.0
        ),
    ]
    ok = worst <= 1e-10 and max(oz) <= 1e-12
    _report(5, ok, f"max |F_N - F| = {worst:.2e} on 10^3 qubit pairs; Ozawa dev {max(oz):.1e}")


def test_criterion_06_bound_suites():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    worst_slack = np.inf
    for d in range(2, 7):
        # the pairs drawn one by one, then checked in one stacked call
        pairs = [(random_state(d, rng).mat, random_state(d, rng).mat) for _ in range(10_000)]
        rep = ds.check_bounds(*(np.array(side) for side in zip(*pairs)))
        slack = min(v.min() for k, v in rep.items() if k not in ("rank", "values"))
        worst_slack = min(worst_slack, slack)
    # saturation family for the rank-aware F_N upper bound (even rank)
    worst_sat = 0.0
    for d in (2, 4, 6):
        u = haar_random_unitary(d, rng)
        half = d // 2
        spec = np.array([0.6] * half + [0.15] * half)
        perm = np.concatenate([spec[half:], spec[:half]])
        rho = (u * (spec / spec.sum())) @ u.conj().T
        sig = (u * (perm / spec.sum())) @ u.conj().T
        lhs = ds.trace_distance(rho, sig)
        rank = ds.difference_rank(rho, sig)
        rhs = np.sqrt(rank / 2.0) * np.sqrt(1.0 - ds.super_fidelity(rho, sig))
        worst_sat = max(worst_sat, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    ok = worst_slack >= -1e-9 and worst_sat <= 1e-10
    _report(
        6,
        ok,
        f"worst slack {worst_slack:.2e} on 5x10^4 pairs; saturation dev {worst_sat:.1e}; {elapsed:.0f}s",
    )


METRICS = {
    "D": ds.trace_distance,
    "H": ds.hs_distance,
    "O": ds.spectral_distance,
    "C[FN]": lambda a, b: ds.metric_functional("C", ds.super_fidelity(a, b)),
    "B[F]": lambda a, b: ds.metric_functional("B", ds.fidelity_uhlmann(a, b)),
    "C[F]": lambda a, b: ds.metric_functional("C", ds.fidelity_uhlmann(a, b)),
}


@pytest.mark.parametrize("name", sorted(METRICS))
def test_criterion_07_triangle(name):
    metric = METRICS[name]
    rng = np.random.default_rng(1007)
    worst = np.inf
    per_d = 10_000 // 3 + 1
    for d in (2, 3, 4):
        for _ in range(per_d):
            a, b, c = (random_state(d, rng) for _ in range(3))
            worst = min(worst, metric(a, b) + metric(b, c) - metric(a, c))
    _report(f"7[{name}]", worst >= -1e-9, f"worst triangle slack {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="squared Hilbert-Schmidt distance is not a metric: the x eigenstates "
    "with the maximally mixed state between them give 2 > 1/2 + 1/2, and random "
    "triples reproduce the violation (the source derivation bounds the "
    "negative-type form of H^4 by a pointwise majorant, which does not survive "
    "sign-indefinite coefficients)",
)
def test_criterion_07_triangle_h_squared():
    rng = np.random.default_rng(1007)
    worst = np.inf
    per_d = 10_000 // 3 + 1
    for d in (2, 3, 4):
        for _ in range(per_d):
            a, b, c = (random_state(d, rng) for _ in range(3))
            worst = min(
                worst,
                ds.hs_distance(a, b) ** 2
                + ds.hs_distance(b, c) ** 2
                - ds.hs_distance(a, c) ** 2,
            )
    _report("7[H2]", worst >= -1e-9, f"worst triangle slack {worst:.2e}")


def test_criterion_07_concavity_and_multiplicativity():
    rng = np.random.default_rng(1070)
    worst_conc, worst_mult = np.inf, np.inf
    for _ in range(10_000):
        d = int(rng.integers(2, 5))
        r1, r2, s1, s2 = (random_state(d, rng) for _ in range(4))
        p = float(rng.uniform())
        lhs = ds.super_fidelity(
            p * r1.mat + (1 - p) * r2.mat, p * s1.mat + (1 - p) * s2.mat
        )
        rhs = p * ds.super_fidelity(r1, s1) + (1 - p) * ds.super_fidelity(r2, s2)
        worst_conc = min(worst_conc, lhs - rhs)
    for _ in range(10_000):
        a1, b1 = random_state(2, rng), random_state(2, rng)
        a2, b2 = random_state(2, rng), random_state(2, rng)
        big = ds.super_fidelity(np.kron(a1.mat, a2.mat), np.kron(b1.mat, b2.mat))
        small = ds.super_fidelity(a1, b1) * ds.super_fidelity(a2, b2)
        worst_mult = min(worst_mult, big - small)
    ok = worst_conc >= -1e-10 and worst_mult >= -1e-10
    _report(
        "7[FN]",
        ok,
        f"joint concavity slack {worst_conc:.2e}; super-multiplicativity slack {worst_mult:.2e}",
    )


def test_criterion_08_helstrom():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(1000):
        a, b = random_state(2, rng), random_state(2, rng)
        p1 = float(rng.uniform(0.02, 0.98))
        rep = app.discriminate(a, b, p1)
        worst = max(worst, abs(rep["p_track"] - rep["p_helstrom"]))
    _report(8, worst <= 1e-10, f"max |p_track - p_helstrom| = {worst:.2e} on 10^3 draws")


def test_criterion_09_purification_figure():
    th = np.pi / 4
    src = WeightedSequence(
        [(0.5, s) for s in _bloch_pair(0.7, th)]
    )
    tgt = WeightedSequence([(0.5, s) for s in _bloch_pair(1.0, th)])

    def solve(objective, feasible):
        res = tracking.solve_tracking(tracking.TrackingProblem(src, tgt, objective, feasible))
        outs = [apply_choi(res.controller, s).bloch for s in src.states]
        lens = [np.linalg.norm(o) for o in outs]
        ang = np.degrees(
            np.arccos(np.clip(outs[0] @ outs[1] / (lens[0] * lens[1]), -1, 1))
        )
        return lens, ang

    checks = []
    lens, ang = solve("Davg", "cptp")
    checks.append(max(abs(l - 0.75) for l in lens) <= 0.01 and abs(ang - 74.5) <= 0.5)
    lens, ang = solve("FHSavg1", "cptp")
    checks.append(max(abs(l - 0.91) for l in lens) <= 0.01 and abs(ang - 35.96) <= 0.5)
    lens, ang = solve("Davg", "ppt")
    checks.append(max(abs(l - 0.71) for l in lens) <= 0.01 and abs(ang - 67.65) <= 0.5)
    lens, ang = solve("FHSavg1", "ppt")
    checks.append(max(abs(l - 0.92) for l in lens) <= 0.01 and abs(ang - 27.53) <= 0.5)
    _report(9, all(checks), f"caption checks (D/F x CPTP/EBTP): {checks}")


def test_criterion_10_multistep():
    start = time.perf_counter()
    s1, s2 = _bloch_pair(1.0, np.pi / 4)

    def factory(noise):
        return ms.ChainTask([s1, s2], [s1, s2], [0.5, 0.5], [noise])

    task = factory(ms.extremal_noise(0.70, 0.46))
    f_single = task.single_step_fidelity()
    chain = ms.solve_chain(task)
    gain = (chain.fidelity - f_single) / f_single
    grid = np.linspace(0.05, 0.95, 20)
    records = ms.sweep_2step(factory, grid, grid)
    worst_gap = min(r["f_multi"] - r["f_single"] for r in records)
    elapsed = time.perf_counter() - start
    # the sweep as `qtrack multistep --sweep` writes it, byte for byte
    csv = emit_plotdata(records, "multistep_sweep")
    assert csv == (DATA / "sweep_20x20.csv").read_text()
    ok = 0.08 <= gain <= 0.12 and worst_gap >= -1e-9 and elapsed < 600
    _report(
        10,
        ok,
        f"circled-point gain {100 * gain:.2f}%; sweep min(multi - single) {worst_gap:.2e}; "
        f"{elapsed:.0f}s for 400 noises",
    )


def test_criterion_11_channel_calculus():
    rng = np.random.default_rng(1011)
    worst_rt, worst_comp, worst_perm, worst_canon = 0.0, 0.0, 0.0, 0.0
    for d in (2, 3):
        for _ in range(25):
            choi = random_channel(d, rng)
            back = choi_from_kraus(kraus_from_choi(choi))
            worst_rt = max(worst_rt, np.abs(back.mat - choi.mat).max())
    for _ in range(25):
        a, b = random_channel(2, rng), random_channel(2, rng)
        rho = random_state(2, rng)
        lhs = apply_choi(compose(a, b), rho).mat
        rhs = apply_choi(b, apply_choi(a, rho)).mat
        worst_comp = max(worst_comp, np.abs(lhs - rhs).max())
    for d in (2, 3, 4):
        p = perm_d4(d)
        for _ in range(30):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            err = np.abs(vec(np.kron(x, y)) - p @ np.kron(vec(x), vec(y))).max()
            worst_perm = max(worst_perm, err)
    for _ in range(50):
        choi = random_channel(2, rng)
        back = assemble_qubit_choi(canonical_qubit(choi))
        worst_canon = max(worst_canon, np.abs(back.mat - choi.mat).max())
    ok = (
        worst_rt <= 1e-9
        and worst_comp <= 1e-10
        and worst_perm <= 1e-13
        and worst_canon <= 1e-8
    )
    _report(
        11,
        ok,
        f"kraus roundtrip {worst_rt:.1e}; compose {worst_comp:.1e}; perm {worst_perm:.1e}; "
        f"canonical {worst_canon:.1e}",
    )


def test_criterion_12_compatibility():
    results = tracking.compatibility_experiment([(2, 2)], samples=20, seed=1012)
    cell = results[(2, 2)]
    mean_drop, _ = cell["drops"][("Davg", "FHSavg1")]
    ordering = cell["orderings"]["Davg"]
    ok = 4.0 <= mean_drop <= 12.0 and ordering == ["H2avg1", "Oavg2", "FHSavg1"]
    _report(
        12,
        ok,
        f"mean Delta(D|F_HS) = {mean_drop:.2f}% (20 samples); reference-D ordering {ordering}",
    )


def test_relative_cost_ordering_note():
    # stand-in for the hardware-bound timing study: only the ordering at d >= 32
    rng = np.random.default_rng(1013)
    times = ds.benchmark_measures(32, 30, rng)
    ok = times["FN"] == min(times.values()) and times["Q"] == max(times.values())
    _report(
        "bench-note",
        ok,
        "relative cost at d=32: " + ", ".join(f"{k}={v * 1e6:.0f}us" for k, v in times.items()),
    )
