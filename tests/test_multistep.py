import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qtrack import analytic, channels as ch, cli, multistep as ms, serialize
from qtrack.channels import (
    DensityMatrix,
    apply_choi,
    assemble_qubit_choi,
    compose,
    random_state,
)
from qtrack.distances import hs_inner
from qtrack.linalg import PAULI
from qtrack.sdp import SolverError


def straddle_pair(half_angle, r_len=1.0):
    up = r_len * np.array([np.cos(half_angle), 0, np.sin(half_angle)])
    dn = r_len * np.array([np.cos(half_angle), 0, -np.sin(half_angle)])
    return DensityMatrix.from_bloch(up), DensityMatrix.from_bloch(dn)


def stabilization_task(noise, half_angle=np.pi / 4):
    s1, s2 = straddle_pair(half_angle)
    return ms.ChainTask([s1, s2], [s1, s2], [0.5, 0.5], [noise])


def _rotated_noise(rng):
    """A random qubit channel in canonical form: its frames are not the identity."""
    noise = ch.canonical_qubit(ch.random_channel(2, rng))
    for frame in (noise.rv, noise.ru):
        assert np.abs(frame - np.eye(3)).max() > 1e-3
    return noise


# -- the scalar recursions, frozen as the reference of the batched ones -------
#
# forward_state and backward_target as they were written before they became
# the one-row case of the stacked _push and _pull_back.


def _ref_bloch_map(q, r):
    return q.ru @ (q.mu * (q.rv @ np.asarray(r, dtype=float)) + q.s)


def _ref_forward_state(r, controller, noise):
    return _ref_bloch_map(noise, _ref_bloch_map(controller, np.asarray(r, dtype=float)))


def _ref_backward_target(c_next, rb_next, controller_next, noise):
    rb_next = np.asarray(rb_next, dtype=float)
    rv_c, ru_c = controller_next.rv, controller_next.ru  # v_k = rv[k], u_k = ru[:, k]
    u_dots = np.array([ru_c[:, k] @ rb_next for k in range(3)])
    c_mid = float(c_next + controller_next.s @ u_dots)
    q_vec = sum(controller_next.mu[k] * u_dots[k] * rv_c[k] for k in range(3))
    rv_n, ru_n = noise.rv, noise.ru
    g_dots = np.array([ru_n[:, k] @ q_vec for k in range(3)])
    c_prev = float(c_mid + noise.s @ g_dots)
    rb_prev = sum(noise.mu[k] * g_dots[k] * rv_n[k] for k in range(3))
    return c_prev, np.asarray(rb_prev, dtype=float)


def test_identity_noise_and_controller_fix_targets():
    ident = ms.diagonal_noise(np.ones(3), np.zeros(3))
    c, rb = ms.backward_target(0.5, np.array([0.1, -0.2, 0.3]), ident, ident)
    assert abs(c - 0.5) < 1e-14
    assert np.abs(rb - [0.1, -0.2, 0.3]).max() < 1e-14


@pytest.mark.parametrize(
    "lam,t",
    [([2, 2, 4], [0, 0, 3]), ([np.nan, 0.5, 0.5], [0, 0, 0]), ([0.5, 0.5, 0.5], [0, 0, np.inf]),
     ([1, 1, 1], [0, 0, 0.5]), ([0.5, 0.2], [0, 0])],
)
def test_non_channel_noise_is_rejected(lam, t):
    with pytest.raises(ch.LinalgError, match="not a channel"):
        ms.diagonal_noise(lam, t)
    if not (np.isfinite(lam).all() and np.isfinite(t).all()):
        # non-finite (mu, s): the channel itself refuses them
        with pytest.raises(ch.LinalgError, match="not a channel"):
            ch.QubitChannelCanonical(np.eye(3), np.eye(3), lam, t)
        return
    # built past diagonal_noise, the chain task still refuses it
    noise = ch.QubitChannelCanonical(np.eye(3), np.eye(3), lam, t)
    s1, s2 = straddle_pair(np.pi / 4)
    with pytest.raises(ch.LinalgError, match="not a channel"):
        ms.ChainTask([s1, s2], [s1, s2], [0.5, 0.5], [ms.extremal_noise(0.7, 0.46), noise])


def test_chain_without_noise_is_rejected():
    s1, s2 = straddle_pair(np.pi / 4)
    with pytest.raises(ch.LinalgError, match="a chain needs at least one noise"):
        ms.ChainTask([s1, s2], [s1, s2], [0.5, 0.5], [])


def test_backward_depolarizing_noise_kills_target():
    depol = ms.diagonal_noise([0, 0, 0], [0, 0, 0])
    ident = ms.diagonal_noise(np.ones(3), np.zeros(3))
    c, rb = ms.backward_target(0.5, np.array([0.3, 0.1, -0.2]), ident, depol)
    assert np.abs(rb).max() < 1e-14


def test_backward_matches_tensor_contraction():
    # oracle: rhobar^(n) = Tr_{2,3}[(I (x) C^(n+1)) (E^T (x) rhobar^(n+1))]
    rng = np.random.default_rng(0)
    for _ in range(20):
        r1, r2 = random_state(2, rng), random_state(2, rng)
        t1, t2 = random_state(2, rng), random_state(2, rng)
        g = analytic.PairGeometry.from_states(r1, r2, t1, t2, 0.4)
        controller = analytic.optimal_canonical(g)
        c_next, rb_next = 0.4, g.rb1
        target_mat = 0.5 * (
            c_next * np.eye(2) + sum(x * p for x, p in zip(rb_next, PAULI[1:]))
        )
        ctrl_choi = assemble_qubit_choi(controller).mat
        for noise in (ms.extremal_noise(*rng.uniform(0.2, 0.95, 2)), _rotated_noise(rng)):
            noise_choi = assemble_qubit_choi(noise).mat
            big = np.kron(np.eye(2), ctrl_choi) @ np.kron(noise_choi.T, target_mat)
            r = big.reshape(2, 2, 2, 2, 2, 2)
            contracted = np.einsum("ijkljk->il", r)
            c_got, rb_got = ms.backward_target(c_next, rb_next, controller, noise)
            assert abs(np.trace(contracted).real - c_got) < 1e-10
            bloch_got = np.array([np.trace(contracted @ p).real for p in PAULI[1:]])
            assert np.abs(bloch_got - rb_got).max() < 1e-10


def test_forward_matches_choi_composition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        r1, r2 = random_state(2, rng), random_state(2, rng)
        t1, t2 = random_state(2, rng), random_state(2, rng)
        g = analytic.PairGeometry.from_states(r1, r2, t1, t2, 0.6)
        controller = analytic.optimal_canonical(g)
        rho = random_state(2, rng)
        for noise in (ms.extremal_noise(*rng.uniform(0.2, 0.95, 2)), _rotated_noise(rng)):
            got = ms.forward_state(rho.bloch, controller, noise)
            chained = compose(assemble_qubit_choi(controller), assemble_qubit_choi(noise))
            want = apply_choi(chained, rho).bloch
            assert np.abs(got - want).max() < 1e-10


def test_backward_is_the_adjoint_of_forward():
    # c' + rb'.r = c + rb.Phi_ctrl(Phi_noise(r)) for (c', rb') = backward_target(c, rb, ctrl,
    # noise), exactly up to round-off, on noises with rotated frames; the forward side is
    # the frozen scalar map
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        r1, r2, t1, t2 = (random_state(2, rng) for _ in range(4))
        controller = analytic.optimal_canonical(
            analytic.PairGeometry.from_states(r1, r2, t1, t2, float(rng.uniform(0.2, 0.8))))
        noise = _rotated_noise(rng)
        c, rb = float(rng.uniform(0.2, 0.8)), random_state(2, rng).bloch
        r = random_state(2, rng).bloch
        c_prev, rb_prev = ms.backward_target(c, rb, controller, noise)
        want = c + rb @ _ref_forward_state(r, noise, controller)
        worst = max(worst, abs(c_prev + rb_prev @ r - want))
    assert worst <= 1e-14


def test_forward_do_nothing_identity_noise():
    ident = ms.diagonal_noise(np.ones(3), np.zeros(3))
    r = np.array([0.2, -0.4, 0.1])
    assert np.abs(ms.forward_state(r, ident, ident) - r).max() < 1e-14


def test_unital_full_depolarizing_sends_to_origin():
    depol = ms.diagonal_noise([0, 0, 0], [0, 0, 0])
    ident = ms.diagonal_noise(np.ones(3), np.zeros(3))
    out = ms.forward_state([0.5, 0.1, -0.3], ident, depol)
    assert np.abs(out).max() < 1e-14


def test_noiseless_chain_is_trivial():
    task = stabilization_task(ms.diagonal_noise([1, 1, 1], [0, 0, 0]))
    chain = ms.solve_chain(task)
    assert abs(chain.fidelity - task.single_step_fidelity()) < 1e-9
    assert abs(chain.fidelity - 1.0) < 1e-9


def test_circled_point_two_step_advantage():
    noise = ms.extremal_noise(0.70, 0.46)
    assert abs(noise.mu[2] - 0.322) < 1e-12
    assert abs(noise.s[2] - np.sqrt((1 - 0.7**2) * (1 - 0.46**2))) < 1e-12
    task = stabilization_task(noise)
    f_single = task.single_step_fidelity()
    chain = ms.solve_chain(task)
    gain = (chain.fidelity - f_single) / f_single
    assert 0.08 <= gain <= 0.12
    assert chain.residual <= 1e-10


def test_chain_fidelity_matches_choi_composition():
    noise = ms.extremal_noise(0.70, 0.46)
    task = stabilization_task(noise)
    chain = ms.solve_chain(task)
    pipeline = compose(
        assemble_qubit_choi(chain.controllers[0]), assemble_qubit_choi(noise)
    )
    pipeline = compose(pipeline, assemble_qubit_choi(chain.controllers[1]))
    s1, s2 = straddle_pair(np.pi / 4)
    via_choi = 0.5 * hs_inner(apply_choi(pipeline, s1), s1) + 0.5 * hs_inner(
        apply_choi(pipeline, s2), s2
    )
    assert abs(via_choi - chain.fidelity) <= 1e-8


def test_solution_controllers_carry_certificates():
    noise = ms.extremal_noise(0.70, 0.46)
    task = stabilization_task(noise)
    chain = ms.solve_chain(task)
    for n in range(2):
        g = analytic.PairGeometry(
            chain.sources[n, 0],
            chain.sources[n, 1],
            chain.targets_rb[n, 0],
            chain.targets_rb[n, 1],
            chain.targets_c[n, 0],
            chain.targets_c[n, 1],
        )
        cert = analytic.dual_certificate(g)
        assert cert.min_eig >= -1e-9
        assert cert.weak_duality_residual <= 1e-9
        assert cert.slackness_residual <= 1e-8


def test_multistart_never_below_single_step():
    rng = np.random.default_rng(2)
    for _ in range(6):
        noise = ms.extremal_noise(*rng.uniform(0.15, 0.95, 2))
        task = stabilization_task(noise, half_angle=float(rng.uniform(0.3, 1.2)))
        chain = ms.solve_chain(task)
        assert chain.fidelity >= task.single_step_fidelity() - 1e-9


def test_unital_noise_do_nothing_seed_ties_single_step():
    # From the do-nothing initial condition the self-consistency iteration
    # settles on correct-at-the-end for this unital noise; the random
    # unitary-first restarts genuinely improve on it (confirmed against a
    # brute-force scan over first rotations).
    noise = ms.diagonal_noise([1.0, 0.6, 0.6], [0, 0, 0])
    task = stabilization_task(noise)
    single = task.single_step_fidelity()
    lazy = ms.solve_chain(task, restarts=1)
    assert abs(lazy.fidelity - single) <= 1e-8
    full = ms.solve_chain(task)
    assert full.fidelity >= single - 1e-9


def test_three_step_chain_runs():
    noises = [ms.extremal_noise(0.8, 0.7), ms.extremal_noise(0.9, 0.6)]
    s1, s2 = straddle_pair(np.pi / 4)
    task = ms.ChainTask([s1, s2], [s1, s2], [0.5, 0.5], noises)
    chain = ms.solve_chain(task, restarts=4)
    assert chain.fidelity >= task.single_step_fidelity() - 1e-9
    assert chain.residual <= 1e-10


def test_sweep_classification():
    task_factory = lambda noise: stabilization_task(noise)
    records = ms.sweep_2step(task_factory, [0.7], [0.46, 0.9])
    assert len(records) == 2
    for rec in records:
        assert rec["class"] in ("advantage", "tie", "suboptimal-converged")
        assert rec["f_multi"] >= rec["f_single"] - 1e-9


def test_seed_chains_unchanged():
    # all eight start vectors of a 3-step task, bit for bit, against values
    # recorded (numpy 2.4, x86-64) from the seed code as it was before the
    # do-nothing seed was folded into the shared propagation
    recorded = json.loads((Path(__file__).parent / "data" / "seed_chains.json").read_text())
    task = ms.ChainTask(
        [[0.3, 0.2, 0.1], [0.0, 0.0, 0.9]],
        [[0.6, 0.0, 0.0], [0.0, 0.5, 0.5]],
        [0.4, 0.6],
        [ms.extremal_noise(0.7, 0.46), ms.diagonal_noise([0.9, 0.6, 0.6], [0.05, 0.0, 0.1])],
    )
    seeds = ms._seed_chains(task, np.random.default_rng(3))
    assert [label for _, label in seeds] == recorded["labels"]
    for (z, _), want in zip(seeds, recorded["seeds"]):
        assert np.array_equal(z, np.array(want))


# -- the scalar route, frozen as the reference of the stacked kernel ---------
#
# Procedures A and B one pair at a time, as they were written before
# analytic.optimal_frames became their only implementation.


def _ref_rotation_aligning(a, b):
    a = np.asarray(a, dtype=float) / np.linalg.norm(a)
    b = np.asarray(b, dtype=float) / np.linalg.norm(b)
    v = np.cross(a, b)
    c = float(a @ b)
    if 1.0 + c < 1e-4:
        helper = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        axis = np.cross(a, helper)
        axis /= np.linalg.norm(axis)
        return _ref_rotation_aligning(-a, b) @ (2.0 * np.outer(axis, axis) - np.eye(3))
    if np.linalg.norm(v) < 1e-14:
        return np.eye(3)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def _ref_v_rotation(g):
    rm = g.r_minus / np.linalg.norm(g.r_minus)
    rx_vec = g.r_cross
    rx = np.linalg.norm(rx_vec)
    if rx > 1e-14:
        v2 = rx_vec / rx
    else:
        helper = np.array([1.0, 0.0, 0.0]) if abs(rm[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        v2 = analytic._cross3(rm, helper)
        v2 /= np.linalg.norm(v2)
    v3 = rm
    v1 = analytic._cross3(v2, v3)
    return np.vstack([v1, v2, v3])


def _ref_u_rotation_from_versors(g, alpha, betas, gamma):
    rbx_vec = g.rb_cross
    rbx = np.linalg.norm(rbx_vec)
    u2 = rbx_vec / rbx
    u3 = (
        (alpha / rbx) * analytic._cross3(g.rb_plus, rbx_vec)
        + rbx * (betas[0] * g.rb1 + betas[1] * g.rb2)
    ) / gamma
    u1 = analytic._cross3(u2, u3)
    return np.column_stack([u1, u2, u3])


def _ref_procedure_a(g):
    s_val, t_val = g.s_scalar, g.t_scalar
    st = s_val + t_val
    rm = np.linalg.norm(g.r_minus)
    rx = np.linalg.norm(g.r_cross)
    rbx = np.linalg.norm(g.rb_cross)
    rbx2 = rbx * rbx
    if rbx <= 1e-14:
        mu = np.zeros(3)
        s1 = 1.0
        rbp = g.rb_plus
        ru = _ref_rotation_aligning(np.array([1.0, 0.0, 0.0]), rbp / np.linalg.norm(rbp))
    else:
        mu1 = 2.0 * np.sqrt(2.0 / (s_val * st**3)) * rbx2 * rx * rm
        mu2 = (2.0 / st) * rbx * rx
        mu3 = np.sqrt(2.0 / (s_val * st)) * rbx * rm
        s1 = np.sqrt(1.0 / (2.0 * s_val * st**3)) * (st**2 - 4.0 * rbx2 * rx * rx)
        mu = np.array([mu1, mu2, mu3])
        alpha = np.sqrt(st / (2.0 * s_val))
        betas = [np.sqrt(2.0 / (s_val * st)) * (g.r1 @ g.r_minus),
                 np.sqrt(2.0 / (s_val * st)) * (g.r2 @ g.r_minus)]
        gamma = np.sqrt(g.dots[9] + 2.0 * g.dots[6] * g.dots[8] / st)
        ru = _ref_u_rotation_from_versors(g, alpha, betas, gamma)
    return ch.QubitChannelCanonical(_ref_v_rotation(g), ru, mu,
                                                   np.array([s1, 0.0, 0.0]))


def _ref_procedure_b(g):
    rv = _ref_v_rotation(g)
    rm = np.linalg.norm(g.r_minus)
    rx = np.linalg.norm(g.r_cross)
    rbx = np.linalg.norm(g.rb_cross)
    if rbx > 1e-14:
        alpha = rx / rm
        betas = [(g.r1 @ g.r_minus) / (rbx * rm), (g.r2 @ g.r_minus) / (rbx * rm)]
        gamma = np.sqrt(g.dots[9] - g.t_scalar + 2.0 * g.r_cross_norm * g.rb_cross_norm)
        ru = _ref_u_rotation_from_versors(g, alpha, betas, gamma)
    else:
        len1, len2 = np.linalg.norm(g.rb1), np.linalg.norm(g.rb2)
        rbp = np.linalg.norm(g.rb_plus)
        denom = rm * np.sqrt(max(rbp * rbp - g.t_scalar, 1e-300))
        sin_t = rx * (len1 - len2) / denom
        sin_t = float(np.clip(sin_t, -1.0, 1.0))
        cos_t = np.sqrt(1.0 - sin_t * sin_t)
        rot_plane = np.array(
            [[cos_t, 0.0, -sin_t], [0.0, 1.0, 0.0], [sin_t, 0.0, cos_t]]
        )
        if len1 > 1e-14:
            axis = g.rb1 / len1
        else:
            axis = -g.rb2 / len2
        ru = _ref_rotation_aligning(np.array([0.0, 0.0, 1.0]), axis) @ rot_plane
    return ch.QubitChannelCanonical(rv, ru, np.ones(3), np.zeros(3))


def _reference_canonical(g):
    cross = 2.0 * g.r_cross_norm * g.rb_cross_norm
    tie = analytic.OMEGA_TIE * (g.s_scalar + g.t_scalar + cross)
    return _ref_procedure_a(g) if g.omega > tie else _ref_procedure_b(g)


def _reference_controller(r1, r2, c_pair, rb_pair):
    """Optimal tracker of one step by the scalar route; the identity where it gives up."""
    try:
        g = analytic.PairGeometry(r1, r2, rb_pair[0], rb_pair[1], c_pair[0], c_pair[1])
        return _reference_canonical(g)
    except (analytic.DegenerateGeometryError, ms.LinalgError):
        return ms.diagonal_noise(np.ones(3), np.zeros(3))


def _reference_sweep(task, z):
    """The scalar sweep the batched one replaced: one restart, step by step."""
    r_steps, c_steps, rb_steps = ms._unpack(task, z)
    n_steps = task.n_steps
    noises = [ch.QubitChannelCanonical(*(f[0] for f in rows)) for rows in task.noise_rows]
    new_rb = rb_steps.copy()
    new_c = c_steps.copy()
    for n in range(n_steps - 2, -1, -1):
        ctrl = _reference_controller(
            r_steps[n + 1, 0], r_steps[n + 1, 1], new_c[n + 1], new_rb[n + 1]
        )
        for i in range(2):
            new_c[n, i], new_rb[n, i] = _ref_backward_target(
                new_c[n + 1, i], new_rb[n + 1, i], ctrl, noises[n]
            )
    new_r = r_steps.copy()
    for n in range(n_steps - 1):
        ctrl = _reference_controller(new_r[n, 0], new_r[n, 1], new_c[n], new_rb[n])
        for i in range(2):
            new_r[n + 1, i] = _ref_forward_state(new_r[n, i], ctrl, noises[n])
    return ms._pack(task, new_r, new_c, new_rb)


def _random_chain_inputs(rng, n_steps):
    """Sources, targets, priorities and noises of a random ``n_steps`` chain."""
    noises = []
    for _ in range(n_steps - 1):
        if rng.uniform() < 0.5:
            noises.append(ms.extremal_noise(*rng.uniform(0.1, 0.95, 2)))
        else:
            lam, t = rng.uniform(0.2, 0.9, 3), rng.uniform(-0.1, 0.1, 3)
            while not ch.check_rsw(lam, t)["feasible"]:  # draw again until it is a channel
                lam, t = rng.uniform(0.2, 0.9, 3), rng.uniform(-0.1, 0.1, 3)
            noises.append(ms.diagonal_noise(lam, t))
    pi1 = float(rng.uniform(0.2, 0.8))
    return ([random_state(2, rng), random_state(2, rng)],
            [random_state(2, rng), random_state(2, rng)], [pi1, 1.0 - pi1], noises)


def _random_chain_task(rng, n_steps):
    return ms.ChainTask(*_random_chain_inputs(rng, n_steps))


@pytest.mark.parametrize("n_steps", [2, 3, 4])
def test_batched_sweep_matches_scalar_reference(n_steps):
    # same arithmetic in the same order, so the same bits: near-collinear
    # sources amplify any reordering of round-off past 1e-14; the last four
    # draws' noises have rotated frames
    rng = np.random.default_rng(10 + n_steps)
    for draw in range(8):
        sources, targets, priorities, noises = _random_chain_inputs(rng, n_steps)
        if draw >= 4:
            noises = [_rotated_noise(rng) for _ in noises]
        task = ms.ChainTask(sources, targets, priorities, noises)
        z = np.array([z0 for z0, _ in ms._seed_chains(task, rng)])
        for _ in range(5):
            batched = ms._sweep(task, z)
            for row, got in zip(z, batched):
                assert np.array_equal(got, _reference_sweep(task, row))
            z = 0.35 * z + 0.65 * batched


def _reference_polish(task, z, picks=None):
    """The one-row polish the batched one replaced: the polished row, or None.

    With a list ``picks``, each step's candidate index is appended to it, or
    None for the step where no candidate lowered the residual.
    """
    dim = z.size
    h = 1e-7
    damps = np.array([1.0, 0.5, 0.25, 0.1])
    diag = np.arange(dim)
    for _ in range(ms.MAX_NEWTON):
        probes = np.tile(z, (dim + 1, 1))
        probes[diag + 1, diag] += h
        g = probes - ms._sweep(task, probes)
        g0 = g[0]
        if np.abs(g0).max() <= ms.CHAIN_TOL:
            return z
        jac = ((g[1:] - g0) / h).T
        try:
            step = np.linalg.solve(jac, g0)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, g0, rcond=None)
        cands = z - damps[:, None] * step
        better = np.flatnonzero(
            np.abs(cands - ms._sweep(task, cands)).max(axis=1) < np.abs(g0).max()
        )
        if picks is not None:
            picks.append(better[0] if better.size else None)
        if not better.size:
            return None
        z = cands[better[0]]
    g0 = z - ms._sweep(task, z[None])[0]
    return z if np.abs(g0).max() <= ms.CHAIN_TOL else None


def _solve_failing_every_third(solve):
    """``solve`` that raises on a stack holding a Jacobian whose bytes' CRC is 0 mod 3."""

    def flaky(a, b):
        mats = np.asarray(a).reshape(-1, *np.shape(a)[-2:])
        if any(zlib.crc32(np.ascontiguousarray(m).tobytes()) % 3 == 0 for m in mats):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    return flaky


@pytest.mark.parametrize("n_steps", [2, 3, 4])
def test_batched_polish_matches_one_row_polishes(n_steps, monkeypatch):
    # polished straight from the seeds, some rows fail; every third Jacobian
    # is called singular, so its stack falls back to row-by-row solves and
    # that row steps by least squares
    rng = np.random.default_rng(20 + n_steps)
    task = _random_chain_task(rng, n_steps)
    z = np.array([z0 for z0, _ in ms._seed_chains(task, rng)])
    lstsq, lstsq_calls = np.linalg.lstsq, []

    def counted_lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", _solve_failing_every_third(np.linalg.solve))
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    batched = ms._newton_polish(task, z)
    assert lstsq_calls and batched[2].any() and not batched[2].all()
    for k, row in enumerate(z):
        alone = ms._newton_polish(task, row[None])
        for got, want in zip(batched, alone):
            assert np.array_equal(got[k], want[0])
        z_ok, res_ok, ok = (part[k] for part in batched)
        want = _reference_polish(task, row)
        assert ok == (want is not None)
        if ok:
            assert np.array_equal(z_ok, want)
            assert res_ok == np.abs(ms._sweep(task, want[None])[0] - want).max()


@pytest.mark.parametrize("n_steps", [2, 3, 4])
def test_polish_sweeps_only_source_probes(n_steps, monkeypatch):
    # the fixtures of the batched-polish test: the polish sweeps each row with
    # its source probes once, then per Newton step the live rows' candidates
    # with the source probes around their full steps, and fresh probes only
    # for the rows that took a damped candidate
    rng = np.random.default_rng(20 + n_steps)
    task = _random_chain_task(rng, n_steps)
    z = np.array([z0 for z0, _ in ms._seed_chains(task, rng)])
    src, n_damps = ms._source_len(task), 4
    sweep, swept = ms._sweep, []

    def counted_sweep(task, z):
        swept.append(len(z))
        return sweep(task, z)

    lstsq, lstsq_calls = np.linalg.lstsq, []

    def counted_lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", _solve_failing_every_third(np.linalg.solve))
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    monkeypatch.setattr(ms, "_sweep", counted_sweep)
    batched = ms._newton_polish(task, z)
    budget = swept.copy()
    picks = [[] for _ in z]
    for k, row in enumerate(z):
        want = _reference_polish(task, row, picks[k])
        assert batched[2][k] == (want is not None)
        if want is not None:
            assert np.array_equal(batched[0][k], want)
    want_budget = [len(z) * (src + 1)]
    for step in range(max(map(len, picks))):
        taken = [p[step] for p in picks if step < len(p)]
        want_budget.append(len(taken) * (n_damps + src))
        damped = sum(1 for pick in taken if pick)  # None (a failing row) and 0 are not
        if damped:
            want_budget.append(damped * src)
    assert budget == want_budget
    flat = [pick for p in picks for pick in p]
    assert lstsq_calls and None in flat and any(flat)  # a failing row and a damped step


@pytest.mark.parametrize("n_steps", [2, 3, 4])
def test_sweep_reads_only_the_sources(n_steps):
    # Phi never reads a row's targets, so the polish sweeps no probe along one
    rng = np.random.default_rng(40 + n_steps)
    for _ in range(4):
        task = _random_chain_task(rng, n_steps)
        z = np.array([z0 for z0, _ in ms._seed_chains(task, rng)])
        src = ms._source_len(task)
        for _ in range(3):
            other = z.copy()
            targets = other[:, src:]
            scale = 10.0 ** rng.uniform(-300, 300, targets.shape)
            targets[:] = rng.standard_normal(targets.shape) * scale
            targets[0, 0], targets[1, 0], targets[2, 0] = -0.0, 0.0, np.finfo(float).max
            assert np.array_equal(ms._sweep(task, other), ms._sweep(task, z))
            z = 0.35 * z + 0.65 * ms._sweep(task, z)


@pytest.mark.parametrize("n_steps", [2, 3, 4])
def test_restart_fidelities_are_chain_fidelities(n_steps):
    # a restart's fidelity is computed from its frame rows without building
    # its controllers; it has chain_fidelity's bits all the same
    rng = np.random.default_rng(30 + n_steps)
    for _ in range(4):
        task = _random_chain_task(rng, n_steps)
        chain = ms.solve_chain(task)
        z0 = np.array([z0 for z0, _ in ms._seed_chains(task, np.random.default_rng(0))])
        z, _, _, _ = ms._solve_batch(task, z0)
        for rec, row in zip(chain.restarts, z):
            if rec.fidelity is not None:
                r_steps, _, rb_steps = ms._unpack(task, row)
                frames = ms._frames(r_steps, rb_steps)
                controllers = [ch.QubitChannelCanonical(*step) for step in zip(*frames)]
                assert rec.fidelity == task.chain_fidelity(controllers)
        assert chain.fidelity == task.chain_fidelity(chain.controllers)


def test_four_step_draw_that_needed_repeated_polishes():
    # with a single polish after sweep 121, every restart of this draw was
    # dropped and solve_chain raised "no restart converged"
    rng = np.random.default_rng([77, 4])
    for _ in range(29):
        task = _random_chain_task(rng, 4)
    chain = ms.solve_chain(task, seed=28)
    assert chain.residual <= ms.CHAIN_TOL
    assert chain.fidelity >= task.single_step_fidelity() - 1e-9


def test_newton_fallback_reaches_the_same_fixed_point(monkeypatch):
    task = stabilization_task(ms.extremal_noise(0.70, 0.46))
    with monkeypatch.context() as patch:
        patch.setattr(ms, "NEWTON_AFTER", ms.MAX_SWEEPS)
        plain = ms.solve_chain(task)
    assert not any(rec.newton_ran for rec in plain.restarts)
    monkeypatch.setattr(ms, "NEWTON_AFTER", 3)
    polished = ms.solve_chain(task)
    assert all(rec.newton_ran and rec.newton_ok and rec.sweeps == 4 for rec in polished.restarts)
    assert abs(polished.fidelity - plain.fidelity) <= 1e-12
    for name in ("sources", "targets_c", "targets_rb"):
        assert np.abs(getattr(polished, name) - getattr(plain, name)).max() <= 1e-9


def test_three_step_chain_restart_records(monkeypatch):
    noises = [ms.extremal_noise(0.8, 0.7), ms.extremal_noise(0.9, 0.6)]
    s1, s2 = straddle_pair(np.pi / 4)
    task = ms.ChainTask([s1, s2], [s1, s2], [0.5, 0.5], noises)
    labels = [label for _, label in ms._seed_chains(task, np.random.default_rng(0))]
    # without Newton these restarts need 243 to 265 sweeps, so a cap of 255
    # keeps some and drops the others
    with monkeypatch.context() as patch:
        patch.setattr(ms, "MAX_SWEEPS", 255)
        patch.setattr(ms, "NEWTON_AFTER", 400)
        chain = ms.solve_chain(task)
    assert [rec.label for rec in chain.restarts] == labels
    kept = [rec for rec in chain.restarts if rec.dropped is None]
    dropped = [rec for rec in chain.restarts if rec.dropped is not None]
    assert kept and dropped
    for rec in chain.restarts:
        assert not rec.newton_ran and not rec.newton_ok
    for rec in kept:
        assert rec.sweeps < 255 and rec.residual <= ms.CHAIN_TOL and rec.fidelity is not None
    for rec in dropped:
        assert rec.sweeps == 255 and rec.residual > ms.CHAIN_TOL and rec.fidelity is None
    winner = next(rec for rec in kept if rec.label == chain.seed_label)
    assert winner.fidelity == chain.fidelity
    assert chain.fidelity >= max(rec.fidelity for rec in kept) - ms.FIDELITY_TIE
    # with the default constants every restart converges through Newton
    for rec in ms.solve_chain(task).restarts:
        assert rec.newton_ran and rec.newton_ok and rec.dropped is None


@pytest.mark.parametrize("restarts", [0, -1, 9])
def test_solve_chain_rejects_restart_count(restarts):
    with pytest.raises(ms.LinalgError):
        ms.solve_chain(stabilization_task(ms.extremal_noise(0.7, 0.46)), restarts)
    with pytest.raises(ms.LinalgError):  # invalid input, not a point without a chain
        ms.sweep_2step(stabilization_task, [0.7], [0.46], restarts=restarts)


def _unconverged_draw():
    """A 3-step draw none of whose first two restarts converges at solve seed 24."""
    rng = np.random.default_rng([77, 3])
    for _ in range(25):
        inputs = _random_chain_inputs(rng, 3)
    return inputs


@pytest.mark.parametrize("restarts", [1, 2])
def test_no_restart_converged_is_a_solver_failure(restarts):
    task = ms.ChainTask(*_unconverged_draw())
    with pytest.raises(SolverError, match="no restart converged"):
        ms.solve_chain(task, restarts=restarts, seed=24)
    assert ms.solve_chain(task, restarts=3, seed=24).residual <= ms.CHAIN_TOL
    # the sweep scores such a point as no chain at all
    [record] = ms.sweep_2step(lambda noise: task, [0.5], [0.5], restarts=restarts, seed=24)
    assert record["class"] == "suboptimal-converged" and record["f_multi"] == 0.0


def test_cli_no_restart_converged_exits_as_a_solver_failure(tmp_path, capsys):
    sources, targets, priorities, noises = _unconverged_draw()
    task = {side: [{"pi": pi, **serialize.state_to_json(state)}
                   for pi, state in zip(priorities, states)]
            for side, states in (("source", sources), ("target", targets))}
    (tmp_path / "task.json").write_text(json.dumps(task))
    noise = [{"lam": n.mu.tolist(), "t": n.s.tolist()} for n in noises]
    (tmp_path / "noise.json").write_text(json.dumps(noise))
    argv = ["multistep", "--steps", "3", "--noise", str(tmp_path / "noise.json"),
            "--task", str(tmp_path / "task.json"), "--seed", "24", "--restarts"]
    assert cli.main([*argv, "1"]) == cli.EXIT_SOLVER
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1
    assert err.startswith("qtrack: solver failure: no restart converged")
    assert cli.main([*argv, "3"]) == cli.EXIT_OK


@pytest.mark.parametrize("lams", [(2.0, 0.5), (0.5, -1.5), (np.nan, 0.5), (0.5, np.inf)])
def test_extremal_noise_rejects_scalings_outside_the_unit_interval(lams):
    with pytest.raises(ms.LinalgError):
        ms.extremal_noise(*lams)


def test_solve_chain_drops_a_restart_with_nan_residual(monkeypatch):
    solve_batch = ms._solve_batch

    def one_nan(task, z):
        z, residual, sweeps, newton = solve_batch(task, z)
        residual[1] = np.nan
        return z, residual, sweeps, newton

    monkeypatch.setattr(ms, "_solve_batch", one_nan)
    chain = ms.solve_chain(stabilization_task(ms.extremal_noise(0.7, 0.46)))
    records = chain.restarts
    assert records[1].dropped.startswith("residual nan not within tol")
    assert records[1].fidelity is None
    assert all(rec.dropped is None for k, rec in enumerate(records) if k != 1)
    assert chain.seed_label != records[1].label


# the centred stride-5 sub-grid of criterion 10's 20 x 20 noise grid
SUBGRID = (2, 7, 12, 17)
RECORDS_FILE = Path(__file__).parent / "data" / "chain_records.json"


def chain_records():
    """Every restart's record on the sub-grid, for solve seeds 0 and 3, floats as hex."""
    grid = np.linspace(0.05, 0.95, 20)
    out = {}
    for seed in (0, 3):
        for i in SUBGRID:
            for j in SUBGRID:
                task = stabilization_task(ms.extremal_noise(grid[i], grid[j]))
                out[f"{seed},{i},{j}"] = [
                    {"label": rec.label, "sweeps": rec.sweeps, "newton_ran": rec.newton_ran,
                     "newton_ok": rec.newton_ok, "dropped": rec.dropped,
                     "residual": float.hex(rec.residual),
                     "fidelity": None if rec.fidelity is None else float.hex(rec.fidelity)}
                    for rec in ms.solve_chain(task, seed=seed).restarts
                ]
    return out


def test_chain_restart_records_unchanged():
    # sweep counts, Newton outcomes and the bits of every residual and
    # fidelity, as recorded (numpy 2.4, x86-64 OpenBLAS) once polishes came
    # every NEWTON_AFTER = 20 sweeps: every restart ends through a polish, on
    # the fixed point it reached with one polish after sweep 121 (fidelities
    # within 3.3e-16, the same winners)
    recorded = json.loads(RECORDS_FILE.read_text())
    assert chain_records() == recorded


def test_chain_sweep_budget():
    # 17,673 sweeps with one polish after sweep 121; 5,436 with a polish every 20
    total = sum(rec["sweeps"] for recs in chain_records().values() for rec in recs)
    assert total <= 6000


# -- the stacked controller kernel against the frozen scalar route -----------

_coord = st.floats(-1.0, 1.0, allow_nan=False)
_direction = st.tuples(_coord, _coord, _coord).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))
_bloch = st.builds(lambda u, r: r * u, _direction, st.floats(0.05, 1.0))
_priority = st.floats(0.1, 0.9)
_kernel_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _scalar_frames(r1, r2, rb1, rb2):
    ctrl = _reference_controller(r1, r2, (0.5, 0.5), (rb1, rb2))
    return ctrl.rv, ctrl.ru, ctrl.mu, ctrl.s


def _assert_kernel_matches_reference(row):
    """Kernel frames of ``row``, alone and stacked under a generic row, are the reference's."""
    want = _scalar_frames(*row)
    *got, _ = analytic.optimal_frames(*row)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    stacked = [np.array([x, y]) for x, y in zip(row, _GENERIC_ROW)]
    *got, _ = analytic.optimal_frames(*stacked)
    for a, b, c in zip(got, want, _scalar_frames(*_GENERIC_ROW)):
        assert np.array_equal(a[0], b) and np.array_equal(a[1], c)


_GENERIC_ROW = (np.array([0.6, 0.0, 0.7]), np.array([0.6, 0.0, -0.7]),
                np.array([0.0, 0.4, 0.1]), np.array([0.3, 0.0, 0.1]))


def _generic_geometry(r1, r2, rb1, rb2):
    """PairGeometry of data well inside the generic branches, else the draw is skipped."""
    assume(np.linalg.norm(np.cross(r1, r2)) > 1e-3 and np.linalg.norm(np.cross(rb1, rb2)) > 1e-3)
    return analytic.PairGeometry(r1, r2, rb1, rb2)


def _check_generic(g):
    *_, ok = analytic.optimal_frames(g.r1, g.r2, g.rb1, g.rb2)
    assert ok
    _assert_kernel_matches_reference((g.r1, g.r2, g.rb1, g.rb2))
    got = analytic.optimal_canonical(g)
    for a, b in zip((got.rv, got.ru, got.mu, got.s), _scalar_frames(g.r1, g.r2, g.rb1, g.rb2)):
        assert np.array_equal(a, b)


@_kernel_settings
@given(_bloch, _bloch, _bloch, _bloch, _priority)
def test_optimal_frames_procedure_a(r1, r2, t1, t2, p):
    g = _generic_geometry(r1, r2, p * t1, (1 - p) * t2)
    assume(g.omega > 1e-9)
    _check_generic(g)


@_kernel_settings
@given(_direction, _direction, st.floats(0.9, 1.0), st.floats(0.9, 1.0), _direction,
       _direction, st.floats(0.3, 1.0), st.floats(0.3, 1.0), _priority)
def test_optimal_frames_procedure_b(u1, u2, l1, l2, w1, w, a1, a2, p):
    # nearly pure sources less than 90 degrees apart and orthogonal targets
    # make Omega negative for about half the draws
    u2 = u2 if u1 @ u2 >= 0 else -u2
    w2 = np.cross(w1, w)
    assume(np.linalg.norm(w2) > 0.1)
    w2 /= np.linalg.norm(w2)
    g = _generic_geometry(l1 * u1, l2 * u2, p * a1 * w1, (1 - p) * a2 * w2)
    assume(g.omega < -1e-9)
    _check_generic(g)


@pytest.mark.parametrize("lead", [(0,), (2, 0), (1,), (2, 3)])
def test_optimal_frames_keeps_the_stack_shape(lead):
    # empty stacks too; where there are rows, procedure A and procedure B
    # (pure sources 0.6 rad apart, targets 1.8 rad apart) alternate
    th, tb = 0.3, 0.9
    forced_b = (np.array([np.cos(th), 0, np.sin(th)]), np.array([np.cos(th), 0, -np.sin(th)]),
                0.5 * np.array([np.cos(tb), 0, np.sin(tb)]),
                0.5 * np.array([np.cos(tb), 0, -np.sin(tb)]))
    assert analytic.PairGeometry(*forced_b).omega < 0 < analytic.PairGeometry(*_GENERIC_ROW).omega
    rows = [_GENERIC_ROW, forced_b]
    n = int(np.prod(lead))
    stack = [np.array([rows[k % 2][j] for k in range(n)]).reshape(*lead, 3) for j in range(4)]
    rv, ru, mu, s, ok = analytic.optimal_frames(*stack)
    assert rv.shape == ru.shape == (*lead, 3, 3)
    assert mu.shape == s.shape == (*lead, 3) and ok.shape == lead and ok.all()


@pytest.mark.parametrize("eps", [0.0, 1e-16, 1e-12, 1e-7, 1e-3, 1.5e-2, 1.0])
def test_rotation_aligning_matches_the_scalar_route(eps):
    # opposite, nearly opposite, equal and unrelated directions, in one stack:
    # each row gives the scalar route's bits
    rng = np.random.default_rng(29)
    a = rng.normal(size=(12, 3))
    b = np.concatenate([-a[:4] + eps * rng.normal(size=(4, 3)),
                        a[4:8] + eps * rng.normal(size=(4, 3)), rng.normal(size=(4, 3))])
    a[0], b[0] = [0.0, 0.0, 1.0], [0.0, eps, -1.0]
    a[4], b[4] = [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]
    got = ch.rotation_aligning(a, b)
    for k in range(len(a)):
        want = _ref_rotation_aligning(a[k], b[k])
        assert np.array_equal(got[k], want)
        assert np.array_equal(ch.rotation_aligning(a[k], b[k]), want)


def _special_row(kind, r1, r2, rb1, rb2, k, eps):
    if kind == "coincident-sources":
        return r1, r1.copy(), rb1, rb2
    if kind == "collinear-sources":
        return r1, k * r1, rb1, rb2
    if kind == "parallel-targets":
        return r1, r2, rb1, k * rb1
    if kind == "collinear-sources-parallel-targets":
        return r1, k * r1, rb1, eps * 1e12 * rb1
    if kind == "axis-targets":
        # Rb+ along +-x or the longer target along +-z: the identity and
        # half-turn cases of rotation_aligning
        axis = np.eye(3)[int(abs(k) * 2.99)]
        return r1, r2, 0.5 * axis, k * axis
    if kind == "maximally-mixed-targets":
        return r1, r2, np.zeros(3), np.zeros(3)
    if kind == "nan-source":
        return r1, np.array([r2[0], np.nan, r2[2]]), rb1, rb2
    if kind == "vanishing-s-plus-t":
        # pure sources, one maximally mixed target: S = T = 0
        return r1 / np.linalg.norm(r1), r2 / np.linalg.norm(r2), rb1, np.zeros(3)
    if kind == "vanishing-first-target":
        # T = 0 again, and procedure B turns +z onto the second target
        return r1, r2 / np.linalg.norm(r2), np.zeros(3), rb2
    # targets parallel up to round-off: the frame is not orthogonal to 1e-9
    return r1, r2, rb1, k * rb1 + eps * np.cross(rb1, r1)


@_kernel_settings
@given(st.sampled_from(["coincident-sources", "collinear-sources", "parallel-targets",
                        "collinear-sources-parallel-targets", "axis-targets",
                        "maximally-mixed-targets", "nan-source", "vanishing-s-plus-t",
                        "vanishing-first-target", "improper-frame"]),
       _bloch, _bloch, _bloch, _bloch, st.floats(-1.0, 1.0), st.floats(1e-13, 1e-12))
@example("improper-frame", np.array([-0.3, 0.4, -0.5]), np.array([-0.2, 0.5, -0.2]),
         np.array([0.3, 0.1, 0.3]), np.array([0.1, -0.1, 0.3]), -0.9, 5e-13)
def test_optimal_frames_matches_the_scalar_route_on_special_rows(kind, r1, r2, t1, t2, k, eps):
    # every branch the scalar route took outside the generic one, the
    # identity where it gave up included, gives the same bits in the kernel
    row = _special_row(kind, r1, r2, 0.5 * t1, 0.5 * t2, k, eps)
    *_, ok = analytic.optimal_frames(*row)
    if kind == "vanishing-s-plus-t":
        assume(np.linalg.norm(row[0] - row[1]) > 1e-6)
        g = analytic.PairGeometry(*row)
        assert g.s_scalar + g.t_scalar <= 1e-15
    if kind == "improper-frame":
        try:
            _reference_canonical(analytic.PairGeometry(*row))
        except analytic.DegenerateGeometryError:
            assume(False)
        except ms.LinalgError:
            pass
        else:
            assume(False)
        assert not ok
        with pytest.raises(ms.LinalgError):
            analytic.optimal_canonical(analytic.PairGeometry(*row))
    if kind in ("coincident-sources", "maximally-mixed-targets", "nan-source"):
        assert not ok
    _assert_kernel_matches_reference(row)
    frames = ms._frames(np.array([[row[0], row[1]]]), np.array([[row[2], row[3]]]))
    for got, want in zip(frames, _scalar_frames(*row)):
        assert np.array_equal(got[0], want)


def _checked_optimal_canonical(g):
    """optimal_canonical as it was when the public constructor re-checked the kernel's frames."""
    rv, ru, mu, s, ok = analytic.optimal_frames(g.r1, g.r2, g.rb1, g.rb2, g.stage)
    if not ok:
        raise ms.LinalgError("the optimal tracker's frames are not proper rotations")
    return ch.QubitChannelCanonical(rv, ru, mu, s)


@_kernel_settings
@given(st.sampled_from(["generic", "coincident-sources", "collinear-sources", "parallel-targets",
                        "collinear-sources-parallel-targets", "axis-targets",
                        "maximally-mixed-targets", "nan-source", "vanishing-s-plus-t",
                        "vanishing-first-target", "improper-frame"]),
       _bloch, _bloch, _bloch, _bloch, st.floats(-1.0, 1.0), st.floats(1e-13, 1e-12))
@example("improper-frame", np.array([-0.3, 0.4, -0.5]), np.array([-0.2, 0.5, -0.2]),
         np.array([0.3, 0.1, 0.3]), np.array([0.1, -0.1, 0.3]), -0.9, 5e-13)
def test_optimal_canonical_raises_where_the_checked_constructor_did(kind, r1, r2, t1, t2, k, eps):
    # optimal_canonical takes the kernel's frames unchecked: every row the
    # kernel returns, kept or set to the identity, passes the public checks,
    # and optimal_canonical raises exactly where re-checking them did
    row = ((r1, r2, 0.5 * t1, 0.5 * t2) if kind == "generic"
           else _special_row(kind, r1, r2, 0.5 * t1, 0.5 * t2, k, eps))
    ch.QubitChannelCanonical(*analytic.optimal_frames(*row)[:4])
    try:
        g = analytic.PairGeometry(*row)
    except analytic.DegenerateGeometryError:
        return
    try:
        want = _checked_optimal_canonical(g)
    except ms.LinalgError as exc:
        with pytest.raises(ms.LinalgError, match=str(exc)):
            analytic.optimal_canonical(g)
        return
    got = analytic.optimal_canonical(g)
    for name in ("rv", "ru", "mu", "s"):
        assert getattr(got, name).dtype == float
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
