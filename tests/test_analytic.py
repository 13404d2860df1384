import functools

import numpy as np
import pytest

from qtrack import analytic, channels, tracking
from qtrack.channels import (
    DensityMatrix,
    apply_choi,
    check_cptp,
    check_rsw,
    choi_from_kraus,
    KrausSet,
    random_state,
)
from qtrack.distances import WeightedSequence, hs_inner
from qtrack.linalg import PAULI, LinalgError


def bloch_pair(r_len, half_angle):
    up = r_len * np.array([np.cos(half_angle), 0.0, np.sin(half_angle)])
    dn = r_len * np.array([np.cos(half_angle), 0.0, -np.sin(half_angle)])
    return DensityMatrix.from_bloch(up), DensityMatrix.from_bloch(dn)


def random_instance(rng, pure_sources=False, pure_targets=None):
    if pure_targets is None:
        pure_targets = bool(rng.integers(0, 2))
    r1 = random_state(2, rng, pure=pure_sources)
    r2 = random_state(2, rng, pure=pure_sources)
    t1 = random_state(2, rng, pure=pure_targets)
    t2 = random_state(2, rng, pure=pure_targets)
    return r1, r2, t1, t2, float(rng.uniform(0.1, 0.9))


def test_indicator_zero_for_matching_pure_angles():
    s1, s2 = bloch_pair(1.0, 0.6)
    g = analytic.PairGeometry.from_states(s1, s2, s1, s2, 0.5)
    assert abs(g.omega) < 1e-12


def test_indicator_positive_for_parallel_targets():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r1, r2 = random_state(2, rng), random_state(2, rng)
        tgt = random_state(2, rng, pure=True)
        g = analytic.PairGeometry.from_states(r1, r2, tgt, tgt, float(rng.uniform(0.2, 0.8)))
        t = g.t_scalar
        assert t > 0
        assert abs(g.omega - (abs(t) + t)) < 1e-10
        assert g.omega > 0


def test_indicator_positive_for_purification():
    for theta in (0.3, 0.7, 1.2):
        s1, s2 = bloch_pair(0.8, theta)
        t1, t2 = bloch_pair(1.0, theta)
        g = analytic.PairGeometry.from_states(s1, s2, t1, t2, 0.5)
        assert g.omega > 0


def test_indicator_sign_matches_angle_gap_for_pure_states():
    rng = np.random.default_rng(1)
    for _ in range(50):
        th, tb = rng.uniform(0.1, np.pi / 2 - 0.05, 2)
        s1, s2 = bloch_pair(1.0, th)
        t1, t2 = bloch_pair(1.0, tb)
        g = analytic.PairGeometry.from_states(s1, s2, t1, t2, 0.5)
        assert np.sign(g.omega) == np.sign(th - tb) or abs(th - tb) < 1e-9


def test_coincident_sources_rejected():
    s = DensityMatrix.from_bloch([0.3, 0, 0])
    t1, t2 = bloch_pair(1.0, 0.4)
    with pytest.raises(analytic.DegenerateGeometryError):
        analytic.PairGeometry.from_states(s, s, t1, t2, 0.5)


def test_from_states_validates_bare_sources_only():
    t1, t2 = bloch_pair(1.0, 0.4)
    with pytest.raises(LinalgError):
        analytic.PairGeometry.from_states(np.diag([0.8, 0.8]), np.diag([0.5, 0.5]), t1, t2)
    s1, s2 = bloch_pair(0.8, 0.3)
    bare = analytic.PairGeometry.from_states(s1.mat.copy(), s2.mat.copy(), t1, t2, 0.3)
    kept = analytic.PairGeometry.from_states(s1, s2, t1, t2, 0.3)
    for name in ("r1", "r2", "rb1", "rb2", "c1", "c2"):
        assert np.array_equal(getattr(bare, name), getattr(kept, name))


def test_pair_geometry_norms_round_as_numpy_norm():
    # dual_certificate and gamma_b read the norms set once in __post_init__
    rng = np.random.default_rng(43)
    for _ in range(200):
        g = analytic.PairGeometry.from_states(*random_instance(rng))
        assert g.r_minus_norm == np.linalg.norm(g.r_minus)
        assert g.r_cross_norm == np.linalg.norm(g.r_cross)
        assert g.rb_cross_norm == np.linalg.norm(g.rb_cross)


def test_pauli_pairs_is_the_tensordot():
    rng = np.random.default_rng(47)
    for _ in range(200):
        c = rng.normal(size=(4, 4))
        want = np.tensordot(c, channels._PAULI_PAIRS, 2)
        assert np.array_equal(channels._pauli_pairs(c), want)


def test_procedure_a_discrimination_regime():
    # orthogonal pure targets with biased priorities and T > 0: the optimal
    # map is constant-output (mu = 0, s1 = 1)
    rng = np.random.default_rng(2)
    red = DensityMatrix.from_bloch([0.05, 0.0, 0.02])
    blu = DensityMatrix.from_bloch([-0.03, 0.04, 0.0])
    up = DensityMatrix.from_bloch([0, 0, 1.0])
    dn = DensityMatrix.from_bloch([0, 0, -1.0])
    g = analytic.PairGeometry.from_states(red, blu, up, dn, 0.9)
    assert g.omega > 0
    q = analytic.optimal_canonical(g)
    assert np.abs(q.mu).max() < 1e-12
    assert abs(q.s[0] - 1.0) < 1e-12


def test_procedure_a_outputs_extremal_maps():
    rng = np.random.default_rng(3)
    found = 0
    while found < 60:
        r1, r2, t1, t2, pi1 = random_instance(rng)
        g = analytic.PairGeometry.from_states(r1, r2, t1, t2, pi1)
        if g.omega <= analytic.OMEGA_TIE:
            continue
        q = analytic.optimal_canonical(g)
        rsw = check_rsw(q.mu, q.s)
        assert rsw["feasible"] and rsw["extremal"]
        assert abs(q.mu[0] - q.mu[1] * q.mu[2]) < 1e-9
        assert abs(q.s[0] ** 2 - (1 - q.mu[1] ** 2) * (1 - q.mu[2] ** 2)) < 1e-9
        found += 1


def test_procedure_b_matches_pure_rotation():
    s1, s2 = bloch_pair(1.0, 0.5)
    t1, t2 = bloch_pair(1.0, 0.5)
    g = analytic.PairGeometry.from_states(s1, s2, t1, t2, 0.5)
    res = analytic.track_geometry(g)
    assert res.procedure == "B"
    assert abs(res.fidelity - 1.0) < 1e-10
    choi = res.choi
    for s, t in ((s1, t1), (s2, t2)):
        assert np.abs(apply_choi(choi, s).mat - t.mat).max() < 1e-9


def test_procedure_b_do_nothing_at_right_angle():
    # antipodal purification: theta = pi/2 sources and targets; best unitary is
    # the identity (V then U undoes it)
    s1, s2 = bloch_pair(0.7, np.pi / 2)
    t1, t2 = bloch_pair(1.0, np.pi / 2)
    g = analytic.PairGeometry.from_states(s1, s2, t1, t2, 0.5)
    assert abs(g.omega) < 1e-12
    q = analytic.optimal_canonical(g)
    composed = q.ru @ q.rv  # total Bloch rotation
    assert np.abs(composed - np.eye(3)).max() < 1e-9


def test_procedure_b_fidelity_formula_pure_states():
    # theta < theta_bar: unitary branch with the closed-form fidelity;
    # no unitary does better (grid oracle)
    th, tb = 0.35, 0.8
    s1, s2 = bloch_pair(1.0, th)
    t1, t2 = bloch_pair(1.0, tb)
    for pi1 in (0.5, 0.3):
        g = analytic.PairGeometry.from_states(s1, s2, t1, t2, pi1)
        assert g.omega <= 0
        res = analytic.track_geometry(g)
        pi2 = 1 - pi1
        want = 0.5 + 0.5 * np.sqrt(
            pi1**2 + pi2**2 + 2 * pi1 * pi2 * np.cos(2 * th - 2 * tb)
        )
        assert abs(res.fidelity - want) < 1e-12
        best = 0.0
        for a in np.linspace(0, 2 * np.pi, 60, endpoint=False):
            rot = np.array(
                [[np.cos(a), 0, -np.sin(a)], [0, 1, 0], [np.sin(a), 0, np.cos(a)]]
            )
            val = sum(
                p * 0.5 * (1.0 + (rot @ s.bloch) @ t.bloch)
                for p, s, t in ((pi1, s1, t1), (pi2, s2, t2))
            )
            best = max(best, val)
        assert res.fidelity >= best - 1e-6


def test_fidelity_trivial_and_antiparallel():
    s1, s2 = bloch_pair(1.0, 0.4)
    g = analytic.PairGeometry.from_states(s1, s2, s1, s2, 0.5)
    assert abs(analytic.optimal_fidelity(g) - 1.0) < 1e-12
    # anti-parallel targets exercise the special unitary branch
    up = DensityMatrix.from_bloch([0, 0, 0.8])
    dn = DensityMatrix.from_bloch([0, 0, -0.6])
    r1 = DensityMatrix.from_bloch([0.5, 0.1, 0.3])
    r2 = DensityMatrix.from_bloch([-0.2, 0.4, -0.5])
    g = analytic.PairGeometry.from_states(r1, r2, up, dn, 0.5)
    res = analytic.track_geometry(g)
    achieved = 0.5 * hs_inner(apply_choi(res.choi, r1), up) + 0.5 * hs_inner(
        apply_choi(res.choi, r2), dn
    )
    assert abs(achieved - res.fidelity) < 1e-10


def test_choi_self_consistency_both_branches():
    rng = np.random.default_rng(4)
    seen = {"A": 0, "B": 0}
    while min(seen.values()) < 25:
        r1, r2, t1, t2, pi1 = random_instance(rng)
        if seen["B"] < 25 and rng.uniform() < 0.5:
            # force the unitary branch with pure pairs at theta < theta_bar
            th, tb = sorted(rng.uniform(0.1, np.pi / 2 - 0.05, 2))
            r1, r2 = bloch_pair(1.0, th)
            t1, t2 = bloch_pair(1.0, tb)
            pi1 = 0.5
        res = analytic.track_pair(r1, r2, t1, t2, pi1)
        seen[res.procedure] = seen.get(res.procedure, 0) + 1
        rep = check_cptp(res.choi)
        assert rep["cp"] and rep["tp"]
        achieved = pi1 * hs_inner(apply_choi(res.choi, r1), t1) + (1 - pi1) * hs_inner(
            apply_choi(res.choi, r2), t2
        )
        assert abs(achieved - res.fidelity) <= 1e-10


def test_analytic_matches_sdp():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r1, r2, t1, t2, pi1 = random_instance(rng)
        res = analytic.track_pair(r1, r2, t1, t2, pi1)
        src = WeightedSequence([(pi1, r1), (1 - pi1, r2)])
        tgt = WeightedSequence([(pi1, t1), (1 - pi1, t2)])
        sdp_value = tracking.solve_tracking(
            tracking.TrackingProblem(src, tgt, "FHSavg1", "cptp")
        ).value
        assert abs(res.fidelity - sdp_value) <= 1e-6


def test_monte_carlo_no_better_channel():
    rng = np.random.default_rng(6)
    r1, r2, t1, t2, pi1 = random_instance(rng)
    res = analytic.track_pair(r1, r2, t1, t2, pi1)
    from qtrack.channels import random_channel

    for _ in range(500):
        chan = random_channel(2, rng)
        val = pi1 * hs_inner(apply_choi(chan, r1), t1) + (1 - pi1) * hs_inner(
            apply_choi(chan, r2), t2
        )
        assert val <= res.fidelity + 1e-10


def test_certificate_structure():
    rng = np.random.default_rng(7)
    for _ in range(100):
        r1, r2, t1, t2, pi1 = random_instance(rng)
        res = analytic.track_pair(r1, r2, t1, t2, pi1)
        cert = res.certificate
        assert cert.min_eig >= -1e-9
        assert cert.weak_duality_residual <= 1e-9
        assert cert.slackness_residual <= 1e-8
        assert cert.coefficients[2] == 0.0
        g = analytic.PairGeometry.from_states(r1, r2, t1, t2, pi1)
        if res.procedure == "A":
            # discriminant of the quadratic factor is non-negative
            gam = analytic.gamma_a(g)
            rm2 = g.r_minus @ g.r_minus
            rx2 = g.r_cross @ g.r_cross
            assert (rm2 - rx2) * gam**4 - g.xi_upper**2 >= -1e-10
            want = np.sort(np.concatenate([[0.0, 0.0], cert.poly_roots]))
        else:
            varpi = 0.25 * (
                -g.omega + g.s_scalar + np.linalg.norm(g.r_cross) * np.linalg.norm(g.rb_cross)
            )
            assert varpi >= -1e-10
            want = np.sort(np.concatenate([[0.0], cert.poly_roots]))
        assert np.abs(np.sort(cert.spectrum) - want).max() < 1e-8


def test_certificate_trivial_task():
    s1, s2 = bloch_pair(1.0, 0.4)
    res = analytic.track_pair(s1, s2, s1, s2, 0.5)
    assert abs(res.certificate.coefficients[0] - 0.5) < 1e-12


def test_continuity_across_omega_zero():
    # purification family: omega crosses zero at theta = theta_bar for pure sources
    rng = np.random.default_rng(8)
    for _ in range(20):
        tb = rng.uniform(0.2, np.pi / 2 - 0.1)
        s1, s2 = bloch_pair(1.0, tb)

        def omega_of(eps):
            t1, t2 = bloch_pair(1.0, tb - eps)
            return analytic.PairGeometry.from_states(s1, s2, t1, t2, 0.5)

        # bracket omega = 0 numerically
        lo, hi = -1e-4, 1e-4
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if omega_of(mid).omega > 0:
                hi = mid
            else:
                lo = mid
        g_plus = omega_of(hi + 1e-13)
        g_minus = omega_of(lo - 1e-13)
        fa = 0.5 * (g_plus.c + analytic.gamma_a(g_plus))
        fb = 0.5 * (g_minus.c + analytic.gamma_b(g_minus))
        assert abs(fa - fb) <= 1e-8


def test_unnormalized_target_extension():
    rng = np.random.default_rng(9)
    for _ in range(50):
        r1, r2, t1, t2, pi1 = random_instance(rng)
        g0 = analytic.PairGeometry.from_states(r1, r2, t1, t2, pi1)
        f1, f2 = rng.uniform(0.4, 1.6, 2)
        g = analytic.PairGeometry(
            g0.r1, g0.r2, f1 * g0.rb1, f2 * g0.rb2, f1 * g0.c1, f2 * g0.c2
        )
        assert abs(g.c - (f1 * g0.c1 + f2 * g0.c2)) < 1e-14
        res = analytic.track_geometry(g)
        cert = res.certificate
        assert cert.min_eig >= -1e-9
        assert cert.weak_duality_residual <= 1e-9
        assert cert.slackness_residual <= 1e-8
        # achieved value still matches the fidelity formula with c != 1
        achieved = sum(
            0.5 * (ci + apply_choi(res.choi, s).bloch @ rb)
            for ci, s, rb in ((g.c1, r1, g.rb1), (g.c2, r2, g.rb2))
        )
        assert abs(achieved - res.fidelity) < 1e-10


def test_alberti_uhlmann_corollary_via_fidelity():
    rng = np.random.default_rng(10)
    for _ in range(40):
        th, tb = rng.uniform(0.1, np.pi / 2 - 0.05, 2)
        s1, s2 = bloch_pair(1.0, th)
        t1, t2 = bloch_pair(1.0, tb)
        res = analytic.track_pair(s1, s2, t1, t2, 0.5)
        perfect = abs(res.fidelity - 1.0) <= 1e-9
        assert perfect == (th >= tb - 1e-9)
    # mixed sources with pure distinct targets can never be tracked perfectly
    for _ in range(20):
        s1, s2 = bloch_pair(0.9, 0.7)
        t1, t2 = bloch_pair(1.0, 0.3)
        res = analytic.track_pair(s1, s2, t1, t2, 0.5)
        assert res.fidelity < 1.0 - 1e-6


def test_feedback_decomposition():
    rng = np.random.default_rng(11)
    found = 0
    while found < 30:
        r1, r2, t1, t2, pi1 = random_instance(rng)
        g = analytic.PairGeometry.from_states(r1, r2, t1, t2, pi1)
        if g.omega <= analytic.OMEGA_TIE:
            continue
        found += 1
        fb = analytic.feedback_decomposition(g)
        m1, m2 = fb["M1"], fb["M2"]
        assert np.abs(m1.conj().T @ m1 + m2.conj().T @ m2 - np.eye(2)).max() < 1e-12
        y = np.array([[0, -1j], [1j, 0]])
        k1 = fb["U"] @ m1 @ fb["V"]
        k2 = fb["U"] @ y @ m2 @ fb["V"]
        choi = choi_from_kraus(KrausSet([k1, k2]))
        assert np.abs(choi.mat - analytic.assemble_optimal_choi(g).mat).max() <= 1e-10


def test_feedback_projective_limit():
    # mu2 = mu3 = 0: measurement operators collapse onto the +/- projectors
    red = DensityMatrix.from_bloch([0.05, 0.0, 0.02])
    blu = DensityMatrix.from_bloch([-0.03, 0.04, 0.0])
    up = DensityMatrix.from_bloch([0, 0, 1.0])
    dn = DensityMatrix.from_bloch([0, 0, -1.0])
    g = analytic.PairGeometry.from_states(red, blu, up, dn, 0.9)
    fb = analytic.feedback_decomposition(g)
    plus = np.array([1, 1]) / np.sqrt(2)
    p_plus = np.outer(plus, plus)
    assert np.abs(fb["M1"] - p_plus).max() < 1e-10


def test_omega_tie_routed_to_b():
    s1, s2 = bloch_pair(1.0, 0.5)
    res = analytic.track_pair(s1, s2, s1, s2, 0.5)
    assert res.procedure == "B"
    assert not res.unique


def _rotation_of(w):
    """SO(3) action of a 2 x 2 unitary: R_pq = tr(sigma_p W sigma_q W^dag) / 2."""
    return np.array([[0.5 * np.trace(p @ w @ q @ w.conj().T).real for q in PAULI[1:]]
                     for p in PAULI[1:]])


def test_procedure_rotations_match_their_unitaries():
    # the SU(2) unitaries derived from procedure A/B rotations act as those rotations
    rng = np.random.default_rng(30)
    seen = set()
    for k in range(60):
        r1, r2, t1, t2, pi1 = random_instance(rng, pure_sources=k % 3 == 0)
        g = analytic.PairGeometry.from_states(r1, r2, t1, t2, pi1)
        q = analytic.optimal_canonical(g)
        seen.add("A" if g.omega > analytic.OMEGA_TIE else "B")
        assert np.abs(_rotation_of(q.V) - q.rv).max() <= 1e-12
        assert np.abs(_rotation_of(q.U) - q.ru).max() <= 1e-12
    assert seen == {"A", "B"}


def test_track_pair_builds_its_controller_once(monkeypatch):
    # the certificate carries the channel it certifies, and the result reuses it
    calls = []
    kernel = analytic.optimal_frames

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(analytic, "optimal_frames", counted)
    rng = np.random.default_rng(31)
    for k in range(6):
        r1, r2, t1, t2, pi1 = random_instance(rng, pure_sources=k % 2 == 0)
        calls.clear()
        res = analytic.track_pair(r1, r2, t1, t2, pi1)
        assert len(calls) == 1
        assert res.canonical is res.certificate.canonical
        want = analytic.optimal_canonical(analytic.PairGeometry.from_states(r1, r2, t1, t2, pi1))
        for name in ("rv", "ru", "mu", "s"):
            assert np.array_equal(getattr(res.canonical, name), getattr(want, name))


def test_anti_parallel_targets_within_round_off():
    # targets anti-parallel up to a 1e-10 tilt, collinear sources: procedure B
    # turns +z onto rb1, a direction within round-off of -z
    g = analytic.PairGeometry([0, 0, 1], [0, 0, 0.5], [0, 5e-11, -0.5], [0, 0, 0])
    q = analytic.optimal_canonical(g)
    assert np.isfinite(q.ru).all()
    assert np.abs(q.ru @ q.ru.T - np.eye(3)).max() <= 1e-12
    assert np.abs(q.ru[:, 2] - g.rb1 / np.linalg.norm(g.rb1)).max() <= 1e-9


# The certificate as it was built through SU(2): V and U rebuilt from the
# frames, the states conjugated by them and Kronecker products taken.  Frozen
# here as the reference for the certificate built in the SO(3) frames.
_PAULI = list(PAULI[1:])
_REF_SIGMA_I = [np.kron(p, np.eye(2)) for p in _PAULI]
_REF_I_X = np.kron(np.eye(2), _PAULI[0])
_REF_SIGMA_SIGMA = [np.kron(p, p) for p in _PAULI]


def _reference_dual_certificate(g):
    canonical = analytic.optimal_canonical(g)
    rm = np.linalg.norm(g.r_minus)
    rx = np.linalg.norm(g.r_cross)
    rbx = np.linalg.norm(g.rb_cross)
    xi_u = g.xi_upper
    xi_l = g.xi_lower
    c_tot = g.c
    weighted = g.c1 * g.r1 + g.c2 * g.r2

    if g.omega > analytic.OMEGA_TIE:
        gam = analytic.gamma_a(g)
        x0 = 0.25 * (c_tot + gam)
        x1 = rx / (4.0 * rm) * (c_tot + gam)
        x3 = ((weighted @ g.r_minus) + xi_u / gam) / (4.0 * rm)
        s_val, t_val = g.s_scalar, g.t_scalar
        st = s_val + t_val
        upsilon = (4.0 * rm * rm * rbx * rbx + st * st) / (
            8.0 * rm * rm * gam * gam * s_val * st
        )
        const = upsilon * (
            (rm * rm - rx * rx) * gam**4 - xi_u * xi_u
        )
        roots = np.roots([1.0, -gam, const])
    else:
        gam = analytic.gamma_b(g)
        x0 = 0.25 * (c_tot + gam)
        x1 = (c_tot * rx + xi_l / gam) / (4.0 * rm)
        x3 = ((weighted @ g.r_minus) + xi_u / gam) / (4.0 * rm)
        varpi = 0.25 * (-g.omega + g.s_scalar + rx * rbx)
        omega_c = -(
            (rx * gam * gam - xi_l)
            * (rm * rm * gam * gam * xi_l - rx * (xi_l * xi_l + xi_u * xi_u))
        ) / (8.0 * rm**4 * gam**3)
        roots = np.roots([1.0, -gam, varpi, omega_c])

    coeffs = np.array([x0, x1, 0.0, x3])
    rho_mats = [0.5 * (np.eye(2) + sum(a * p for a, p in zip(r, _PAULI))) for r in (g.r1, g.r2)]
    tgt_mats = [
        0.5 * (c_i * np.eye(2) + sum(a * p for a, p in zip(rb, _PAULI)))
        for c_i, rb in ((g.c1, g.rb1), (g.c2, g.rb2))
    ]
    v, u = canonical.V, canonical.U
    f0_tilde = -sum(
        np.kron((v @ r @ v.conj().T).T, u.conj().T @ t @ u)
        for r, t in zip(rho_mats, tgt_mats)
    )
    f_matrix = (
        f0_tilde
        + coeffs[0] * np.eye(4)
        + coeffs[1] * _REF_SIGMA_I[0]
        + coeffs[2] * _REF_SIGMA_I[1]
        + coeffs[3] * _REF_SIGMA_I[2]
    )
    mu, s1 = canonical.mu, canonical.s[0]
    d_choi = 0.5 * (np.eye(4, dtype=complex) + s1 * _REF_I_X + mu[0] * _REF_SIGMA_SIGMA[0]
                    - mu[1] * _REF_SIGMA_SIGMA[1] + mu[2] * _REF_SIGMA_SIGMA[2])
    weak = abs(2.0 * coeffs[0] + np.trace(f0_tilde @ d_choi).real)
    slackness = float(np.abs(d_choi @ f_matrix).max())
    spectrum = np.linalg.eigvalsh(0.5 * (f_matrix + f_matrix.conj().T))
    return analytic.DualCertificate(
        coefficients=coeffs,
        f_matrix=f_matrix,
        min_eig=float(spectrum.min()),
        weak_duality_residual=float(weak),
        slackness_residual=slackness,
        poly_roots=np.sort(np.real(roots)),
        spectrum=spectrum,
        canonical=canonical,
    )


@functools.lru_cache(maxsize=1)
def _criterion_2_draws(n=3000):
    """The first ``n`` instances of acceptance criterion 2, drawn in the same order."""
    rng = np.random.default_rng(1002)
    draws = []
    for k in range(n):
        if k % 3 == 2:
            # the unitary branch: pure pairs with theta < theta_bar
            th, tb = np.sort(rng.uniform(0.1, np.pi / 2 - 0.02, 2))
            draws.append((*bloch_pair(1.0, th), *bloch_pair(1.0, tb), 0.5))
        else:
            r1, r2 = (random_state(2, rng) for _ in range(2))
            t1, t2 = (random_state(2, rng, pure=bool(rng.integers(0, 2))) for _ in range(2))
            draws.append((r1, r2, t1, t2, float(rng.uniform(0.05, 0.95))))
    return tuple(analytic.PairGeometry.from_states(*draw) for draw in draws)


def _special_geometries():
    """Rows on the kernel's special branches, each with the procedure it takes."""
    geo = analytic.PairGeometry
    up, dn = bloch_pair(1.0, 0.6)
    rows = [
        # procedure B forced by pure pairs with theta < theta_bar
        (geo.from_states(*bloch_pair(1.0, 0.3), *bloch_pair(1.0, 0.9), 0.5), "B"),
        (geo.from_states(*bloch_pair(1.0, 0.2), *bloch_pair(1.0, 1.4), 0.3), "B"),
        # collinear sources
        (geo([0, 0, 0.8], [0, 0, -0.3], [0.2, 0.1, 0.15], [-0.05, 0.2, 0.0]), None),
        (geo([0.1, 0.2, 0.3], [0.2, 0.4, 0.6], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]), None),
        # parallel, anti-parallel and one vanishing target
        (geo([0.3, 0.2, 0.1], [0.0, 0.0, 0.9], [0.2, 0.0, 0.3], [0.1, 0.0, 0.15]), None),
        (geo([0.5, 0.1, 0.3], [-0.2, 0.4, -0.5], [0, 0, 0.4], [0, 0, -0.3]), None),
        (geo([0, 0, 1], [0, 0, 0.5], [0, 5e-11, -0.5], [0, 0, 0]), None),
        # Omega = 0: targets equal to pure sources
        (geo.from_states(up, dn, up, dn, 0.5), "B"),
    ]
    return rows


def test_certificate_in_frames_matches_su2_reference():
    rows = [(g, None) for g in _criterion_2_draws()] + _special_geometries()
    for g, procedure in rows:
        got, want = analytic.dual_certificate(g), _reference_dual_certificate(g)
        if procedure is not None:
            assert ("A" if g.omega > analytic.OMEGA_TIE else "B") == procedure
        assert np.array_equal(got.coefficients, want.coefficients)
        assert np.array_equal(got.poly_roots, want.poly_roots)
        assert np.abs(got.f_matrix - want.f_matrix).max() <= 1e-12
        assert got.valid == want.valid


def test_certificate_residuals_at_round_off():
    # built in the frames of the optimal channel, F and D lose no digits to
    # an SU(2) rebuild: D F = 0 and F >= 0 hold to round-off on every draw
    worst_slack, worst_eig = 0.0, 0.0
    for g in _criterion_2_draws():
        cert = analytic.dual_certificate(g)
        worst_slack = max(worst_slack, cert.slackness_residual)
        worst_eig = min(worst_eig, cert.min_eig)
    assert worst_slack <= 1e-15 and worst_eig >= -1e-15, (worst_slack, worst_eig)
