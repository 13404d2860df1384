import numpy as np
import pytest

from qtrack import channels as ch
from qtrack.linalg import PAULI, LinalgError, hermitian_basis, partial_trace, perm_d4, vec


def dephasing_kraus(p):
    z = np.diag([1.0, -1.0])
    return ch.KrausSet([np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * z])


def test_choi_of_identity_map():
    choi = ch.choi_from_kraus(ch.KrausSet([np.eye(2)]))
    psi = vec(np.eye(2))
    assert np.abs(choi.mat - np.outer(psi, psi)).max() < 1e-15


def test_choi_of_dephasing_is_tp():
    choi = ch.choi_from_kraus(dephasing_kraus(0.3))
    assert np.abs(partial_trace(choi.mat, (2, 2), 2) - np.eye(2)).max() < 1e-12


def test_kraus_unitary_mixing_invariance():
    rng = np.random.default_rng(0)
    ks = dephasing_kraus(0.3)
    u = ch.haar_random_unitary(2, rng)
    mixed = ch.KrausSet(
        [sum(u[i, j] * k for j, k in enumerate(ks.operators)) for i in range(2)]
    )
    assert np.abs(ch.choi_from_kraus(ks).mat - ch.choi_from_kraus(mixed).mat).max() < 1e-12


def test_kraus_from_choi_rank_one():
    choi = ch.ChoiMatrix.identity(2)
    ks = ch.kraus_from_choi(choi)
    assert len(ks.operators) == 1
    k = ks.operators[0]
    assert np.abs(k @ k.conj().T - np.eye(2) * np.abs(k[0, 0]) ** 2).max() < 1e-12


def test_kraus_choi_roundtrip_random():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        for _ in range(100):
            choi = ch.random_channel(d, rng)
            back = ch.choi_from_kraus(ch.kraus_from_choi(choi))
            assert np.abs(back.mat - choi.mat).max() <= 1e-10


def test_kraus_routes_counts():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    choi = ch.choi_from_kraus(ch.KrausSet([q[:2], q[2:]]))
    assert len(ch.kraus_from_choi(choi).operators) == 2


def test_apply_identity_and_dephasing():
    rng = np.random.default_rng(3)
    rho = ch.random_state(2, rng)
    assert np.abs(ch.apply_choi(ch.ChoiMatrix.identity(2), rho).mat - rho.mat).max() < 1e-12
    plus = ch.DensityMatrix.from_bloch([1.0, 0.0, 0.0])
    out = ch.apply_choi(ch.choi_from_kraus(dephasing_kraus(0.5)), plus)
    assert np.abs(out.mat - np.eye(2) / 2).max() < 1e-12


def test_apply_matches_kraus():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ks = ch.kraus_from_choi(ch.random_channel(2, rng))
        choi = ch.choi_from_kraus(ks)
        rho = ch.random_state(2, rng)
        assert np.abs(ch.apply_choi(choi, rho).mat - ks.apply(rho).mat).max() < 1e-11


def test_compose_identity_neutral():
    rng = np.random.default_rng(5)
    a = ch.random_channel(2, rng)
    ident = ch.ChoiMatrix.identity(2)
    assert np.abs(ch.compose(a, ident).mat - a.mat).max() < 1e-10
    assert np.abs(ch.compose(ident, a).mat - a.mat).max() < 1e-10


def test_compose_dephasings():
    p, q = 0.3, 0.2
    left = ch.choi_from_kraus(dephasing_kraus(p))
    right = ch.choi_from_kraus(dephasing_kraus(q))
    combined = ch.compose(left, right)
    want = ch.choi_from_kraus(dephasing_kraus(p + q - 2 * p * q))
    assert np.abs(combined.mat - want.mat).max() < 1e-12


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(6)
    for d in (2, 3):
        a, b = ch.random_channel(d, rng), ch.random_channel(d, rng)
        rho = ch.random_state(d, rng)
        lhs = ch.apply_choi(ch.compose(a, b), rho).mat
        rhs = ch.apply_choi(b, ch.apply_choi(a, rho)).mat
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_compose_associative():
    rng = np.random.default_rng(7)
    a, b, c = (ch.random_channel(2, rng) for _ in range(3))
    lhs = ch.compose(ch.compose(a, b), c)
    rhs = ch.compose(a, ch.compose(b, c))
    assert np.abs(lhs.mat - rhs.mat).max() < 1e-9


def _ref_choi_from_kraus(kraus):
    """The sum of vec(K) vec(K)^dag, one Kraus operator at a time."""
    d = kraus.d
    acc = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus.operators:
        v = vec(k)
        acc += np.outer(v, v.conj())
    return acc


def _ref_apply(choi_mat, rho_mat):
    """C(rho) = tr_1[(rho^T (x) I) C], with np.kron and a partial trace."""
    d = rho_mat.shape[0]
    return partial_trace(np.kron(rho_mat.T, np.eye(d)) @ choi_mat, (d, d), 1)


def _ref_compose(a, b):
    """Choi matrix of x -> b(a(x)) as tr_1[(C_a^T (x) I) P (|Psi><Psi| (x) C_b) P]."""
    d = a.d
    p = perm_d4(d)
    inner = p @ np.kron(ch.ChoiMatrix.identity(d).mat, b.mat) @ p
    big = np.kron(a.mat.T, np.eye(d * d)) @ inner
    return partial_trace(big, (d * d, d * d), 1)


def _ref_bloch_action(choi_mat):
    """(M, tau) of out = M r + tau: I/2 and each axis state applied one call at a time."""
    m_aff = np.zeros((3, 3))
    out0 = ch.bloch_of(_ref_apply(choi_mat, 0.5 * np.eye(2)))
    for j in range(3):
        rho_j = 0.5 * (np.eye(2) + sum(x * p for x, p in zip(np.eye(3)[j], PAULI[1:])))
        m_aff[:, j] = ch.bloch_of(_ref_apply(choi_mat, rho_j)) - out0
    return m_aff, out0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_contractions_match_the_kron_references(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(10):
        a, b = ch.random_channel(d, rng), ch.random_channel(d, rng)
        rho = ch.random_state(d, rng).mat
        kraus = ch.kraus_from_choi(a)
        assert np.abs(ch.apply_choi_raw(a.mat, rho) - _ref_apply(a.mat, rho)).max() <= 1e-14
        assert np.abs(ch.compose(a, b).mat - _ref_compose(a, b)).max() <= 1e-14
        assert np.abs(ch.choi_from_kraus(kraus).mat - _ref_choi_from_kraus(kraus)).max() <= 1e-14


def test_canonical_bloch_action_matches_the_reference():
    # the canonical form's M = R_U diag(mu) R_V and tau = R_U s against the
    # reference's one-state-at-a-time Bloch action
    rng = np.random.default_rng(44)
    for _ in range(100):
        choi = ch.random_channel(2, rng)
        q = ch.canonical_qubit(choi)
        m_aff, tau = _ref_bloch_action(choi.mat)
        assert np.abs(q.ru @ np.diag(q.mu) @ q.rv - m_aff).max() <= 1e-14
        assert np.abs(q.ru @ q.s - tau).max() <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_apply_over_a_stack_is_each_states_own_output(d):
    rng = np.random.default_rng(45 + d)
    choi = ch.random_channel(d, rng).mat
    stack = np.array([ch.random_state(d, rng, pure=k % 2 == 0).mat for k in range(7)])
    out = ch.apply_choi_raw(choi, stack)
    assert out.shape == stack.shape
    for rho, got in zip(stack, out):
        assert np.array_equal(got, ch.apply_choi_raw(choi, rho))


@pytest.mark.parametrize(
    "ops", [[1.0], [np.float64(0.5)], [np.ones(2)], [np.ones((2, 2, 2))], [np.eye(2), 1.0],
            [np.ones((2, 3))]],
    ids=["scalar", "numpy-scalar", "vector", "3-d", "matrix-then-scalar", "rectangular"],
)
def test_kraus_set_rejects_operators_that_are_not_square_matrices(ops):
    # a scalar first operator used to raise a bare IndexError reading its shape
    with pytest.raises(LinalgError, match="square matrices"):
        ch.KrausSet(ops)


def test_check_cptp_transposition_map():
    # Choi of the transposition map is the swap, with eigenvalue -1
    d = 2
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2))
            e[i, j] = 1.0
            swap += np.kron(e, e.T)
    rep = ch.check_cptp(ch.ChoiMatrix(d, swap))
    assert not rep["cp"]
    assert abs(rep["min_eig"] + 1.0) < 1e-12
    assert rep["tp"]


def test_check_cptp_from_kraus_and_rescaled():
    rng = np.random.default_rng(8)
    choi = ch.random_channel(2, rng)
    assert ch.check_cptp(choi)["cp"]
    bad = ch.ChoiMatrix(2, 1.3 * choi.mat)
    assert not ch.check_cptp(bad)["tp"]


def test_check_ppt_examples():
    # completely depolarizing: output constant, separable
    depol = ch.ChoiMatrix(2, np.kron(np.eye(2), np.eye(2) / 2))
    assert ch.check_ppt(depol)["ppt"]
    assert not ch.check_ppt(ch.ChoiMatrix.identity(2))["ppt"]


def test_check_ppt_discriminate_reprepare():
    # Holevo-form channel: measure sigma_z, reprepare fixed states
    q0 = ch.DensityMatrix.from_bloch([0.3, 0.0, 0.4]).mat
    q1 = ch.DensityMatrix.from_bloch([-0.2, 0.1, 0.0]).mat
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    choi = np.kron(p0.T, q0) + np.kron(p1.T, q1)
    rep = ch.check_ppt(ch.ChoiMatrix(2, choi))
    assert rep["ppt"]


def test_canonical_unitary_channel():
    rng = np.random.default_rng(9)
    u = ch.haar_random_unitary(2, rng)
    choi = ch.choi_from_kraus(ch.KrausSet([u]))
    q = ch.canonical_qubit(choi)
    assert np.abs(q.mu - 1.0).max() < 1e-9
    assert np.abs(q.s).max() < 1e-9


def test_canonical_dephasing_scales():
    p = 0.3
    choi = ch.choi_from_kraus(dephasing_kraus(p))
    q = ch.canonical_qubit(choi)
    assert np.abs(np.sort(np.abs(q.mu)) - np.sort([1 - 2 * p, 1 - 2 * p, 1.0])).max() < 1e-9
    assert np.abs(q.s).max() < 1e-10


def test_canonical_roundtrip_random():
    rng = np.random.default_rng(10)
    for _ in range(50):
        choi = ch.random_channel(2, rng)
        q = ch.canonical_qubit(choi)
        back = ch.assemble_qubit_choi(q)
        assert np.abs(back.mat - choi.mat).max() <= 1e-8


def test_assemble_identity():
    q = ch.QubitChannelCanonical(np.eye(3), np.eye(3), np.ones(3), np.zeros(3))
    assert np.abs(ch.assemble_qubit_choi(q).mat - ch.ChoiMatrix.identity(2).mat).max() < 1e-14


def test_assemble_diagonal_expansion():
    # 2D = I4 + I (x) s.sigma + mu1 XX - mu2 YY + mu3 ZZ
    mu = np.array([0.5, 0.3, 0.6])
    s = np.array([0.0, 0.0, 0.2])
    q = ch.QubitChannelCanonical(np.eye(3), np.eye(3), mu, s)
    x, y, z = (hermitian_basis(2)[k] for k in (1, 2, 3))
    want = 0.5 * (
        np.eye(4)
        + 0.2 * np.kron(np.eye(2), z)
        + 0.5 * np.kron(x, x)
        - 0.3 * np.kron(y, y)
        + 0.6 * np.kron(z, z)
    )
    assert np.abs(ch.assemble_qubit_choi(q).mat - want).max() < 1e-14


def _kron_choi(q):
    """The Choi build of assemble_qubit_choi written with np.kron, one k at a time."""
    two_c = np.eye(4, dtype=complex)
    for k in range(3):
        u_sigma = sum(x * p for x, p in zip(q.ru[:, k], PAULI[1:]))
        v_sigma = sum(x * p for x, p in zip(q.rv[k], PAULI[1:]))
        two_c += q.s[k] * np.kron(np.eye(2), u_sigma)
        two_c += q.mu[k] * np.kron(v_sigma.T, u_sigma)
    return 0.5 * two_c


def test_assemble_matches_the_kron_form():
    rng = np.random.default_rng(13)
    for k in range(300):
        q = ch.canonical_qubit(ch.random_channel(2, rng))
        if k % 3 == 1:  # unital, with zero and repeated scalings
            q = ch.QubitChannelCanonical(q.rv, q.ru, np.round(q.mu, 1), np.zeros(3))
        if k % 3 == 2:  # frames with exact zero entries
            flip = np.diag([1.0, -1.0, -1.0])
            q = ch.QubitChannelCanonical(np.eye(3), flip, q.mu, q.s)
        assert np.array_equal(ch.assemble_qubit_choi(q).mat, ch.ChoiMatrix(2, _kron_choi(q)).mat)


def test_assemble_extreme_point_rank_two():
    u, v = 0.7, 1.1
    mu = np.array([np.cos(u), np.cos(v), np.cos(u) * np.cos(v)])
    s = np.array([0.0, 0.0, np.sin(u) * np.sin(v)])
    choi = ch.assemble_qubit_choi(
        ch.QubitChannelCanonical(np.eye(3), np.eye(3), mu, s)
    )
    rep = ch.check_cptp(choi)
    assert rep["cp"] and rep["tp"]
    w = np.linalg.eigvalsh(choi.mat)
    assert (w > 1e-9).sum() == 2


def test_check_rsw_cases():
    assert ch.check_rsw([1, 1, 1], [0, 0, 0]) == {"feasible": True, "extremal": True}
    res = ch.check_rsw([0, 0, 0], [1, 0, 0])
    assert res["feasible"] and res["extremal"]
    assert not ch.check_rsw([1, 1, 1], [0.5, 0, 0])["feasible"]
    # outside the box |mu_k| <= 1, |s| <= 1 the closed inequalities can all
    # hold although the Choi matrix has eigenvalue -3
    assert ch.check_rsw([2, 2, 4], [0, 0, 3]) == {"feasible": False, "extremal": False}


def _choi_is_psd(mu, s):
    """The reference: the spectrum of the assembled Choi matrix of (mu, s)."""
    try:
        q = ch.QubitChannelCanonical(np.eye(3), np.eye(3), mu, s)
    except LinalgError:
        return False  # non-finite mu or s: no spectrum, so not PSD
    return np.linalg.eigvalsh(ch.assemble_qubit_choi(q).mat).min() >= -1e-9


def test_check_rsw_matches_choi_psd():
    rng = np.random.default_rng(11)
    draws = [(rng.uniform(-1, 1, 3), rng.uniform(-0.6, 0.6, 3)) for _ in range(200)]
    # wide draws, half of them translated along z only
    for k in range(5000):
        mu, s = rng.uniform(-2.5, 2.5, 3), rng.uniform(-3, 3, 3)
        draws.append((mu, s * [0, 0, 1] if k % 2 else s))
    # NaN and infinite entries
    for bad in (np.nan, np.inf, -np.inf):
        for j in range(6):
            row = np.array([0.5, 0.2, 0.1, 0.0, 0.0, 0.3])
            row[j] = bad
            draws.append((row[:3], row[3:]))
    for mu, s in draws:
        assert ch.check_rsw(mu, s)["feasible"] == _choi_is_psd(mu, s), (mu, s)
    # the extremal noises of the 2-step sweep's 20 x 20 grid are channels; a
    # translation 1e-6 longer leaves the channels, and 1e-6 shorter the extreme points
    grid = np.linspace(0.05, 0.95, 20)
    for lam1 in grid:
        for lam2 in grid:
            t3 = np.sqrt(max((1.0 - lam1**2) * (1.0 - lam2**2), 0.0))
            for scale in (1.0, 1.0 - 1e-6, 1.0 + 1e-6):
                mu, s = np.array([lam1, lam2, lam1 * lam2]), np.array([0.0, 0.0, t3 * scale])
                rsw = ch.check_rsw(mu, s)
                assert rsw["feasible"] == _choi_is_psd(mu, s) == (scale <= 1.0), (mu, s)
                assert rsw["extremal"] == (scale == 1.0), (mu, s)


def test_random_state_properties():
    rng = np.random.default_rng(12)
    pure = ch.random_state(2, rng, pure=True)
    w = np.linalg.eigvalsh(pure.mat)
    assert (w > 1e-12).sum() == 1
    purities = [ch.random_state(6, rng).purity() for _ in range(50)]
    assert 1.0 / 6 < np.mean(purities) < 1.0
    lam = np.linalg.eigvalsh(ch.random_state(5, rng).mat)
    assert abs(lam.sum() - 1.0) < 1e-12


def test_tp_expansion_constraint():
    # Choi of any CPTP map expanded in H^a (x) H^b has x_{a,1} = delta_a1 / d
    rng = np.random.default_rng(13)
    for d in (2, 3):
        basis = hermitian_basis(d)
        choi = ch.random_channel(d, rng)
        norms = [d] + [2.0] * (d * d - 1)
        for a in range(d * d):
            coeff = np.trace(choi.mat @ np.kron(basis[a], basis[0])).real / (
                norms[a] * norms[0]
            )
            want = (1.0 / d) if a == 0 else 0.0
            assert abs(coeff - want) < 1e-10


def test_single_state_converter():
    rng = np.random.default_rng(14)
    for target in (ch.DensityMatrix.maximally_mixed(3), ch.random_state(3, rng)):
        ks = ch.single_state_converter(target)
        assert ks.is_tp()
        for _ in range(20):
            rho = ch.random_state(3, rng)
            assert np.abs(ks.apply(rho).mat - target.mat).max() <= 1e-12
    zero = ch.single_state_converter(ch.DensityMatrix.pure([1.0, 0.0]))
    plus = ch.DensityMatrix.from_bloch([1.0, 0.0, 0.0])
    assert np.abs(zero.apply(plus).mat - np.diag([1.0, 0.0])).max() < 1e-12


def test_density_matrix_validation():
    with pytest.raises(LinalgError):
        ch.DensityMatrix(np.diag([0.8, 0.8]))
    with pytest.raises(LinalgError):
        ch.DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(LinalgError):
        ch.DensityMatrix.from_bloch([1.2, 0, 0])


@pytest.mark.parametrize(
    "d, m",
    [(-2, np.eye(4) / 2), (0, np.zeros((0, 0))), (2, np.diag([np.nan, 0.5, 0.5, 0.5])),
     (2, np.diag([np.inf, 0.5, 0.5, 0.5]))],
    ids=["d-negative", "d0", "nan", "inf"],
)
def test_choi_matrix_validation(d, m):
    # each passed the shape check, then failed or misreported in check_cptp
    with pytest.raises(LinalgError, match="at least 1|non-finite"):
        ch.ChoiMatrix(d, m)


def test_density_matrix_is_read_only():
    # validated once, so it cannot be edited into a non-state
    raw = np.diag([0.25, 0.75]).astype(complex)
    rho = ch.DensityMatrix(raw)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 2.0
    raw[0, 0] = 2.0  # the input is copied, not frozen
    assert rho.mat[0, 0] == 0.25


def _bloch_by_traces(m):
    """Re tr(m sigma_k), one matmul and trace per Pauli matrix: the reference of bloch_of."""
    return np.array([np.trace(m @ p).real for p in PAULI[1:]])


def test_bloch_of_matches_the_trace_form():
    # non-Hermitian matrices too: the entries are read, not assumed symmetric
    rng = np.random.default_rng(41)
    mats = rng.normal(size=(1000, 2, 2)) + 1j * rng.normal(size=(1000, 2, 2))
    want = np.array([_bloch_by_traces(m) for m in mats])
    for m, w in zip(mats, want):
        assert np.array_equal(ch.bloch_of(m), w)
    assert np.array_equal(ch.bloch_of(mats), want)
    assert np.array_equal(ch.bloch_of(mats.reshape(10, 100, 2, 2)), want.reshape(10, 100, 3))
    with pytest.raises(LinalgError):
        ch.bloch_of(np.eye(3))


def _rotation_of(w):
    """SO(3) action of a 2 x 2 unitary: R_pq = tr(sigma_p W sigma_q W^dag) / 2."""
    paulis = hermitian_basis(2)[1:]
    return np.array(
        [[0.5 * np.trace(p @ w @ q @ w.conj().T).real for q in paulis] for p in paulis]
    )


def test_unitary_rotation_correspondence():
    rng = np.random.default_rng(15)
    for _ in range(20):
        u = ch.haar_random_unitary(2, rng)
        rot = _rotation_of(u)
        back = ch.unitary_of_rotation(rot)
        # equal up to global phase
        phase = np.trace(back.conj().T @ u) / 2
        assert np.abs(u - phase * back).max() < 1e-8


def test_from_rotations_rejects_bad_rotations():
    with pytest.raises(LinalgError):
        ch.QubitChannelCanonical(
            np.diag([1.0, 1.0, -1.0]), np.eye(3), np.ones(3), np.zeros(3)
        )
    with pytest.raises(LinalgError):
        ch.QubitChannelCanonical(
            np.eye(3), np.diag([1.0, 1.0, 1.0 + 1e-8]), np.ones(3), np.zeros(3)
        )
    with pytest.raises(LinalgError):
        ch.QubitChannelCanonical(
            np.eye(3), np.full((3, 3), np.nan), np.ones(3), np.zeros(3)
        )
    # non-finite scalings or translations make no channel either
    for bad in (np.nan, np.inf, -np.inf):
        for j in range(6):
            row = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
            row[j] = bad
            with pytest.raises(LinalgError, match="not a channel"):
                ch.QubitChannelCanonical(np.eye(3), np.eye(3), row[:3], row[3:])


@pytest.mark.parametrize("eps", [0.0, 1e-16, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 1.5e-2, 1e-1])
def test_rotation_aligning_nearly_opposite_vectors(eps):
    # 1 + a.b is at or near round-off here; the rotation must stay a proper
    # one that takes a onto b
    rng = np.random.default_rng(23)
    pairs = [(np.array([0.0, 0.0, 1.0]), np.array([0.0, eps, -1.0]))]
    for _ in range(20):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        pairs.append((a, -a + eps * rng.normal(size=3)))
    for a, b in pairs:
        r = ch.rotation_aligning(a, b)
        assert np.isfinite(r).all()
        assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-10 and np.linalg.det(r) > 0
        assert np.abs(r @ a - b / np.linalg.norm(b)).max() <= 1e-9
