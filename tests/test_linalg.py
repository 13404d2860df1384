import numpy as np
import pytest

from qtrack import linalg as la


def _rand_c(rng, n, m=None):
    m = m or n
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_vec_column_stacking():
    m = np.array([[1, 3], [2, 4]])
    assert np.array_equal(la.vec(m), [1, 2, 3, 4])


def test_vec_identity():
    assert np.array_equal(la.vec(np.eye(2)), [1, 0, 0, 1])


def test_mat_inverts_vec():
    assert np.array_equal(la.mat([1, 2, 3, 4], 2), [[1, 3], [2, 4]])
    assert np.array_equal(la.mat([1, 0, 0, 1], 2), np.eye(2))


def test_vec_mat_roundtrip_all_sizes():
    rng = np.random.default_rng(0)
    for d in range(2, 9):
        m = _rand_c(rng, d)
        assert np.array_equal(la.mat(la.vec(m), d), m)


def test_mat_length_mismatch():
    with pytest.raises(la.LinalgError):
        la.mat([1, 2, 3], 2)


def test_vec_of_product_identity():
    rng = np.random.default_rng(1)
    a, b, c = (_rand_c(rng, 3) for _ in range(3))
    lhs = la.vec(a @ b @ c)
    rhs = np.kron(c.T, a) @ la.vec(b)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_perm_d4_defining_identity():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        p = la.perm_d4(d)
        for _ in range(100):
            a, b = _rand_c(rng, d), _rand_c(rng, d)
            err = np.abs(la.vec(np.kron(a, b)) - p @ np.kron(la.vec(a), la.vec(b))).max()
            assert err <= 1e-13


def test_perm_d4_first_block_row_one():
    for d in (2, 3, 4):
        p = la.perm_d4(d)
        assert p[0, 0] == 1.0


def test_perm_d4_block_structure():
    for d in (2, 3):
        p = la.perm_d4(d)
        n = d**3
        blocks = [p[i * n : (i + 1) * n, j * n : (j + 1) * n] for i in range(d) for j in range(d)]
        for k, blk in enumerate(blocks):
            i, j = divmod(k, d)
            if i == j:
                assert np.array_equal(blk, blocks[0])
            else:
                assert not blk.any()


def test_partial_trace_tensor_identity():
    rng = np.random.default_rng(3)
    a, b = _rand_c(rng, 2), _rand_c(rng, 2)
    out = la.partial_trace(np.kron(a, b), (2, 2), 2)
    assert np.abs(out - np.trace(b) * a).max() < 1e-12
    out1 = la.partial_trace(np.kron(a, b), (2, 2), 1)
    assert np.abs(out1 - np.trace(a) * b).max() < 1e-12


def test_partial_trace_ozawa_marginal():
    rho = np.zeros((4, 4))
    rho[0, 0] = rho[1, 1] = 0.5
    assert np.abs(la.partial_trace(rho, (2, 2), 1) - np.eye(2) / 2).max() < 1e-15


def test_partial_trace_of_tp_choi():
    # Choi built from a trace-preserving Kraus set has tr_2 = identity
    rng = np.random.default_rng(4)
    z = _rand_c(rng, 8, 2)
    q, _ = np.linalg.qr(z)
    ops = [q[2 * i : 2 * i + 2, :] for i in range(4)]
    choi = sum(np.outer(la.vec(k), la.vec(k).conj()) for k in ops)
    assert np.abs(la.partial_trace(choi, (2, 2), 2) - np.eye(2)).max() < 1e-12


def test_partial_trace_linearity_and_trace():
    rng = np.random.default_rng(5)
    m1, m2 = _rand_c(rng, 6), _rand_c(rng, 6)
    lhs = la.partial_trace(2.0 * m1 + m2, (2, 3), 2)
    rhs = 2.0 * la.partial_trace(m1, (2, 3), 2) + la.partial_trace(m2, (2, 3), 2)
    assert np.abs(lhs - rhs).max() < 1e-12
    assert abs(np.trace(la.partial_trace(m1, (2, 3), 1)) - np.trace(m1)) < 1e-12


def test_partial_transpose_tensor_identity():
    rng = np.random.default_rng(6)
    a, b = _rand_c(rng, 2), _rand_c(rng, 2)
    assert np.abs(la.partial_transpose(np.kron(a, b)) - np.kron(a, b.T)).max() < 1e-14


def test_partial_transpose_entangled_negative_eigenvalue():
    psi = la.vec(np.eye(2)) / np.sqrt(2)  # maximally entangled
    proj = np.outer(psi, psi.conj())
    w = np.linalg.eigvalsh(la.partial_transpose(proj))
    assert abs(w.min() + 0.5) < 1e-12


def test_partial_transpose_involution():
    rng = np.random.default_rng(7)
    m = _rand_c(rng, 9)
    assert np.abs(la.partial_transpose(la.partial_transpose(m)) - m).max() == 0


def test_hermitian_basis_qubit_is_pauli():
    basis = la.hermitian_basis(2)
    x = np.array([[0, 1], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1, -1])
    for got, want in zip(basis, [np.eye(2), x, y, z]):
        assert np.abs(got - want).max() == 0
    for a in basis[1:]:
        for b in basis[1:]:
            want = 2.0 if a is b else 0.0
            assert abs(np.trace(a @ b).real - want) < 1e-14


def test_hermitian_basis_d3_gell_mann_like():
    basis = la.hermitian_basis(3)
    assert len(basis) == 9
    for i, a in enumerate(basis):
        assert np.abs(a - a.conj().T).max() < 1e-14
        assert abs(np.trace(a) - (3 if i == 0 else 0)) < 1e-14
        for j, b in enumerate(basis):
            want = 0.0 if i != j else (3.0 if i == 0 else 2.0)
            assert abs(np.trace(a @ b).real - want) < 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_hermitian_basis_gram(d):
    basis = la.hermitian_basis(d)
    gram = np.array([[np.trace(a @ b).real for b in basis] for a in basis])
    want = np.diag([d] + [2.0] * (d * d - 1))
    assert np.abs(gram - want).max() < 1e-12


def test_hermitize_checks_tolerance():
    with pytest.raises(la.LinalgError):
        la.hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitize_stack_matches_per_matrix():
    rng = np.random.default_rng(67)
    g = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    stack = g + g.conj().swapaxes(1, 2) + 1e-12 * rng.normal(size=(4, 3, 3))
    got = la.hermitize(stack)
    assert all(np.array_equal(got[k], la.hermitize(stack[k])) for k in range(4))
    assert la.hermitize(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    stack[2, 0, 1] += 1.0
    with pytest.raises(la.LinalgError):
        la.hermitize(stack)


@pytest.mark.parametrize("shape", [(2, 3), (4, 3, 2), (3,), ()])
def test_hermitize_rejects_non_square_shapes(shape):
    with pytest.raises(la.LinalgError, match="square"):
        la.hermitize(np.zeros(shape))
