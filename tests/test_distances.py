import numpy as np
import pytest

from qtrack import distances as ds
from qtrack.channels import DensityMatrix, haar_random_unitary, random_state
from qtrack.linalg import LinalgError, partial_trace


def ozawa_pair():
    rho = np.zeros((4, 4))
    rho[0, 0] = rho[1, 1] = 0.5
    sig = np.zeros((4, 4))
    sig[2, 2] = sig[3, 3] = 0.5
    return rho, sig


def table_triple():
    rho = np.eye(3) / 3
    sig = np.diag([1.0, 0.0, 0.0])
    tau = np.array(
        [[0.90, 0.04, 0.03], [0.04, 0.05, 0.02], [0.03, 0.02, 0.05]]
    )
    return rho, sig, tau


def test_fidelity_basics():
    rng = np.random.default_rng(0)
    rho = random_state(3, rng)
    assert abs(ds.fidelity_uhlmann(rho, rho) - 1.0) < 1e-12
    zero = DensityMatrix.pure([1.0, 0.0])
    one = DensityMatrix.pure([0.0, 1.0])
    assert ds.fidelity_uhlmann(zero, one) < 1e-14


def test_fidelity_schumacher_consistency():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = random_state(3, rng)
        psi = random_state(3, rng, pure=True)
        assert abs(ds.fidelity_uhlmann(rho, psi) - ds.hs_inner(rho, psi)) < 1e-10


def test_super_fidelity_equals_fidelity_for_qubits():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a, b = random_state(2, rng), random_state(2, rng)
        assert abs(ds.super_fidelity(a, b) - ds.fidelity_uhlmann(a, b)) <= 1e-10


def test_super_fidelity_ozawa_counterexample():
    rho, sig = ozawa_pair()
    assert abs(ds.super_fidelity(rho, sig) - 0.5) < 1e-12
    tr1 = (partial_trace(rho, (2, 2), 1), partial_trace(sig, (2, 2), 1))
    tr2 = (partial_trace(rho, (2, 2), 2), partial_trace(sig, (2, 2), 2))
    assert abs(ds.super_fidelity(*tr1) - 1.0) < 1e-12
    assert abs(ds.super_fidelity(*tr2) - 0.0) < 1e-12


def test_super_fidelity_identity():
    m = np.eye(3) / 3
    assert abs(ds.super_fidelity(m, m) - 1.0) < 1e-14


def test_hs_inner_cases():
    rng = np.random.default_rng(3)
    rho = random_state(4, rng)
    assert abs(ds.hs_inner(rho, np.eye(4) / 4) - 0.25) < 1e-12
    psi = random_state(4, rng, pure=True)
    assert abs(ds.hs_inner(rho, psi) - ds.fidelity_uhlmann(rho, psi)) < 1e-10


def test_fhs_le_f_le_fn():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a, b = random_state(3, rng), random_state(3, rng)
        fhs = ds.hs_inner(a, b)
        f = ds.fidelity_uhlmann(a, b)
        fn = ds.super_fidelity(a, b)
        assert fhs <= f + 1e-10
        assert f <= fn + 1e-10


def test_chernoff_q():
    rng = np.random.default_rng(5)
    rho = random_state(3, rng)
    assert abs(ds.chernoff_q(rho, rho) - 1.0) < 1e-9
    a, b = np.diag([0.9, 0.1]), np.diag([0.1, 0.9])
    s = np.arange(0.0, 1.0 + 1e-9, 1e-6)
    grid = float((0.9**s * 0.1 ** (1 - s) + 0.1**s * 0.9 ** (1 - s)).min())
    assert abs(ds.chernoff_q(a, b) - grid) < 1e-9
    c, d = random_state(3, rng), random_state(3, rng)
    assert abs(ds.chernoff_q(c, d) - ds.chernoff_q(d, c)) < 1e-9


def test_trace_distance():
    rng = np.random.default_rng(6)
    rho = random_state(2, rng)
    assert ds.trace_distance(rho, rho) < 1e-14
    a, b = random_state(2, rng), random_state(2, rng)
    assert abs(ds.trace_distance(a, b) - 0.5 * np.linalg.norm(a.bloch - b.bloch)) < 1e-12
    zero, one = DensityMatrix.pure([1, 0]), DensityMatrix.pure([0, 1])
    assert abs(ds.trace_distance(zero, one) - 1.0) < 1e-14


def test_hs_and_spectral_distances():
    rho, sig = ozawa_pair()
    assert abs(ds.hs_distance(rho, sig) - 1.0) < 1e-12
    assert abs(ds.spectral_distance(rho, sig) - 0.5) < 1e-12
    rng = np.random.default_rng(7)
    a, b = random_state(4, rng), random_state(4, rng)
    assert ds.hs_distance(a, a) == 0.0
    eig_route = np.sqrt((np.linalg.eigvalsh(a.mat - b.mat) ** 2).sum())
    assert abs(ds.hs_distance(a, b) - eig_route) < 1e-12


def test_metric_chain_random():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b = random_state(4, rng), random_state(4, rng)
        rep = ds.check_bounds(a, b)
        for key, val in rep.items():
            if key in ("rank", "values"):
                continue
            assert val >= -1e-9, key


def test_check_bounds_shares_one_spectrum_with_the_public_kernels():
    rng = np.random.default_rng(9)
    for d in range(2, 7):
        a, b = random_state(d, rng), random_state(d, rng)
        for sigma in (b, a):  # a distinct pair, and coincident states (rank 0 -> 1)
            rep = ds.check_bounds(a, sigma)
            assert rep["values"]["D"] == ds.trace_distance(a, sigma)
            assert rep["values"]["O"] == ds.spectral_distance(a, sigma)
            assert rep["rank"] == max(ds.difference_rank(a, sigma), 1)
            assert rep["values"]["F"] == ds.fidelity_uhlmann(a, sigma)
            # from the spectra, not the trace formulas: equal up to round-off.
            # 1e-15 holds on these pairs; the purity of a nearly pure state
            # enters through sqrt(1 - tr rho^2), so F_N can differ by more
            # (up to 1.6e-14 over criterion 6's 5 x 10^4 pairs)
            assert abs(rep["values"]["FN"] - ds.super_fidelity(a, sigma)) <= 1e-15
            assert abs(rep["values"]["H"] - ds.hs_distance(a, sigma)) <= 1e-15


def test_stacked_check_bounds_equals_the_pairs():
    # a scalar and an array path that round differently (numpy's scalar power
    # against its array square) part on about one pair in a thousand, so the
    # stacks are long: Ginibre states, drawn as arrays
    rng = np.random.default_rng(17)
    for d in range(2, 7):
        g = rng.normal(size=(2, 2000, d, d)) + 1j * rng.normal(size=(2, 2000, d, d))
        states = g @ g.conj().swapaxes(-1, -2)
        rho, sigma = states / np.trace(states, axis1=-2, axis2=-1).real[..., None, None]
        sigma[-1] = rho[-1]  # coincident states: rank 0 -> 1
        stacked = ds.check_bounds(rho, sigma)
        assert np.array_equal(ds.fidelity_uhlmann(rho, sigma), stacked["values"]["F"])
        for k in range(len(rho)):
            rep = ds.check_bounds(rho[k], sigma[k])
            assert type(rep["rank"]) is int and rep["rank"] == stacked["rank"][k]
            for key, val in rep.items():
                if key not in ("rank", "values"):
                    assert type(val) is float and np.array_equal(val, stacked[key][k]), key
            for key, val in rep["values"].items():
                assert type(val) is float and np.array_equal(val, stacked["values"][key][k]), key
        grid = ds.check_bounds(rho.reshape(8, 250, d, d), sigma.reshape(8, 250, d, d))
        assert np.array_equal(grid["fn_lower"].reshape(-1), stacked["fn_lower"])
        assert grid["values"]["H"].shape == grid["rank"].shape == (8, 250)


def test_stacked_check_bounds_builds_one_report_equal_to_the_pairs(monkeypatch):
    # the stack's report is one elementwise pass over its arrays, not a dict per
    # pair restacked; every entry, rank and values included, equals (==) the
    # pairs' own reports, coincident and orthogonal pairs among them
    rng = np.random.default_rng(23)
    calls = []
    report = ds._bound_report
    monkeypatch.setattr(ds, "_bound_report", lambda *a, **k: calls.append(1) or report(*a, **k))
    for d in range(2, 7):
        rho = np.array([random_state(d, rng).mat for _ in range(60)])
        sigma = np.array([random_state(d, rng, pure=k % 2 == 0).mat for k in range(60)])
        sigma[0] = rho[0]
        u = haar_random_unitary(d, rng)
        rho[1], sigma[1] = (np.outer(u[:, j], u[:, j].conj()) for j in (0, 1))
        calls.clear()
        stacked = ds.check_bounds(rho, sigma)
        assert len(calls) == 1
        assert np.issubdtype(stacked["rank"].dtype, np.integer)
        for k in range(len(rho)):
            rep = ds.check_bounds(rho[k], sigma[k])
            for key, val in rep.items():
                if key != "values":
                    assert val == stacked[key][k], (d, k, key)
            for key, val in rep["values"].items():
                assert val == stacked["values"][key][k], (d, k, key)


def test_check_bounds_on_orthogonal_pure_states():
    # the spectra carry round-off of either sign, so F_N may fall a hair below 0
    rng = np.random.default_rng(19)
    for d in range(2, 7):
        u = np.array([haar_random_unitary(d, rng) for _ in range(50)])
        rho = u[:, :, 0, None] * u[:, None, :, 0].conj()
        sigma = u[:, :, 1, None] * u[:, None, :, 1].conj()
        stacked = ds.check_bounds(rho, sigma)
        for k in range(len(u)):
            rep = ds.check_bounds(rho[k], sigma[k])
            assert abs(rep["values"]["D"] - 1.0) <= 1e-12 and rep["values"]["F"] <= 1e-14
            assert abs(rep["values"]["FN"]) <= 1e-14
            assert min(v for key, v in rep.items() if key not in ("rank", "values")) >= -1e-9
            assert rep["fn_sqrt_lower"] == stacked["fn_sqrt_lower"][k]


def test_metric_functional_values():
    assert ds.metric_functional("C", 1.0) == 0.0
    with pytest.raises(LinalgError):
        ds.metric_functional("A", 1.5)
    with pytest.raises(LinalgError):
        ds.metric_functional("Z", 0.5)


def test_triangle_violation_table():
    rho, sig, tau = table_triple()
    results = {}
    for kind in "ABC":
        lhs = ds.metric_functional(kind, ds.super_fidelity(rho, sig))
        rhs = ds.metric_functional(kind, ds.super_fidelity(rho, tau)) + ds.metric_functional(
            kind, ds.super_fidelity(tau, sig)
        )
        results[kind] = (lhs, rhs)
    assert abs(results["A"][0] - 0.9553) < 5e-5 and abs(results["A"][1] - 0.9241) < 5e-5
    assert abs(results["B"][0] - 0.9194) < 5e-5 and abs(results["B"][1] - 0.9137) < 5e-5
    assert abs(results["C"][0] - 0.8165) < 5e-5 and abs(results["C"][1] - 0.8828) < 5e-5
    assert results["A"][0] > results["A"][1]  # triangle violated
    assert results["B"][0] > results["B"][1]  # triangle violated
    assert results["C"][0] <= results["C"][1]  # C obeys it


def _random_sequences(rng, i_count, d):
    pis = rng.dirichlet(np.ones(i_count) * 4)
    src = ds.WeightedSequence([(p, random_state(d, rng)) for p in pis])
    tgt = ds.WeightedSequence(
        [(p, s) for p, s in zip(pis, (random_state(d, rng) for _ in pis))]
    )
    return src, tgt


def test_sequence_distance_identical_is_zero():
    rng = np.random.default_rng(9)
    src, _ = _random_sequences(rng, 3, 2)
    for tag in ("D", "H", "O"):
        for scheme in ("avg1", "avg2"):
            assert ds.sequence_distance(tag, scheme, src, src) < 1e-12
    pure = ds.WeightedSequence(
        [(0.5, random_state(2, rng, pure=True)), (0.5, random_state(2, rng, pure=True))]
    )
    assert abs(ds.sequence_distance("F", "avg1", pure, pure) - 1.0) < 1e-12


def test_trace_distance_schemes_agree():
    rng = np.random.default_rng(10)
    for _ in range(20):
        src, tgt = _random_sequences(rng, 3, 3)
        v1 = ds.sequence_distance("D", "avg1", src, tgt)
        v2 = ds.sequence_distance("D", "avg2", src, tgt)
        assert abs(v1 - v2) <= 1e-12


def test_fhs_scheme_proportionality_uniform():
    rng = np.random.default_rng(11)
    i_count = 3
    pis = [1.0 / i_count] * i_count
    src = ds.WeightedSequence([(p, random_state(2, rng)) for p in pis])
    tgt = ds.WeightedSequence([(p, random_state(2, rng)) for p in pis])
    v1 = ds.sequence_distance("FHS", "avg1", src, tgt)
    v2 = ds.sequence_distance("FHS", "avg2", src, tgt)
    assert abs(v1 - i_count * v2) < 1e-12


def test_sequence_validation():
    rng = np.random.default_rng(12)
    a = ds.WeightedSequence([(0.5, random_state(2, rng)), (0.5, random_state(2, rng))])
    b = ds.WeightedSequence(
        [(0.3, random_state(2, rng)), (0.7, random_state(2, rng))]
    )
    with pytest.raises(LinalgError):
        ds.sequence_distance("D", "avg1", a, b)
    with pytest.raises(LinalgError):
        ds.WeightedSequence([(0.4, random_state(2, rng))])


def test_bound_suite_fuchs_and_fn():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b = random_state(4, rng), random_state(4, rng)
        f = ds.fidelity_uhlmann(a, b)
        d = ds.trace_distance(a, b)
        fn = ds.super_fidelity(a, b)
        assert 1.0 - np.sqrt(f) <= d + 1e-9
        assert d <= np.sqrt(1.0 - f) + 1e-9
        assert d >= 1.0 - fn - 1e-9  # proved post-publication
        assert d >= 1.0 - np.sqrt(fn) - 1e-9


def test_fn_upper_bound_saturation_even_rank():
    # isospectral permutation pairs saturate D <= sqrt(r/2) sqrt(1 - FN)
    rng = np.random.default_rng(14)
    for d, lam in ((4, (0.4, 0.1)), (6, (0.3, 0.05))):
        u = haar_random_unitary(d, rng)
        half = d // 2
        spec = np.array([lam[0]] * half + [lam[1]] * half)
        perm = np.concatenate([spec[half:], spec[:half]])
        norm = spec.sum()
        rho = (u * (spec / norm)) @ u.conj().T
        sig = (u * (perm / norm)) @ u.conj().T
        rank = ds.difference_rank(rho, sig)
        assert rank == d and rank % 2 == 0
        lhs = ds.trace_distance(rho, sig)
        rhs = np.sqrt(rank / 2.0) * np.sqrt(1.0 - ds.super_fidelity(rho, sig))
        assert abs(lhs - rhs) <= 1e-10


def test_benchmark_runs():
    rng = np.random.default_rng(15)
    times = ds.benchmark_measures(8, 3, rng)
    assert set(times) == {"FN", "D", "F", "Q"}
    assert all(v > 0 for v in times.values())


def _frozen_check_bounds(rho, sigma):
    """check_bounds as it was when it hermitized every pair and packed one pair's
    values into a (7, 1) array, kept to pin the one-pair path bit for bit."""
    r, s = ds._pair(rho, sigma)
    m = np.array([r, s])
    if not m.size:
        raise LinalgError("empty stack of states")
    w, u = np.linalg.eigh(0.5 * (m + m.conj().swapaxes(-1, -2)))
    if w.min() < -1e-10:
        raise LinalgError(f"state has negative eigenvalue {w.min():.3e}")
    f, overlap = ds._fidelity(w, u)
    tr_rs = (w[0][..., None, :] @ (np.abs(overlap) ** 2) @ w[1][..., :, None])[..., 0, 0]
    purity = (w * w).sum(-1)
    spectrum = np.abs(np.linalg.eigvalsh(r - s))
    top = spectrum.max(-1)
    values = np.array([f, tr_rs, *purity, 0.5 * spectrum.sum(-1),
                       np.sqrt((spectrum * spectrum).sum(-1)), top]).reshape(7, -1)
    ranks = (spectrum > ds.RANK_RTOL * top[..., None]).sum(-1).reshape(-1)
    reports = [ds._bound_report(*row, rank) for row, rank in zip(values.T.tolist(), ranks.tolist())]
    if r.ndim == 2:
        return reports[0]
    lead = r.shape[:-2]
    out = {k: np.array([rep[k] for rep in reports]).reshape(lead)
           for k in reports[0] if k != "values"}
    out["values"] = {k: np.array([rep["values"][k] for rep in reports]).reshape(lead)
                     for k in reports[0]["values"]}
    return out


def _bits(report):
    """A bound report as text that tells every float bit apart (-0.0 included) and every type."""
    def text(v):
        if isinstance(v, np.ndarray):
            return f"{v.dtype}{v.shape}{v.tobytes().hex()}"
        return f"{type(v).__name__}:{v!r}"
    return {k: ({j: text(x) for j, x in v.items()} if k == "values" else text(v))
            for k, v in report.items()}


def test_check_bounds_matches_its_frozen_one_pair_path():
    # DensityMatrix pairs are exactly Hermitian and skip the second
    # hermitization; bare arrays, Hermitian or a round-off off it, keep it
    rng = np.random.default_rng(41)
    for d in range(2, 7):
        for _ in range(40):
            a, b = random_state(d, rng), random_state(d, rng, pure=bool(rng.integers(2)))
            for pair in ((a, b), (a, a), (b, a)):
                assert _bits(ds.check_bounds(*pair)) == _bits(_frozen_check_bounds(*pair))
                assert ds.fidelity_uhlmann(*pair) == _frozen_check_bounds(*pair)["values"]["F"]
            skew = 1e-13 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            for pair in ((a.mat, b.mat), (a.mat + skew, b.mat), (a, b.mat + skew),
                         (np.array(a.mat), b)):
                assert _bits(ds.check_bounds(*pair)) == _bits(_frozen_check_bounds(*pair))
        mats = np.array([random_state(d, rng).mat for _ in range(24)]).reshape(2, 3, 4, d, d)
        mats[0, 1] += 1e-13 * rng.normal(size=(4, d, d))
        assert _bits(ds.check_bounds(*mats)) == _bits(_frozen_check_bounds(*mats))
        assert _bits(ds.check_bounds(mats[0, 0], mats[1, 0])) == _bits(
            _frozen_check_bounds(mats[0, 0], mats[1, 0]))
