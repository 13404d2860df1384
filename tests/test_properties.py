"""Property suites: metric axioms, concavity, multiplicativity, monotonicity.

Seeded random sampling stands in for exhaustive checks; the acceptance module
re-runs the heavy versions at the full advertised sample counts.
"""

import numpy as np
import pytest

from qtrack import distances as ds
from qtrack.channels import (
    DensityMatrix,
    apply_choi,
    canonical_qubit,
    haar_random_unitary,
    random_channel,
    random_state,
)

ALL_TAGS = ("F", "FN", "FHS", "Q", "D", "H", "O")


def test_unitary_invariance_all_measures():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        for _ in range(10):
            a, b = random_state(d, rng), random_state(d, rng)
            u = haar_random_unitary(d, rng)
            ua = DensityMatrix(u @ a.mat @ u.conj().T)
            ub = DensityMatrix(u @ b.mat @ u.conj().T)
            for tag in ALL_TAGS:
                before = ds.measure(tag, a, b)
                after = ds.measure(tag, ua, ub)
                assert abs(before - after) <= 1e-11, tag


METRICS = {
    "D": lambda a, b: ds.trace_distance(a, b),
    "H": lambda a, b: ds.hs_distance(a, b),
    "O": lambda a, b: ds.spectral_distance(a, b),
    "C[FN]": lambda a, b: ds.metric_functional("C", ds.super_fidelity(a, b)),
    "B[F]": lambda a, b: ds.metric_functional("B", ds.fidelity_uhlmann(a, b)),
    "C[F]": lambda a, b: ds.metric_functional("C", ds.fidelity_uhlmann(a, b)),
}


@pytest.mark.parametrize("name", sorted(METRICS))
def test_metric_axioms(name):
    metric = METRICS[name]
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    for d in (2, 3, 4):
        for _ in range(60):
            a, b, c = (random_state(d, rng) for _ in range(3))
            dab = metric(a, b)
            assert dab >= -1e-12
            assert abs(metric(a, a)) < 1e-7
            assert abs(dab - metric(b, a)) < 1e-10
            assert metric(a, c) <= metric(a, b) + metric(b, c) + 1e-9


def test_squared_hs_distance_is_not_a_metric():
    # Explicit counterexample: +x and -x eigenstates with the maximally mixed
    # state between them give H^2 = 2 > 1/2 + 1/2.  (The squared distance is
    # of negative type, which makes H a metric, but not H^2 itself.)
    a = DensityMatrix.from_bloch([1.0, 0.0, 0.0])
    c = DensityMatrix.from_bloch([-1.0, 0.0, 0.0])
    b = DensityMatrix.maximally_mixed(2)
    h2 = lambda x, y: ds.hs_distance(x, y) ** 2
    assert h2(a, c) > h2(a, b) + h2(b, c) + 0.9


def test_sequence_metric_axioms():
    rng = np.random.default_rng(1)
    pis = [0.2, 0.5, 0.3]
    seqs = [
        ds.WeightedSequence([(p, random_state(2, rng)) for p in pis]) for _ in range(3)
    ]
    for tag in ("D", "H", "O"):
        for scheme in ("avg1", "avg2"):
            ab = ds.sequence_distance(tag, scheme, seqs[0], seqs[1])
            bc = ds.sequence_distance(tag, scheme, seqs[1], seqs[2])
            ac = ds.sequence_distance(tag, scheme, seqs[0], seqs[2])
            assert ab >= 0 and ac <= ab + bc + 1e-10
            assert ds.sequence_distance(tag, scheme, seqs[0], seqs[0]) < 1e-12


def test_fn_joint_concavity():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        r1, r2, s1, s2 = (random_state(d, rng) for _ in range(4))
        p = float(rng.uniform())
        mix_r = DensityMatrix(p * r1.mat + (1 - p) * r2.mat)
        mix_s = DensityMatrix(p * s1.mat + (1 - p) * s2.mat)
        lhs = ds.super_fidelity(mix_r, mix_s)
        rhs = p * ds.super_fidelity(r1, s1) + (1 - p) * ds.super_fidelity(r2, s2)
        assert lhs >= rhs - 1e-10


def test_fn_super_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r1, s1 = random_state(2, rng), random_state(2, rng)
        r2, s2 = random_state(3, rng), random_state(3, rng)
        big = ds.super_fidelity(np.kron(r1.mat, r2.mat), np.kron(s1.mat, s2.mat))
        small = ds.super_fidelity(r1, s1) * ds.super_fidelity(r2, s2)
        assert big >= small - 1e-10


def test_f_multiplicative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        r1, s1 = random_state(2, rng), random_state(2, rng)
        r2, s2 = random_state(2, rng), random_state(2, rng)
        big = ds.fidelity_uhlmann(np.kron(r1.mat, r2.mat), np.kron(s1.mat, s2.mat))
        small = ds.fidelity_uhlmann(r1, s1) * ds.fidelity_uhlmann(r2, s2)
        assert abs(big - small) <= 1e-10


def test_d_and_f_monotone_under_cptp():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        a, b = random_state(d, rng), random_state(d, rng)
        chan = random_channel(d, rng)
        fa, fb = apply_choi(chan, a), apply_choi(chan, b)
        assert ds.trace_distance(fa, fb) <= ds.trace_distance(a, b) + 1e-10
        assert ds.fidelity_uhlmann(fa, fb) >= ds.fidelity_uhlmann(a, b) - 1e-9


def test_h_o_monotone_under_unital_qubit_cptp():
    rng = np.random.default_rng(6)
    count = 0
    while count < 50:
        chan = random_channel(2, rng)
        # symmetrize into a unital channel: average with its Bloch-inverse
        q = canonical_qubit(chan)
        if np.abs(q.s).max() > 1e-12:
            from qtrack.channels import QubitChannelCanonical, assemble_qubit_choi

            chan = assemble_qubit_choi(
                QubitChannelCanonical(q.rv, q.ru, q.mu, np.zeros(3))
            )
        a, b = random_state(2, rng), random_state(2, rng)
        fa, fb = apply_choi(chan, a), apply_choi(chan, b)
        assert ds.hs_distance(fa, fb) <= ds.hs_distance(a, b) + 1e-10
        assert ds.spectral_distance(fa, fb) <= ds.spectral_distance(a, b) + 1e-10
        count += 1


def test_fn_pinching_exploratory():
    # Numerically supported only: projective measurements (outcomes dropped)
    # should not decrease F_N.
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        a, b = random_state(d, rng), random_state(d, rng)
        u = haar_random_unitary(d, rng)
        projs = [np.outer(u[:, k], u[:, k].conj()) for k in range(d)]
        pa = sum(p @ a.mat @ p for p in projs)
        pb = sum(p @ b.mat @ p for p in projs)
        assert ds.super_fidelity(pa, pb) >= ds.super_fidelity(a, b) - 1e-9
