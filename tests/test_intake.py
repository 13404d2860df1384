"""Priorities and qubit pairs enter through one intake, and every entry point refuses bad ones."""

import json
import math
import re

import numpy as np
import pytest

from qtrack import analytic, applications, cli, multistep as ms, tracking
from qtrack.channels import DensityMatrix
from qtrack.distances import WeightedSequence
from qtrack.linalg import LinalgError

S1, S2 = (DensityMatrix.from_bloch([0.7, 0.0, z]) for z in (0.7, -0.7))
NOISE = ms.extremal_noise(0.7, 0.46)
# track_pair at pi1 = 1.5 (certificate valid), ChainTask at (1.5, -0.5) and
# purification at pi1 = 2 returned fidelities of 1.480, 1.455 and 1.429
BAD_PAIRS = [(1.5, -0.5), (2.0, -1.0), (0.0, 1.0), (math.nan, math.nan), (0.3, 0.6)]
# each takes a priority pair (a, b); the cli- ones give the argv of a run whose
# state file is "s", and those that take one priority pi1 read a (pi2 = 1 - pi1)
ENTRY_POINTS = {
    "WeightedSequence": lambda a, b: WeightedSequence([(a, S1), (b, S2)]),
    "ChainTask": lambda a, b: ms.ChainTask([S1, S2], [S2, S1], [a, b], [NOISE]),
    "reduce_nto2": lambda a, b: tracking.reduce_nto2([(a, S1)], [(b, S2)], S2, S1),
    "cli-analytic": lambda a, b: ["analytic", "--src", "s", "s", "--tgt", "s", "s",
                                  "--pi", str(a), str(b)],
    "from_states": lambda a, b: analytic.PairGeometry.from_states(S1, S2, S2, S1, a),
    "track_pair": lambda a, b: analytic.track_pair(S1, S2, S2, S1, a),
    "purification": lambda a, b: applications.purification(0.8, 0.3, 0.5, a),
    "clone_fidelity": lambda a, b: applications.clone_fidelity(0.3, a),
    "discriminate": lambda a, b: applications.discriminate(S1, S2, a),
    "cli-clone": lambda a, b: ["clone", "--phi", "0.3", "--pi1", str(a)],
}
TWO_PRIORITIES = ("WeightedSequence", "ChainTask", "reduce_nto2", "cli-analytic")


@pytest.mark.parametrize(
    "name, pair",
    [(name, pair) for name in ENTRY_POINTS for pair in BAD_PAIRS
     if name in TWO_PRIORITIES or math.isnan(pair[0]) or pair[0] + pair[1] == 1.0],
    ids=lambda v: v if isinstance(v, str) else f"{v[0]},{v[1]}",
)
def test_every_entry_point_refuses_bad_priorities(name, pair, tmp_path, capsys):
    why = r"priorities must lie in \(0, 1\)" if sum(pair) == 1.0 else "priorities sum to"
    if name.startswith("cli-"):
        state = tmp_path / "s.json"
        state.write_text(json.dumps({"bloch": [0.7, 0.0, 0.7]}))
        argv = [str(state) if arg == "s" else arg for arg in ENTRY_POINTS[name](*pair)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert re.match("qtrack: invalid input: " + why, err) and err.count("\n") == 1
    else:
        with pytest.raises(LinalgError, match=why):
            ENTRY_POINTS[name](*pair)


def test_chain_task_and_reduce_nto2_check_each_input():
    with pytest.raises(LinalgError, match="unit ball"):
        ms.ChainTask([[0.0, 0.0, 5.0], S2], [S1, S2], [0.5, 0.5], [NOISE])
    # group totals of 0.5 and 0.5 hid a negative weight
    with pytest.raises(LinalgError, match=r"must lie in \(0, 1\)"):
        tracking.reduce_nto2([(0.6, S1), (-0.1, S2)], [(0.5, S2)], S1, S2)


def test_from_states_and_chain_task_read_the_same_pair_data():
    # a bare state source, a Bloch source, a bare unnormalized target and a state target
    sources = (np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]]), [0.1, -0.4, 0.5])
    targets = (np.array([[0.7, 0.3j], [-0.3j, 0.4]]), DensityMatrix.from_bloch([0.2, 0.3, -0.6]))
    g = analytic.PairGeometry.from_states(*sources, *targets, 0.3)
    task = ms.ChainTask(sources, targets, [0.3, 1.0 - 0.3], [NOISE])
    assert np.array_equal(task.r_sources, [g.r1, g.r2])
    assert np.array_equal(task.rb_final, [g.rb1, g.rb2])
    assert task.c_final.tolist() == [g.c1, g.c2] == [0.3 * 1.1, 0.7]


@pytest.mark.parametrize(
    "target, why",
    [(np.array([[1.0, 1j], [0.0, 0.0]]), "not Hermitian"),
     (np.diag([1.5, -0.5]), "positive operator"),
     (-np.eye(2), "positive operator")],
    ids=["non-hermitian", "indefinite-trace-1", "minus-identity"],
)
def test_a_bare_target_must_be_a_positive_operator(target, why):
    # not positive operators: unchecked, each gets a "fidelity" with a valid certificate
    with pytest.raises(LinalgError, match=why):
        analytic.track_pair(S1, S2, target, S1.mat, 0.5)
    # an unnormalized positive target stays legal: its weighted overlap may exceed 1
    assert analytic.track_pair(S1, S2, 3 * np.eye(2), S1.mat, 0.5).fidelity > 1.0


def _frozen_pair_bloch(sources, targets, priorities):
    """pair_bloch as it was when it read each state by its own ``bloch`` call,
    kept to pin the batched read bit for bit."""
    from qtrack.channels import bloch_of
    from qtrack.distances import check_priorities
    from qtrack.linalg import hermitize

    pis = check_priorities(priorities)
    if not len(sources) == len(targets) == pis.size == 2:
        raise LinalgError("a pair needs two sources, two targets and two priorities")
    bloch, trace = np.empty((4, 3)), np.ones(4)
    for k, x in enumerate((*sources, *targets)):
        if isinstance(x, DensityMatrix):
            bloch[k] = x.bloch
        elif np.shape(x) == (3,):
            bloch[k] = x
            if not np.linalg.norm(bloch[k]) <= 1.0 + 1e-10:
                raise LinalgError(f"Bloch vector {bloch[k].tolist()} leaves the unit ball")
        elif k < 2:
            bloch[k] = DensityMatrix(x).bloch
        else:
            m = np.asarray(x, dtype=complex)
            bloch[k], trace[k] = bloch_of(m), np.trace(m).real
            if not (np.isfinite(m).all() and np.linalg.eigvalsh(hermitize(m)).min() >= -1e-10):
                raise LinalgError("a bare target must be a finite positive operator")
    return bloch[:2], pis[:, None] * bloch[2:], pis * trace[2:]


def _outcome(fn, *args):
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in fn(*args)]
    except LinalgError as exc:
        return (type(exc), str(exc))


def test_pair_bloch_matches_its_frozen_path_on_every_input_kind():
    from qtrack.channels import random_state

    rng = np.random.default_rng(43)
    qutrit = random_state(3, rng)
    for _ in range(60):
        state, pure = random_state(2, rng), random_state(2, rng, pure=True)
        vec = rng.normal(size=3)
        vec *= rng.uniform(0.0, 1.0) / np.linalg.norm(vec)
        kinds = [state, pure, state.mat, pure.mat, vec, vec.tolist(),
                 2.5 * state.mat, np.diag([1.5, -0.5]), 3.0 * vec, qutrit, qutrit.mat]
        for _ in range(12):
            pick = rng.integers(len(kinds), size=4)
            sources, targets = [kinds[j] for j in pick[:2]], [kinds[j] for j in pick[2:]]
            pi1 = rng.uniform(0.05, 0.95)
            args = (sources, targets, (pi1, 1.0 - pi1))
            assert _outcome(analytic.pair_bloch, *args) == _outcome(_frozen_pair_bloch, *args)
