"""The golden corpus: every ``qtrack`` subcommand prints what ``tests/data/golden`` holds.

Strings, keys, ints and bools must match exactly, floats to ``TOL``.  Where
an optimum need not be unique, the corpus pins the value and the objective
that the printed controller achieves, not the controller's entries: for
``solve`` (and its CP/TP/PPT verdicts) and for the ``multistep`` chain.
``bench`` prints timings, so only its header, its measure names and its
comment line's prefix are pinned.  Rewrite the corpus with ``make_golden.py``.
"""

import json
import math

import numpy as np

from make_golden import CASES, GOLDEN, run, write_inputs
from qtrack import multistep, serialize, tracking
from qtrack.channels import QubitChannelCanonical
from qtrack.linalg import PAULI

TOL = 1e-12


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _rotation(payload):
    """The SO(3) action of an SU(2) matrix: R_jk = tr(sigma_j U sigma_k U^dag) / 2."""
    u = serialize.matrix_from_json(payload)
    return np.array([[0.5 * np.trace(sj @ u @ sk @ u.conj().T).real for sk in PAULI[1:]]
                     for sj in PAULI[1:]])


def pinned(name, text, paths):
    """What the corpus pins of one case's stdout."""
    if name == "bench.csv":
        lines = text.splitlines()
        prefix, _, _ = lines[-1].partition(": ")
        return {"header": lines[0], "measures": [line.split(",")[0] for line in lines[1:-1]],
                "comment": prefix}
    if not text.startswith("{"):
        return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]
    out = json.loads(text)
    if name.startswith("solve-"):
        src, tgt = serialize.problem_from_json(serialize.load_json(paths["problem"]))
        tp = tracking.TrackingProblem(src, tgt, out["objective"], out["feasible"])
        choi = serialize.channel_from_json(out["controller"])
        verdicts = {k: v for report in (out["cptp"], out["ppt"] or {})
                    for k, v in report.items() if isinstance(v, bool)}
        return {"objective": out["objective"], "feasible": out["feasible"], "value": out["value"],
                "achieved": tracking.evaluate_objective(choi, tp), "verdicts": verdicts}
    if name == "multistep-chain.json":
        src, tgt = serialize.problem_from_json(serialize.load_json(paths["chain"]))
        noises = [multistep.diagonal_noise(n["lam"], n["t"])
                  for n in serialize.load_json(paths["noise"])]
        task = multistep.ChainTask(list(src.states), list(tgt.states), src.priorities, noises)
        controllers = [QubitChannelCanonical(_rotation(c["V"]), _rotation(c["U"]), c["mu"], c["s"])
                       for c in out["controllers"]]
        return {"fidelity": out["fidelity"], "single_step_fidelity": out["single_step_fidelity"],
                "achieved": task.chain_fidelity(controllers)}
    return out


def mismatches(want, got, where, deltas):
    """Every place where ``got`` leaves ``want``; each float pair's |delta| goes to ``deltas``."""
    if isinstance(want, float) and isinstance(got, float):
        delta = 0.0 if want == got or (math.isnan(want) and math.isnan(got)) else abs(want - got)
        deltas.append(delta)
        return [] if delta <= TOL else [f"{where}: {want!r} != {got!r}"]
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        return [m for k in want for m in mismatches(want[k], got[k], f"{where}.{k}", deltas)]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{where}[{i}]", deltas)]
    if type(want) is type(got) and not isinstance(want, (dict, list)) and want == got:
        return []
    return [f"{where}: {want!r} != {got!r}"]


def test_every_subcommand_prints_the_golden_corpus(tmp_path):
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _ in CASES)
    paths = write_inputs(tmp_path)
    found, deltas = [], []
    for name, argv in CASES:
        code, out, err = run(argv, paths)
        assert (code, err) == (0, ""), name
        want = (GOLDEN / name).read_text()
        found += mismatches(pinned(name, want, paths), pinned(name, out, paths), name, deltas)
    print(f"golden corpus: {len(CASES)} cases, {len(deltas)} floats, largest |delta| = {max(deltas):.3g}")
    assert not found, "\n".join(found)
