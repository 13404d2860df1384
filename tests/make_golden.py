"""Rewrite the golden corpus: what every ``qtrack`` subcommand prints on fixed inputs.

The corpus is ``tests/data/golden``, one file per case holding that run's
stdout verbatim; ``tests/test_golden.py`` runs the same cases and compares
them.  ``bench.csv`` holds wall-clock timings, of which the test pins only
the header, measure names and comment prefix, so an existing one is kept and
written only when it is missing.  Rewrite the corpus only on purpose, and
record the rewrite in CHANGES.md:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from qtrack import cli, tracking
from qtrack.linalg import PAULI

GOLDEN = Path(__file__).parent / "data" / "golden"
BENCH = "bench.csv"  # timings: kept when present

STATES = {
    "a": {"bloch": [0.3, 0.2, 0.1]},
    "b": {"bloch": [0.0, 0.0, 0.9]},
    "t1": {"bloch": [1.0, 0.0, 0.0]},
    "t2": {"bloch": [0.0, 0.0, 1.0]},
}
# a symmetric pair tracked onto itself through one noise: every restart reaches the same
# fidelity to round-off, so which one the chain keeps is a tie
_CHAIN_PAIR = [{"pi": 0.5, "bloch": [np.cos(np.pi / 4), 0.0, z * np.sin(np.pi / 4)]}
               for z in (1.0, -1.0)]
_CHAIN_NOISE = [{"lam": [0.7, 0.46, 0.322], "t": [0, 0, 0.6341009383371073]}]


def _channel_kraus():
    """Amplitude damping after a Pauli channel, then a real rotation: a qubit
    channel with a translation and three distinct singular values."""
    damping = [np.array([[1.0, 0.0], [0.0, np.sqrt(0.7)]]), np.array([[0.0, np.sqrt(0.3)], [0.0, 0.0]])]
    paulis = [np.sqrt(p) * s for p, s in zip((0.65, 0.1, 0.2, 0.05), PAULI)]
    turn = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    ops = [turn @ a @ s for a in damping for s in paulis]
    return {"d": 2, "kraus": [{"rows": 2, "cols": 2, "re": k.real.ravel().tolist(),
                               "im": k.imag.ravel().tolist()} for k in ops]}


def write_inputs(dirpath):
    """Write every input file into ``dirpath``; {name: path}, and "dir": ``dirpath``."""
    payloads = {
        **STATES,
        "problem": {
            "source": [{"pi": 0.5, **STATES["a"]}, {"pi": 0.5, **STATES["b"]}],
            "target": [{"pi": 0.5, **STATES["t1"]}, {"pi": 0.5, **STATES["t2"]}],
        },
        "chan": _channel_kraus(),
        "chain": {"source": _CHAIN_PAIR, "target": _CHAIN_PAIR},
        "noise": _CHAIN_NOISE,
    }
    paths = {"dir": dirpath}
    for name, payload in payloads.items():
        path = Path(dirpath) / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


# (file name, argv); an argv entry that names an input stands for its path
CASES = [
    *((f"distances-{m}.json", ["distances", "--measure", m, "--a", "a", "--b", "b"])
      for m in ("F", "FN", "FHS", "Q", "D", "H", "O")),
    ("distances-D-format-csv.csv", ["distances", "--measure", "D", "--a", "a", "--b", "b",
                                    "--format", "csv"]),
    ("distances-bounds.csv", ["distances", "--a", "a", "--b", "b", "--bounds"]),
    ("scatter-bounds.csv", ["scatter-bounds", "--d", "3", "--n", "5", "--seed", "9"]),
    ("channel.json", ["channel", "--in", "chan"]),
    *((f"solve-{o}-{f}.json", ["solve", "--problem", "problem", "--objective", o, "--feasible", f])
      for o in tracking.OBJECTIVES for f in tracking.FEASIBLE_SETS),
    ("analytic.json", ["analytic", "--src", "a", "b", "--tgt", "t1", "t2", "--pi", "0.3", "0.7"]),
    ("stabilize.json", ["stabilize", "--p", "0.115", "--theta", "0.715"]),
    ("stabilize-format-csv.csv", ["stabilize", "--p", "0.115", "--theta", "0.715",
                                  "--format", "csv"]),
    ("stabilize-grid.csv", ["stabilize", "--grid", "3"]),
    ("discriminate.json", ["discriminate", "--a", "a", "--b", "b", "--p1", "0.3"]),
    ("discriminate-format-csv.csv", ["discriminate", "--a", "a", "--b", "b", "--p1", "0.3",
                                     "--format", "csv"]),
    ("clone.json", ["clone", "--phi", "0.3"]),
    ("clone-format-csv.csv", ["clone", "--phi", "0.3", "--pi1", "0.4", "--format", "csv"]),
    ("au-check.json", ["au-check", "--src", "a", "b", "--tgt", "t1", "t2"]),
    ("au-check-feasible.json", ["au-check", "--src", "t1", "t2", "--tgt", "t1", "t2"]),
    ("multistep-chain.json", ["multistep", "--noise", "noise", "--task", "chain", "--seed", "0"]),
    ("multistep-sweep.csv", ["multistep", "--task", "problem", "--seed", "0", "--sweep", "2"]),
    ("compat.json", ["compat", "--cells", "2x2", "--samples", "2", "--seed", "1"]),
    (BENCH, ["bench", "--d", "4", "--repeats", "2", "--seed", "3"]),
]


def run(argv, paths):
    """One in-process ``qtrack`` run, input names replaced by paths: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([paths.get(arg, arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def main(dirpath):
    paths = write_inputs(dirpath)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN.iterdir():
        if stale.name != BENCH:
            stale.unlink()
    for name, argv in CASES:
        if (GOLDEN / name).exists():
            continue
        code, out, err = run(argv, paths)
        if (code, err) != (0, ""):
            sys.exit(f"{name}: exit {code}: {err.strip()}")
        (GOLDEN / name).write_text(out)
        print(name)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
