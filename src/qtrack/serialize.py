"""JSON wire formats for matrices, states, channels and tracking problems.

Complex matrices travel as ``{"rows": n, "cols": m, "re": [...], "im": [...]}``
with row-major entry order; states as ``{"d": n, "rho": <matrix>}`` or
``{"bloch": [x, y, z]}``; channels as ``{"d": n, "choi": <matrix>}`` or
``{"d": n, "kraus": [<n x n matrix>, ...]}``; canonical qubit channels as
``{"mu": [...], "s": [...], "V": <matrix>, "U": <matrix>}``.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import ChoiMatrix, DensityMatrix, KrausSet, choi_from_kraus
from .distances import WeightedSequence
from .linalg import LinalgError


class FormatError(ValueError):
    """Malformed JSON payloads (wrong shape, missing field, bad value)."""


def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }


def matrix_from_json(obj):
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix payload: {exc}") from exc
    if re.size != rows * cols or im.size != rows * cols:
        raise FormatError(
            f"matrix payload declares {rows}x{cols} but carries {re.size} entries"
        )
    return (re + 1j * im).reshape(rows, cols)


def state_to_json(state: DensityMatrix):
    return {"d": state.d, "rho": matrix_to_json(state.mat)}


def state_from_json(obj):
    if not isinstance(obj, dict):
        raise FormatError("state must be a JSON object")
    if "bloch" in obj:
        try:
            vec = np.asarray(obj["bloch"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad Bloch vector: {exc}") from exc
        if vec.shape != (3,):
            raise FormatError("bloch field must hold three reals")
        try:
            return DensityMatrix.from_bloch(vec)
        except LinalgError as exc:
            raise FormatError(f"invalid Bloch vector: {exc}") from exc
    if "rho" in obj:
        try:
            return DensityMatrix(matrix_from_json(obj["rho"]))
        except LinalgError as exc:
            raise FormatError(f"invalid density matrix: {exc}") from exc
    raise FormatError("state needs a 'rho' or 'bloch' field")


def channel_to_json(choi: ChoiMatrix):
    return {"d": choi.d, "choi": matrix_to_json(choi.mat)}


def canonical_to_json(q):
    """A canonical qubit channel (see :class:`~qtrack.channels.QubitChannelCanonical`)."""
    return {
        "mu": q.mu.tolist(),
        "s": q.s.tolist(),
        "V": matrix_to_json(q.V),
        "U": matrix_to_json(q.U),
    }


def channel_from_json(obj):
    try:
        d = int(obj["d"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError("channel needs an integer 'd' field") from exc
    if d != obj["d"] or isinstance(obj["d"], bool):
        raise FormatError(f"channel 'd' must be an integer, got {obj['d']!r}")
    if "choi" in obj:
        return ChoiMatrix(d, matrix_from_json(obj["choi"]))
    if "kraus" in obj:
        if not isinstance(obj["kraus"], list):
            raise FormatError("channel 'kraus' must be a list of matrices")
        ops = [matrix_from_json(k) for k in obj["kraus"]]
        if any(k.shape != (d, d) for k in ops):
            raise FormatError(f"Kraus operators must be {d} x {d}, as 'd' declares")
        return choi_from_kraus(KrausSet(ops))
    raise FormatError("channel needs a 'choi' or 'kraus' field")


def sequence_from_json(obj):
    """[{'pi': p, ...state...}, ...] -> WeightedSequence."""
    try:
        items = [(float(entry["pi"]), state_from_json(entry)) for entry in obj]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad sequence payload: {exc}") from exc
    try:
        return WeightedSequence(items)
    except LinalgError as exc:
        raise FormatError(str(exc)) from exc


def sequence_to_json(seq: WeightedSequence):
    return [
        {"pi": float(p), **state_to_json(s)} for p, s in zip(seq.priorities, seq.states)
    ]


def problem_from_json(obj):
    """{'source': [...], 'target': [...]} -> (source, target) sequences."""
    try:
        src = sequence_from_json(obj["source"])
        tgt = sequence_from_json(obj["target"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"problem needs 'source' and 'target': {exc}") from exc
    return src, tgt


def sdp_problem_to_json(problem):
    """Dump a standard- or inequality-form program for external cross-checking."""
    from .sdp import SdpInequality, SdpStandard

    if isinstance(problem, SdpStandard):
        return {
            "form": "standard",
            "e0": matrix_to_json(problem.e0),
            "constraints": [
                {"e": matrix_to_json(e), "b": float(b)} for e, b in problem.constraints
            ],
        }
    if isinstance(problem, SdpInequality):
        return {
            "form": "inequality",
            "c": problem.c.tolist(),
            "f0": matrix_to_json(problem.f0),
            "fs": [matrix_to_json(f) for f in problem.fs],
        }
    raise FormatError(f"unsupported problem type {type(problem)!r}")


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from exc


def dump_json(obj):
    """``obj`` as the indented, key-sorted JSON text of every qtrack output, without a newline."""
    return json.dumps(obj, indent=2, sort_keys=True)
