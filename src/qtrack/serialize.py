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


def _integer(obj, key, what):
    """``obj[key]`` as an int, which it must equal: 2.7, "2" and true are refused."""
    try:
        val = int(obj[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{what} needs an integer {key!r} field") from exc
    if val != obj[key] or isinstance(obj[key], bool):
        raise FormatError(f"{what} {key!r} must be an integer, got {obj[key]!r}")
    return val


def _reals(obj, key, size):
    """``obj[key]`` as a float array: it must be a flat list of ``size`` reals."""
    vals = obj.get(key)
    if not (isinstance(vals, list) and len(vals) == size
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals)):
        raise FormatError(f"matrix {key!r} must be a flat list of {size} reals")
    try:
        return np.array(vals, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise FormatError(f"matrix {key!r}: {exc}") from exc


def matrix_from_json(obj):
    rows, cols = _integer(obj, "rows", "matrix"), _integer(obj, "cols", "matrix")
    if rows < 0 or cols < 0:
        raise FormatError(f"matrix payload declares {rows}x{cols}: sizes must be non-negative")
    re, im = _reals(obj, "re", rows * cols), _reals(obj, "im", rows * cols)
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
    d = _integer(obj, "d", "channel")
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
    """Dump an inequality-form program for external cross-checking."""
    from .sdp import SdpInequality

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
