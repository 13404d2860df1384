"""JSON wire formats for matrices, states, channels and tracking problems.

Complex matrices travel as ``{"rows": n, "cols": m, "re": [...], "im": [...]}``
with row-major entry order; states as ``{"d": n, "rho": <matrix>}`` or
``{"bloch": [x, y, z]}``; channels as ``{"d": n, "choi": <matrix>}`` or
``{"d": n, "kraus": [<n x n matrix>, ...]}``; canonical qubit channels as
``{"mu": [...], "s": [...], "V": <matrix>, "U": <matrix>}``.  A state's
optional ``"d"`` must match it.  Matrix entries, Bloch components and
priorities must be JSON numbers of magnitude at most ``MAX_MAGNITUDE`` (1e100).
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


# Every number a valid input carries (a state's, Kraus operator's or qubit Choi
# matrix's entry, a Bloch component, a priority) lies within a few units of 0.
# Below this bound no sum of products the checks then take can overflow.
MAX_MAGNITUDE = 1e100


def _is_real(val):
    """True for a JSON number (not a bool) of magnitude at most MAX_MAGNITUDE; NaN fails."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= MAX_MAGNITUDE


def _real(obj, key, what):
    """``obj[key]`` as a float: a JSON number of magnitude at most MAX_MAGNITUDE (1e100)."""
    if not _is_real(obj.get(key)):
        raise FormatError(f"{what} {key!r} must be a number of magnitude at most "
                          f"{MAX_MAGNITUDE:g}, got {obj.get(key)!r}")
    return float(obj[key])


def _reals(obj, key, size, what="matrix"):
    """``obj[key]`` as a float array: a flat list of ``size`` JSON numbers.

    Each must be finite and at most MAX_MAGNITUDE (1e100) in magnitude, and is
    checked before any arithmetic: an integer beyond the float range or 1e308
    is refused here instead of overflowing in a later sum.
    """
    vals = obj.get(key)
    if not (isinstance(vals, list) and len(vals) == size and all(map(_is_real, vals))):
        raise FormatError(f"{what} {key!r} must be a flat list of {size} numbers "
                          f"of magnitude at most {MAX_MAGNITUDE:g}")
    return np.array(vals, dtype=float)


def matrix_from_json(obj):
    rows, cols = _integer(obj, "rows", "matrix"), _integer(obj, "cols", "matrix")
    if rows < 0 or cols < 0:
        raise FormatError(f"matrix payload declares {rows}x{cols}: sizes must be non-negative")
    re, im = _reals(obj, "re", rows * cols), _reals(obj, "im", rows * cols)
    return (re + 1j * im).reshape(rows, cols)


def state_to_json(state: DensityMatrix):
    return {"d": state.d, "rho": matrix_to_json(state.mat)}


def state_from_json(obj):
    """A state from ``{"bloch": [x, y, z]}`` or ``{"rho": <matrix>}``.

    An optional ``"d"`` must be 2 for a Bloch vector and the matrix's size
    for ``rho``.
    """
    if not isinstance(obj, dict):
        raise FormatError("state must be a JSON object")
    if "bloch" in obj:
        what, size, build = "Bloch vector", 2, DensityMatrix.from_bloch
        data = _reals(obj, "bloch", 3, "state")
    elif "rho" in obj:
        what, build = "density matrix", DensityMatrix
        data = matrix_from_json(obj["rho"])
        size = data.shape[0]
    else:
        raise FormatError("state needs a 'rho' or 'bloch' field")
    if "d" in obj and _integer(obj, "d", "state") != size:
        raise FormatError(f"state 'd' is {obj['d']!r}, but its {what} has d = {size}")
    try:
        return build(data)
    except LinalgError as exc:
        raise FormatError(f"invalid {what}: {exc}") from exc


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
    if not (isinstance(obj, list) and all(isinstance(entry, dict) for entry in obj)):
        raise FormatError("a sequence must be a list of state objects")
    items = [(_real(entry, "pi", "sequence entry"), state_from_json(entry)) for entry in obj]
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
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested past the stack
        raise FormatError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from exc


def dump_json(obj):
    """``obj`` as the indented, key-sorted JSON text of every qtrack output, without a newline."""
    return json.dumps(obj, indent=2, sort_keys=True)
