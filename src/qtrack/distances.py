"""Distance and closeness measures between density matrices and sequences thereof.

All functions accept either :class:`~qtrack.channels.DensityMatrix` instances
or bare Hermitian arrays, whose trace is not checked; F and the bound report
raise LinalgError on an eigenvalue below -1e-10.  Priorities, here and
in every module, pass :func:`check_priorities`, the one place for their rule.

:func:`check_bounds` and :func:`fidelity_uhlmann` also take ``(..., d, d)``
stacks of pairs; one pair is the stack of one.  Per pair, the bound report
makes three LAPACK calls.  One stacked ``eigh`` of rho and sigma and one SVD
of the core matrix behind F give F, bit for bit as :func:`fidelity_uhlmann`;
F_N comes from the two spectra and the overlap of the eigenbases.  The
spectrum of rho - sigma gives D, O and the rank, bit for bit as
:func:`trace_distance`, :func:`spectral_distance` and :func:`difference_rank`,
and H.  F_N and H match :func:`super_fidelity` and :func:`hs_distance`, which
keep their trace formulas, up to round-off.  A pair of validated states
(:class:`DensityMatrix`) is exactly Hermitian and is not hermitized again;
bare arrays and stacks of them are.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .channels import DensityMatrix
from .linalg import LinalgError, direct_sum, vec

MEASURES = ("F", "FN", "FHS", "Q", "D", "H", "O")
SCHEMES = ("avg1", "avg2")

RANK_RTOL = 1e-10


def _mat(x):
    return x.mat if isinstance(x, DensityMatrix) else np.asarray(x, dtype=complex)


def _pair(rho, sigma):
    r, s = _mat(rho), _mat(sigma)
    if r.shape != s.shape:
        raise LinalgError(f"shape mismatch {r.shape} vs {s.shape}")
    return r, s


def fidelity_uhlmann(rho, sigma):
    """Uhlmann-Jozsa fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared trace norm of sqrt(rho) sqrt(sigma): the singular
    values are the square roots of the eigenvalues of sqrt(rho) sigma
    sqrt(rho), but computing them directly avoids losing half the digits to
    the final square root on rank-deficient products.  With rho = U_r w_r U_r^dag
    and sigma = U_s w_s U_s^dag, the outer unitaries drop out, which leaves
    diag(sqrt w_r) (U_r^dag U_s) diag(sqrt w_s).  Over ``(..., d, d)`` stacks
    it returns an array; one pair gives a float.
    """
    f, _ = _fidelity(*_pair_eigh(rho, sigma)[2:])
    return float(f) if f.ndim == 0 else f


def _pair_eigh(rho, sigma):
    """Arrays r, s of the pair, and their eigenvalues and eigenvectors from one stacked eigh.

    ``w[0]``, ``u[0]`` belong to r and ``w[1]``, ``u[1]`` to s.  A
    :class:`DensityMatrix` is exactly Hermitian already, so a pair of them is
    decomposed as it is; any other pair is replaced by its Hermitian part
    first.  LinalgError on an eigenvalue below -1e-10.
    """
    r, s = _pair(rho, sigma)
    m = np.array([r, s])
    if not m.size:
        raise LinalgError("empty stack of states")
    if not (isinstance(rho, DensityMatrix) and isinstance(sigma, DensityMatrix)):
        m = 0.5 * (m + m.conj().swapaxes(-1, -2))
    w, u = np.linalg.eigh(m)
    if w.min() < -1e-10:
        raise LinalgError(f"state has negative eigenvalue {w.min():.3e}")
    return r, s, w, u


def _fidelity(w, u):
    """Fidelity of the pair ``_pair_eigh`` decomposed, and the overlap U_r^dag U_s.

    Eigenvalues below 1e-14 of the largest are zeroed before the square roots.
    """
    root = np.sqrt(np.where(w < 1e-14 * np.maximum(w.max(-1, keepdims=True), 1e-300), 0.0, w))
    overlap = u[0].conj().swapaxes(-1, -2) @ u[1]
    core = root[0][..., :, None] * overlap * root[1][..., None, :]
    # squared as a product: numpy's scalar power may round otherwise than its array square
    norm = np.linalg.svd(core, compute_uv=False).sum(-1)
    return norm * norm, overlap


def super_fidelity(rho, sigma):
    """tr(rho sigma) + sqrt(1 - tr rho^2) sqrt(1 - tr sigma^2)."""
    r, s = _pair(rho, sigma)
    lin_r = max(1.0 - np.trace(r @ r).real, 0.0)
    lin_s = max(1.0 - np.trace(s @ s).real, 0.0)
    return float(np.trace(r @ s).real + np.sqrt(lin_r) * np.sqrt(lin_s))


def hs_inner(rho, sigma):
    """Hilbert-Schmidt inner product tr(rho sigma)."""
    r, s = _pair(rho, sigma)
    return float(np.trace(r @ s).real)


def _golden_section(f, lo, hi):
    """Golden-section minimizer on [lo, hi] down to a bracket of width 1e-10."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def chernoff_q(rho, sigma):
    """Nonlogarithmic quantum Chernoff bound min_s tr(rho^s sigma^(1-s)).

    Evaluated through the eigendecompositions of both states; the scalar
    minimization over s in [0, 1] uses golden-section search.  Zero
    eigenvalues are floored to keep s -> lambda^s well behaved.
    """
    r, s = _pair(rho, sigma)
    wr, ur = np.linalg.eigh(r)
    ws, us = np.linalg.eigh(s)
    floor = 1e-15
    wr = np.clip(wr, floor, None)
    ws = np.clip(ws, floor, None)
    overlap = np.abs(ur.conj().T @ us) ** 2

    def objective(t):
        return float(wr**t @ overlap @ ws ** (1.0 - t))

    _, val = _golden_section(objective, 0.0, 1.0)
    return min(val, objective(0.0), objective(1.0))


def _difference_spectrum(rho, sigma):
    """Absolute eigenvalues of rho - sigma, which D, O and the difference rank all read."""
    r, s = _pair(rho, sigma)
    return np.abs(np.linalg.eigvalsh(r - s))


def trace_distance(rho, sigma):
    """Half the sum of absolute eigenvalues of rho - sigma."""
    return float(0.5 * _difference_spectrum(rho, sigma).sum())


def hs_distance(rho, sigma):
    """Hilbert-Schmidt (Frobenius) distance, via the Euclidean norm of vec(rho - sigma)."""
    r, s = _pair(rho, sigma)
    return float(np.linalg.norm(vec(r - s)))


def spectral_distance(rho, sigma):
    """Largest absolute eigenvalue of rho - sigma."""
    return float(_difference_spectrum(rho, sigma).max())


_MEASURE_FN = {
    "F": fidelity_uhlmann,
    "FN": super_fidelity,
    "FHS": hs_inner,
    "Q": chernoff_q,
    "D": trace_distance,
    "H": hs_distance,
    "O": spectral_distance,
}


def measure(tag, rho, sigma):
    """Evaluate the measure named by ``tag`` (one of F, FN, FHS, Q, D, H, O)."""
    try:
        return _MEASURE_FN[tag](rho, sigma)
    except KeyError:
        raise LinalgError(f"unknown measure tag {tag!r}") from None


def metric_functional(kind, value):
    """Metric functionals of a closeness value v in [0, 1].

    A = arccos(sqrt(v)) (Bures angle), B = sqrt(2 - 2 sqrt(v)) (Bures
    distance), C = sqrt(1 - v) (sine distance).
    """
    if not -1e-12 <= value <= 1.0 + 1e-12:
        raise LinalgError(f"closeness value {value} outside [0, 1]")
    v = min(max(value, 0.0), 1.0)
    if kind == "A":
        return float(np.arccos(np.sqrt(v)))
    if kind == "B":
        return float(np.sqrt(2.0 - 2.0 * np.sqrt(v)))
    if kind == "C":
        return float(np.sqrt(1.0 - v))
    raise LinalgError(f"unknown functional {kind!r}")


def check_priorities(pis):
    """``pis`` as floats; LinalgError unless they sum to 1 and each lies in (0, 1), or are [1]."""
    pis = np.asarray(pis, dtype=float)
    if not abs(pis.sum() - 1.0) <= 1e-12:  # NaN fails too
        raise LinalgError(f"priorities sum to {pis.sum()}, not 1")
    if pis.size > 1 and not all(0.0 < p < 1.0 for p in pis.tolist()):
        raise LinalgError("priorities must lie in (0, 1)")
    return pis


def check_matching(src, tgt):
    """LinalgError unless two weighted sequences agree in length, dimension and priorities."""
    if len(src) != len(tgt) or src.d != tgt.d:
        raise LinalgError("sequences must match in length and dimension")
    if np.abs(src.priorities - tgt.priorities).max() > 1e-12:
        raise LinalgError("sequences must carry identical priorities")


@dataclass(frozen=True)
class WeightedSequence:
    """Ordered list of (priority, state) with priorities in (0, 1) summing to 1."""

    priorities: np.ndarray
    states: tuple

    def __init__(self, items):
        states = tuple(s if isinstance(s, DensityMatrix) else DensityMatrix(s) for _, s in items)
        if len(states) < 1:
            raise LinalgError("sequence must have at least one element")
        pis = check_priorities([float(p) for p, _ in items])
        d = states[0].d
        if any(s.d != d for s in states):
            raise LinalgError("all states must share one dimension")
        object.__setattr__(self, "priorities", pis)
        object.__setattr__(self, "states", states)

    def __len__(self):
        return len(self.states)

    @property
    def d(self):
        return self.states[0].d

    def direct_sum(self):
        """Block-diagonal density matrix  (+)_i pi_i rho_i  of dimension I*d."""
        return direct_sum([p * s.mat for p, s in zip(self.priorities, self.states)])


def sequence_distance(tag, scheme, src: WeightedSequence, tgt: WeightedSequence):
    """Distance between two weighted sequences under averaging scheme 1 or 2.

    Scheme 1 is the priority-weighted mean of elementwise values; scheme 2
    evaluates the measure once on the direct-sum states.
    """
    check_matching(src, tgt)
    if scheme == "avg1":
        return float(
            sum(
                p * measure(tag, a, b)
                for p, a, b in zip(src.priorities, src.states, tgt.states)
            )
        )
    if scheme == "avg2":
        return measure(tag, src.direct_sum(), tgt.direct_sum())
    raise LinalgError(f"unknown scheme {scheme!r}")


def difference_rank(rho, sigma):
    """Rank of rho - sigma: its singular values above RANK_RTOL times the largest."""
    spectrum = _difference_spectrum(rho, sigma)
    return int((spectrum > RANK_RTOL * spectrum.max()).sum())


def check_bounds(rho, sigma):
    """Slack report for the inequality suite tying D, H, O, F and F_N together.

    Each entry is (value, slack); every slack is expected to be >= -1e-9.
    Three LAPACK calls serve every value.  One stacked eigh of rho and sigma
    and the SVD behind F give F (as :func:`fidelity_uhlmann` does), and the
    eigh gives F_N, from tr rho sigma =
    w_rho . |U_rho^dag U_sigma|^2 . w_sigma and tr rho^2 = sum w_rho^2 (within
    round-off of :func:`super_fidelity`).  The spectrum of rho - sigma gives
    D, O and the rank (as :func:`trace_distance`, :func:`spectral_distance`
    and :func:`difference_rank` do) and H = |spectrum| (within round-off of
    :func:`hs_distance`).

    One pair gives Python floats and an int rank.  Over ``(..., d, d)``
    stacks every entry is an array over the leading axes, computed
    elementwise over the whole stack, and equal to the pairs' own reports.
    """
    r, s, w, u = _pair_eigh(rho, sigma)
    f, overlap = _fidelity(w, u)
    tr_rs = (w[0][..., None, :] @ (np.abs(overlap) ** 2) @ w[1][..., :, None])[..., 0, 0]
    purity = (w * w).sum(-1)
    spectrum = np.abs(np.linalg.eigvalsh(r - s))
    top = spectrum.max(-1)
    values = (f, tr_rs, *purity, 0.5 * spectrum.sum(-1),
              np.sqrt((spectrum * spectrum).sum(-1)), top)
    ranks = (spectrum > RANK_RTOL * top[..., None]).sum(-1)
    if r.ndim == 2:
        return _bound_report(*map(float, values), int(ranks))
    return _bound_report(*values, ranks, sqrt=np.sqrt, floor=np.maximum)


def _bound_report(f, tr_rs, purity_r, purity_s, d, h, o, rank, sqrt=math.sqrt, floor=max):
    """One pair's :func:`check_bounds` report, in Python floats.

    With ``sqrt=np.sqrt`` and ``floor=np.maximum`` the same arithmetic runs
    elementwise over a stack's arrays, and gives every pair's bits.
    """
    fn = tr_rs + sqrt(floor(1.0 - purity_r, 0.0)) * sqrt(floor(1.0 - purity_s, 0.0))
    r = floor(rank, 1)
    return {
        "fuchs_lower": d - (1.0 - sqrt(f)),
        "fuchs_upper": sqrt(floor(1.0 - f, 0.0)) - d,
        "fn_rank_upper": sqrt(r / 2.0) * sqrt(floor(1.0 - fn, 0.0)) - d,
        "fn_lower": d - (1.0 - fn),
        # F_N of orthogonal pure states may come out a round-off below 0
        "fn_sqrt_lower": d - (1.0 - sqrt(floor(fn, 0.0))),
        "chain_O_le_H": h - o,
        "chain_H_le_2D": 2.0 * d - h,
        "chain_2D_le_rootr_H": sqrt(r) * h - 2.0 * d,
        "chain_rootr_H_le_r_O": r * o - sqrt(r) * h,
        "rank": r,
        "values": {"F": f, "FN": fn, "D": d, "H": h, "O": o},
    }


def benchmark_measures(d, repeats, rng):
    """Time per evaluation of F_N, D, F and Q, averaged over random d-dimensional pairs.

    Only the relative ordering is meaningful (F_N cheapest, Q most expensive
    for large d); absolute numbers are hardware noise.  Each measure keeps its
    fastest of three evaluations on each pair, and the measures take turns on
    every pair, so drift in host speed hits them alike and a call that the host
    preempts, or that waits for multithreaded LAPACK to start its workers, is
    dropped.
    """
    from .channels import random_state

    pairs = [(random_state(d, rng), random_state(d, rng)) for _ in range(repeats)]
    tags = ("FN", "D", "F", "Q")
    best = {tag: np.full(repeats, np.inf) for tag in tags}
    for _ in range(3):
        for k, (a, b) in enumerate(pairs):
            for tag in tags:
                start = time.perf_counter()
                _MEASURE_FN[tag](a, b)
                best[tag][k] = min(best[tag][k], time.perf_counter() - start)
    return {tag: float(t.mean()) for tag, t in best.items()}
