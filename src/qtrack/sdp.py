"""Dense semidefinite programming: one problem form and an interior-point solver.

A program is ``SdpInequality(c, F0, [F_j])``: minimize c^T x s.t. F0 + sum_j
x_j F_j >= 0, with the F_j given as matrices or as one (m, n, n) stack.  Its
Lagrange dual is the standard form, maximize -tr(F0 Z) s.t. tr(F_j Z) = c_j,
Z >= 0, so a standard-form program, maximize -tr(E0 Z) s.t. tr(E_i Z) = b_i,
Z >= 0, is written ``SdpInequality(-b, E0, [-E_i])``.  ``solve`` returns x at
``primal_value`` and Z as ``z`` at ``dual_value`` <= primal_value.
The loop solves the dual as min tr(C X) s.t. tr(A_i X) = b_i, X >= 0.

The solver is a primal-dual path-following method with the HKM search
direction (Helmberg, Rendl, Vanderbei and Wolkowicz; Kojima, Shindoh and Hara;
Monteiro), SDPT3's default, and Mehrotra-style adaptive centering, run
directly on complex Hermitian data (real data is Hermitian data with a zero
imaginary part).  Complementarity is linearized as dX + X dS S^-1 = sigma mu
S^-1 - X - corr and dX made Hermitian, so the Schur complement is M_ij =
Re tr(A_i X A_j S^-1), and no scaling point is formed.

Before the loop, ``solve`` finds the LMI's blocks from the sparsity pattern of
C and the A_i, as Fujisawa, Kojima and Nakata do: rows i and j are linked when
C or some A_i has a nonzero (i, j) entry, and the LMI is the direct sum over
the connected components.  Programs of one shape share that pattern, so the
analysis is cached on it and only the pattern pass runs per solve.  A
component that no A_i touches is constant: X = 0 there is optimal once C is
PSD there, which one ``eigvalsh`` checks; a negative eigenvalue ends the solve
at once as ``infeasible``, since no x makes the slack PSD there.  The other
components are packed first-fit-decreasing into K blocks of B rows, B the
size of the largest, in SDPT3's block layout; a block they do not fill ends
in padding rows, decoupled from everything: C = scale = max(1, max|C|) on
their diagonal, which leaves the loop's scale as it is, and no A_i.  There X
falls towards 0 with mu while S stays at scale, so the padding rows take part
in mu and in the in-loop certificate like any other row.  The packing is kept
when its eigen-work K B^3 is at most half of n^3, n the number of live rows,
else one block holds them all (K = 1): past that bound the padding rows cost
more than the smaller blocks save, and a 9-row and a 4-row component, padded
into (2, 9), ran 2-6% slower than as one block of 13.  C and the A_i are
gathered once into (K, B, B) and (m, K, B, B) stacks, without the K axis when
K = 1; a program whose one block holds every row reaches the loop with its
own arrays.  X, S and every traced iterate come back at full size, the
padding rows dropped, zero off the blocks for X; there the traced dual slack
is C itself.  Tracking programs have no constant rows.  Their components are
the Choi cone (beside its partial transpose under PPT) and the objective's
per-state blocks; the bordered block of H2avg1 and Havg2 holds every
residual, and under PPT the two cones share a padded block beside it.

Every stage of a pass runs on (..., K, B, B) stacks, and every reduction (mu,
traces, norms, maxima, the eigenvalue floors, the step-length minimum) is
taken over all K blocks together, so the loop is the dense algorithm on the
direct sum, and at K = 1, on (..., B, B) stacks, it is the dense loop itself.
On small LMIs numpy's per-call overhead, not arithmetic, sets the cost of a
pass, so each stage is one stacked call over small matrices, and nothing is
allocated twice: X and S live in one (2, K, B, B) buffer that each pass
updates in place, the two directions and the affine step's trial pair have
buffers of their own, and the flat views the traces read are made once per
solve.  An iterate is copied out of the buffer only when it is kept, traced
or accepted.  One ``eigh`` of the pair is the pass's only
eigendecomposition, and it gives X^(-1/2), S^(-1/2) and S^-1.  Each pass
takes one Mehrotra predictor-corrector step: the affine direction (sigma = 0)
gives sigma and the second-order corrector, then one corrected centering
direction is the step, taken as it is.  Each direction is one (2, K, B, B)
pair (dx, ds) with one ``np.linalg.solve`` of the Schur complement M + ridge I
(its Cholesky factorization serves only as the test that M is positive
definite); its primal and dual step-length tests take that pair as it is, in
one ``eigvalsh``.  The Schur build forms X [A_1 ... A_m] and then [X A_1; ...;
X A_m] S^-1 as one product per block each, in buffers allocated once per
solve.  Per matrix the arithmetic is that of one call each, so the iterates
are the same bit for bit.
``SdpSolution.iterations`` is the index of the accepted iterate and
``SdpSolution.passes`` the number of loop passes, each one Newton step.

A step of length alpha_p along a direction with A(dx) = r_p leaves the primal
residual (1 - alpha_p) r_p.  When the next pass finds its residual farther
than ``FEAS_TOL`` (1 + ||b||) from that aim, the ridge has bent dy off
A(dx) = r_p, and both directions of that pass refine dy twice against M
without the ridge: dy += (M + ridge I)^-1 (rhs - M dy).  Other passes solve
once.

An iterate converges once it meets the gap and feasibility tolerances.  The
loop returns the first converged iterate whose certificate passes: X, the
slack S + R_d = C - sum_i y_i A_i, r_p and the gap tr(C X) - b^T y pass
``verify_certificate``'s check on the loop's own blocks, which for a program
without constant rows is the full-size check of the returned pair with the
padding rows added (X -> 0 and the slack at scale there).  The loop takes the
check's eigenvalue floors only once its cheaper conjuncts pass.  A solve
whose converged iterates do not certify returns the first of them 15 passes
later, so ``passes <= iterations + 15``.  The tolerances are module
constants (``GAP_TOL``, ``FEAS_TOL``, ``CERT_TOL``); ``solve``'s one
setting, ``trace_iterates``, keeps every pass's iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import LinalgError, hermitize


class SolverError(RuntimeError):
    """A solver failed on valid input.

    Raised on numerical breakdown inside the interior-point iteration, and by
    :func:`~qtrack.multistep.solve_chain` when no restart converges.
    """


@dataclass(frozen=True)
class SdpInequality:
    """minimize c^T x subject to F0 + sum_j x_j F_j >= 0."""

    c: np.ndarray
    f0: np.ndarray
    fs: tuple

    def __init__(self, c, f0, fs):
        """``fs`` is a sequence of matrices or one (m, n, n) stack."""
        c = np.asarray(c, dtype=float)
        f0 = hermitize(np.asarray(f0, dtype=complex), atol=1e-9)
        try:
            fs = np.asarray(fs, dtype=complex)
        except ValueError as exc:  # matrices of different shapes
            raise LinalgError("constraint matrices must share the dimension of F0") from exc
        if fs.size and fs.shape[1:] != f0.shape:
            raise LinalgError("constraint matrices must share the dimension of F0")
        fs = fs.reshape(-1, *f0.shape)
        if len(fs) != c.size:
            raise LinalgError("need one F_j per entry of c")
        fs = hermitize(fs, atol=1e-9)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "fs", tuple(fs))
        object.__setattr__(self, "_stack", fs)  # the F_j as one (m, n, n) stack, for ``_prepare``

    @property
    def dim(self):
        return self.f0.shape[0]

    def slack(self, x):
        """F0 + sum_j x_j F_j at the point x, which has one entry per F_j."""
        x = np.asarray(x)
        if x.shape != self.c.shape:
            raise LinalgError(f"x has {x.size} entries, the program {self.c.size} variables")
        return self.f0 + sum(xj * fj for xj, fj in zip(x, self.fs))


# an iterate converges once both scaled residuals are within FEAS_TOL and the
# relative gap within GAP_TOL, and is returned at once if its certificate also
# passes: residuals and eigenvalues within CERT_TOL, gap and max|slack Z|
# within 10 CERT_TOL scale; each step goes STEP_FRACTION of the way to the
# cone boundary; a solve that accepts no iterate stops after MAX_ITER passes.
# STEP_FRACTION, measured on the 1,536 qubit pool solves (128 pairs x 12
# programs) plus 24 (3,3) and (2,4) programs: 26,358 + 597 passes and 59 + 2
# failed certificates at 0.98, 23,190 + 489 and 21 + 1 at 0.96, 23,039 + 464
# and 9 + 0 at 0.95; at 0.96 the blocked loop's tr(C X) on pool pair 126
# Davg/cptp ends 1.05e-9 from the one-block loop's, at 0.95 2.3e-11
FEAS_TOL = 1e-9
GAP_TOL = 1e-9
STEP_FRACTION = 0.95
MAX_ITER = 200
CERT_TOL = 1e-8


@dataclass
class SdpSolution:
    status: str
    primal_value: float
    dual_value: float
    gap: float
    z: np.ndarray
    x: np.ndarray
    iterations: int  # index of the accepted iterate
    passes: int  # loop passes, one Newton step each
    residuals: dict
    iterates: list = field(default_factory=list)


def _flat(h, axes=2):
    """Real (Re, Im) view of a stack of complex matrices, one row of 2 n^2 per matrix.

    For Hermitian A, ``_flat(A) @ _flat(B) = Re tr(A B)``, so the Hermitian
    inner products of a whole stack are one real matrix-vector product.  With
    ``axes=3`` a row is a whole (K, B, B) stack of diagonal blocks, whose
    inner products are those of the block-diagonal matrices.
    """
    h = np.ascontiguousarray(h, dtype=complex)
    row = 2 * h.shape[-2] * h.shape[-1] * (h.shape[-3] if axes == 3 else 1)
    return h.view(float).reshape(*h.shape[:-axes], row)


def _herm(m, out=None):
    """The Hermitian part 0.5 (m + m^dag) of a stack, written into ``out`` (``m`` itself allowed)."""
    out = np.add(m, m.conj().mT, out=out)
    out *= 0.5
    return out


def _norm(v):
    """||v||_2 of a real vector, as ``np.linalg.norm`` computes it, without that call's overhead."""
    return np.sqrt(v.dot(v))


def _max_step(m_ihalf, delta, axis=-1):
    """Largest alpha in (0, 1] with m + alpha * delta PSD, given m_ihalf = m^(-1/2), m near-PD.

    Works on stacks (..., n, n) with one eigensolve for the whole stack; a
    pair of n x n matrices gives a scalar.  The least eigenvalue is taken
    over ``axis`` of the eigenvalues: for (K, B, B) block stacks the loop
    passes (-2, -1), so it runs over all K blocks of a block-diagonal m and
    delta.  -1 / min(lam, -1) is 1 for every lam >= -1 and -1 / lam below.
    """
    m = m_ihalf @ delta @ m_ihalf
    lam = np.linalg.eigvalsh(_herm(m, out=m)).min(axis=axis)
    return -1.0 / np.fmin(lam, -1.0)


def _solve_textbook(c_mat, a_stack, b, trace_iterates):
    """min tr(C X) s.t. tr(A_i X) = b_i, X >= 0 over block-diagonal Hermitian X, by HKM steps.

    C is the (K, B, B) stack of its diagonal blocks, or its one (B, B) block
    when K = 1, and ``a_stack`` the (m, *C.shape) stack of the A_i's; X and
    S share that layout, and every reduction runs over all K blocks, so this
    is the loop on the dense direct sum, and at K = 1 the dense loop itself.
    Returns (X, y, S, info, iterates) in the block layout; ``iterates``
    holds (X, y, S) of every pass if ``trace_iterates``.  Infeasible start;
    residuals are driven to zero together with the complementarity gap.
    """
    shape, size = c_mat.shape, c_mat.shape[-1]
    n = c_mat.size // size  # K B, the dimension of the direct sum
    axes = c_mat.ndim  # the axes of one matrix: (B, B), or (K, B, B) for K > 1
    spread = (..., *(None,) * axes)  # one value per matrix, over its entries
    lam = tuple(range(1 - axes, 0))  # the axes of one matrix's eigenvalues
    m = len(b)
    a_flat = _flat(a_stack, axes)
    c_flat = _flat(c_mat, axes)
    scale = max(1.0, np.abs(c_mat).max())
    # the pair (X, S) lives in one buffer, updated in place, as do the two
    # directions and the trial pair of the affine step; the flat views that
    # r_p, mu, tr(C X) and mu_aff read are made once
    xs, trial, d_a, d = np.empty((4, 2, *shape), dtype=complex)
    x, s = xs
    xs_flat, trial_flat = _flat(xs, axes), _flat(trial, axes)
    x[...] = np.eye(size)
    s[...] = scale * x
    y = np.zeros(m)
    iterates = []
    b_scale = 1.0 + np.linalg.norm(b)
    c_scale = 1.0 + np.abs(c_mat).max()
    eye_m = np.eye(m)
    # the Schur build per block: X [A_1 ... A_m] is one product, and so is
    # [X A_1; ...; X A_m] S^-1 once the X A_i are copied into rows; its buffers
    # are refilled every pass, and views of them give the X A_i and X A_i S^-1
    a_wide = np.ascontiguousarray(np.moveaxis(a_stack, 0, -2)).reshape(*shape[:-1], m * size)
    xa = np.empty(a_wide.shape, dtype=complex)
    tall, xas = np.empty((2, *shape[:-2], m * size, size), dtype=complex)
    xa_rows = xa.reshape(*shape[:-1], m, size).swapaxes(-3, -2)  # (..., m, B, B)
    tall_rows = tall.reshape(*shape[:-2], m, size, size)
    xas_rows = xas.reshape(*shape[:-2], m, size, size).swapaxes(0, -3)  # (m, ..., B, B)

    def mu_of(pair_flat):
        return float(pair_flat[0] @ pair_flat[1]) / n  # tr(X S) / n

    def result(x, y, s, it0, gap, pres, dres, passes, status="optimal"):
        info = dict(iterations=it0, passes=passes, status=status, gap=gap, pres=pres, dres=dres)
        return x, y, s, info, iterates

    accepted = None
    aim = None  # the primal residual that the last step aimed at, (1 - alpha_p) r_p
    for it in range(MAX_ITER):
        rp = b - a_flat @ xs_flat[0]
        rd = c_mat - s - (y @ a_flat).view(complex).reshape(shape)
        mu = mu_of(xs_flat)
        pobj = float(c_flat @ xs_flat[0])
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pres = _norm(rp) / b_scale
        dres = np.abs(rd).max() / c_scale
        # an iterate is copied out of the buffer only when it is kept
        if trace_iterates:
            iterates.append((x.copy(), y, s.copy()))
        converged = gap <= GAP_TOL and pres <= FEAS_TOL and dres <= FEAS_TOL
        if converged and _certificate(x, s + rd, rp, pobj - dobj, scale, lazy=True)["pass"]:
            return result(x, y, s, it, gap, pres, dres, it)
        # gap and feasibility are in but the certificate is not: run 15 more
        # passes, converged or not, then return the first converged iterate
        if converged and accepted is None:
            accepted = (x.copy(), y, s.copy(), it, gap, pres, dres)
        elif accepted is not None and it - accepted[3] >= 15:
            return result(*accepted, it)

        # the one eigendecomposition of the pass: X^(-1/2) and S^(-1/2), for
        # every _max_step of this pass, and S^-1
        try:
            w, u = np.linalg.eigh(xs)
            top = np.maximum(w.max(axis=lam, keepdims=True), 1.0)
            primal_out, dual_out = w.min(axis=lam) < -1e-10 * top.reshape(2)
            if primal_out:
                raise SolverError("primal iterate left the cone")
            if dual_out:
                raise SolverError("dual iterate left the cone")
            np.maximum(w, 1e-16 * top, out=w)
            u_dag = u.conj().mT
            ihalf = (u / np.sqrt(w)[..., None, :]) @ u_dag
            s_inv = (u[1] / w[1][..., None, :]) @ u_dag[1]
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SolverError(f"factorization failed: {exc}") from exc

        # HKM Schur complement M_ij = Re tr(A_i X A_j S^-1), one real GEMM
        np.matmul(x, a_wide, out=xa)
        np.copyto(tall_rows, xa_rows)
        np.matmul(tall, s_inv, out=xas)
        m_mat = a_flat @ _flat(xas_rows, axes).T
        ridge = 1e-14 * max(np.trace(m_mat) / max(m, 1), 1.0)
        x_rd_s = x @ rd @ s_inv  # the same for every direction of this iteration
        m_ridge = m_mat + ridge * eye_m
        try:
            np.linalg.cholesky(m_ridge)  # the test that M, symmetric to round-off, is PD
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular normal system: {exc}") from exc
        # the last step missed its primal target: the ridge bent dy off A(dx) = r_p
        refine = aim is not None and _norm(rp - aim) > FEAS_TOL * b_scale

        def direction(out, target, corr=None):
            """dy, with (dx, ds) written into ``out``, aimed at sigma mu = ``target``."""
            rhs_mat = target * s_inv - x
            if corr is not None:
                rhs_mat -= corr
            rhs = rp - a_flat @ _flat(rhs_mat - x_rd_s, axes)
            dy = np.linalg.solve(m_ridge, rhs)
            for _ in range(2 if refine else 0):
                # iterative refinement against M without the ridge
                dy = dy + np.linalg.solve(m_ridge, rhs - m_mat @ dy)
            np.subtract(rd, (dy @ a_flat).view(complex).reshape(shape), out=out[1])
            np.subtract(rhs_mat, x @ out[1] @ s_inv, out=out[0])
            _herm(out, out=out)
            return dy

        # Mehrotra's predictor-corrector: the affine direction sets sigma and
        # the corrector, and the corrected centering direction is the step
        direction(d_a, 0.0)
        steps = _max_step(ihalf, d_a, lam)
        np.multiply(steps[spread], d_a, out=trial)
        trial += xs
        mu_aff = mu_of(trial_flat)
        sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3)
        if max(pres, dres) > max(gap, 1e-15):
            # keep complementarity from racing ahead of feasibility
            sigma = max(sigma, 0.5)
        corr = d_a[0] @ d_a[1] @ s_inv
        dy = direction(d, sigma * mu, _herm(corr, out=corr))
        steps = np.minimum(STEP_FRACTION * _max_step(ihalf, d, lam), 1.0)
        a_p, a_d = steps
        aim = (1 - a_p) * rp
        d *= steps[spread]
        xs += d
        _herm(xs, out=xs)
        y = y + a_d * dy

    if accepted is not None:
        return result(*accepted, MAX_ITER)
    return result(x, y, s, MAX_ITER, gap, pres, dres, MAX_ITER, "max_iter")


def _prepare(problem):
    """Map an inequality-form program onto its dual textbook problem (C, stack of A_i, b)."""
    if not isinstance(problem, SdpInequality):
        raise LinalgError(f"unsupported problem type {type(problem)!r}")
    return problem.f0, -problem._stack, -problem.c


def _block_layout(c_mat, a_stack):
    """The LMI's blocks: (mask of the constant rows, (K, B) row indices of the K blocks).

    Rows i and j are linked when C or some A_i has a nonzero (i, j) entry,
    and the LMI is the direct sum over the connected components of these
    links.  A component that no A_i touches is constant, and the LMI holds X
    there only to X >= 0.  The others are packed first-fit-decreasing into K
    blocks of B rows, B the size of the largest, and a block they do not fill
    ends in padding rows, marked -1.  The packing is kept when its
    eigen-work K B^3 is at most half of n^3, n the number of live rows;
    otherwise one block holds them all (K = 1, B = n).  Each block holds its
    rows in ascending order.  Programs of one shape share their pattern, so
    the analysis is cached on it, and the arrays it returns are read-only.
    """
    n = c_mat.shape[0]
    pattern = (_flat(a_stack) != 0).any(axis=0).reshape(n, n, 2)
    touched = pattern[..., 0] | pattern[..., 1]
    return _components(n, (touched | (c_mat != 0)).tobytes(), touched.any(axis=0).tobytes())


@lru_cache(maxsize=128)
def _components(n, linked, touched):
    """``_block_layout`` of the n x n link pattern ``linked`` and the rows some A_i ``touched``."""
    linked = np.frombuffer(linked, dtype=bool).reshape(n, n)
    touched = np.frombuffer(touched, dtype=bool)
    # every row takes the least label among itself and its links, then that
    # row's new label; at the fixed point a component carries its least row
    label = np.arange(n)
    while True:
        least = np.where(linked, label, label[:, None]).min(axis=1)
        if (least == label).all():
            break
        label = least[least]
    live = np.zeros(n, dtype=bool)
    live[label[touched]] = True
    sizes = (np.bincount(label, minlength=n) * live).tolist()  # per live component, at its label
    dropped = ~live[label]
    dropped.flags.writeable = False
    total = sum(sizes)
    if not total:
        return dropped, None
    comps = sorted((r for r in range(n) if sizes[r]), key=lambda r: -sizes[r])  # stable
    size = sizes[comps[0]]
    bins, free = [], []
    for root in comps:
        k = next((k for k, f in enumerate(free) if f >= sizes[root]), len(bins))
        if k == len(bins):
            bins.append([])
            free.append(size)
        bins[k].append(root)
        free[k] -= sizes[root]
    if 2 * len(bins) * size**3 > total**3:
        # the padded blocks would cost more than half the eigen-work of one
        bins, size = [comps], total
    # each block's rows in ascending order, then its padding rows (-1)
    rows = np.full((len(bins), size), -1)
    for k, roots in enumerate(bins):
        members = np.flatnonzero(np.isin(label, roots))
        rows[k, : len(members)] = members
    rows.flags.writeable = False
    return dropped, rows


def _block_index(rows, n):
    """Flat indices, in an n x n matrix, of the (K, B, B) blocks on ``rows``; (B, B) when K = 1."""
    index = rows[:, :, None] * n + rows[:, None, :]
    return index[0] if len(rows) == 1 else index


def _gather(c_mat, a_stack, rows):
    """The loop's C and A_i on ``rows``' blocks: (K, B, B) and (m, K, B, B), or (B, B) and (m, B, B).

    When one block holds every row, ``c_mat`` and ``a_stack`` themselves.
    Any other layout reads C and the A_i bordered by a zero last row and
    column, which the padding rows (-1) index as -1 mod n + 1 = n.  A padding
    row is decoupled: C is scale = max(1, max|C|) on its diagonal, which
    leaves the loop's scale as it is, and every A_i is 0 on it.
    """
    n = c_mat.shape[0]
    if rows.shape == (1, n):
        return c_mat, a_stack
    index = _block_index(rows % (n + 1), n + 1)
    wide = np.zeros((1 + len(a_stack), n + 1, n + 1), dtype=complex)
    wide[0, :n, :n] = c_mat
    wide[1:, :n, :n] = a_stack
    blocks = np.take(wide.reshape(-1, (n + 1) ** 2), index, axis=-1)
    diagonal = blocks[0].reshape(len(rows), -1)[:, :: rows.shape[1] + 1]
    diagonal[rows < 0] = max(1.0, np.abs(blocks[0]).max())
    return blocks[0], blocks[1:]


def _scatter(blocks, rows, base):
    """``base`` with ``blocks`` put back on ``rows`` and their padding rows dropped.

    ``blocks`` itself when it holds every row.
    """
    n = base.shape[-1]
    if rows.shape == (1, n):
        return blocks
    out = np.zeros((n + 1, n + 1), dtype=complex)  # the last row and column take the padding
    out[:n, :n] = base
    out.reshape(-1)[_block_index(rows % (n + 1), n + 1)] = blocks
    return out[:n, :n].copy()


def _solve_live(c_mat, a_stack, b, trace_iterates):
    """Solve on the LMI's blocks, its constant rows dropped: there X = 0 is optimal if C >= 0.

    Returns (X, y, info, iterates) at full size, zero on the dropped rows and
    columns of X; there the traced dual slack is C's constant block.
    """
    dropped, rows = _block_layout(c_mat, a_stack)
    n, m = c_mat.shape[0], len(b)
    zero = np.zeros((n, n), dtype=complex)
    if dropped.any():
        const = c_mat[np.ix_(dropped, dropped)]
        if np.linalg.eigvalsh(const).min() < -1e-12 * max(1.0, np.abs(const).max()):
            # X = t v v^dag along a negative direction of C's constant block sends
            # tr(C X) to -infinity, and no y makes the slack PSD there
            return zero, np.zeros(m), dict(status="infeasible", iterations=0, passes=0,
                                           pres=np.nan, dres=np.nan), []
    if rows is None:
        # no variable reaches the LMI: X = 0, y = 0 leave only tr(A_i X) = b_i
        pres = np.linalg.norm(b) / (1.0 + np.linalg.norm(b))
        status = "optimal" if pres <= FEAS_TOL else "unbounded"
        return zero, np.zeros(m), dict(status=status, iterations=0, passes=0, pres=pres,
                                       dres=0.0), []
    x, y, _, info, iterates = _solve_textbook(*_gather(c_mat, a_stack, rows), b, trace_iterates)
    x = _scatter(x, rows, zero)
    # the dual slack C - sum_i y_i A_i is C itself off the blocks
    iterates = [(_scatter(x_, rows, zero), y_, _scatter(s_, rows, c_mat))
                for x_, y_, s_ in iterates]
    return x, y, info, iterates


def solve(problem, trace_iterates=False) -> SdpSolution:
    """Solve a program and its dual: x at ``primal_value``, the dual's Z as ``z`` at ``dual_value``.

    With ``trace_iterates``, ``SdpSolution.iterates`` holds (X, y, S) of every
    loop pass at full size.
    """
    c_mat, a_stack, b = _prepare(problem)
    x, y, info, iterates = _solve_live(c_mat, a_stack, b, trace_iterates)
    primal = -float(b @ y)  # c^T x, with the program's x the loop's y
    dual = -float(np.trace(c_mat @ x).real)  # -tr(F0 Z), with Z the loop's X
    return SdpSolution(
        status=info["status"],
        primal_value=primal,
        dual_value=dual,
        gap=primal - dual,
        z=x,
        x=y,
        iterations=info["iterations"],
        passes=info["passes"],
        residuals={"primal": info["pres"], "dual": info["dres"]},
        iterates=iterates,
    )


def _certificate(z, slack, rp, gap, scale, lazy=False):
    """``verify_certificate``'s report on Z, the slack, r_p = b - A(Z) and the gap.

    Z and the slack are matrices or (K, B, B) stacks of diagonal blocks; the
    eigenvalue floors and max|slack Z| run over all K blocks.  With ``lazy``
    the floors, the one costly conjunct, are taken only when max|r_p|, the
    gap and max|slack Z| pass, and are nan otherwise: the loop checks its
    converged iterates so, and most of them fail on complementarity alone.
    """
    pres, comp = float(np.abs(rp).max(initial=0.0)), float(np.abs(slack @ z).max())
    bound = CERT_TOL * scale * 10
    ok = pres <= CERT_TOL and abs(gap) <= bound and comp <= bound
    z_min = s_min = np.nan
    if ok or not lazy:
        z_min, s_min = np.linalg.eigvalsh(np.stack((z, slack))).reshape(2, -1).min(axis=1).tolist()
    ok = ok and z_min >= -CERT_TOL and s_min >= -CERT_TOL
    return {"primal_residual": pres, "primal_min_eig": z_min, "dual_slack_min_eig": s_min,
            "gap": gap, "complementary_slackness": comp, "pass": ok}


def verify_certificate(z, x, problem):
    """Check a candidate optimal pair (``sol.z``, ``sol.x``) on ``_prepare``'s (C, A_i, b).

    ``x`` is the program's variable and ``z`` the dual's matrix variable (a
    pair of other sizes raises LinalgError); the slack F0 + sum x_j F_j is
    C - sum x_j A_j.  The values are named as in ``SdpSolution``:
    ``primal_value`` is c^T x and ``dual_value`` -tr(F0 Z).  Checked: (i) the
    equality residuals tr(A_j Z) - b_j of the dual, (ii) PSD-ness of Z and of
    the slack, (iii) the duality gap c^T x + tr(F0 Z), and (iv) complementary
    slackness ||(F0 + sum x_j F_j) Z||.  The loop stops on the same check.
    """
    c_mat, a_stack, b = _prepare(problem)
    n = c_mat.shape[0]
    z, x = np.asarray(z, dtype=complex), np.asarray(x, dtype=float)
    if x.shape != b.shape or z.shape != c_mat.shape:
        raise LinalgError(f"x has {x.size} entries and z shape {z.shape}, the program "
                          f"{b.size} variables and an LMI of shape {c_mat.shape}")
    z = hermitize(z, atol=1e-6)
    a_flat = _flat(a_stack)
    slack = hermitize(c_mat - (x @ a_flat).view(complex).reshape(n, n), atol=1e-6)
    pval = -float(b @ x)  # c^T x
    dval = -float(_flat(c_mat) @ _flat(z))  # -tr(F0 Z)
    scale = max(1.0, float(np.abs(c_mat).max()))
    report = _certificate(z, slack, b - a_flat @ _flat(z), pval - dval, scale)
    return {"primal_value": pval, "dual_value": dval, **report}
