"""Dense semidefinite programming: problem forms, duality, and an interior-point solver.

Problem forms follow the conventions used across the package:

* standard form      maximize -tr(E0 Z)  s.t.  Z >= 0,  tr(E_i Z) = b_i
* inequality form    minimize c^T x      s.t.  F0 + sum_j x_j F_j >= 0

The two are Lagrange duals of each other under ``c = -b, F0 = E0, F_j = -E_j``,
and weak duality reads p <= d for every feasible pair.

The solver is a primal-dual path-following method with Nesterov-Todd scaling
and Mehrotra-style adaptive centering, run directly on complex Hermitian data
(real data is Hermitian data with a zero imaginary part).

On small LMIs numpy's per-call overhead, not arithmetic, sets the cost of a
pass, so each stage of a pass is one stacked call over small matrices, in the
manner of SDPT3's block layout: X and S are decomposed by one ``eigh``; the
affine direction, then the two (or three) centering candidates, are each
solved as one stack, with one ``np.linalg.solve`` of the Schur complement
M + ridge I (its Cholesky factorization serves only as the test that M is
positive definite); and each stage's primal and dual step-length tests share
one ``eigvalsh``.  Per matrix the arithmetic is that of one call each, so the
iterates are the same bit for bit.  ``SdpSolution.iterations`` is the index of
the accepted iterate and ``SdpSolution.passes`` the number of loop passes,
each one Newton step.
The first iterate that meets the gap and feasibility tolerances is accepted;
it is returned 15 passes later unless an iterate that also meets the
complementarity tolerance comes first, so ``passes <= iterations + 15``.

Before the loop, ``solve`` drops the LMI's constant rows: those that no A_i
touches and that C does not couple, directly or through other rows, to a
touched row.  C is block diagonal between the two sets, so X = 0 on the
constant block is optimal once C is PSD there, which one ``eigvalsh`` checks;
a negative eigenvalue ends the solve at once, ``unbounded`` for the standard
form and ``infeasible`` for the inequality form.  The loop runs on the rest,
and X (and every traced iterate) comes back at full size, zero on the dropped
rows and columns; there the traced dual slack is C's constant block.  A
program without constant rows takes the same path with nothing dropped.

``verify_certificate`` checks a solution of either form on the same (C, A_i, b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import LinalgError, hermitize


class SolverError(RuntimeError):
    """Numerical breakdown inside the interior-point iteration."""


@dataclass(frozen=True)
class SdpStandard:
    """maximize -tr(E0 Z) subject to Z >= 0 and tr(E_i Z) = b_i."""

    e0: np.ndarray
    constraints: tuple  # of (E_i, b_i)

    def __init__(self, e0, constraints):
        e0 = hermitize(np.asarray(e0, dtype=complex), atol=1e-9)
        es, bs = [], []
        for e, b in constraints:
            es.append(np.asarray(e, dtype=complex))
            bs.append(float(b))
        n = e0.shape[0]
        if any(e.shape != (n, n) for e in es):
            raise LinalgError("constraint matrices must match the objective dimension")
        es = hermitize(np.array(es, dtype=complex).reshape(-1, n, n), atol=1e-9)
        object.__setattr__(self, "e0", e0)
        object.__setattr__(self, "constraints", tuple(zip(es, bs)))

    @property
    def dim(self):
        return self.e0.shape[0]


@dataclass(frozen=True)
class SdpInequality:
    """minimize c^T x subject to F0 + sum_j x_j F_j >= 0."""

    c: np.ndarray
    f0: np.ndarray
    fs: tuple

    def __init__(self, c, f0, fs):
        c = np.asarray(c, dtype=float)
        f0 = hermitize(np.asarray(f0, dtype=complex), atol=1e-9)
        fs = [np.asarray(f, dtype=complex) for f in fs]
        if len(fs) != c.size:
            raise LinalgError("need one F_j per entry of c")
        if any(f.shape != f0.shape for f in fs):
            raise LinalgError("constraint matrices must share the dimension of F0")
        fs = hermitize(np.array(fs, dtype=complex).reshape(-1, *f0.shape), atol=1e-9)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "fs", tuple(fs))

    @property
    def dim(self):
        return self.f0.shape[0]

    def slack(self, x):
        """F0 + sum_j x_j F_j at the point x."""
        return self.f0 + sum(xj * fj for xj, fj in zip(np.asarray(x), self.fs))


def dualize(p: SdpStandard) -> SdpInequality:
    """Lagrange dual of the standard form: minimize -b^T nu s.t. E0 - sum nu_i E_i >= 0."""
    b = np.array([bi for _, bi in p.constraints])
    return SdpInequality(-b, p.e0, tuple(-e for e, _ in p.constraints))


# an iterate converges once both scaled residuals are within FEAS_TOL (and the
# gap within gap_tol), and is returned at once if also max|X S| / scale is
# within COMP_TOL; each step goes STEP_FRACTION of the way to the cone boundary
FEAS_TOL = 1e-9
COMP_TOL = 5e-9
STEP_FRACTION = 0.98


@dataclass
class SolverOptions:
    gap_tol: float = 1e-9
    max_iter: int = 200
    trace_iterates: bool = False


@dataclass
class SdpSolution:
    status: str
    primal_value: float
    dual_value: float
    gap: float
    z: np.ndarray
    x: np.ndarray | None
    nu: np.ndarray | None
    iterations: int  # index of the accepted iterate
    passes: int  # loop passes, one Newton step each
    residuals: dict
    iterates: list = field(default_factory=list)


def _flat(h):
    """Real (Re, Im) view of a stack of complex matrices, one row of 2 n^2 per matrix.

    For Hermitian A, ``_flat(A) @ _flat(B) = Re tr(A B)``, so the Hermitian
    inner products of a whole stack are one real matrix-vector product.
    """
    h = np.ascontiguousarray(h, dtype=complex)
    return h.view(float).reshape(*h.shape[:-2], 2 * h.shape[-2] * h.shape[-1])


def _herm(m):
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _max_step(m_ihalf, delta):
    """Largest alpha in (0, 1] with m + alpha * delta PSD, given m_ihalf = m^(-1/2), m near-PD.

    Works on stacks (..., n, n) with one eigensolve for the whole stack; a
    pair of n x n matrices gives a scalar.  -1 / min(lam, -1) is 1 for every
    lam >= -1 and -1 / lam below.
    """
    lam = np.linalg.eigvalsh(_herm(m_ihalf @ delta @ m_ihalf)).min(axis=-1)
    return -1.0 / np.fmin(lam, -1.0)


def _solve_textbook(c_mat, a_stack, b, opts: SolverOptions):
    """min tr(C X) s.t. tr(A_i X) = b_i, X >= 0 over Hermitian X, via NT path following.

    Returns (X, y, S, info).  Infeasible start; residuals are driven to zero
    together with the complementarity gap.
    """
    n = c_mat.shape[0]
    m = len(b)
    a_flat = _flat(a_stack)
    c_flat = _flat(c_mat)
    x = np.eye(n, dtype=complex)
    scale = max(1.0, np.abs(c_mat).max())
    s = scale * np.eye(n, dtype=complex)
    y = np.zeros(m)
    iterates = []
    b_scale = 1.0 + np.linalg.norm(b)
    c_scale = 1.0 + np.abs(c_mat).max()
    eye_m = np.eye(m)

    def a_dot(mat):
        return a_flat @ _flat(mat)

    def a_comb(vec_):
        return (vec_ @ a_flat).view(complex).reshape(n, n)

    def mu_of(x_, s_):
        return float(_flat(x_) @ _flat(s_)) / n  # tr(X S) / n

    info = {"iterations": 0}
    accepted = None
    for it in range(opts.max_iter):
        rp = b - a_dot(x)
        rd = c_mat - s - a_comb(y)
        mu = mu_of(x, s)
        pobj = float(c_flat @ _flat(x))
        dobj = float(b @ y)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        pres = np.linalg.norm(rp) / b_scale
        dres = np.abs(rd).max() / c_scale
        if opts.trace_iterates:
            iterates.append((x.copy(), y.copy(), s.copy()))
        comp = np.abs(x @ s).max() / scale
        converged = gap <= opts.gap_tol and pres <= FEAS_TOL and dres <= FEAS_TOL
        if converged and (comp <= COMP_TOL or mu <= 1e-13 * scale):
            info.update(iterations=it, passes=it, status="optimal", gap=gap, pres=pres, dres=dres)
            return x, y, s, info, iterates
        # gap and feasibility are in: polish complementarity for 15 more
        # passes, converged or not, then return the first converged iterate
        # (the primal refinement step removes the residual misalignment)
        if converged and accepted is None:
            accepted = (x.copy(), y.copy(), s.copy(), it, gap, pres, dres)
        elif accepted is not None and it - accepted[3] >= 15:
            x, y, s, it0, gap, pres, dres = accepted
            info.update(iterations=it0, passes=it, status="optimal", gap=gap, pres=pres,
                        dres=dres)
            return x, y, s, info, iterates

        # Nesterov-Todd scaling point: W S W = X
        try:
            w, u = np.linalg.eigh(np.stack([x, s]))
            if w[0].min() < -1e-10 * max(w[0].max(), 1.0):
                raise SolverError("primal iterate left the cone")
            w = np.clip(w, 1e-16 * np.maximum(w.max(axis=1), 1.0)[:, None], None)
            root = np.sqrt(w)
            ux, us = u
            x_half = (ux * root[0]) @ ux.conj().T
            # X^(-1/2) and S^(-1/2), for every _max_step of this pass
            ihalf = (u / root[:, None, :]) @ u.conj().swapaxes(-1, -2)
            wt, ut = np.linalg.eigh(_herm(x_half @ s @ x_half))
            if wt.min() < -1e-10 * max(wt.max(), 1.0):
                raise SolverError("dual iterate left the cone")
            wt = np.clip(wt, 1e-16 * max(wt.max(), 1.0), None)
            t_mhalf = (ut / np.sqrt(wt)) @ ut.conj().T  # T^(-1/2)
            w_nt = _herm(x_half @ t_mhalf @ x_half)
            s_inv = (us / w[1]) @ us.conj().T
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise SolverError(f"factorization failed: {exc}") from exc

        # Schur complement M_ij = tr(A_i W A_j W), one real GEMM
        m_mat = a_flat @ _flat(w_nt @ a_stack @ w_nt).T
        ridge = 1e-14 * max(np.trace(m_mat) / max(m, 1), 1.0)
        w_rd_w = w_nt @ rd @ w_nt  # the same for every direction of this iteration
        m_mat = m_mat + ridge * eye_m
        try:
            np.linalg.cholesky(m_mat)  # the test that M is positive definite
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular normal system: {exc}") from exc

        def directions(*specs):
            """Stacks (dx, dy, ds) of the directions for each (sigma mu, corrector or None).

            The products with A and the solve of M dy = rhs keep one
            matrix-vector product and one right-hand side per direction, as
            for a single direction, so the bits match; a GEMM over the stack,
            or one solve with several right-hand sides, may round differently.
            """
            rhs_mat = np.stack(
                [sm * s_inv - x if cr is None else sm * s_inv - x - cr for sm, cr in specs]
            )
            rhs = rp - np.matmul(a_flat, _flat(rhs_mat - w_rd_w)[..., None])[..., 0]
            dy = np.linalg.solve(m_mat, rhs[..., None])[..., 0]
            ds = rd - np.matmul(dy[:, None], a_flat).view(complex).reshape(-1, n, n)
            dx = rhs_mat - w_nt @ ds @ w_nt
            return _herm(dx), dy, _herm(ds)

        dx_a, _, ds_a = directions((0.0, None))
        ap, ad = _max_step(ihalf, np.concatenate([dx_a, ds_a]))
        mu_aff = mu_of(x + ap * dx_a[0], s + ad * ds_a[0])
        sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3)
        if max(pres, dres) > max(gap, 1e-15):
            # keep complementarity from racing ahead of feasibility
            sigma = max(sigma, 0.5)
        corr = _herm(dx_a[0] @ ds_a[0] @ s_inv)

        rp_norm, rd_norm = np.linalg.norm(rp), np.linalg.norm(rd)

        def try_steps(*specs):
            dxs, dys, dss = directions(*specs)
            steps = _max_step(ihalf, np.stack([dxs, dss], axis=1))
            out = []
            for (a_p, a_d), dx, dy, ds in zip(np.minimum(STEP_FRACTION * steps, 1.0),
                                              dxs, dys, dss):
                mu_n = mu_of(x + a_p * dx, s + a_d * ds)
                merit = mu_n + 0.1 * ((1 - a_p) * rp_norm + (1 - a_d) * rd_norm)
                out.append((merit, a_p, a_d, (dx, dy, ds)))
            return out

        candidates = try_steps((sigma * mu, corr), (sigma * mu, None))
        if min(max(c[1], c[2]) for c in candidates) < 0.2:
            candidates += try_steps((0.5 * mu, None))
        _, a_p, a_d, (dx, dy, ds) = min(candidates, key=lambda c: c[0])
        x = _herm(x + a_p * dx)
        y = y + a_d * dy
        s = _herm(s + a_d * ds)

    info["passes"] = opts.max_iter
    if accepted is not None:
        x, y, s, it0, gap, pres, dres = accepted
        info.update(iterations=it0, status="optimal", gap=gap, pres=pres, dres=dres)
        return x, y, s, info, iterates
    info.update(
        iterations=opts.max_iter,
        status="max_iter",
        gap=gap,
        pres=pres,
        dres=dres,
    )
    return x, y, s, info, iterates


def _refine_primal(x, y, a_stack, b, c_mat):
    """Project the converged primal onto the face annihilated by the dual slack.

    Interior-point iterates satisfy ||X S|| ~ sqrt(mu); restricting X to the
    numerical null space of the slack and re-solving the equality constraints
    by least squares restores complementarity to round-off level.  The input
    is returned unchanged whenever the projection would damage feasibility:
    its equality residual must not exceed the input's beyond round-off, and it
    must stay PSD.
    """
    n = x.shape[0]
    a_flat = _flat(a_stack)
    w, u = np.linalg.eigh(c_mat - (y @ a_flat).view(complex).reshape(n, n))
    keep = w < 1e-6 * max(w.max(), 1.0)
    r = int(keep.sum())
    if r == 0 or r == n:
        return x
    nbasis = u[:, keep]
    g = _flat(nbasis.conj().T @ a_stack @ nbasis)
    w0 = nbasis.conj().T @ x @ nbasis
    try:
        dw, *_ = np.linalg.lstsq(g, b - g @ _flat(w0), rcond=None)
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        return x
    w_new = w0 + _herm(dw.view(complex).reshape(r, r))
    x_new = nbasis @ w_new @ nbasis.conj().T
    feas_old = np.abs(b - a_flat @ _flat(x)).max(initial=0.0)
    feas_new = np.abs(b - a_flat @ _flat(x_new)).max(initial=0.0)
    round_off = 1e-13 * (1.0 + np.abs(b).max(initial=0.0))
    if feas_new > max(feas_old, round_off) or np.linalg.eigvalsh(w_new).min() < -1e-9:
        return x
    return x_new


def _prepare(problem):
    """Map either public form onto the textbook problem (C, stack of A_i, b)."""
    n = problem.dim
    if isinstance(problem, SdpStandard):
        a_stack = np.array([e for e, _ in problem.constraints], dtype=complex)
        b = np.array([bi for _, bi in problem.constraints], dtype=float)
        return problem.e0, a_stack.reshape(-1, n, n), b
    if isinstance(problem, SdpInequality):
        a_stack = -np.array(problem.fs, dtype=complex)
        return problem.f0, a_stack.reshape(-1, n, n), -problem.c
    raise LinalgError(f"unsupported problem type {type(problem)!r}")


def _constant_rows(c_mat, a_stack):
    """Mask of the rows that no A_i touches and that C does not couple to a touched row.

    The touched rows grow along C's off-diagonal pattern until they stop
    changing; C is block diagonal between the two sets, and the LMI holds X
    on the constant rows only to X >= 0.
    """
    coupled = c_mat != 0
    live = (a_stack != 0).any(axis=(0, 1))  # the columns of Hermitian A_i are its rows
    while True:
        grown = live | coupled[:, live].any(axis=1)
        if np.array_equal(grown, live):
            return ~live
        live = grown


def _embed(base, rows, block):
    """``base`` with its ``rows`` block (an ``np.ix_`` pair) replaced by ``block``."""
    out = base.copy()
    out[rows] = block
    return out


def _solve_live(c_mat, a_stack, b, opts, standard):
    """Solve with the constant rows dropped: X = 0 on them is optimal once C is PSD there.

    Returns (X, y, info, iterates) at full size; a program without constant
    rows takes the same path with nothing dropped.
    """
    dropped = _constant_rows(c_mat, a_stack)
    n, m = c_mat.shape[0], len(b)
    zero = np.zeros((n, n), dtype=complex)
    const = c_mat[np.ix_(dropped, dropped)]
    if dropped.any() and np.linalg.eigvalsh(const).min() < -1e-12 * max(1.0, np.abs(const).max()):
        # X = t v v^dag along a negative direction of C's constant block sends
        # tr(C X) to -infinity, and no y makes the slack PSD there
        status = "unbounded" if standard else "infeasible"
        return zero, np.zeros(m), dict(status=status, iterations=0, passes=0, pres=np.nan,
                                       dres=np.nan), []
    if dropped.all():
        # no variable reaches the LMI: X = 0, y = 0 leave only tr(A_i X) = b_i
        pres = np.linalg.norm(b) / (1.0 + np.linalg.norm(b))
        status = "optimal" if pres <= FEAS_TOL else "infeasible" if standard else "unbounded"
        return zero, np.zeros(m), dict(status=status, iterations=0, passes=0, pres=pres,
                                       dres=0.0), []
    live = np.ix_(~dropped, ~dropped)
    c_loop, a_loop = c_mat[live], a_stack[:, live[0], live[1]]
    x, y, _, info, iterates = _solve_textbook(c_loop, a_loop, b, opts)
    if info["status"] == "optimal":
        x = _refine_primal(x, y, a_loop, b, c_loop)
    # the dual slack C - sum_i y_i A_i is C itself on the dropped rows
    iterates = [(_embed(zero, live, x_), y_, _embed(c_mat, live, s_)) for x_, y_, s_ in iterates]
    return _embed(zero, live, x), y, info, iterates


def solve(problem, opts: SolverOptions | None = None) -> SdpSolution:
    """Solve a standard- or inequality-form SDP; see the module docstring for signs."""
    opts = opts or SolverOptions()
    c_mat, a_stack, b = _prepare(problem)
    standard = isinstance(problem, SdpStandard)
    x, y, info, iterates = _solve_live(c_mat, a_stack, b, opts, standard)
    # -tr(C X) and -b^T y are the standard form's primal and dual values, and
    # the other way round for the inequality form
    x_value = -float(np.trace(c_mat @ x).real)
    y_value = -float(b @ y)
    return SdpSolution(
        status=info["status"],
        primal_value=x_value if standard else y_value,
        dual_value=y_value if standard else x_value,
        gap=y_value - x_value,
        z=x,
        x=None if standard else y,
        nu=y if standard else None,
        iterations=info["iterations"],
        passes=info["passes"],
        residuals={"primal": info["pres"], "dual": info["dres"]},
        iterates=iterates,
    )


def verify_certificate(z, nu, problem, tol=1e-8):
    """Check a candidate optimal pair for either form, on ``_prepare``'s (C, A_i, b).

    ``z`` is the matrix variable and ``nu`` the multiplier vector: ``sol.nu``
    for the standard form and ``sol.x`` for the inequality form, whose dual
    slack F0 + sum x_j F_j is C - sum nu_i A_i.  The entries are named for the
    standard form (the inequality form's dual): (i) the equality residuals
    tr(A_i Z) - b_i, (ii) PSD-ness of Z and of the dual slack, (iii) the
    duality gap between -b^T nu and -tr(C Z), and (iv) complementary
    slackness ||(C - sum nu_i A_i) Z||.
    """
    c_mat, a_stack, b = _prepare(problem)
    n = c_mat.shape[0]
    z = np.asarray(z, dtype=complex)
    nu = np.asarray(nu, dtype=float)
    a_flat = _flat(a_stack)
    slack = c_mat - (nu @ a_flat).view(complex).reshape(n, n)
    pres = np.abs(a_flat @ _flat(z) - b).max(initial=0.0)
    z_min = float(np.linalg.eigvalsh(hermitize(z, atol=1e-6)).min())
    s_min = float(np.linalg.eigvalsh(hermitize(slack, atol=1e-6)).min())
    pval = -float(_flat(c_mat) @ _flat(z))
    dval = -float(b @ nu)
    comp = float(np.abs(slack @ z).max())
    scale = max(1.0, float(np.abs(c_mat).max()))
    return {
        "primal_residual": float(pres),
        "primal_min_eig": z_min,
        "dual_slack_min_eig": s_min,
        "primal_value": pval,
        "dual_value": dval,
        "gap": dval - pval,
        "complementary_slackness": comp,
        "pass": bool(
            pres <= tol
            and z_min >= -tol
            and s_min >= -tol
            and abs(dval - pval) <= tol * scale * 10
            and comp <= tol * scale * 10
        ),
    }
