"""Multi-step tracking for a pair of qubit states.

Controllers are interleaved with known noise channels.  Each controller is
constrained to be the closed-form optimal single-step tracker for its own
(source, virtual target) pair; the sources follow from forward propagation and
the virtual targets from backward (adjoint) propagation, giving a coupled
nonlinear system in the Bloch data.  The solver is a damped fixed-point sweep
with a finite-difference Newton polish every ``NEWTON_AFTER`` sweeps,
restarted from several seeds.  The restarts are iterated together as one
``(restarts, dim)`` array: each sweep computes the controllers of all rows
with the stacked kernel :func:`~qtrack.analytic.optimal_frames`, and a row
stops when it converges.  The self-consistency map reads only a row's step
sources, not its virtual targets, so each Newton step of the rows still
active is one stacked solve and, mostly, one batched sweep: their damped
candidates with the source perturbations of the next step.

Every channel acts through one stacked affine map, :func:`_affine`, and its
adjoint, :func:`_adjoint`, over frame rows: a controller brings one row per
chain row and a noise one row that broadcasts over them, so
:func:`forward_state`, :func:`backward_target` and
:meth:`ChainTask.chain_fidelity` are the batch's one-row case.  The kernel
and the maps compute each row from its own data, so every restart gives the
same bits as when it ran alone.  Each converged restart's fidelity comes from
its frames; only the winner's controllers are built.  A :class:`ChainTask`
reads its pair data from :func:`~qtrack.analytic.pair_bloch`.

:func:`_views` alone knows a row's layout; a sweep writes each step into the
views of one new ``(R, dim)`` array.  The kernel's ``rv``, ``ru`` are
C-ordered ``(R, 3, 3)``; the adjoint keeps its dots k-first, ``(3, R, 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    PairGeometry,
    optimal_canonical,  # noqa: F401  unused here; perfbench's tracer wraps this name
    optimal_fidelity,
    optimal_frames,
    pair_bloch,
)
from .channels import QubitChannelCanonical, check_rsw
from .linalg import LinalgError, stacked_dot
from .sdp import SolverError

# restarts whose chain fidelities differ by no more than this are tied
FIDELITY_TIE = 1e-12
# _seed_chains gives this many start vectors
MAX_RESTARTS = 8
# a restart has converged once its fixed-point residual max|Phi(z) - z| is
# within CHAIN_TOL; each damped sweep moves z DAMPING of the way to Phi(z).
# A restart runs at most MAX_SWEEPS sweeps, and after every NEWTON_AFTER
# sweeps Newton polishes the rows still active, in at most MAX_NEWTON steps
CHAIN_TOL = 1e-10
DAMPING = 0.65
MAX_SWEEPS = 300
NEWTON_AFTER = 20
MAX_NEWTON = 25


def diagonal_noise(lam, t) -> QubitChannelCanonical:
    """Noise scaling Bloch components by ``lam`` then translating by ``t``.

    LinalgError unless ``lam`` and ``t`` are three reals each that make a channel.
    """
    return _channel(QubitChannelCanonical(np.eye(3), np.eye(3), lam, t))


def _channel(noise: QubitChannelCanonical) -> QubitChannelCanonical:
    """``noise`` itself; LinalgError unless its (mu, s) pass ``check_rsw``."""
    mu, s = noise.mu, noise.s
    if not (mu.shape == s.shape == (3,) and check_rsw(mu, s)["feasible"]):  # NaN fails too
        raise LinalgError(f"noise lam={mu.tolist()}, t={s.tolist()} is not a channel")
    return noise


def extremal_noise(lam1, lam2) -> QubitChannelCanonical:
    """Extreme-point non-unital noise: lam3 = lam1 lam2, t3 = sqrt((1-l1^2)(1-l2^2)).

    LinalgError unless both scalings lie in [-1, 1], where this is a channel.
    """
    if not (abs(lam1) <= 1.0 and abs(lam2) <= 1.0):  # NaN fails too
        raise LinalgError(f"extremal noise needs lam1, lam2 in [-1, 1], got {lam1}, {lam2}")
    lam3 = lam1 * lam2
    t3 = np.sqrt(max((1.0 - lam1**2) * (1.0 - lam2**2), 0.0))
    return diagonal_noise([lam1, lam2, lam3], [0.0, 0.0, t3])


def forward_state(r, controller: QubitChannelCanonical, noise: QubitChannelCanonical):
    """Propagate a source Bloch vector through controller then noise: one-row :func:`_push`."""
    r = np.asarray(r, dtype=float)[None, None]
    return _push(_rows([controller]), _rows([noise]), r)[0, 0]


def backward_target(c_next, rb_next, controller_next: QubitChannelCanonical,
                    noise: QubitChannelCanonical):
    """Pull a (scalar, Bloch) virtual target back through noise and next controller.

    The adjoint (Heisenberg) propagation: the one-row :func:`_pull_back`.
    """
    rb_next = np.asarray(rb_next, dtype=float)[None, None]
    c, rb = _pull_back(_rows([controller_next]), _rows([noise]), c_next, rb_next)
    return float(c[0, 0]), rb[0, 0]


@dataclass
class StepChain:
    """A fully specified multi-step plan and its bookkeeping."""

    sources: np.ndarray  # (N, 2, 3) Bloch vectors of the step sources
    targets_c: np.ndarray  # (N, 2) scalar parts of the virtual targets
    targets_rb: np.ndarray  # (N, 2, 3) Bloch parts of the virtual targets
    controllers: list
    fidelity: float
    residual: float
    seed_label: str = ""
    restarts: list = field(default_factory=list)  # one RestartRecord per restart


@dataclass
class RestartRecord:
    """What one restart of :func:`solve_chain` did."""

    label: str  # seed label, as in StepChain.seed_label
    sweeps: int  # damped sweeps run
    newton_ran: bool
    newton_ok: bool
    residual: float  # last fixed-point residual
    fidelity: float | None = None  # chain fidelity; None when dropped
    dropped: str | None = None  # why the restart was discarded; None when kept


class ChainTask:
    """Pair-stabilization data: sources, targets, priorities and the noises.

    The pair data is read by :func:`~qtrack.analytic.pair_bloch`; each noise is
    kept as a one-row frame stack in ``noise_rows``.  LinalgError unless the pair
    data passes there and there are noises, each a channel (``check_rsw``).
    """

    def __init__(self, sources, targets, priorities, noises):
        self.r_sources, self.rb_final, self.c_final = pair_bloch(sources, targets, priorities)
        self.noise_rows = [_rows([_channel(noise)]) for noise in noises]
        if not self.noise_rows:
            raise LinalgError("a chain needs at least one noise")
        self.n_steps = len(self.noise_rows) + 1

    def single_step_fidelity(self):
        """Optimal fidelity when correcting only after all the noise."""
        r = self.r_sources[None]
        for noise in self.noise_rows:
            r = _affine(noise, r)
        g = PairGeometry(r[0, 0], r[0, 1], self.rb_final[0], self.rb_final[1],
                        self.c_final[0], self.c_final[1])
        return optimal_fidelity(g)

    def chain_fidelity(self, controllers):
        """End-to-end priority-weighted overlap of the controlled chain."""
        return float(_chain_fidelities(self, [f[None] for f in _rows(controllers)])[0])


def _rows(channels):
    """The frames (rv, ru, mu, s) of ``channels``, stacked along a leading row axis."""
    return tuple(np.array([getattr(q, name) for q in channels]) for name in ("rv", "ru", "mu", "s"))


def _source_len(task: ChainTask):
    """Length of the block of step sources that opens each :func:`_views` row."""
    return 6 * (task.n_steps - 1)


def _views(task: ChainTask, z):
    """Views of ``(..., dim)`` rows: the step sources first, then each free step's
    target Bloch vectors and scalars, as ``(..., N-1, 2, 3)``, ``(..., N-1, 2, 3)``
    and ``(..., N-1, 2)``.  No other code knows the layout."""
    lead, free, src = z.shape[:-1], task.n_steps - 1, _source_len(task)
    targets = z[..., src:].reshape(*lead, free, 8)
    return (z[..., :src].reshape(*lead, free, 2, 3),
            targets[..., :6].reshape(*lead, free, 2, 3), targets[..., 6:])


def _pack(task: ChainTask, r_steps, c_steps, rb_steps):
    """Free chain data, ``(..., N, 2, 3)`` and ``(..., N, 2)``, as ``(..., dim)`` rows."""
    z = np.empty((*c_steps.shape[:-2], 14 * (task.n_steps - 1)))  # 6 + 8 per free step
    r, rb, c = _views(task, z)
    r[...], rb[...], c[...] = r_steps[..., 1:, :, :], rb_steps[..., :-1, :, :], c_steps[..., :-1, :]
    return z


def _unpack(task: ChainTask, z):
    """Inverse of :func:`_pack`, with the fixed sources and final targets filled in."""
    lead, n_steps = z.shape[:-1], task.n_steps
    r_steps, rb_steps = np.empty((*lead, n_steps, 2, 3)), np.empty((*lead, n_steps, 2, 3))
    c_steps = np.empty((*lead, n_steps, 2))
    r_steps[..., 0, :, :], rb_steps[..., -1, :, :] = task.r_sources, task.rb_final
    c_steps[..., -1, :] = task.c_final
    r_steps[..., 1:, :, :], rb_steps[..., :-1, :, :], c_steps[..., :-1, :] = _views(task, z)
    return r_steps, c_steps, rb_steps


def _frames(r, rb):
    """Optimal controller frames (rv, ru, mu, s) of each row of ``(R, 2, 3)`` pair data.

    Rows without a tracker (degenerate data) get the identity.
    """
    return optimal_frames(r[:, 0], r[:, 1], rb[:, 0], rb[:, 1])[:4]


def _affine(frames, r):
    """R_U(mu * R_V r + s) of both vectors of each ``(R, 2, 3)`` row of ``r``, by its frame row.

    ``frames`` stack ``(R, 3, 3)`` rotations and ``(R, 3)`` scales; one row broadcasts.
    Matrix-vector matmuls: each row rounds as ``ru @ (mu * (rv @ r) + s)``.
    """
    rv, ru, mu, s = frames
    r = np.matmul(rv[:, None], r[..., None])
    return np.matmul(ru[:, None], mu[:, None, :, None] * r + s[:, None, :, None])[..., 0]


def _adjoint(frames, c, rb):
    """Adjoint of :func:`_affine` on each row's two targets, ``(R, 2)`` and ``(R, 2, 3)``.

    With ``d_k = ru[:, k] . rb`` they map to ``c + s . d`` and ``sum_k mu_k d_k rv[k]``,
    so ``c' + rb' . r = c + rb . _affine(r)``.  BLAS dots, kept k-first as ``(3, R, 2)``,
    and 3-term sums from Python's ``sum`` start, 0.
    """
    rv, ru, mu, s = frames
    dots = np.matmul(ru.transpose(2, 0, 1)[:, :, None, None], rb[..., None])[..., 0, 0]
    c = c + np.matmul(s[:, None, None], dots.transpose(1, 2, 0)[..., None])[..., 0, 0]
    terms = (mu.T[:, :, None] * dots)[..., None] * rv.transpose(1, 0, 2)[:, :, None]
    return c, 0.0 + terms[0] + terms[1] + terms[2]


def _push(frames, noise, r):
    """Both sources ``(R, 2, 3)`` of each row through its controller ``frames``, then ``noise``."""
    return _affine(noise, _affine(frames, r))


def _pull_back(frames, noise, c, rb):
    """Both targets of each row through the adjoint of its controller ``frames``, then ``noise``."""
    return _adjoint(noise, *_adjoint(frames, c, rb))


def _sweep(task: ChainTask, z):
    """One backward plus forward pass of the self-consistency map on each row of ``z``."""
    rows, z_new = len(z), np.empty_like(z)
    (r_old, _, _), (r_new, rb_new, c_new) = _views(task, z), _views(task, z_new)
    c, rb = task.c_final, task.rb_final[None].repeat(rows, 0)
    for n in range(task.n_steps - 2, -1, -1):
        c, rb = _pull_back(_frames(r_old[:, n], rb), task.noise_rows[n], c, rb)
        c_new[:, n], rb_new[:, n] = c, rb
    r = task.r_sources[None].repeat(rows, 0)
    for n, noise in enumerate(task.noise_rows):
        r = r_new[:, n] = _push(_frames(r, rb_new[:, n]), noise, r)
    return z_new


def _seed_chains(task: ChainTask, rng):
    """Initial guesses: do-nothing, optimal-last, and random unitary-first chains.

    Sources follow the noise after a first rotation.  Targets are pulled back
    through identity controllers, except that every seed but do-nothing ends
    with the optimal controller of its last step.
    """
    labels, firsts = ["do-nothing", "optimal-last"], [np.eye(3), np.eye(3)]
    while len(labels) < MAX_RESTARTS:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0, np.pi)
        k_mat = np.array(
            [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
        )
        firsts.append(np.eye(3) + np.sin(angle) * k_mat + (1 - np.cos(angle)) * k_mat @ k_mat)
        labels.append(f"unitary-first-{len(labels) - 1}")
    n_seeds, n_steps = len(labels), task.n_steps
    r_steps = np.zeros((n_seeds, n_steps, 2, 3))
    c_steps = np.zeros((n_seeds, n_steps, 2))
    rb_steps = np.zeros((n_seeds, n_steps, 2, 3))
    r_steps[:, 0], c_steps[:, -1], rb_steps[:, -1] = task.r_sources, task.c_final, task.rb_final
    r = np.matmul(np.array(firsts)[:, None], task.r_sources[..., None])[..., 0]
    for n, noise in enumerate(task.noise_rows):
        r = r_steps[:, n + 1] = _affine(noise, r)
    identity = (np.eye(3)[None], np.eye(3)[None], np.ones((1, 3)), np.zeros((1, 3)))
    last = _frames(r_steps[:, -1], rb_steps[:, -1])
    for frame, ident in zip(last, identity):
        frame[0] = ident[0]  # do-nothing
    for n in range(n_steps - 2, -1, -1):
        c_steps[:, n], rb_steps[:, n] = _pull_back(
            last if n == n_steps - 2 else identity, task.noise_rows[n],
            c_steps[:, n + 1], rb_steps[:, n + 1])
    return list(zip(_pack(task, r_steps, c_steps, rb_steps), labels))


def solve_chain(task: ChainTask, restarts=MAX_RESTARTS, seed=0) -> StepChain:
    """Multi-start solve of the self-consistency system; returns the best chain.

    The first ``restarts`` seeds of :func:`_seed_chains` are iterated
    together as one ``(restarts, dim)`` batch.
    Every returned chain satisfies the stacked fixed-point residual at
    ``CHAIN_TOL`` (non-converged restarts are discarded); among converged
    chains the one with the highest end-to-end fidelity wins.  A later restart
    must beat the best so far by more than ``FIDELITY_TIE``, so ties at
    round-off level go to the earlier restart.  ``StepChain.restarts`` holds
    one :class:`RestartRecord` per restart, discarded ones included.
    LinalgError unless ``restarts`` is between 1 and ``MAX_RESTARTS``;
    :class:`~qtrack.sdp.SolverError` when no restart converges.
    """
    if not 1 <= restarts <= MAX_RESTARTS:
        raise LinalgError(f"restarts must be between 1 and {MAX_RESTARTS}, got {restarts}")
    seeds = _seed_chains(task, np.random.default_rng(seed))[:restarts]
    z, residual, sweeps, newton = _solve_batch(task, np.array([z0 for z0, _ in seeds]))
    kept = np.flatnonzero(residual <= CHAIN_TOL)  # NaN is dropped too
    if not kept.size:
        raise SolverError("no restart converged; relax tolerances or add seeds")
    r_steps, c_steps, rb_steps = _unpack(task, z)
    frames = [f.reshape(kept.size, task.n_steps, *f.shape[1:])
              for f in _frames(r_steps[kept].reshape(-1, 2, 3), rb_steps[kept].reshape(-1, 2, 3))]
    fidelity = dict(zip(kept, _chain_fidelities(task, frames).tolist()))
    best, records = None, []
    for k, (_, label) in enumerate(seeds):
        record = RestartRecord(label, int(sweeps[k]), newton[k] is not None, bool(newton[k]),
                               float(residual[k]), fidelity.get(k))
        if k not in fidelity:
            record.dropped = f"residual {residual[k]:.3g} not within tol after {sweeps[k]} sweeps"
        elif best is None or record.fidelity > records[best].fidelity + FIDELITY_TIE:
            best = k
        records.append(record)
    row = np.searchsorted(kept, best)
    return StepChain(
        sources=r_steps[best],
        targets_c=c_steps[best],
        targets_rb=rb_steps[best],
        # every row of the kernel's frames is a channel: built without a second check
        controllers=[QubitChannelCanonical._checked(*step)
                     for step in zip(*(f[row] for f in frames))],
        fidelity=records[best].fidelity,
        residual=records[best].residual,
        seed_label=records[best].label,
        restarts=records,
    )


def _chain_fidelities(task, frames):
    """End-to-end priority-weighted overlap of each row's ``(R, N, ...)`` controller frames.

    :meth:`ChainTask.chain_fidelity` is the one-row case.
    """
    r = task.r_sources[None]
    for n, noise in enumerate(task.noise_rows):
        r = _push([f[:, n] for f in frames], noise, r)
    r = _affine([f[:, -1] for f in frames], r)
    half = 0.5 * (task.c_final + stacked_dot(r, task.rb_final))
    return 0.0 + half[:, 0] + half[:, 1]


def _solve_batch(task, z):
    """Damped sweeps of every row of ``z`` at once; a row freezes when it converges.

    Active rows are swept as one array, written back only when some stop.  After
    every ``NEWTON_AFTER`` sweeps the rows still above ``CHAIN_TOL`` are polished
    together by :func:`_newton_polish`.  Returns the final rows, their last
    residuals, the sweeps each row ran and, per row, whether its last polish
    succeeded (None where none ran).
    """
    z = z.copy()
    residual = np.full(len(z), np.inf)
    sweeps = np.zeros(len(z), dtype=int)
    newton = np.full(len(z), None)
    active, z_act = np.arange(len(z)), z
    for sweep in range(1, MAX_SWEEPS + 1):
        z_new = _sweep(task, z_act)
        res = np.abs(z_new - z_act).max(axis=1)
        done = res <= CHAIN_TOL
        z_act = (1.0 - DAMPING) * z_act + DAMPING * z_new
        z_act[done] = z_new[done]
        polish = np.flatnonzero(res > CHAIN_TOL)
        if sweep > 1 and sweep % NEWTON_AFTER == 1 and polish.size:
            z_pol, res_pol, ok = _newton_polish(task, z_act[polish])
            newton[active[polish]] = ok
            polish = polish[ok]
            z_act[polish], res[polish], done[polish] = z_pol[ok], res_pol[ok], True
        if done.any() or sweep == MAX_SWEEPS:
            z[active], residual[active], sweeps[active] = z_act, res, sweep
            active, z_act = active[~done], z_act[~done]
            if not active.size:
                break
    return z, residual, sweeps, newton


def _newton_polish(task, z):
    """Damped Newton on G(z) = z - Phi(z) of each row of ``(R, dim)`` ``z``.

    Phi reads only a row's sources, its first :func:`_source_len` coordinates,
    so of a row's ``dim`` finite-difference probes only those along a source
    are swept: a probe along a target has the base row's Phi.  Each step solves
    the live rows' Jacobians as one stack (row by row, with a least-squares
    fallback, when one is singular), then sweeps as one batch the damped
    candidates of every row with the source probes around its full-step
    candidate.  A row takes its first candidate that lowers its residual and
    fails when none does.  A row that took the full step enters the next step
    probed; only the rows that took a damped candidate have their probes swept
    again.  Each row of a sweep is computed from its own data, so a row gets
    the bits it would get alone with all ``dim + 1`` probes swept.  Returns the
    rows, their last residuals max|G| and whether each converged within
    ``CHAIN_TOL``.
    """
    rows, dim = z.shape
    src = _source_len(task)
    h = 1e-7
    damps = np.array([1.0, 0.5, 0.25, 0.1])[:, None]
    diag = np.arange(dim)

    def probed(base):
        """Each row of ``(L, dim)`` ``base`` and its ``dim`` probes, ``(L, dim + 1, dim)``."""
        probes = np.repeat(base[:, None], dim + 1, axis=1)
        probes[:, diag + 1, diag] += h
        return probes

    def sweep(points):
        return _sweep(task, points.reshape(-1, dim)).reshape(points.shape)

    z, res, ok, live = z.copy(), np.full(rows, np.inf), np.zeros(rows, dtype=bool), np.arange(rows)
    phi = np.empty((rows, dim + 1, dim))  # Phi of each row's probes, the row itself first
    phi[:, : src + 1] = sweep(probed(z)[:, : src + 1])
    for step in range(MAX_NEWTON + 1):
        phi[live, src + 1 :] = phi[live, :1]
        g = probed(z[live]) - phi[live]
        res[live] = np.abs(g[:, 0]).max(axis=1)
        ok[live] = res[live] <= CHAIN_TOL
        g, live = g[~ok[live]], live[~ok[live]]
        if step == MAX_NEWTON or not live.size:
            break
        jac = ((g[:, 1:] - g[:, :1]) / h).transpose(0, 2, 1)
        try:
            dz = np.linalg.solve(jac, g[:, 0, :, None])[..., 0]
        except np.linalg.LinAlgError:
            dz = np.array([_solve_or_lstsq(a, b) for a, b in zip(jac, g[:, 0])])
        cands = z[live, None] - damps * dz[:, None]
        swept = sweep(np.concatenate([cands, probed(cands[:, 0])[:, 1 : src + 1]], axis=1))
        better = np.abs(cands - swept[:, : len(damps)]).max(axis=2) < res[live, None]
        moved = better.any(axis=1)
        live, pick = live[moved], better[moved].argmax(axis=1)
        z[live], phi[live, 0] = cands[moved, pick], swept[moved, pick]
        phi[live, 1 : src + 1] = swept[moved, len(damps) :]
        damped = live[pick > 0]
        if damped.size:
            phi[damped, 1 : src + 1] = sweep(probed(z[damped])[:, 1 : src + 1])
    return z, res, ok


def _solve_or_lstsq(a, b):
    """``a x = b`` for one square ``a``; least squares where ``a`` is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def sweep_2step(task_factory, lam1_grid, lam2_grid, restarts=MAX_RESTARTS, seed=0, mapper=map):
    """Classify the 2-step advantage over a grid of extremal noises.

    ``task_factory(noise)`` builds the :class:`ChainTask` for one noise.
    Grid points are independent, so a parallel ``mapper`` may be supplied;
    results keep grid order either way.  Returns a list of records
    (lam1, lam2, t3, class, f_multi, f_single).
    """

    def run_point(lams):
        lam1, lam2 = lams
        noise = extremal_noise(lam1, lam2)
        task = task_factory(noise)
        f_single = task.single_step_fidelity()
        try:
            chain = solve_chain(task, restarts=restarts, seed=seed)
            f_multi = chain.fidelity
        except SolverError:
            f_multi = -np.inf
        if f_multi > f_single + 1e-9:
            label = "advantage"
        elif f_multi >= f_single - 1e-9:
            label = "tie"
        else:
            label = "suboptimal-converged"
        return {
            "lam1": float(lam1),
            "lam2": float(lam2),
            "t3": float(noise.s[2]),
            "class": label,
            "f_multi": float(max(f_multi, 0.0)),
            "f_single": float(f_single),
        }

    points = [(l1, l2) for l1 in lam1_grid for l2 in lam2_grid]
    return list(mapper(run_point, points))
