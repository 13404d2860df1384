"""Multi-step tracking for a pair of qubit states.

Controllers are interleaved with known noise channels.  Each controller is
constrained to be the closed-form optimal single-step tracker for its own
(source, virtual target) pair; the sources follow from forward propagation and
the virtual targets from backward (adjoint) propagation, giving a coupled
nonlinear system in the Bloch data.  The solver is a damped fixed-point sweep
with a finite-difference Newton fallback, restarted from several seeds.  The
restarts are iterated together as one ``(restarts, dim)`` array: each sweep
computes the controllers of all rows with the stacked kernel
:func:`~qtrack.analytic.optimal_frames`, a row stops when it converges, and
the Newton Jacobian is one batched sweep over the perturbed points.  The
kernel computes each row from its own data, and the batched propagation
repeats :func:`forward_state` and :func:`backward_target` in the same order,
so every restart gives the same bits as when it ran alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic import (
    PairGeometry,
    optimal_canonical,  # noqa: F401  unused here; perfbench's tracer wraps this name
    optimal_fidelity,
    optimal_frames,
)
from .channels import DensityMatrix, QubitChannelCanonical, check_rsw
from .linalg import LinalgError, stacked_dot

# restarts whose chain fidelities differ by no more than this are tied
FIDELITY_TIE = 1e-12
# _seed_chains gives this many start vectors
MAX_RESTARTS = 8
# a restart has converged once its fixed-point residual max|Phi(z) - z| is
# within CHAIN_TOL; each damped sweep moves z DAMPING of the way to Phi(z)
CHAIN_TOL = 1e-10
DAMPING = 0.65


def identity_canonical() -> QubitChannelCanonical:
    return diagonal_noise(np.ones(3), np.zeros(3))


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
    """Propagate a source Bloch vector through controller then noise."""
    return noise.bloch_map(controller.bloch_map(np.asarray(r, dtype=float)))


def backward_target(c_next, rb_next, controller_next: QubitChannelCanonical,
                    noise: QubitChannelCanonical):
    """Pull a (scalar, Bloch) virtual target back through noise and next controller.

    Implements the adjoint (Heisenberg) propagation: with controller frames
    (v_k, u_k) and scales (mu, s), the vector part maps to
    Q = sum_k mu_k (u_k . Rb) v_k, and the noise then gives
    Rb' = sum_k lam_k (Q . g_k) h_k with the matching scalar update.
    """
    rb_next = np.asarray(rb_next, dtype=float)
    rv_c, ru_c = controller_next.rv, controller_next.ru  # v_k = rv[k], u_k = ru[:, k]
    u_dots = np.array([ru_c[:, k] @ rb_next for k in range(3)])
    c_mid = float(c_next + controller_next.s @ u_dots)
    q_vec = sum(controller_next.mu[k] * u_dots[k] * rv_c[k] for k in range(3))
    rv_n, ru_n = noise.rv, noise.ru
    g_dots = np.array([ru_n[:, k] @ q_vec for k in range(3)])
    c_prev = float(c_mid + noise.s @ g_dots)
    rb_prev = sum(noise.mu[k] * g_dots[k] * rv_n[k] for k in range(3))
    return c_prev, np.asarray(rb_prev, dtype=float)


@dataclass
class StepChain:
    """A fully specified multi-step plan and its bookkeeping."""

    sources: np.ndarray  # (N, 2, 3) Bloch vectors of the step sources
    targets_c: np.ndarray  # (N, 2) scalar parts of the virtual targets
    targets_rb: np.ndarray  # (N, 2, 3) Bloch parts of the virtual targets
    controllers: list
    fidelity: float
    residual: float
    converged: bool
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

    LinalgError unless every noise is a channel (``check_rsw``).
    """

    def __init__(self, sources, targets, priorities, noises):
        self.pis = np.asarray(priorities, dtype=float)
        if self.pis.shape != (2,) or abs(self.pis.sum() - 1.0) > 1e-12:
            raise LinalgError("need two priorities summing to one")
        self.r_sources = np.array([_as_bloch(s) for s in sources])
        self.rb_final = np.array([p * _as_bloch(t) for p, t in zip(self.pis, targets)])
        self.c_final = np.array([p * _as_trace(t) for p, t in zip(self.pis, targets)])
        self.noises = [_channel(noise) for noise in noises]
        self.n_steps = len(self.noises) + 1

    def single_step_fidelity(self):
        """Optimal fidelity when correcting only after all the noise."""
        r = [v.copy() for v in self.r_sources]
        for noise in self.noises:
            r = [noise.bloch_map(v) for v in r]
        g = PairGeometry(r[0], r[1], self.rb_final[0], self.rb_final[1],
                        self.c_final[0], self.c_final[1])
        return optimal_fidelity(g)

    def chain_fidelity(self, controllers):
        """End-to-end priority-weighted overlap of the controlled chain."""
        total = 0.0
        for i in range(2):
            r = self.r_sources[i].copy()
            for n in range(self.n_steps - 1):
                r = forward_state(r, controllers[n], self.noises[n])
            r = controllers[-1].bloch_map(r)
            total += 0.5 * (self.c_final[i] + r @ self.rb_final[i])
        return float(total)


def _as_bloch(state):
    if isinstance(state, DensityMatrix):
        return state.bloch
    arr = np.asarray(state)
    if arr.shape == (3,):
        return arr.astype(float)
    return DensityMatrix(arr).bloch


def _as_trace(state):
    if isinstance(state, DensityMatrix):
        return 1.0
    arr = np.asarray(state)
    if arr.shape == (3,):
        return 1.0
    return float(np.trace(arr).real)


def _pack(task: ChainTask, r_steps, c_steps, rb_steps):
    """Free chain data, ``(..., N, 2, 3)`` and ``(..., N, 2)``, as ``(..., dim)`` rows."""
    lead = c_steps.shape[:-2]
    free = task.n_steps - 1
    targets = np.concatenate(
        [rb_steps[..., :-1, :, :].reshape(*lead, free, 6), c_steps[..., :-1, :]], axis=-1
    )
    return np.concatenate(
        [r_steps[..., 1:, :, :].reshape(*lead, 6 * free), targets.reshape(*lead, 8 * free)],
        axis=-1,
    )


def _unpack(task: ChainTask, z):
    """Inverse of :func:`_pack`, with the fixed sources and final targets filled in."""
    lead = z.shape[:-1]
    free = task.n_steps - 1
    r_steps = np.empty((*lead, free + 1, 2, 3))
    r_steps[..., 0, :, :] = task.r_sources
    r_steps[..., 1:, :, :] = z[..., : 6 * free].reshape(*lead, free, 2, 3)
    targets = z[..., 6 * free :].reshape(*lead, free, 8)
    rb_steps = np.empty((*lead, free + 1, 2, 3))
    rb_steps[..., :-1, :, :] = targets[..., :6].reshape(*lead, free, 2, 3)
    rb_steps[..., -1, :, :] = task.rb_final
    c_steps = np.empty((*lead, free + 1, 2))
    c_steps[..., :-1, :] = targets[..., 6:]
    c_steps[..., -1, :] = task.c_final
    return r_steps, c_steps, rb_steps


def _frames(r, rb):
    """Optimal controller frames (rv, ru, mu, s) of each row of ``(R, 2, 3)`` pair data.

    Rows without a tracker (degenerate data) get the identity.
    """
    return optimal_frames(r[:, 0], r[:, 1], rb[:, 0], rb[:, 1])[:4]


def _pull_back(c, rb, frames, noise):
    """:func:`backward_target` of both targets of each row, ``(R, 2)`` and ``(R, 2, 3)``.

    The same arithmetic in the same order, so the same bits, as the scalar form.
    """
    rv, ru, mu, s = frames
    u_dots = stacked_dot(np.swapaxes(ru, 1, 2)[:, None], rb[:, :, None])
    c_mid = c + stacked_dot(s[:, None], u_dots)
    q_vec = sum(mu[:, None, k, None] * u_dots[..., k, None] * rv[:, None, k] for k in range(3))
    g_dots = stacked_dot(noise.ru.T, q_vec[:, :, None])
    rb_prev = sum(noise.mu[k] * g_dots[..., k, None] * noise.rv[k] for k in range(3))
    return c_mid + stacked_dot(noise.s, g_dots), rb_prev


def _push(r, frames, noise):
    """:func:`forward_state` of both sources of each row, ``(R, 2, 3)``, bit for bit."""
    rv, ru, mu, s = frames
    r = _matvec(ru[:, None], mu[:, None] * _matvec(rv[:, None], r) + s[:, None])
    return _matvec(noise.ru, noise.mu * _matvec(noise.rv, r) + noise.s)


def _matvec(m, v):
    """``m @ v`` for stacks of 3x3 matrices and 3-vectors, rounded as unstacked."""
    return np.matmul(m, v[..., None])[..., 0]


def _sweep(task: ChainTask, z):
    """One backward plus forward pass of the self-consistency map on each row of ``z``."""
    r_steps, c_steps, rb_steps = _unpack(task, z)
    for n in range(task.n_steps - 2, -1, -1):
        frames = _frames(r_steps[:, n + 1], rb_steps[:, n + 1])
        c_steps[:, n], rb_steps[:, n] = _pull_back(
            c_steps[:, n + 1], rb_steps[:, n + 1], frames, task.noises[n]
        )
    for n in range(task.n_steps - 1):
        frames = _frames(r_steps[:, n], rb_steps[:, n])
        r_steps[:, n + 1] = _push(r_steps[:, n], frames, task.noises[n])
    return _pack(task, r_steps, c_steps, rb_steps)


@dataclass
class ChainOptions:
    max_sweeps: int = 300
    newton_after: int = 120
    restarts: int = 8


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
    r = _matvec(np.array(firsts)[:, None], task.r_sources)
    for n, noise in enumerate(task.noises):
        r = _matvec(noise.ru, noise.mu * _matvec(noise.rv, r) + noise.s)
        r_steps[:, n + 1] = r
    eye = np.tile(np.eye(3), (n_seeds, 1, 1))
    identity = (eye, eye, np.ones((n_seeds, 3)), np.zeros((n_seeds, 3)))
    last = _frames(r_steps[:, -1], rb_steps[:, -1])
    for frame, ident in zip(last, identity):
        frame[0] = ident[0]  # do-nothing
    for n in range(n_steps - 2, -1, -1):
        c_steps[:, n], rb_steps[:, n] = _pull_back(
            c_steps[:, n + 1], rb_steps[:, n + 1], last if n == n_steps - 2 else identity,
            task.noises[n]
        )
    return list(zip(_pack(task, r_steps, c_steps, rb_steps), labels))


def solve_chain(task: ChainTask, opts: ChainOptions | None = None, seed=0) -> StepChain:
    """Multi-start solve of the self-consistency system; returns the best chain.

    The restarts are iterated together as one ``(restarts, dim)`` batch.
    Every returned chain satisfies the stacked fixed-point residual at
    ``CHAIN_TOL`` (non-converged restarts are discarded); among converged
    chains the one with the highest end-to-end fidelity wins.  A later restart
    must beat the best so far by more than ``FIDELITY_TIE``, so ties at
    round-off level go to the earlier restart.  ``StepChain.restarts`` holds
    one :class:`RestartRecord` per restart, discarded ones included.
    """
    opts = opts or ChainOptions()
    if not 1 <= opts.restarts <= MAX_RESTARTS:
        raise LinalgError(f"restarts must be between 1 and {MAX_RESTARTS}, got {opts.restarts}")
    seeds = _seed_chains(task, np.random.default_rng(seed))[: opts.restarts]
    z, residual, sweeps, newton = _solve_batch(task, np.array([z0 for z0, _ in seeds]), opts)
    kept = np.flatnonzero(residual <= CHAIN_TOL)
    chains = dict(zip(kept, _chains_at(task, z[kept], [seeds[k][1] for k in kept],
                                       residual[kept])))
    best, records = None, []
    for k, (_, label) in enumerate(seeds):
        record = RestartRecord(label, int(sweeps[k]), newton[k] is not None, bool(newton[k]),
                               float(residual[k]))
        if not residual[k] <= CHAIN_TOL:  # NaN is dropped too
            record.dropped = f"residual {residual[k]:.3g} not within tol after {sweeps[k]} sweeps"
        else:
            chain = chains[k]
            record.fidelity = chain.fidelity
            if best is None or chain.fidelity > best.fidelity + FIDELITY_TIE:
                best = chain
        records.append(record)
    if best is None:
        raise LinalgError("no restart converged; relax tolerances or add seeds")
    best.restarts = records
    return best


def _solve_batch(task, z, opts: ChainOptions):
    """Damped sweeps of every row of ``z`` at once; a row freezes when it converges.

    Returns the final rows, their last residuals, the sweeps each row ran and,
    per row, whether Newton succeeded (None where it did not run).
    """
    z = z.copy()
    residual = np.full(len(z), np.inf)
    sweeps = np.zeros(len(z), dtype=int)
    newton = [None] * len(z)
    active = np.arange(len(z))
    for sweep in range(opts.max_sweeps):
        if not active.size:
            break
        z_act = z[active]
        z_new = _sweep(task, z_act)
        res = np.abs(z_new - z_act).max(axis=1)
        residual[active], sweeps[active] = res, sweep + 1
        done = res <= CHAIN_TOL
        z[active] = np.where(done[:, None], z_new, (1.0 - DAMPING) * z_act + DAMPING * z_new)
        if sweep == opts.newton_after:
            for k in active[res > CHAIN_TOL]:
                z_newton = _newton_polish(task, z[k])
                newton[k] = z_newton is not None
                if newton[k]:
                    z[k] = z_newton
                    residual[k] = np.abs(_sweep(task, z_newton[None])[0] - z_newton).max()
                    done[active == k] = True
        active = active[~done]
    return z, residual, sweeps, newton


def _chains_at(task, z, labels, residuals):
    """The :class:`StepChain` of each row of ``z``, its controllers from one kernel call."""
    r_steps, c_steps, rb_steps = _unpack(task, z)
    frames = _frames(r_steps.reshape(-1, 2, 3), rb_steps.reshape(-1, 2, 3))
    controllers = [QubitChannelCanonical(*row) for row in zip(*frames)]
    n_steps = task.n_steps
    chains = []
    for k, (label, residual) in enumerate(zip(labels, residuals)):
        steps = controllers[k * n_steps:(k + 1) * n_steps]
        chains.append(StepChain(
            sources=r_steps[k],
            targets_c=c_steps[k],
            targets_rb=rb_steps[k],
            controllers=steps,
            fidelity=task.chain_fidelity(steps),
            residual=float(residual),
            converged=True,
            seed_label=label,
        ))
    return chains


def _newton_polish(task, z, max_newton=25):
    """Damped Newton on G(z) = z - Phi(z) with a finite-difference Jacobian.

    Each step sweeps ``z`` and its ``dim`` perturbations as one batch, then
    scores the damped candidates with one more batch and takes the first that
    lowers the residual.
    """
    dim = z.size
    h = 1e-7
    damps = np.array([1.0, 0.5, 0.25, 0.1])
    diag = np.arange(dim)
    for _ in range(max_newton):
        probes = np.tile(z, (dim + 1, 1))
        probes[diag + 1, diag] += h
        g = probes - _sweep(task, probes)
        g0 = g[0]
        if np.abs(g0).max() <= CHAIN_TOL:
            return z
        jac = ((g[1:] - g0) / h).T
        try:
            step = np.linalg.solve(jac, g0)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, g0, rcond=None)
        cands = z - damps[:, None] * step
        better = np.flatnonzero(
            np.abs(cands - _sweep(task, cands)).max(axis=1) < np.abs(g0).max()
        )
        if not better.size:
            return None
        z = cands[better[0]]
    g0 = z - _sweep(task, z[None])[0]
    return z if np.abs(g0).max() <= CHAIN_TOL else None


def sweep_2step(task_factory, lam1_grid, lam2_grid, opts=None, seed=0, mapper=map):
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
            chain = solve_chain(task, opts, seed=seed)
            f_multi = chain.fidelity
        except LinalgError:
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
