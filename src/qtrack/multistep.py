"""Multi-step tracking for a pair of qubit states.

Controllers are interleaved with known noise channels.  Each controller is
constrained to be the closed-form optimal single-step tracker for its own
(source, virtual target) pair; the sources follow from forward propagation and
the virtual targets from backward (adjoint) propagation, giving a coupled
nonlinear system in the Bloch data.  The solver is a damped fixed-point sweep
with a finite-difference Newton fallback, restarted from several seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import (
    DegenerateGeometryError,
    PairGeometry,
    optimal_canonical,
    optimal_fidelity,
)
from .channels import DensityMatrix, QubitChannelCanonical
from .linalg import LinalgError

# restarts whose chain fidelities differ by no more than this are tied
FIDELITY_TIE = 1e-12


def identity_canonical() -> QubitChannelCanonical:
    return diagonal_noise(np.ones(3), np.zeros(3))


def diagonal_noise(lam, t) -> QubitChannelCanonical:
    """Noise scaling Bloch components by ``lam`` then translating by ``t``."""
    return QubitChannelCanonical.from_rotations(np.eye(3), np.eye(3), lam, t)


def extremal_noise(lam1, lam2) -> QubitChannelCanonical:
    """Extreme-point non-unital noise: lam3 = lam1 lam2, t3 = sqrt((1-l1^2)(1-l2^2))."""
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


def _optimal_controller(r1, r2, c_pair, rb_pair):
    """Closed-form optimal tracker for one step; identity on degenerate data."""
    try:
        g = PairGeometry(r1, r2, rb_pair[0], rb_pair[1], c_pair[0], c_pair[1])
        return optimal_canonical(g), g
    except (DegenerateGeometryError, LinalgError):
        return identity_canonical(), None


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


class ChainTask:
    """Pair-stabilization data: sources, targets, priorities and the noises."""

    def __init__(self, sources, targets, priorities, noises):
        self.pis = np.asarray(priorities, dtype=float)
        if self.pis.shape != (2,) or abs(self.pis.sum() - 1.0) > 1e-12:
            raise LinalgError("need two priorities summing to one")
        self.r_sources = np.array([_as_bloch(s) for s in sources])
        self.rb_final = np.array([p * _as_bloch(t) for p, t in zip(self.pis, targets)])
        self.c_final = np.array([p * _as_trace(t) for p, t in zip(self.pis, targets)])
        self.noises = list(noises)
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
    parts = []
    for n in range(1, task.n_steps):
        parts.append(np.ravel(r_steps[n]))
    for n in range(task.n_steps - 1):
        parts.append(np.ravel(rb_steps[n]))
        parts.append(np.ravel(c_steps[n]))
    return np.concatenate(parts)


def _unpack(task: ChainTask, z):
    n_steps = task.n_steps
    r_steps = np.zeros((n_steps, 2, 3))
    r_steps[0] = task.r_sources
    rb_steps = np.zeros((n_steps, 2, 3))
    c_steps = np.zeros((n_steps, 2))
    rb_steps[-1] = task.rb_final
    c_steps[-1] = task.c_final
    at = 0
    for n in range(1, n_steps):
        r_steps[n] = z[at : at + 6].reshape(2, 3)
        at += 6
    for n in range(n_steps - 1):
        rb_steps[n] = z[at : at + 6].reshape(2, 3)
        at += 6
        c_steps[n] = z[at : at + 2]
        at += 2
    return r_steps, c_steps, rb_steps


def _controllers_for(task, r_steps, c_steps, rb_steps):
    out = []
    for n in range(task.n_steps):
        ctrl, _ = _optimal_controller(
            r_steps[n, 0], r_steps[n, 1], c_steps[n], rb_steps[n]
        )
        out.append(ctrl)
    return out


def _sweep(task: ChainTask, z):
    """One backward plus forward pass of the self-consistency map."""
    r_steps, c_steps, rb_steps = _unpack(task, z)
    n_steps = task.n_steps
    new_rb = rb_steps.copy()
    new_c = c_steps.copy()
    for n in range(n_steps - 2, -1, -1):
        ctrl, _ = _optimal_controller(
            r_steps[n + 1, 0], r_steps[n + 1, 1], new_c[n + 1], new_rb[n + 1]
        )
        for i in range(2):
            new_c[n, i], new_rb[n, i] = backward_target(
                new_c[n + 1, i], new_rb[n + 1, i], ctrl, task.noises[n]
            )
    new_r = r_steps.copy()
    for n in range(n_steps - 1):
        ctrl, _ = _optimal_controller(new_r[n, 0], new_r[n, 1], new_c[n], new_rb[n])
        for i in range(2):
            new_r[n + 1, i] = forward_state(new_r[n, i], ctrl, task.noises[n])
    return _pack(task, new_r, new_c, new_rb)


@dataclass
class ChainOptions:
    tol: float = 1e-10
    max_sweeps: int = 300
    damping: float = 0.65
    newton_after: int = 120
    restarts: int = 8


def _seed_chains(task: ChainTask, rng):
    """Initial guesses: do-nothing, optimal-last, and random unitary-first chains."""
    seeds = []

    def propagate(first_rotations, label, optimal_last=True):
        n_steps = task.n_steps
        r_steps = np.zeros((n_steps, 2, 3))
        r_steps[0] = task.r_sources
        r = [first_rotations @ task.r_sources[i] for i in range(2)]
        for n in range(n_steps - 1):
            for i in range(2):
                r_steps[n + 1, i] = task.noises[n].bloch_map(
                    r[i] if n == 0 else r_steps[n, i]
                )
        rb_steps = np.zeros((n_steps, 2, 3))
        c_steps = np.zeros((n_steps, 2))
        rb_steps[-1] = task.rb_final
        c_steps[-1] = task.c_final
        for n in range(n_steps - 2, -1, -1):
            if optimal_last and n == n_steps - 2:
                ctrl, _ = _optimal_controller(
                    r_steps[n + 1, 0], r_steps[n + 1, 1], c_steps[n + 1], rb_steps[n + 1]
                )
            else:
                ctrl = identity_canonical()
            for i in range(2):
                c_steps[n, i], rb_steps[n, i] = backward_target(
                    c_steps[n + 1, i], rb_steps[n + 1, i], ctrl, task.noises[n]
                )
        return _pack(task, r_steps, c_steps, rb_steps), label

    # seed 1: plain noise propagation, identity controllers backward too
    seeds.append(propagate(np.eye(3), "do-nothing", optimal_last=False))
    seeds.append(propagate(np.eye(3), "optimal-last"))
    while len(seeds) < 8:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0, np.pi)
        k_mat = np.array(
            [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
        )
        rot = np.eye(3) + np.sin(angle) * k_mat + (1 - np.cos(angle)) * k_mat @ k_mat
        seeds.append(propagate(rot, f"unitary-first-{len(seeds) - 1}"))
    return seeds


def solve_chain(task: ChainTask, opts: ChainOptions | None = None, seed=0) -> StepChain:
    """Multi-start solve of the self-consistency system; returns the best chain.

    Every returned chain satisfies the stacked fixed-point residual at
    ``opts.tol`` (non-converged restarts are discarded); among converged
    chains the one with the highest end-to-end fidelity wins.  A later restart
    must beat the best so far by more than ``FIDELITY_TIE``, so ties at
    round-off level go to the earlier restart.
    """
    opts = opts or ChainOptions()
    rng = np.random.default_rng(seed)
    best = None
    for z0, label in _seed_chains(task, rng)[: opts.restarts]:
        chain = _solve_from(task, z0, label, opts)
        if chain is None:
            continue
        if best is None or chain.fidelity > best.fidelity + FIDELITY_TIE:
            best = chain
    if best is None:
        raise LinalgError("no restart converged; relax tolerances or add seeds")
    return best


def _solve_from(task, z0, label, opts: ChainOptions):
    z = z0.copy()
    residual = np.inf
    for sweep in range(opts.max_sweeps):
        z_new = _sweep(task, z)
        residual = np.abs(z_new - z).max()
        if residual <= opts.tol:
            z = z_new
            break
        z = (1.0 - opts.damping) * z + opts.damping * z_new
        if sweep == opts.newton_after and residual > opts.tol:
            z_newton = _newton_polish(task, z, opts)
            if z_newton is not None:
                z = z_newton
                residual = np.abs(_sweep(task, z) - z).max()
                break
    if residual > opts.tol:
        return None
    r_steps, c_steps, rb_steps = _unpack(task, z)
    controllers = _controllers_for(task, r_steps, c_steps, rb_steps)
    fid = task.chain_fidelity(controllers)
    return StepChain(
        sources=r_steps,
        targets_c=c_steps,
        targets_rb=rb_steps,
        controllers=controllers,
        fidelity=fid,
        residual=float(residual),
        converged=True,
        seed_label=label,
    )


def _newton_polish(task, z, opts: ChainOptions, max_newton=25):
    """Damped Newton on G(z) = z - Phi(z) with a finite-difference Jacobian."""
    dim = z.size
    z = z.copy()
    for _ in range(max_newton):
        g0 = z - _sweep(task, z)
        if np.abs(g0).max() <= opts.tol:
            return z
        jac = np.empty((dim, dim))
        h = 1e-7
        for j in range(dim):
            dz = z.copy()
            dz[j] += h
            jac[:, j] = ((dz - _sweep(task, dz)) - g0) / h
        try:
            step = np.linalg.solve(jac, g0)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, g0, rcond=None)
        for damp in (1.0, 0.5, 0.25, 0.1):
            cand = z - damp * step
            if np.abs(cand - _sweep(task, cand)).max() < np.abs(g0).max():
                z = cand
                break
        else:
            return None
    g0 = z - _sweep(task, z)
    return z if np.abs(g0).max() <= opts.tol else None


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
