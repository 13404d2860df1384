"""Seeded inputs, ops and output checks of the three qtrack benchmark workloads.

Every input is drawn here with numpy's ``Generator`` (Ginibre mixed states,
Haar pure states), never with ``qtrack.channels.random_state``, so a change to
the library's random stream cannot change what is measured.

The solve and chain workloads run a fixed input set whose seed-commit answers
are stored in ``reference.json``; ``--seed`` sets the order of the ops and, for
``chain_sweep``, the solve seed of the chain's random restarts. The pair-kernel
workload certifies itself, so it draws fresh inputs from ``--seed``.

A workload runs in *rounds*, and a run is a whole number of rounds, so every
run sees the input mix in its stated proportions and every run of a workload
does the same ops whatever the speed of the host at the time. ``round_s`` is
the round's duration at the seed commit on a 2-CPU Intel Xeon; the runner
runs ``round(--seconds / round_s)`` rounds, at least one.

A solve round is the whole solve pool and a chain round is the whole sub-grid:
per-input cost varies a lot (iteration counts, restarts), and runs that saw a
seed-dependent part of a larger set spread by 10-20 % from seed to seed. A
pair-kernel round is its 600 inputs, two mixed instances to one forced onto
procedure B; those ops are cheap and nearly uniform, so fresh inputs from the
seed are steady.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os

import numpy as np

# pool entropy shared by every workload; the workload tag keeps pools apart
POOL_ENTROPY = 2009
SMALL_POOL = 32  # 384 solves, about 22 s on a 2-CPU Xeon
CHAIN_SEEDS = 16  # solve seeds with a stored reference
PAIR_POOL = 600

OBJECTIVES = ("Davg", "H2avg1", "Havg2", "Oavg2", "FHSavg1", "FHSavg2")
FEASIBLE = ("cptp", "ppt")
PROGRAMS = tuple(f"{obj}/{fs}" for obj in OBJECTIVES for fs in FEASIBLE)

CHAIN_GRID = np.linspace(0.05, 0.95, 20)
# the centred stride-5 sub-grid: 4 x 4 points, about 10 s
CHAIN_POINTS = (2, 7, 12, 17)

# CPU time of host_speed_kernel() at the host speed all timings are scaled to
CAL_REF_NS = 100_000

VALUE_TOL = 1e-6
CHAIN_TOL = 1e-9
CERT_EIG_TOL = 1e-9
CERT_WEAK_TOL = 1e-9
CERT_SLACK_TOL = 1e-8
BOUND_SLACK_TOL = 1e-9


class OpError(Exception):
    """The op reported a failure itself: a non-zero exit or a failed solve."""


PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def ginibre_state(d, rng):
    """Mixed state G G^dag / tr(G G^dag) with G a complex Ginibre matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def haar_pure_state(d, rng):
    """Pure state |psi><psi| with psi Haar-distributed."""
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def bloch_state(r):
    return 0.5 * (np.eye(2, dtype=complex) + np.tensordot(r, PAULI, axes=1))


def bloch_pair(half_angle):
    """Pure qubit pair at +-half_angle from the x axis in the xz plane."""
    up = np.array([np.cos(half_angle), 0.0, np.sin(half_angle)])
    return bloch_state(up), bloch_state(up * np.array([1.0, 1.0, -1.0]))


def pool_rng(tag, index):
    return np.random.default_rng([POOL_ENTROPY, tag, index])


def order_rng(tag, seed):
    return np.random.default_rng([POOL_ENTROPY, tag, 1_000_003, seed])


# ---------------------------------------------------------------------------
# tracking problems and the `qtrack solve` op
# ---------------------------------------------------------------------------


def draw_problem(i_count, d, rng):
    """Mixed sources, pure-or-mixed targets by coin flip, as criterion 1.

    Priorities are pi_1 ~ U[0.05, 0.95] for pairs; for I > 2 they are
    independent U[0.05, 0.95] draws, normalised.
    """
    if i_count == 2:
        p1 = rng.uniform(0.05, 0.95)
        pis = np.array([p1, 1.0 - p1])
    else:
        u = rng.uniform(0.05, 0.95, i_count)
        pis = u / u.sum()
    sources = [ginibre_state(d, rng) for _ in range(i_count)]
    pure = bool(rng.integers(0, 2))
    targets = [
        haar_pure_state(d, rng) if pure else ginibre_state(d, rng) for _ in range(i_count)
    ]
    return pis, sources, targets


def _matrix_json(m):
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }


def problem_json(pis, sources, targets):
    """The `qtrack solve --problem` wire format."""

    def seq(states):
        return [
            {"pi": float(p), "d": int(s.shape[0]), "rho": _matrix_json(s)}
            for p, s in zip(pis, states)
        ]

    return {"source": seq(sources), "target": seq(targets)}


def solve_pool(index):
    """(pis, sources, targets) of one qubit pair of the solve pool."""
    return draw_problem(2, 2, pool_rng(1, index))


def run_cli(argv):
    """One in-process `qtrack solve`: (exit code, stdout, stderr)."""
    from qtrack import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def solve_argv(path, program):
    obj, fs = program.split("/")
    return ["solve", "--problem", path, "--objective", obj, "--feasible", fs]


class SolveWorkload:
    """`qtrack solve` on every program of every pool pair; one op is one solve."""

    round_s = 22.0

    def __init__(self, seed, workdir, refs):
        """``refs`` is the parsed ``reference.json``, or None while making it."""
        from qtrack import tracking
        from qtrack.distances import WeightedSequence

        rng = order_rng(3, seed)
        self.cases = []
        for k in (int(k) for k in rng.permutation(SMALL_POOL)):
            pis, srcs, tgts = solve_pool(k)
            path = os.path.join(workdir, f"solve_small-{k}.json")
            with open(path, "w") as fh:
                json.dump(problem_json(pis, srcs, tgts), fh)
            src = WeightedSequence(list(zip(pis, srcs)))
            tgt = WeightedSequence(list(zip(pis, tgts)))
            cases = []
            for program in PROGRAMS:
                obj, fs = program.split("/")
                key = f"I2d2 {program}"
                ref = refs["solve_small"][str(k)][key] if refs else {"value": None, "fails": None}
                cases.append(
                    {
                        "pool": k,
                        "key": key,
                        "I": 2,
                        "d": 2,
                        "objective": obj,
                        "feasible": fs,
                        "argv": solve_argv(path, program),
                        "problem": tracking.TrackingProblem(src, tgt, obj, fs),
                        "ref": ref["value"],
                        "known_failure": ref["fails"],
                    }
                )
            self.cases += [cases[i] for i in rng.permutation(len(cases))]

    def rounds(self):
        return itertools.repeat(self.cases)

    def warmup(self, clock):
        """One untimed solve, the same whatever the seed: pool pair 0, FHSavg1/cptp."""
        case = next(c for c in self.cases
                    if c["pool"] == 0 and c["key"].endswith("FHSavg1/cptp"))
        clock.op(run_cli, case["argv"], check=lambda r: self.check(case, r), meta=case)

    def run_round(self, cases, clock):
        for case in cases:
            clock.op(run_cli, case["argv"], check=lambda r, c=case: self.check(c, r), meta=case)

    @staticmethod
    def check(case, result):
        """None if the output passes; raises OpError if the op reported a failure."""
        from qtrack import analytic, serialize, tracking
        from qtrack.channels import check_cptp, check_ppt

        code, out, err = result
        if code != 0:
            raise OpError(f"exit {code}: {err.strip()}")
        payload = json.loads(out)
        value = float(payload["value"])
        choi = serialize.channel_from_json(payload["controller"])
        cptp = check_cptp(choi)
        if not (cptp["cp"] and cptp["tp"]):
            return f"controller not CPTP: {cptp}"
        if case["feasible"] == "ppt" and not check_ppt(choi)["ppt"]:
            return "controller not PPT"
        tp = case["problem"]
        achieved = tracking.evaluate_objective(choi, tp)
        if abs(achieved - value) > VALUE_TOL:
            return f"value {value!r} but controller achieves {achieved!r}"
        ref = case["ref"]
        if ref is not None and abs(ref - value) > VALUE_TOL:
            return f"value {value!r} but seed-commit reference {ref!r}"
        if case["key"].endswith("FHSavg1/cptp"):
            s, t = tp.source.states, tp.target.states
            closed = analytic.track_pair(s[0], s[1], t[0], t[1], tp.source.priorities[0])
            if abs(closed.fidelity - value) > VALUE_TOL:
                return f"value {value!r} but closed form {closed.fidelity!r}"
        return None


# ---------------------------------------------------------------------------
# multistep sweep
# ---------------------------------------------------------------------------


def chain_factory():
    """Criterion 10's task: pure pair at half-angle pi/4, targets = sources."""
    from qtrack import multistep
    from qtrack.channels import DensityMatrix

    s1, s2 = (DensityMatrix(m) for m in bloch_pair(np.pi / 4))

    def factory(noise):
        return multistep.ChainTask([s1, s2], [s1, s2], [0.5, 0.5], [noise])

    return factory


class ChainWorkload:
    """`multistep.sweep_2step` over the centred sub-grid; one op is one grid point."""

    round_s = 10.5

    def __init__(self, seed, refs):
        """``refs`` is the parsed ``reference.json``, or None while making it."""
        self.chain_seed = seed % CHAIN_SEEDS
        self.all_refs = refs
        self.refs = refs["chain_sweep"][str(self.chain_seed)] if refs else None
        self.rng = order_rng(4, seed)
        self.factory = chain_factory()

    def rounds(self):
        return itertools.repeat(CHAIN_POINTS)

    def sweep(self, rows, clock):
        """Sweep rows x rows, running the points in a seeded order."""
        from qtrack import multistep

        def mapper(fn, points):
            points = list(points)
            out = [None] * len(points)
            for i in self.rng.permutation(len(points)):
                key = ",".join(str(_grid_index(lam)) for lam in points[i])
                ref = self.refs[key] if self.refs else None
                known = ref[0] if ref and ref[0] == "suboptimal-converged" else None
                meta = {"key": key, "known_failure": known}
                out[i] = clock.op(fn, points[i], check=lambda r, ref=ref: self.check(ref, r),
                                  meta=meta)
            return out

        return multistep.sweep_2step(self.factory, CHAIN_GRID[list(rows)],
                                     CHAIN_GRID[list(rows)], seed=self.chain_seed,
                                     mapper=mapper)

    def warmup(self, clock):
        """One untimed point, the same whatever the seed: (2, 2) with solve seed 0."""
        ChainWorkload(0, self.all_refs).sweep(CHAIN_POINTS[:1], clock)

    def run_round(self, rows, clock):
        self.sweep(rows, clock)

    @staticmethod
    def check(ref, rec):
        if rec["class"] == "suboptimal-converged":
            raise OpError("suboptimal-converged")
        if rec["f_multi"] < rec["f_single"] - CHAIN_TOL:
            return f"f_multi {rec['f_multi']!r} < f_single {rec['f_single']!r}"
        if ref is not None and rec["class"] != ref[0]:
            return f"class {rec['class']} but reference {ref[0]}"
        if ref is not None and abs(rec["f_multi"] - ref[1]) > CHAIN_TOL:
            return f"f_multi {rec['f_multi']!r} but reference {ref[1]!r}"
        return None


def _grid_index(lam):
    return int(np.argmin(np.abs(CHAIN_GRID - lam)))


# ---------------------------------------------------------------------------
# closed-form pair kernels
# ---------------------------------------------------------------------------


def draw_pair_op(rng, forced_b):
    """One qubit tracking instance (criterion 2) plus one mixed pair per d = 2..6."""
    if forced_b:
        th, tb = np.sort(rng.uniform(0.1, np.pi / 2 - 0.02, 2))
        r1, r2 = bloch_pair(th)
        t1, t2 = bloch_pair(tb)
        pi1 = 0.5
    else:
        r1, r2 = ginibre_state(2, rng), ginibre_state(2, rng)
        pure = [bool(rng.integers(0, 2)) for _ in range(2)]
        t1, t2 = (haar_pure_state(2, rng) if p else ginibre_state(2, rng) for p in pure)
        pi1 = float(rng.uniform(0.05, 0.95))
    bounds = [(ginibre_state(d, rng), ginibre_state(d, rng)) for d in range(2, 7)]
    return (r1, r2, t1, t2, pi1), bounds


def host_speed_kernel():
    """A fixed tiny-matrix numpy task, independent of qtrack, timed after every op.

    On a shared host the speed of this process swings by +-25 % from second to
    second with the load of other tenants. The kernel swings with the ops: on
    pair_kernels the ratio of the two rates varied by 1.5 % over one-second
    windows where each rate varied by 13 %.
    """
    rng = np.random.default_rng(0)
    mats = [ginibre_state(d, rng) for d in range(2, 7)]

    def kernel():
        for m in mats:
            w, u = np.linalg.eigh(m)
            (u * np.sqrt(np.abs(w))) @ u.conj().T
            np.trace(m @ m).real

    return kernel


def pair_op(inputs):
    from qtrack import analytic, distances

    (r1, r2, t1, t2, pi1), bounds = inputs
    tracker = analytic.track_pair(r1, r2, t1, t2, pi1)
    reports = [distances.check_bounds(a, b) for a, b in bounds]
    return tracker, reports


class PairWorkload:
    """`analytic.track_pair` + `distances.check_bounds` at d = 2..6 per op."""

    round_s = 1.8

    def __init__(self, seed):
        from qtrack.channels import DensityMatrix

        def draw(rng, forced_b):
            pair, bounds = draw_pair_op(rng, forced_b)
            pair = tuple(DensityMatrix(m) for m in pair[:4]) + (pair[4],)
            return pair, [(DensityMatrix(a), DensityMatrix(b)) for a, b in bounds]

        rng = order_rng(5, seed)
        self.inputs = [draw(rng, forced_b=k % 3 == 2) for k in range(PAIR_POOL)]
        # the untimed warm-up op is the same whatever the seed
        self.warmup_inputs = draw(pool_rng(5, 0), forced_b=False)

    def rounds(self):
        return itertools.repeat(self.inputs)

    def warmup(self, clock):
        clock.op(pair_op, self.warmup_inputs, check=self.check)

    def run_round(self, inputs, clock):
        for op_inputs in inputs:
            clock.op(pair_op, op_inputs, check=self.check)

    @staticmethod
    def check(result):
        tracker, reports = result
        cert = tracker.certificate
        if cert.min_eig < -CERT_EIG_TOL:
            return f"certificate min_eig {cert.min_eig!r}"
        if cert.weak_duality_residual > CERT_WEAK_TOL:
            return f"weak duality residual {cert.weak_duality_residual!r}"
        if cert.slackness_residual > CERT_SLACK_TOL:
            return f"slackness residual {cert.slackness_residual!r}"
        for d, rep in zip(range(2, 7), reports):
            worst = min(v for k, v in rep.items() if k not in ("rank", "values"))
            if worst < -BOUND_SLACK_TOL:
                return f"bound slack {worst!r} at d = {d}"
        return None


WORKLOADS = ("solve_small", "chain_sweep", "pair_kernels")


def make_workload(name, seed, workdir, refs):
    if name == "chain_sweep":
        return ChainWorkload(seed, refs)
    if name == "pair_kernels":
        return PairWorkload(seed)
    return SolveWorkload(seed, workdir, refs)
