"""qtrack command line: one subcommand per capability.

Exit codes: 0 success, 2 validation/input error, 3 solver failure.  Every
randomized command requires ``--seed`` and is byte-for-byte reproducible for a
fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import analytic, applications, distances, multistep, serialize, tracking
from .channels import (
    apply_choi_raw,
    bloch_of,
    canonical_qubit,
    check_cptp,
    check_ppt,
    random_state,
)
from .linalg import LinalgError
from .sdp import SolverError, SolverOptions
from .serialize import FormatError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3

PLOT_COLUMNS = {
    "stabilize_grid": ("p", "theta", "ddr1", "ddr2", "sdr", "dn", "qc"),
    "bound_scatter": ("d", "D", "one_minus_FN"),
    "multistep_sweep": ("lam1", "lam2", "t3", "class", "f_multi", "f_single"),
    "bench": ("measure", "mean_seconds"),
    "bound_report": ("measure", "value", "slack"),
}


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 2 with one line; ``-h`` still prints the usage."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _int_in(lo, hi=None):
    """argparse type: an integer of at least ``lo`` (and at most ``hi``)."""

    def parse(text):
        val = int(text)
        if val < lo or (hi is not None and val > hi):
            span = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {val}")
        return val

    parse.__name__ = "int"
    return parse


def _positive(text):
    val = float(text)
    if not val > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return val


def _cell(text):
    i, sep, d = text.partition("x")
    if not (sep and i.isdigit() and d.isdigit() and int(i) >= 1 and int(d) >= 2):
        raise argparse.ArgumentTypeError(f"cell must be IxD with I >= 1 and D >= 2, got {text!r}")
    return int(i), int(d)


def emit_plotdata(rows, kind):
    """Render sweep results as CSV with a stable column order (%.10e numbers)."""
    columns = PLOT_COLUMNS[kind]
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            val = row[col]
            cells.append(val if isinstance(val, str) else "%.10e" % val)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write(text, path=None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_result(obj, args):
    """Scalar result payloads honor --format json|csv (key,value rows)."""
    if getattr(args, "format", "json") == "csv":
        lines = ["key,value"]
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (int, float, bool, str)):
                cell = val if isinstance(val, str) else "%.10e" % float(val)
                lines.append(f"{key},{cell}")
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(serialize.dump_json(obj) + "\n", args.out)


def _cmd_distances(args):
    a = serialize.state_from_json(serialize.load_json(args.a))
    b = serialize.state_from_json(serialize.load_json(args.b))
    if args.bounds:
        report = distances.check_bounds(a, b)
        rows = [
            {"measure": k, "value": float("nan"), "slack": v}
            for k, v in report.items()
            if k not in ("rank", "values")
        ]
        for key, val in report["values"].items():
            rows.append({"measure": key, "value": val, "slack": float("nan")})
        _write(emit_plotdata(rows, "bound_report"), args.out)
        return EXIT_OK
    value = distances.measure(args.measure, a, b)
    _emit_result({"measure": args.measure, "value": value}, args)
    return EXIT_OK


def _cmd_scatter(args):
    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(args.n):
        a = random_state(args.d, rng, pure=False)
        b = random_state(args.d, rng, pure=False)
        rows.append(
            {
                "d": float(args.d),
                "D": distances.trace_distance(a, b),
                "one_minus_FN": 1.0 - distances.super_fidelity(a, b),
            }
        )
    _write(emit_plotdata(rows, "bound_scatter"), args.out)
    return EXIT_OK


def _cmd_channel(args):
    choi = serialize.channel_from_json(serialize.load_json(args.infile))
    out = {
        "d": choi.d,
        "cptp": check_cptp(choi),
        "ppt": check_ppt(choi),
    }
    if choi.d == 2 and out["cptp"]["cp"] and out["cptp"]["tp"]:
        out["canonical"] = serialize.canonical_to_json(canonical_qubit(choi))
    _write(serialize.dump_json(out) + "\n", args.out)
    return EXIT_OK


def _cmd_solve(args):
    src, tgt = serialize.problem_from_json(serialize.load_json(args.problem))
    tp = tracking.TrackingProblem(src, tgt, args.objective, args.feasible)
    if args.dump_problem:
        serialize.dump_json(
            serialize.sdp_problem_to_json(tracking.assemble(tp)), args.dump_problem
        )
    res = tracking.solve_tracking(tp, SolverOptions(gap_tol=args.gap_tol))
    out = {
        "objective": args.objective,
        "feasible": args.feasible,
        "value": res.value,
        "controller": serialize.channel_to_json(res.controller),
        "cptp": res.cptp_report,
        "ppt": res.ppt_report,
        "certificate": {
            "gap": res.solution.gap if res.solution else 0.0,
            "residuals": res.solution.residuals if res.solution else {},
        },
    }
    if tp.d == 2:
        # the controller's trace error is already reported under "cptp", so
        # its outputs are not re-validated as states
        out["output_bloch"] = [
            bloch_of(apply_choi_raw(res.controller.mat, s.mat)).tolist() for s in src.states
        ]
    _write(serialize.dump_json(out) + "\n", args.out)
    return EXIT_OK


def _cmd_analytic(args):
    srcs = [serialize.state_from_json(serialize.load_json(p)) for p in args.src]
    tgts = [serialize.state_from_json(serialize.load_json(p)) for p in args.tgt]
    if len(srcs) != 2 or len(tgts) != 2:
        raise FormatError("analytic tracking needs exactly two sources and two targets")
    pi1 = args.pi[0]
    if not all(0.0 < p < 1.0 for p in args.pi):
        raise FormatError("priorities must lie in (0, 1)")
    if abs(sum(args.pi) - 1.0) > 1e-12:
        raise FormatError("priorities must sum to one")
    res = analytic.track_pair(srcs[0], srcs[1], tgts[0], tgts[1], pi1)
    out = {
        "omega": res.omega,
        "procedure": res.procedure,
        "fidelity": res.fidelity,
        "unique": res.unique,
        "canonical": serialize.canonical_to_json(res.canonical),
        "certificate": {
            "coefficients": res.certificate.coefficients.tolist(),
            "min_eig": res.certificate.min_eig,
            "weak_duality_residual": res.certificate.weak_duality_residual,
            "slackness_residual": res.certificate.slackness_residual,
        },
        "controller": serialize.channel_to_json(res.choi),
    }
    _write(serialize.dump_json(out) + "\n", args.out)
    return EXIT_OK


def _cmd_stabilize(args):
    if args.grid:
        ps = np.linspace(0.5 / args.grid, 0.5, args.grid)
        thetas = np.linspace(np.pi / 2 / args.grid, np.pi / 2, args.grid)
        rows = []
        for p in ps:
            for th in thetas:
                f = applications.stabilization_fidelities(
                    applications.DephasingTask(p, th)
                )
                rows.append(
                    {
                        "p": p,
                        "theta": th,
                        "ddr1": f["ddr1"],
                        "ddr2": f["ddr2"],
                        "sdr": f["sdr"],
                        "dn": f["dn"],
                        "qc": f["qc_opt"],
                    }
                )
        _write(emit_plotdata(rows, "stabilize_grid"), args.out)
        return EXIT_OK
    task = applications.DephasingTask(args.p, args.theta)
    out = applications.stabilization_fidelities(task)
    out["quantum_certificate"] = applications.quantum_optimality_certificate(task)
    out["classical_certificate"] = applications.classical_optimality_certificate(task)
    _emit_result(out, args)
    return EXIT_OK


def _cmd_discriminate(args):
    a = serialize.state_from_json(serialize.load_json(args.a))
    b = serialize.state_from_json(serialize.load_json(args.b))
    out = applications.discriminate(a, b, args.p1)
    _emit_result(out, args)
    return EXIT_OK


def _cmd_clone(args):
    out = {
        "phi": args.phi,
        "pi1": args.pi1,
        "fidelity": applications.clone_fidelity(args.phi, args.pi1),
    }
    _emit_result(out, args)
    return EXIT_OK


def _cmd_au_check(args):
    srcs = [serialize.state_from_json(serialize.load_json(p)) for p in args.src]
    tgts = [serialize.state_from_json(serialize.load_json(p)) for p in args.tgt]
    out = applications.alberti_uhlmann(srcs[0], srcs[1], tgts[0], tgts[1])
    _write(serialize.dump_json(out) + "\n", args.out)
    return EXIT_OK


def _load_noise(obj):
    if "lam" in obj:
        try:
            lam, t = (np.asarray(v, dtype=float).reshape(3)
                      for v in (obj["lam"], obj.get("t", [0.0, 0.0, 0.0])))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"noise 'lam' and 't' must each hold three reals: {exc}") from exc
        return multistep.diagonal_noise(lam, t)  # LinalgError unless a channel
    choi = serialize.channel_from_json(obj)
    return canonical_qubit(choi)


def _cmd_multistep(args):
    task_obj = serialize.load_json(args.task)
    src, tgt = serialize.problem_from_json(task_obj)
    if len(src) != 2:
        raise FormatError("multistep tracking supports pairs (I = 2)")
    if args.sweep:
        grid = np.linspace(args.sweep_min, args.sweep_max, args.sweep)

        def factory(noise):
            return multistep.ChainTask(
                list(src.states), list(tgt.states), src.priorities, [noise]
            )

        records = multistep.sweep_2step(
            factory, grid, grid, multistep.ChainOptions(restarts=args.restarts), seed=args.seed
        )
        _write(emit_plotdata(records, "multistep_sweep"), args.out)
        return EXIT_OK
    if args.noise is None:
        raise FormatError("multistep needs --noise (a chain solve) or --sweep (a noise sweep)")
    noises = serialize.load_json(args.noise)
    if not (isinstance(noises, list) and all(isinstance(obj, dict) for obj in noises)):
        raise FormatError("--noise needs a JSON list of noise objects")
    noises = [_load_noise(obj) for obj in noises]
    if len(noises) != args.steps - 1:
        raise FormatError(f"{args.steps}-step chain needs {args.steps - 1} noises")
    task = multistep.ChainTask(list(src.states), list(tgt.states), src.priorities, noises)
    chain = multistep.solve_chain(
        task, multistep.ChainOptions(restarts=args.restarts), seed=args.seed
    )
    out = {
        "fidelity": chain.fidelity,
        "single_step_fidelity": task.single_step_fidelity(),
        "residual": chain.residual,
        "seed_chain": chain.seed_label,
        "controllers": [serialize.canonical_to_json(ctrl) for ctrl in chain.controllers],
    }
    _write(serialize.dump_json(out) + "\n", args.out)
    return EXIT_OK


def _cmd_compat(args):
    results = tracking.compatibility_experiment(
        args.cells, args.samples, args.seed, target_pure=True
    )
    out = {}
    for cell, data in results.items():
        key = f"I{cell[0]}d{cell[1]}"
        out[key] = {
            "drops": {
                f"{x}|{y}": {"mean": m, "std": s}
                for (x, y), (m, s) in data["drops"].items()
            },
            "orderings": data["orderings"],
        }
    _write(serialize.dump_json(out) + "\n", args.out)
    return EXIT_OK


def _cmd_bench(args):
    rng = np.random.default_rng(args.seed)
    times = distances.benchmark_measures(args.d, args.repeats, rng)
    rows = [{"measure": k, "mean_seconds": v} for k, v in times.items()]
    ordering = sorted(times, key=times.get)
    _write(emit_plotdata(rows, "bench") + "# fastest-to-slowest: " + ",".join(ordering) + "\n", args.out)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="qtrack",
        description="Optimal quantum operations for tracking sequences of density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distances", help="evaluate a distance/closeness measure")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--measure", default="F", choices=distances.MEASURES)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--bounds", action="store_true", help="emit the bound-slack CSV report")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_distances)

    p = sub.add_parser("scatter-bounds", help="random-state scatter of D vs 1 - F_N")
    p.add_argument("--d", type=_int_in(2), required=True)
    p.add_argument("--n", type=_int_in(1), default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_scatter)

    p = sub.add_parser("channel", help="inspect a channel (CPTP/PPT/canonical form)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_channel)

    p = sub.add_parser("solve", help="solve a tracking SDP")
    p.add_argument("--problem", required=True)
    p.add_argument("--objective", required=True, choices=tracking.OBJECTIVES)
    p.add_argument("--feasible", default="cptp", choices=tracking.FEASIBLE_SETS)
    p.add_argument("--gap-tol", type=_positive, default=1e-9)
    p.add_argument("--dump-problem", help="also write the assembled program as JSON")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("analytic", help="closed-form optimal tracker for a qubit pair")
    p.add_argument("--src", nargs=2, required=True)
    p.add_argument("--tgt", nargs=2, required=True)
    p.add_argument("--pi", nargs=2, type=float, default=(0.5, 0.5))
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_analytic)

    p = sub.add_parser("stabilize", help="dephasing stabilization fidelities")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--p", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--grid", type=_int_in(1), help="emit a grid CSV instead of one point")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_stabilize)

    p = sub.add_parser("discriminate", help="Helstrom vs tracking discrimination")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_discriminate)

    p = sub.add_parser("clone", help="state-dependent cloning fidelity")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--pi1", type=float, default=0.5)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_clone)

    p = sub.add_parser("au-check", help="two-state convertibility criterion")
    p.add_argument("--src", nargs=2, required=True)
    p.add_argument("--tgt", nargs=2, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_au_check)

    p = sub.add_parser("multistep", help="multi-step chain solve or 2-step sweep")
    p.add_argument("--steps", type=_int_in(2), default=2)
    p.add_argument("--noise", help="JSON list of noise channels")
    p.add_argument("--task", required=True, help="JSON with source/target sequences")
    p.add_argument("--restarts", type=_int_in(1, multistep.MAX_RESTARTS),
                   default=multistep.MAX_RESTARTS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sweep", type=_int_in(1),
                   help="grid size: sweep extremal noises instead")
    p.add_argument("--sweep-min", type=float, default=0.05)
    p.add_argument("--sweep-max", type=float, default=0.95)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_multistep)

    p = sub.add_parser("compat", help="cross-objective compatibility experiment")
    p.add_argument("--cells", nargs="+", type=_cell, default=((2, 2),),
                   help="IxD cells, e.g. 2x2 3x2")
    p.add_argument("--samples", type=_int_in(1), default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_compat)

    p = sub.add_parser("bench", help="relative measure-cost ordering")
    p.add_argument("--d", type=_int_in(2), default=32)
    p.add_argument("--repeats", type=_int_in(1), default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fn is _cmd_stabilize and not args.grid and None in (args.p, args.theta):
        parser.error("stabilize needs --p and --theta, or --grid")
    try:
        return args.fn(args)
    except (FormatError, LinalgError) as exc:
        print(f"qtrack: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverError as exc:
        print(f"qtrack: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
