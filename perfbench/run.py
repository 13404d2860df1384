"""qtrack benchmark runner.

    python3 perfbench/run.py --workload solve_small --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop (one caller, one thread: the next op starts
when the previous one has returned) for ``round(--seconds / round_s)`` whole
rounds of the workload's input mix, where ``round_s`` is the round's duration
on the reference host, checks every op's output, and prints one row per
metric followed by a one-line JSON result. ``--workload
all`` runs every workload in turn, each in its own process, and prints one
row per workload.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` installs timing
wrappers, runs the rounds of half of ``--seconds`` traced, removes the
wrappers, replays the same rounds untraced, and reports the per-layer metrics; the replay gives
``trace.overhead_frac``. Detailed results, the environment, and (traced) every
span and solve record go to ``perfbench/out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import benchenv  # noqa: E402

benchenv.prepare()

import summary  # noqa: E402
import workloads  # noqa: E402
from workloads import OpError  # noqa: E402

SETUP_PROBES = 4
PROBE_TIMEOUT_S = 150


class Clock:
    """Times ops, runs their output checks, and keeps the tallies.

    An op's latency is the CPU time of this process during the op. The loop
    is single-threaded, so that is its wall time less the time the process
    was preempted: on a shared 2-CPU host other processes preempt it for
    3-10 ms about once a second, which set every high percentile of a 3 ms op
    when measured in wall time.

    With ``host_speed``, a fixed kernel independent of qtrack runs after every
    op, and :meth:`normalized` rescales each op to the host speed at which the
    kernel takes ``workloads.CAL_REF_NS``. The raw CPU and wall times are kept too.
    """

    def __init__(self, tracer=None, host_speed=None):
        self.tracer = tracer
        self.host_speed = host_speed
        self.latencies = []  # CPU ns per op
        self.walls = []  # wall ns per op
        self.kernel_ns = []  # CPU ns of the host-speed kernel after each op
        self.errors = []  # ops that raised or reported a failure
        self.wrong = []  # ops whose output failed a check
        self.unexpected = []  # failures other than the op's known_failure, if any
        self.solves = []

    def op(self, fn, arg, check, meta=None):
        tracer = self.tracer
        error = reason = None
        cpu = time.process_time_ns()
        if tracer is not None:
            tracer.begin_op()
        else:
            start = time.perf_counter_ns()
        try:
            result = fn(arg)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = tracer.end_op() if tracer is not None else time.perf_counter_ns() - start
        self.latencies.append(time.process_time_ns() - cpu)
        self.walls.append(wall)
        if self.host_speed is not None:
            cpu = time.process_time_ns()
            self.host_speed()
            self.kernel_ns.append(time.process_time_ns() - cpu)
        if tracer is not None:
            self._collect(meta or {})
        if error is None:
            try:
                reason = check(result)
            except OpError as exc:
                error = str(exc)
            except Exception as exc:  # a check that cannot run cannot pass
                reason = f"check raised {type(exc).__name__}: {exc}"
            if error is None and reason is not None:
                self.wrong.append(f"{_label(meta)}{reason}")
        if error is not None:
            self.errors.append(f"{_label(meta)}{error}")
        failure = error or reason
        if failure is not None and failure != (meta or {}).get("known_failure"):
            self.unexpected.append(f"{_label(meta)}{failure}")
        return result

    def _collect(self, meta):
        """Turn the op's kept results into solve records, then drop them."""
        from qtrack import tracking

        tracer, size = self.tracer, None
        for idx in sorted(tracer.results):
            obj = tracer.results[idx]
            if tracer.names[tracer.span_name[idx]] == "tracking.assemble":
                size = tracking.problem_size(obj)
                continue
            self.solves.append({
                "op": len(self.latencies) - 1,
                **{k: meta.get(k) for k in ("I", "d", "objective", "feasible")},
                "n_vars": size[0] if size else None,
                "lmi_dim": size[1] if size else None,
                "iterations": int(obj.iterations),
                "status": obj.status,
            })
        tracer.results.clear()

    def normalized(self):
        """Op latencies rescaled to the reference host speed."""
        return summary.rescale(self.latencies, self.kernel_ns, workloads.CAL_REF_NS)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return len(self.errors) + len(self.wrong)


def _label(meta):
    if not meta or "key" not in meta:
        return ""
    return f"[{meta.get('pool', '')} {meta['key']}] "


def run_rounds(workload, clock, seconds, replay=None):
    """Run ``round(seconds / workload.round_s)`` whole rounds, at least one, or ``replay``."""
    rounds = replay or list(
        itertools.islice(workload.rounds(), max(1, round(seconds / workload.round_s))))
    for rnd in rounds:
        workload.run_round(rnd, clock)
    return rounds


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in benchenv.THREAD_VARS + ("QTRACK_THREADS",)},
        "commit": _commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _commit():
    """HEAD of the checkout when it is a git work tree; read without running git."""
    git = os.path.join(benchenv.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next(ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def setup(args, workdir):
    """Everything before the first timed op: imports, inputs, one warm-up op."""
    benchenv.import_qtrack()

    with open(os.path.join(benchenv.ROOT, "perfbench", "reference.json")) as fh:
        refs = json.load(fh)
    workload = workloads.make_workload(args.workload, args.seed, workdir, refs)
    warm = Clock()
    workload.warmup(warm)
    if warm.unexpected:
        raise RuntimeError(f"warm-up op failed: {warm.unexpected[0]}")
    return workload


def probe_setup(args):
    """Set-up time of a fresh process running the same set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def traced_run(args, workload):
    import tracer as tr

    tracer = tr.Tracer()
    targets = tr.trace_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer.install(targets)
    try:
        traced = Clock(tracer, workloads.host_speed_kernel())
        rounds = run_rounds(workload, traced, args.seconds / 2.0)
    finally:
        tracer.restore()
    restored = all(vars(owner)[attr] is orig
                   for (owner, attr, _, _), orig in zip(targets, originals))
    plain = Clock(host_speed=workloads.host_speed_kernel())
    run_rounds(workload, plain, args.seconds / 2.0, replay=rounds)
    layers, faults = summary.per_layer(tracer, traced.solves)
    layers["trace.overhead_frac"] = sum(traced.normalized()) / sum(plain.normalized()) - 1.0
    problems = []
    if not restored:
        problems.append("a timing wrapper was not restored")
    if faults:
        problems.append(f"{len(faults)} spans do not nest, first: {faults[0]}")
    return traced, plain, layers, problems, tracer


def write_spans(path, tracer):
    with open(path, "w") as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\top\terror\n")
        for row in tracer.rows():
            fh.write("\t".join("" if v is None else str(v) for v in row) + "\n")


def run_all(args):
    """Each workload in its own process; one row per workload."""
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= res["correct"]
        rows.append((name, res))
    metrics = list(rows[0][1]["metrics"])
    failed = {name: res["failed"] / res["attempted"] for name, res in rows}
    if args.trace:  # 31 per-layer metrics read better as rows
        print(f"{'metric':<44}" + "".join(f"{name:>16}" for name, _ in rows))
        for m in metrics:
            print(f"{m:<44}" + "".join(f"{res['metrics'][m]['value']:>16.6g}" for _, res in rows))
        print(f"{'failed_frac':<44}" + "".join(f"{failed[name]:>16.6g}" for name, _ in rows))
    else:
        print(f"{'workload':<14}" + "".join(f"{m:>28}" for m in metrics) + f"{'failed_frac':>14}")
        for name, res in rows:
            cells = "".join(f"{res['metrics'][m]['value']:>20.6g} {res['metrics'][m]['unit']:<7}"
                            for m in metrics)
            print(f"{name:<14}{cells}{failed[name]:>14.5f}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    os.makedirs(benchenv.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=benchenv.OUT) as workdir:
        workload = setup(args, workdir)
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        detail = {"environment": environment(args)}
        if args.trace:
            clock, plain, metrics, problems, tracer = traced_run(args, workload)
            clocks = (clock, plain)
            detail["solves"] = clock.solves
        else:
            clock = Clock(host_speed=workloads.host_speed_kernel())
            run_rounds(workload, clock, args.seconds)
            clocks, problems = (clock,), []
            e2e = summary.end_to_end(clock.normalized())
            setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            metrics = {
                "ops_per_s": e2e["ops_per_s"],
                "op_p50_ms": e2e["op_p50_ms"],
                "op_tail_ms": e2e["op_tail_ms"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            detail.update(tail_percentile=e2e["op_tail_percentile"], ops=e2e["ops"],
                          setup_runs_s=setups, cpu=summary.end_to_end(clock.latencies),
                          wall=summary.end_to_end(clock.walls), latencies_cpu_ns=clock.latencies,
                          latencies_wall_ns=clock.walls, kernel_ns=clock.kernel_ns)

    attempted = sum(c.attempted for c in clocks)
    failed = sum(c.failed for c in clocks)
    wrong = [w for c in clocks for w in c.wrong]
    errors = [e for c in clocks for e in c.errors]
    unexpected = [u for c in clocks for u in c.unexpected]
    correct = not unexpected and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": unit(k)}
                    for k, v in metrics.items()},
    }
    detail.update(result=result, failed_frac=failed / attempted, errors=errors, wrong=wrong,
                  unexpected=unexpected, problems=problems)
    stem = os.path.join(benchenv.OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        write_spans(stem + "-spans.tsv", tracer)

    for msg in problems + [f"new failure: {u}" for u in unexpected[:20]]:
        print(f"# {msg}")
    for msg in sorted(set(wrong + errors) - set(unexpected))[:20]:
        print(f"# known failure: {msg}")
    if "op_tail_ms" in metrics:
        print(f"# op_tail_ms is p{detail['tail_percentile']:.2f} of {detail['ops']} ops")
    print(f"{'failed_frac':<48}{failed / attempted:>16.6g} ({failed} of {attempted} ops)")
    for name, entry in result["metrics"].items():
        print(f"{name:<48}{entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "trace.overhead_frac": "fraction", "sdp.ms_per_iter": "ms/iter",
         "sdp.iters_per_solve": "iter/solve", "sdp.not_optimal": "solves/op"}


def unit(name):
    if name.endswith("ms_per_op"):
        return "ms/op"
    if name.endswith("calls_per_op") or name.endswith("degenerate_per_op"):
        return "calls/op"
    return UNITS[name]


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
