"""Arithmetic of the reported metrics: latency statistics and per-layer figures."""

from __future__ import annotations

import statistics

from tracer import DISTANCE_KERNELS, ROOT_SPAN, busy_times, nesting_faults, self_times

TAIL_BEYOND = 10


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """(percentile, value): the highest percentile with ``beyond`` samples above it.

    The value is the sample of rank n - beyond in ascending order, so exactly
    ``beyond`` samples rank above it; its percentile is 100 (n - beyond) / n.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, have {n}")
    return 100.0 * (n - beyond) / n, sorted(samples)[n - beyond - 1]


def rescale(latencies_ns, kernel_ns, reference_ns, half_window=1):
    """Scale each latency by reference_ns over the median kernel time around it.

    ``kernel_ns[i]`` was measured right after op ``i``; the median over the
    ``2 * half_window + 1`` nearest kernel runs (by default the runs right
    before and right after the op, and after the next op) estimates the
    host's speed while the op ran.
    """
    out = []
    for i, lat in enumerate(latencies_ns):
        near = kernel_ns[max(0, i - half_window): i + half_window + 1]
        out.append(lat * reference_ns / statistics.median(near))
    return out


def end_to_end(latencies_ns):
    """ops_per_s, op_p50_ms and op_tail_ms of a list of op latencies."""
    total_s = sum(latencies_ns) / 1e9
    pct, tail = tail_percentile(latencies_ns)
    return {
        "ops_per_s": len(latencies_ns) / total_s,
        "op_p50_ms": statistics.median(latencies_ns) / 1e6,
        "op_tail_ms": tail / 1e6,
        "op_tail_percentile": pct,
        "ops": len(latencies_ns),
    }


# (metric stem, span names) whose busy time is reported as <stem>.busy_ms_per_op
BUSY = [
    ("sdp.solve", {"sdp.solve"}),
    ("tracking.assemble", {"tracking.assemble"}),
    ("tracking.checks", {"tracking.check_cptp", "tracking.check_ppt"}),
    ("serialize", None),  # every serialize.* span
    ("multistep.solve_chain", {"multistep.solve_chain"}),
    ("analytic.optimal_canonical", {"analytic.optimal_canonical"}),
    ("analytic.PairGeometry", {"analytic.PairGeometry"}),
    ("analytic.dual_certificate", {"analytic.dual_certificate"}),
    ("channels.QubitChannelCanonical", {"channels.QubitChannelCanonical"}),
    ("channels.assemble_qubit_choi", {"channels.assemble_qubit_choi"}),
] + [(f"distances.{k}", {f"distances.{k}"}) for k in DISTANCE_KERNELS]

SELF = ["tracking.solve_tracking", "cli.main", "analytic.track_pair", "distances.check_bounds"]

CALLS = ["multistep.backward_target", "multistep.forward_state", "analytic.optimal_canonical",
         "analytic.PairGeometry", "channels.QubitChannelCanonical"]


def per_layer(tracer, solves):
    """Per-op layer metrics of a traced run, plus the spans that do not nest.

    ``solves`` holds one dict per ``sdp.solve`` call with its iterations and
    status. The second result is :func:`tracer.nesting_faults` of the run:
    when it is empty, each op's self times add up to its traced wall time.
    """
    names = [tracer.names[i] for i in tracer.span_name]
    starts, ends, parents = tracer.start, tracer.end, tracer.parent
    selfs = self_times(starts, ends, parents)
    n_ops = len(tracer.op_first)
    faults = nesting_faults(starts, ends, parents, tracer.op_first, selfs)

    out = {}
    for stem, group in BUSY:
        group = group or {n for n in tracer.names if n.startswith(stem + ".")}
        out[f"{stem}.busy_ms_per_op"] = busy_times(names, starts, ends, parents, group) / 1e6 / n_ops
    for name in SELF:
        out[f"{name}.self_ms_per_op"] = sum(
            s for s, n in zip(selfs, names) if n == name) / 1e6 / n_ops
    for name in CALLS:
        out[f"{name}.calls_per_op"] = names.count(name) / n_ops
    degenerate = sum(1 for i, e in tracer.errors.items()
                     if names[i] == "analytic.PairGeometry" and e == "DegenerateGeometryError")
    out["analytic.PairGeometry.degenerate_per_op"] = degenerate / n_ops
    iters = sum(s["iterations"] for s in solves)
    out["sdp.iters_per_solve"] = iters / len(solves) if solves else 0.0
    out["sdp.ms_per_iter"] = out["sdp.solve.busy_ms_per_op"] * n_ops / iters if iters else 0.0
    out["sdp.not_optimal"] = sum(s["status"] != "optimal" for s in solves) / n_ops
    out["bench.self_ms_per_op"] = sum(
        s for s, n in zip(selfs, names) if n == ROOT_SPAN) / 1e6 / n_ops
    return out, faults
