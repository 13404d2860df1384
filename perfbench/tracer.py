"""Spans recorded from outside qtrack, around calls into its public functions.

A :class:`Tracer` replaces each traced name where its caller looks it up (a
module global, a module attribute, or ``__post_init__`` on a dataclass) with a
wrapper that records a span, and puts every original back in
:meth:`Tracer.restore`. Wrappers record only while an op is open, so the
benchmark's own output checks leave no spans.

Spans live in flat columns (name id, start, end, parent index, error flag);
the spans of one op are contiguous and start with its root span
``bench.op``, whose self time is the benchmark-side time of that op.
"""

from __future__ import annotations

import functools
import time
from array import array

ROOT_SPAN = "bench.op"


def trace_targets():
    """(owner, attribute, span name, keep result) for every traced call site."""
    from qtrack import analytic, channels, cli, distances, multistep, sdp, serialize, tracking

    targets = [
        (cli, "main", "cli.main", False),
        (tracking, "solve_tracking", "tracking.solve_tracking", False),
        (tracking, "assemble", "tracking.assemble", True),
        (tracking, "check_cptp", "tracking.check_cptp", False),
        (tracking, "check_ppt", "tracking.check_ppt", False),
        (sdp, "solve", "sdp.solve", True),
        (analytic, "track_pair", "analytic.track_pair", False),
        (analytic, "optimal_canonical", "analytic.optimal_canonical", False),
        (multistep, "optimal_canonical", "analytic.optimal_canonical", False),
        (analytic, "dual_certificate", "analytic.dual_certificate", False),
        (analytic.PairGeometry, "__post_init__", "analytic.PairGeometry", False),
        (channels.QubitChannelCanonical, "__post_init__", "channels.QubitChannelCanonical",
         False),
        (analytic, "assemble_qubit_choi", "channels.assemble_qubit_choi", False),
        (multistep, "solve_chain", "multistep.solve_chain", False),
        (multistep, "backward_target", "multistep.backward_target", False),
        (multistep, "forward_state", "multistep.forward_state", False),
        (distances, "check_bounds", "distances.check_bounds", False),
    ]
    for fn in ("load_json", "problem_from_json", "channel_to_json", "dump_json"):
        targets.append((serialize, fn, f"serialize.{fn}", False))
    for fn in DISTANCE_KERNELS:
        targets.append((distances, fn, f"distances.{fn}", False))
    return targets


DISTANCE_KERNELS = ("fidelity_uhlmann", "super_fidelity", "trace_distance", "hs_distance",
                    "spectral_distance", "difference_rank")


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = [ROOT_SPAN]
        self.name_id = {ROOT_SPAN: 0}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.errors = {}  # span index -> exception class name
        self.results = {}  # span index -> returned object, dropped by the caller
        self.op_first = []  # index of each op's root span
        self._stack = []
        self._installed = []

    # -- ops ----------------------------------------------------------------

    def begin_op(self):
        idx = self._push(0, -1)
        self.op_first.append(idx)
        self._stack.append(idx)
        self.start[idx] = self.clock()

    def end_op(self):
        """Close the root span; returns its duration in ns."""
        idx = self._stack[0]
        self.end[idx] = self.clock()
        self._stack.clear()
        return self.end[idx] - self.start[idx]

    def _push(self, nid, parent):
        idx = len(self.start)
        self.span_name.append(nid)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(parent)
        return idx

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, keep_result=False):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._push(nid, stack[-1])
            stack.append(idx)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                stack.pop()
                self.errors[idx] = type(exc).__name__
                raise
            self.end[idx] = clock()
            stack.pop()
            if keep_result:
                self.results[idx] = result
            return result

        return traced

    def install(self, targets):
        for owner, attr, name, keep in targets:
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, keep))

    def restore(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def op_range(self, op):
        first = self.op_first[op]
        last = self.op_first[op + 1] if op + 1 < len(self.op_first) else len(self.start)
        return range(first, last)

    def rows(self):
        """Every span as (name, start_ns, end_ns, parent, op, error)."""
        for op in range(len(self.op_first)):
            for i in self.op_range(op):
                yield (self.names[self.span_name[i]], self.start[i], self.end[i],
                       self.parent[i], op, self.errors.get(i))


def self_times(starts, ends, parents):
    """Duration of each span minus the time covered by its direct children.

    When the spans nest (see :func:`nesting_faults`), children never overlap,
    so the self times of one op's spans add up to its root span's duration.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


def nesting_faults(starts, ends, parents, op_first, selfs):
    """One message per span that breaks nesting; empty when the spans nest.

    An op's first span is its root and has no parent. Every other span of the
    op must have an earlier span of the same op as parent, lie inside its
    parent's interval, start no earlier than its previous sibling ends, and
    not end before it starts. ``selfs`` (from :func:`self_times`) must then
    be non-negative; a span whose self time is negative is reported too.
    """
    faults = []
    bounds = list(op_first) + [len(starts)]
    sibling_end = {}  # parent index -> end of its latest child
    for op in range(len(op_first)):
        first = bounds[op]
        for i in range(first, bounds[op + 1]):
            s, e, p = starts[i], ends[i], parents[i]
            fault = None
            if e < s:
                fault = "ends before it starts"
            elif i == first:
                if p != -1:
                    fault = f"is a root span with parent {p}"
            elif not first <= p < i:
                fault = f"has parent {p} outside the op"
            elif s < starts[p] or e > ends[p]:
                fault = f"escapes its parent {p}"
            elif s < sibling_end.get(p, s):
                fault = "overlaps its previous sibling"
            if fault is None and selfs[i] < 0:
                fault = f"has self time {selfs[i]} ns"
            if fault is not None:
                faults.append(f"span {i} of op {op} {fault}")
            if i != first:
                sibling_end[p] = max(e, sibling_end.get(p, e))
    return faults


def busy_times(names, starts, ends, parents, group):
    """Time covered by spans whose name is in ``group``, counting nested ones once."""
    inside = [False] * len(names)
    total = 0
    for i, (name, p) in enumerate(zip(names, parents)):
        outer = p >= 0 and inside[p]
        inside[i] = outer or name in group
        if name in group and not outer:
            total += ends[i] - starts[i]
    return total
