"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""

import dataclasses
import itertools
import json
import os
import types

import pytest

import benchenv

benchenv.prepare()

import run  # noqa: E402
import summary  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import OpError  # noqa: E402


def fake_clock(step=10):
    ticks = itertools.count(0, step)
    return lambda: next(ticks)


def test_tail_percentile_keeps_ten_samples_beyond():
    pct, value = summary.tail_percentile(list(range(1, 101)))
    assert (pct, value) == (90.0, 90)
    assert sum(s > value for s in range(1, 101)) == 10
    pct, value = summary.tail_percentile([5, 1, 4, 2, 3, 9, 8, 7, 6, 11, 10])
    assert value == 1 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        summary.tail_percentile(list(range(10)))


def test_end_to_end_rates():
    out = summary.end_to_end([2_000_000] * 20)
    assert out["ops_per_s"] == pytest.approx(500.0)
    assert out["op_p50_ms"] == pytest.approx(2.0)
    assert out["ops"] == 20 and out["op_tail_percentile"] == 50.0


def test_rescale_divides_out_host_speed():
    # the host runs at half speed for the last three ops, and the kernel shows it
    lat = [10, 10, 10, 20, 20, 20]
    kernel = [5, 5, 5, 10, 10, 10]
    assert summary.rescale(lat, kernel, 5, half_window=0) == [10, 10, 10, 10, 10, 10]
    assert summary.rescale(lat, kernel, 5, half_window=1)[2] == 10  # median of 5, 5, 10


def nested_tracer():
    """Two ops: outer() calls inner() twice, then one bare inner() call."""
    t = tr.Tracer(clock=fake_clock())
    inner = t.wrap("inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    outer = t.wrap("outer", outer_fn)
    t.begin_op()
    outer()
    t.end_op()
    t.begin_op()
    inner()
    t.end_op()
    return t


def test_self_time_under_nested_spans():
    t = nested_tracer()
    names = [t.names[i] for i in t.span_name]
    assert names == ["bench.op", "outer", "inner", "inner", "bench.op", "inner"]
    assert list(t.parent) == [-1, 0, 1, 1, -1, 4]
    selfs = tr.self_times(t.start, t.end, t.parent)
    # every clock read is 10 ns apart: inner spans last 10, outer 50, roots 70 and 30
    assert selfs == [20, 30, 10, 10, 20, 10]
    for op in range(2):
        span = t.op_range(op)
        root = span[0]
        assert sum(selfs[i] for i in span) == t.end[root] - t.start[root]
    assert tr.nesting_faults(t.start, t.end, t.parent, t.op_first, selfs) == []
    assert tr.busy_times(names, t.start, t.end, t.parent, {"inner"}) == 30
    assert tr.busy_times(names, t.start, t.end, t.parent, {"outer", "inner"}) == 60


def spans(rows):
    """Columns of hand-made spans, one op from each row whose parent is -1."""
    starts, ends, parents = (list(col) for col in zip(*rows))
    op_first = [i for i, p in enumerate(parents) if p == -1]
    return starts, ends, parents, op_first, tr.self_times(starts, ends, parents)


@pytest.mark.parametrize("rows, fault", [
    # siblings overlap; self times still add up to the root's duration
    ([(0, 100, -1), (10, 50, 0), (40, 60, 0)], "overlaps its previous sibling"),
    # siblings overlap enough to make the root's self time negative
    ([(0, 100, -1), (0, 60, 0), (30, 90, 0), (90, 100, 0)], "span 0 of op 0 has self time -30"),
    ([(0, 100, -1), (90, 120, 0)], "escapes its parent 0"),
    ([(0, 100, -1), (20, 10, 0)], "ends before it starts"),
    ([(0, 100, -1), (10, 20, 0), (200, 300, -1), (210, 220, 1)], "outside the op"),
])
def test_nesting_faults_catch_spans_that_do_not_nest(rows, fault):
    starts, ends, parents, op_first, selfs = spans(rows)
    assert sum(selfs) == sum(ends[i] - starts[i] for i in op_first)
    faults = tr.nesting_faults(starts, ends, parents, op_first, selfs)
    assert any(fault in f for f in faults), faults


def test_traced_run_reports_spans_that_do_not_nest():
    t = nested_tracer()
    t.end[2] = t.end[1] + 5  # the first inner span now ends after its parent
    faults = summary.per_layer(t, [])[1]
    assert "span 2 of op 0 escapes its parent 1" in faults


def test_spans_only_inside_ops_and_errors_recorded():
    t = tr.Tracer(clock=fake_clock())

    def boom():
        raise KeyError("x")

    wrapped = t.wrap("boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert len(t.start) == 0
    t.begin_op()
    with pytest.raises(KeyError):
        wrapped()
    t.end_op()
    assert t.errors == {1: "KeyError"}
    assert [row[0] for row in t.rows()] == ["bench.op", "boom"]


@dataclasses.dataclass(frozen=True)
class Point:
    x: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))

    @classmethod
    def origin(cls):
        return cls(0)


def test_wrappers_restored_on_module_and_dataclass():
    mod = types.ModuleType("mod")
    mod.f = lambda v: v + 1
    originals = (mod.f, vars(Point)["__post_init__"])
    t = tr.Tracer(clock=fake_clock())
    t.install([(mod, "f", "mod.f", True), (Point, "__post_init__", "Point", False)])
    assert mod.f is not originals[0]
    t.begin_op()
    assert mod.f(1) == 2
    assert Point.origin().x == 0.0
    t.end_op()
    assert [t.names[i] for i in t.span_name] == ["bench.op", "mod.f", "Point"]
    assert list(t.results.values()) == [2]
    t.restore()
    assert (mod.f, vars(Point)["__post_init__"]) == originals


def test_qtrack_wrappers_restored():
    benchenv.import_qtrack()
    import numpy as np
    from qtrack import analytic

    targets = tr.trace_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    t = tr.Tracer()
    t.install(targets)
    try:
        assert all(vars(o)[a] is not orig for (o, a, _, _), orig in zip(targets, originals))
        t.begin_op()
        g = analytic.PairGeometry.from_states(
            np.diag([1.0, 0.0]), np.diag([0.3, 0.7]), np.diag([0.0, 1.0]), np.eye(2) / 2)
        t.end_op()
    finally:
        t.restore()
    assert g.omega == analytic.PairGeometry.from_states(
        np.diag([1.0, 0.0]), np.diag([0.3, 0.7]), np.diag([0.0, 1.0]), np.eye(2) / 2).omega
    assert "analytic.PairGeometry" in [t.names[i] for i in t.span_name]
    assert all(vars(o)[a] is orig for (o, a, _, _), orig in zip(targets, originals))


def test_per_layer_names_match_benchmark_json():
    t = nested_tracer()
    layers, faults = summary.per_layer(t, [{"iterations": 4, "status": "optimal"}])
    assert faults == []
    layers["trace.overhead_frac"] = 0.0
    with open(os.path.join(benchenv.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert layers["sdp.iters_per_solve"] == 4.0
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert run.unit(metric["name"]) == metric["unit"]


def test_clock_separates_known_and_new_failures():
    clock = run.Clock()

    def reported(_):
        raise OpError("exit 3")

    clock.op(lambda a: a, 1, check=reported, meta={"key": "a", "known_failure": "exit 3"})
    clock.op(lambda a: a, 1, check=lambda r: "wrong value", meta={"key": "b"})
    clock.op(lambda a: 1 / 0, 1, check=lambda r: None, meta={"key": "c"})
    clock.op(lambda a: a, 1, check=lambda r: None)
    # a case with a known failure that fails another way is a new failure
    clock.op(lambda a: a, 1, check=lambda r: "wrong value",
             meta={"key": "d", "known_failure": "exit 3"})

    def other_exit(_):
        raise OpError("exit 3: another reason")

    clock.op(lambda a: a, 1, check=other_exit, meta={"key": "e", "known_failure": "exit 3"})
    assert clock.attempted == 6 and clock.failed == 5
    assert len(clock.errors) == 3 and len(clock.wrong) == 2
    assert [u.split("]")[0] for u in clock.unexpected] == ["[ b", "[ c", "[ d", "[ e"]
