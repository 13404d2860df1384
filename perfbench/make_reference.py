"""Regenerate ``reference.json``: the answers every pool input must reproduce.

Run on the commit whose answers are the reference (the commit that added this
benchmark) and commit the result; it takes about four minutes:

    python3 perfbench/make_reference.py

It solves every program of every ``solve_small`` pool pair and sweeps the
``chain_sweep`` sub-grid once for each solve seed below
``workloads.CHAIN_SEEDS``. Each solve stores its value (``null`` if it
failed) and, under ``fails``, why it failed any output check at the
reference commit; the benchmark counts a failure with exactly that reason in
``failed`` but does not call the run incorrect for it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import benchenv

benchenv.prepare()

import workloads as wl  # noqa: E402


def solve_part():
    """{pool index: {case: {"value", "fails"}}} with every output check but the reference."""
    out = {}
    with tempfile.TemporaryDirectory(dir=benchenv.OUT) as tmp:
        for case in wl.SolveWorkload(0, tmp, None).cases:
            start = time.perf_counter()
            result = wl.run_cli(case["argv"])
            try:
                fails = wl.SolveWorkload.check(case, result)
            except wl.OpError as exc:
                fails = str(exc)
            value = json.loads(result[1])["value"] if result[0] == 0 else None
            out.setdefault(str(case["pool"]), {})[case["key"]] = {"value": value, "fails": fails}
            print(f"solve_small {case['pool']} {case['key']} {value} "
                  f"{time.perf_counter() - start:.3f}s {fails or ''}", file=sys.stderr)
    return out


def chain_part(chain_seed):
    """{"i,j": [class, f_multi]} over the benchmark's sub-grid."""
    from run import Clock

    workload = wl.ChainWorkload(chain_seed, None)
    records = workload.sweep(wl.CHAIN_POINTS, Clock())
    n = len(wl.CHAIN_POINTS)
    return {f"{i},{j}": [records[a * n + b]["class"], records[a * n + b]["f_multi"]]
            for a, i in enumerate(wl.CHAIN_POINTS) for b, j in enumerate(wl.CHAIN_POINTS)}


def main():
    os.makedirs(benchenv.OUT, exist_ok=True)
    benchenv.import_qtrack()
    start = time.perf_counter()
    ref = {"solve_small": solve_part(), "chain_sweep": {}}
    for s in range(wl.CHAIN_SEEDS):
        ref["chain_sweep"][str(s)] = chain_part(s)
        print(f"chain seed {s}: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    with open(os.path.join(benchenv.ROOT, "perfbench", "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
