"""Process hygiene shared by the runner and the reference generator.

Import this module, and call :func:`prepare`, before anything imports numpy:
OpenBLAS reads its thread count once, when it is loaded.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Single-threaded BLAS, no qtrack worker threads, qtrack from this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QTRACK_THREADS", None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def import_qtrack():
    """Import qtrack from ``src/`` of this checkout, never from anywhere else."""
    import qtrack

    where = os.path.dirname(os.path.abspath(qtrack.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"qtrack imported from {where}, not from {SRC}")
    return qtrack
