"""Every parameter with a default that a public callable of qtrack offers, pinned.

A tolerance or switch that no caller varies belongs in a module constant, so a
new defaulted parameter has to be added here on purpose.
"""

import importlib
import inspect
import pkgutil

import qtrack

SETTINGS = {
    "analytic.PairGeometry": ["c1", "c2"],
    "analytic.PairGeometry.from_states": ["pi1"],
    "analytic.optimal_frames": ["stage"],
    "analytic.track_pair": ["pi1"],
    "applications.clone_fidelity": ["pi1"],
    "applications.purification": ["pi1"],
    "channels.random_state": ["pure"],
    "cli.main": ["argv"],
    "linalg.hermitize": ["atol"],
    "multistep.RestartRecord": ["fidelity", "dropped"],
    "multistep.StepChain": ["seed_label", "restarts"],
    "multistep.solve_chain": ["restarts", "seed"],
    "multistep.sweep_2step": ["restarts", "seed", "mapper"],
    "tracking.TrackingProblem": ["feasible"],
    "tracking.reduce_nto2": ["objective", "feasible"],
}


def _public_callables(module):
    """Functions and classes defined in ``module``, and the public methods of those classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if not inspect.isclass(obj):
            if callable(obj):
                yield obj
            continue
        if issubclass(obj, BaseException):
            continue
        yield obj
        for attr, raw in vars(obj).items():
            if not attr.startswith("_") and (
                inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))
            ):
                yield getattr(obj, attr)


def test_public_settings_are_pinned():
    found = {}
    for info in pkgutil.iter_modules(qtrack.__path__):
        module = importlib.import_module(f"qtrack.{info.name}")
        for fn in _public_callables(module):
            params = inspect.signature(fn).parameters.values()
            defaulted = [p.name for p in params if p.default is not p.empty]
            if defaulted:
                found[f"{info.name}.{fn.__qualname__}"] = defaulted
    assert found == SETTINGS
