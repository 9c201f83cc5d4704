"""The benchmark's tracer wraps flexsat functions by name; every name must resolve."""

import importlib
import importlib.util
import inspect
import pathlib

import numpy as np

from flexsat import simulate

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = load_tracer()
    assert tracer.TARGETS
    for _, modname, attr, _ in tracer.TARGETS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{modname}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr}"


def test_propagate_arguments_match_tracer():
    # the tracer's step and flop counts read A, T and dt as positional arguments 0, 2 and 3
    params = list(inspect.signature(simulate.propagate_autonomous).parameters.values())
    assert [p.name for p in params[:4]] == ["A", "x0", "T", "dt"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    A, x0, C = -np.eye(3), np.ones(3), np.ones((2, 3))
    result = simulate.propagate_autonomous(A, x0, 0.5, 0.01, C)
    assert load_tracer()._n_steps((A, x0, 0.5, 0.01, C), {}, result) == {"n": 3, "steps": 50}
