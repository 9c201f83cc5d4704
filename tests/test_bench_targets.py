"""The benchmark's tracer wraps flexsat functions by name; every name must resolve."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for _, modname, attr, _ in tracer.TARGETS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{modname}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr}"
