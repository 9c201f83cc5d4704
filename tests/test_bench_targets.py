"""The benchmark's tracer wraps flexsat functions by name; every name must resolve."""

import importlib
import importlib.util
import inspect
import pathlib

import numpy as np

from flexsat import analysis, cli, simulate
from flexsat.config import RunConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


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


def traced_observer_sweep():
    """Span summary of a 3-point observer r0 sweep under the bench tracer."""
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        cfg = RunConfig(controller_kind="observer")
        analysis.sweep(cfg, "r0", [0.05, 0.1, 0.2])
    finally:
        t.uninstall()
    return tracer.summarize(tracer.span_dicts(t.spans))


def test_observer_sweep_points_traced_as_controller_builds():
    # every observer sweep point builds its controller through
    # build_observer_controller, from the one Sylvester solution of the sweep
    summary = traced_observer_sweep()
    assert summary["synthesis.build_observer_controller"]["calls"] == 3
    assert summary["synthesis.solve_sylvester_H"]["calls"] == 1


def test_observer_sweep_margins_traced():
    # the cached margins compute through the traced stability_margin: one for
    # the plant, and per point the Riccati gain check and the servo margin
    assert traced_observer_sweep()["analysis.stability_margin"]["calls"] == 7


def test_validate_synthesis_traced_as_one_controller_build(capsys):
    # validate's one Riccati solve happens inside its one observer build
    tracer = load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        rc = cli.main(["--config", str(ROOT / "configs" / "reference.ini"), "validate"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert rc == 0
    spans = tracer.span_dicts(t.spans)
    builds = [s for s in spans if s["name"] == "synthesis.build_observer_controller"]
    cares = [s for s in spans if s["name"] == "synthesis.care_solve"]
    assert len(builds) == 1 and len(cares) == 1
    assert cares[0]["parent"] == builds[0]["id"]
