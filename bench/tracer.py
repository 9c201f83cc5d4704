"""Span tracing of flexsat's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function at every place callers look
it up: the defining module and every ``flexsat`` module that bound the name
with ``from .x import y``; ``to_csv`` is replaced on its class.  Each call
records a span (name, start, end, parent span, thread id, operation id).
Parent stacks are per thread, because ``analysis.sweep`` runs its points on a
thread pool; a span opened with an empty stack on a pool thread takes the
innermost open span of the installing thread as its parent.  Spans stay in
memory until the caller collects them.
"""

import functools
import itertools
import os
import sys
import threading
import time


def _n_steps(args, kwargs, result):
    A, T, dt = args[0], args[2], args[3]
    return {"n": int(A.shape[0]), "steps": int(round(T / dt))}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _sweep_points(args, kwargs, result):
    return {"points": int(result.grid.size), "stable": int(result.stable.sum())}


def _freq_points(count):
    return lambda args, kwargs, result: {"freq_points": count(args, result)}


# (layer, module, attribute, annotate); annotate(args, kwargs, result) -> counts
TARGETS = (
    ("config", "flexsat.config", "load_config", None),
    ("config", "flexsat.config", "write_manifest", None),
    ("discretize", "flexsat.discretize", "assemble", None),
    ("discretize", "flexsat.discretize", "project_initial_state", None),
    ("discretize", "flexsat.discretize", "galerkin_transfer", _freq_points(lambda a, r: 1)),
    ("analytic", "flexsat.analytic", "plant_transfer", _freq_points(lambda a, r: 1)),
    ("analytic", "flexsat.analytic", "s_matrix", _freq_points(lambda a, r: 1)),
    ("synthesis", "flexsat.synthesis", "build_observer_controller", None),
    ("synthesis", "flexsat.synthesis", "solve_sylvester_H", None),
    ("synthesis", "flexsat.synthesis", "care_solve", None),
    ("synthesis", "flexsat.synthesis", "assemble_closed_loop", None),
    ("synthesis", "flexsat.synthesis", "regulation_zero_check", _freq_points(lambda a, r: len(r))),
    ("simulate", "flexsat.simulate", "integrate", None),
    ("simulate", "flexsat.simulate", "propagate_autonomous", _n_steps),
    ("simulate", "flexsat.simulate", "matrix_exponential", None),
    ("simulate", "flexsat.simulate", "error_metrics", None),
    ("simulate", "flexsat.simulate", "SimulationTrace.to_csv", _csv_bytes),
    ("analysis", "flexsat.analysis", "stability_margin", None),
    ("analysis", "flexsat.analysis", "resolvent_norm_scan", _freq_points(lambda a, r: len(r))),
    ("analysis", "flexsat.analysis", "transfer_error_report",
     _freq_points(lambda a, r: len(a[1]) * len(a[2]))),
    ("analysis", "flexsat.analysis", "sweep", _sweep_points),
    ("analysis", "flexsat.analysis", "SweepResult.to_csv", _csv_bytes),
    ("cli", "flexsat.cli", "cmd_validate", None),
    ("cli", "flexsat.cli", "cmd_simulate", None),
    ("cli", "flexsat.cli", "cmd_analyze", None),
    ("cli", "flexsat.cli", "cmd_sweep", None),
)
SPAN_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr, _ in TARGETS)


class Tracer:
    """Records spans of calls into the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = None
        self._sites = []

    def _call(self, name, fn, annotate, args, kwargs):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and tid != self._main else None
        sid = next(self._ids)
        stack.append(sid)
        ok, result = False, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counts = annotate(args, kwargs, result) if ok and annotate else None
            self.spans.append((sid, name, start, end, parent, tid, self.op_id, ok, counts))

    def _wrapper(self, name, fn, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, annotate, args, kwargs)
        return traced

    def install(self) -> None:
        """Replace every lookup site of every target in the loaded flexsat modules."""
        if self._sites:
            return
        self._main = threading.get_ident()
        modules = [m for k, m in sys.modules.items() if k == "flexsat" or k.startswith("flexsat.")]
        for layer, modname, attr, annotate in TARGETS:
            name = f"{layer}.{attr}"
            owner = sys.modules.get(modname)
            if owner is None:
                continue  # never imported (flexsat.cli in-process), so never called
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._replace(cls, meth, fn, self._wrapper(name, fn, annotate))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrapper(name, fn, annotate)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, key, fn, wrapper)

    def _replace(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._sites.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._sites):
            setattr(holder, key, original)
        self._sites = []


def span_dicts(spans) -> list:
    keys = ("id", "name", "start", "end", "parent", "thread", "op", "ok", "counts")
    return [dict(zip(keys, s)) for s in spans]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per span name: calls, failed, busy_s, self_s and summed counts.

    Self time is a span's duration minus the part of its interval covered by
    its child spans (on any thread).
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {name: {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}}
           for name in SPAN_NAMES}
    for s in spans:
        row = out[s["name"]]
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["failed"] += 0 if s["ok"] else 1
        row["busy_s"] += dur
        row["self_s"] += dur - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for key, val in (s["counts"] or {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + val
    return out
