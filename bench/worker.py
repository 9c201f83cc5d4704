"""Child-process side of the benchmark; run.py starts it, users do not.

    worker.py inproc INPUTS_JSON INI SECONDS TRACE RESULT_JSON
        Run an in-process workload as a closed loop for SECONDS and write the
        per-operation walls, output tables, peak RSS and spans to RESULT_JSON.
    worker.py cli SPANS_JSON OP_ID -- ARGV...
        Install the tracer, run ``flexsat.cli.main(ARGV)`` and write its spans.

``print_env`` is also imported by the set-up probe, after it is ready.
"""

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback

from tracer import Tracer, span_dicts


def _g(value) -> str:
    return format(float(value), ".17g")


def _openblas():
    """(threads, configuration) as reported by numpy's bundled OpenBLAS, if any."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            threads = getattr(lib, "scipy_openblas_get_num_threads64_")
            config = getattr(lib, "scipy_openblas_get_config64_")
        except (OSError, AttributeError):
            continue
        threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
        return threads(), config().decode()
    return None, None


def print_env(cfg) -> None:
    """One JSON line describing the interpreter, libraries and resolved parallelism."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _openblas()
    print(json.dumps({
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": config,
        "blas_threads": threads,
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        # e.g. PYTHONDONTWRITEBYTECODE, which makes every run compile flexsat on import
        "python_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("PYTHON") and k != "PYTHONPATH"},
        "sweep_workers": cfg.workers or os.cpu_count(),
    }, sort_keys=True))


# --- in-process workloads -----------------------------------------------------

def _observer_sweep(cfg, inputs):
    from flexsat import analysis, config

    param = inputs["sweep_parameter"]
    grid = config.default_sweep_grid(cfg, param)

    def op():
        res = analysis.sweep(cfg, param, grid)
        rows = [[_g(v), _g(m), _g(e), "1" if s else "0"]
                for v, m, e, s in zip(res.grid, res.margin, res.l2sq, res.stable)]
        work = {"points": int(res.grid.size), "stable": int(res.stable.sum())}
        return {"sweep": (["value", "margin", "l2sq", "stable"], rows)}, work

    def warm_up():
        analysis.sweep(cfg, param, grid[:1])

    return op, warm_up


def _frequency_scan(cfg, inputs):
    import numpy as np
    from flexsat import analysis, synthesis

    scan = np.asarray(inputs["scan_omegas"])
    ns = tuple(inputs["transfer_ns"])
    omegas = tuple(inputs["transfer_omegas"])

    def op():
        ss = analysis.plant_from_config(cfg)
        norms = analysis.resolvent_norm_scan(ss, scan)
        errors = analysis.transfer_error_report(cfg.physical(), ns, omegas)
        cl = synthesis.assemble_closed_loop(ss, analysis.controller_from_config(cfg, ss))
        margin = analysis.stability_margin(cl.Ae)
        zeros = synthesis.regulation_zero_check(cl, cfg.frequencies)
        tables = {
            "resolvent": (["omega", "resolvent_norm"], [[_g(w), _g(v)] for w, v in zip(scan, norms)]),
            "transfer": (["N", "max_rel_error"], [[str(n), _g(e)] for n, e in errors]),
            "regulation": (["omega", "residual"], [[_g(w), _g(z)] for w, z in zeros.items()]),
            "loop": (["margin"], [[_g(margin)]]),
        }
        return tables, {"freq_points": int(scan.size) + len(ns) * len(omegas) + len(zeros)}

    return op, None


INPROC = {"observer-sweep-n20": _observer_sweep, "frequency-scan-n40": _frequency_scan}


def run_inproc(inputs, ini, seconds: float, trace: bool) -> dict:
    """Closed loop of one workload's operation; with TRACE, every other op is traced."""
    from flexsat import config

    tracer = Tracer() if trace else None
    if tracer:
        tracer.op_id = "setup"
        tracer.install()
    cfg = config.load_config(ini)
    if tracer:
        tracer.uninstall()
    op, warm_up = INPROC[inputs["workload"]](cfg, inputs)
    if warm_up:
        warm_up()

    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(ops) % 2 == 1
        if traced:
            tracer.op_id = len(ops)
            tracer.install()
        start = time.perf_counter()
        try:
            tables, work, error = *op(), None
        except Exception:  # a failing operation is a result, counted by the gate
            tables, work, error = {}, {}, traceback.format_exc(limit=4)
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        ops.append({"wall_s": wall, "traced": traced, "tables": tables, "work": work, "error": error})
        if time.perf_counter() >= deadline and (len(ops) >= 2 or not trace):
            break
    return {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": span_dicts(tracer.spans) if tracer else [],
    }


def run_cli(spans_path, op_id, argv) -> int:
    import flexsat.cli

    tracer = Tracer()
    tracer.op_id = op_id
    tracer.install()
    try:
        return flexsat.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(span_dicts(tracer.spans), fh)


def main(argv) -> int:
    if argv[:1] == ["inproc"] and len(argv) == 6:
        _, inputs_path, ini, seconds, trace, result_path = argv
        with open(inputs_path, encoding="utf-8") as fh:
            inputs = json.load(fh)
        result = run_inproc(inputs, ini, float(seconds), trace == "1")
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[3] == "--":
        return run_cli(argv[1], int(argv[2]), argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
