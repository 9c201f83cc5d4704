#!/usr/bin/env python3
"""flexsat benchmark: end-to-end and per-layer timing with a correctness gate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N          # every workload, one table
    python3 bench/run.py --self-test                      # the gate catches a 1e-9 nudge
    python3 bench/run.py --record-golden                  # rewrite bench/golden from seed 0

Run from any directory; the repository root is this file's parent's parent
and the package is imported from its ``src`` (it need not be installed).
Workloads and metrics are declared in ``BENCHMARK.json``; see
``bench/README.md`` for why each workload exists and which layer metric
should move which end-to-end metric.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the separate
traced run: it alternates untraced and traced operations, reports per-layer
metrics from the spans, and states the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is nonzero when any operation
failed (exit code, exception or correctness gate) or the run could not start.
"""

import argparse
import contextlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import gate
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PY = sys.executable

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
IMPORT_PROBES = 3  # python -X importtime runs per traced run
CHILD_TIMEOUT_S = 60.0  # one CLI command or probe; the in-process worker gets the run length on top
SETUP_CODE = (
    "import sys, flexsat; cfg = flexsat.load_config(sys.argv[1]); print('ready', flush=True); "
    "sys.path.insert(0, sys.argv[2]); import worker; worker.print_env(cfg)"
)


class BenchError(Exception):
    """The benchmark could not run (as opposed to an operation failing its gate)."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv, log_base, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion: (wall_s, exit code, peak RSS MB, stdout, stderr)."""
    with open(log_base + ".out", "w+", encoding="utf-8") as out, \
            open(log_base + ".err", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, out.read(), err.read()


def _setup_probe(ini, log_base):
    """Seconds from spawning a fresh interpreter until flexsat is imported and
    the RunConfig is built, plus the environment record the probe prints."""
    with open(log_base + ".err", "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([PY, "-c", SETUP_CODE, ini, BENCH], stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, env=_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            # read through the same buffer: readline may already hold the rest
            rest = proc.stdout.read()
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        if ready.strip() != b"ready" or proc.returncode != 0:
            err.seek(0)
            raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.read()[-2000:]}")
    return setup, json.loads(rest)


def _import_probe(log_base):
    """Cumulative import seconds of numpy and scipy.linalg, and flexsat's own self time."""
    _, rc, _, _, err = _spawn([PY, "-X", "importtime", "-c", "import flexsat"], log_base)
    if rc != 0:
        raise BenchError(f"import probe failed: {err[-2000:]}")
    self_us, cumulative_us = {}, {}
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if not fields[0].isdigit():
            continue  # the column header
        self_us[fields[2]] = int(fields[0])
        cumulative_us[fields[2]] = int(fields[1])
    return {
        "numpy_s": cumulative_us["numpy"] * 1e-6,
        "scipy_linalg_s": cumulative_us["scipy.linalg"] * 1e-6,
        "flexsat_self_s": sum(v for k, v in self_us.items()
                              if k == "flexsat" or k.startswith("flexsat.")) * 1e-6,
        "flexsat_cumulative_s": cumulative_us["flexsat"] * 1e-6,
    }


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


# --- workloads ----------------------------------------------------------------

def _cli_op(command, args, ini, traced, work, k):
    """One CLI command as a fresh subprocess; traced ones call cli.main under the tracer."""
    out_dir = os.path.join(work, f"op{k}")
    os.makedirs(out_dir)
    args = ["--config", ini, "--out", out_dir] + args
    spans_path = os.path.join(work, f"spans{k}.json")
    if traced:
        argv = [PY, os.path.join(BENCH, "worker.py"), "cli", spans_path, str(k), "--"] + args
    else:
        argv = [PY, "-m", "flexsat.cli"] + args
    wall, rc, rss, stdout, stderr = _spawn(argv, os.path.join(work, f"op{k}"))
    tables, problems = gate.cli_tables(command, out_dir, stdout)
    shutil.rmtree(out_dir)
    if rc != 0:
        problems.insert(0, f"exit code {rc}: {stderr.strip()[-500:]}")
    work_done = {}
    if command == "sweep" and "sweep" in tables:
        rows = tables["sweep"][1]
        work_done = {"points": len(rows), "stable": sum(r[-1] == "1" for r in rows)}
    elif command == "analyze" and len(tables) == 2:
        work_done = {"freq_points": len(tables["resolvent_scan"][1]) + len(
            tables["transfer_errors"][1]) * len(workloads.CLI_TRANSFER_OMEGAS)}
    spans = []
    if traced and os.path.isfile(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
    op = {"unit": command, "wall_s": wall, "traced": traced, "rss_mb": rss,
          "tables": tables, "work": work_done, "problems": problems}
    return op, spans


def _run_cli(workload, inputs, ini, seconds, trace, work):
    """Closed loop of CLI sessions; with TRACE every other session is traced."""
    ops, spans = [], []
    deadline = time.perf_counter() + seconds
    for session in itertools.count():
        traced = trace and session % 2 == 1
        for command, args in workloads.CLI_SESSION:
            op, op_spans = _cli_op(command, args, ini, traced, work, len(ops))
            op["session"] = session
            ops.append(op)
            spans += op_spans
        if time.perf_counter() >= deadline and (session >= 1 or not trace):
            return ops, spans, max(o["rss_mb"] for o in ops if not o["traced"])


def _run_inproc(workload, inputs, ini, seconds, trace, work):
    inputs_path = os.path.join(work, "inputs.json")
    result_path = os.path.join(work, "result.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    argv = [PY, os.path.join(BENCH, "worker.py"), "inproc", inputs_path, ini,
            repr(float(seconds)), "1" if trace else "0", result_path]
    _, rc, _, _, err = _spawn(argv, os.path.join(work, "worker"), CHILD_TIMEOUT_S + seconds)
    if rc != 0 or not os.path.isfile(result_path):
        raise BenchError(f"{workload} worker failed (exit {rc}): {err[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for i, op in enumerate(result["ops"]):
        op.update(unit=workload, session=i,
                  problems=[f"raised: {op['error']}"] if op["error"] else [])
    return result["ops"], result["spans"], result["peak_rss_mb"]


# --- metrics ------------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _session_walls(ops, traced):
    """Wall time of each session (one operation of the workload), in order."""
    walls = {}
    for o in ops:
        if o["traced"] == traced:
            walls[o["session"]] = walls.get(o["session"], 0.0) + o["wall_s"]
    return list(walls.values())


def _layer_metrics(ops, spans, setup_s, imports):
    """Per-layer values per traced operation; set-up spans are summarised apart."""
    import tracer

    n = len(_session_walls(ops, True))
    op_spans = [s for s in spans if s["op"] != "setup"]
    summary = tracer.summarize(op_spans)
    values = {
        "import.numpy_s": imports["numpy_s"],
        "import.scipy_linalg_s": imports["scipy_linalg_s"],
        "import.flexsat_self_s": imports["flexsat_self_s"],
        "import.interpreter_s": setup_s - imports["flexsat_cumulative_s"],
    }
    for name, row in summary.items():
        values[f"{name}.calls"] = row["calls"] / n
        values[f"{name}.busy_s"] = row["busy_s"] / n
        values[f"{name}.self_s"] = row["self_s"] / n
    prop = [s for s in op_spans if s["name"] == "simulate.propagate_autonomous" and s["counts"]]
    values["simulate.steps"] = sum(s["counts"]["steps"] for s in prop) / n
    values["simulate.propagate_flops"] = sum(
        2 * s["counts"]["n"] ** 2 * s["counts"]["steps"] for s in prop) / n
    values["simulate.propagate_bytes"] = sum(
        8 * (s["counts"]["n"] ** 2 + 2 * s["counts"]["n"]) * s["counts"]["steps"] for s in prop) / n
    values["simulate.csv_bytes"] = summary["simulate.SimulationTrace.to_csv"]["counts"].get("bytes", 0) / n
    sweep = summary["analysis.sweep"]["counts"]
    values["analysis.sweep.points"] = sweep.get("points", 0) / n
    values["analysis.sweep.stable_points"] = sweep.get("stable", 0) / n
    by_id = {s["id"]: s for s in op_spans}
    outer_synth = [s for s in op_spans if s["name"].startswith("synthesis.")
                   and not by_id.get(s["parent"], {"name": ""})["name"].startswith("synthesis.")]
    values["synthesis.attempts"] = len(outer_synth) / n
    values["synthesis.failures"] = sum(not s["ok"] for s in outer_synth) / n
    sweeps = {s["id"]: s for s in op_spans if s["name"] == "analysis.sweep"}
    point_busy = sum(s["end"] - s["start"] for s in op_spans if s["parent"] in sweeps)
    sweep_wall = sum(s["end"] - s["start"] for s in sweeps.values())
    values["analysis.sweep.concurrency"] = point_busy / sweep_wall if sweep_wall else None
    return values, summary, tracer.summarize([s for s in spans if s["op"] == "setup"])


@contextlib.contextmanager
def _work_dir(workload, seed, trace):
    """A fresh scratch directory inside the checkout holding the run's INI; removed after."""
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _write_ini(work, inputs):
    ini = os.path.join(work, "config.ini")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(inputs["ini"])
    return ini


def _gate(ops, inputs, seed):
    """Add invariant and, on seed 0, golden problems to every operation."""
    golden = {}
    for op in ops:
        if not op["problems"]:
            op["problems"] += gate.check_invariants(op["unit"], op["tables"], inputs)
            if seed == 0:
                if op["unit"] not in golden:
                    golden[op["unit"]] = gate.load_golden(op["unit"])
                op["problems"] += gate.compare_golden(op["tables"], golden[op["unit"]])
        del op["tables"]


def run_workload(workload, seed, seconds, trace, spec):
    """One benchmark run; returns (result record, JSON line object, report lines)."""
    inputs = workloads.make_inputs(workload, seed)
    with _work_dir(workload, seed, trace) as work:
        ini = _write_ini(work, inputs)
        probes = [_setup_probe(ini, os.path.join(work, f"setup{i}")) for i in range(SETUP_PROBES)]
        setup_s = _median([p[0] for p in probes])
        env = dict(probes[0][1], commit=_git_commit())
        imports = None
        if trace:
            samples = [_import_probe(os.path.join(work, f"import{i}")) for i in range(IMPORT_PROBES)]
            imports = {k: _median([s[k] for s in samples]) for k in samples[0]}
        runner = _run_cli if workload == "cli-reference" else _run_inproc
        ops, spans, peak_rss_mb = runner(workload, inputs, ini, seconds, trace, work)
    _gate(ops, inputs, seed)
    failed = sum(bool(o["problems"]) for o in ops)
    e2e = {"setup_s": setup_s, "op_s": _median(_session_walls(ops, False)), "peak_rss_mb": peak_rss_mb}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "inputs": inputs, "setup_samples_s": [p[0] for p in probes],
        "ops": ops, "end_to_end": e2e,
    }
    lines = _report_e2e(record, failed)
    if trace:
        values, summary, setup_summary = _layer_metrics(ops, spans, setup_s, imports)
        record.update(per_layer=values, imports=imports)
        lines += _report_layers(ops, values, summary, setup_summary)
        chosen = spec["per_layer"]
    else:
        values = e2e
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    line = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return record, line, lines


# --- report -------------------------------------------------------------------

# what one operation of each workload is, as printed beside op_s
_OPERATION = {
    "cli-reference": "session_s: validate + simulate + analyze + sweep",
    "observer-sweep-n20": "one 25-point r0 sweep",
    "frequency-scan-n40": "one scan job",
}
# name of each unit's median wall time in the report, and the throughput beside it
_UNIT_FIGURES = {
    "validate": ("validate_s", None), "simulate": ("simulate_s", None),
    "analyze": ("analyze_s", "freq_points_per_s"), "sweep": ("sweep_s", "points_per_s"),
    "observer-sweep-n20": (None, "points_per_s"),
    "frequency-scan-n40": (None, "freq_points_per_s"),
}


def _report_e2e(record, failed):
    e2e, ops, inputs = record["end_to_end"], record["ops"], record["inputs"]
    plain = [o for o in ops if not o["traced"]]
    lines = [
        f"== {record['workload']}  seed {record['seed']}  {record['seconds']:g} s  "
        f"trace {record['trace']}",
        "env: " + json.dumps(record["env"], sort_keys=True),
        f"inputs: {len(inputs['ini'].splitlines())}-line INI" + "".join(
            f", {k} x{len(v)}" for k, v in inputs.items() if isinstance(v, list)),
        "end to end (untraced operations; median unless stated):",
        f"  op_s               {e2e['op_s']:.6f} s    (n = {len(_session_walls(ops, False))}; "
        f"{_OPERATION[record['workload']]})",
        f"  setup_s            {e2e['setup_s']:.6f} s    (n = {SETUP_PROBES} fresh interpreters)",
        f"  peak_rss_mb        {e2e['peak_rss_mb']:.1f} MB      (max over the workload's processes)",
        f"  fail_ratio         {failed} of {len(ops)} operations failed",
    ]
    for unit, (name, rate) in _UNIT_FIGURES.items():
        mine = [o for o in plain if o["unit"] == unit]
        if not mine:
            continue
        if name:
            lines.append(f"  {name:<18s} {_median([o['wall_s'] for o in mine]):.6f} s    "
                         f"(n = {len(mine)}; subprocess wall, import included)")
        if rate:
            key = "freq_points" if rate == "freq_points_per_s" else "points"
            done = sum(o["work"].get(key, 0) for o in mine)
            wall = sum(o["wall_s"] for o in mine)
            lines.append(f"  {rate:<18s} {done / wall:.3f} 1/s  ({done} {key} in {wall:.3f} s)")
        if rate == "points_per_s":
            stable = sum(o["work"].get("stable", 0) for o in mine)
            lines.append(f"  sweep stability    {stable} stable of {done} attempted points (computed)")
    for i, op in enumerate(ops):
        for problem in op["problems"][:5]:
            lines.append(f"  FAIL op {i} ({op['unit']}): {problem}")
    return lines


def _report_layers(ops, values, summary, setup_summary):
    traced = _session_walls(ops, True)
    plain = _session_walls(ops, False)
    n = len(traced)
    lines = [
        f"traced run: {n} traced and {len(plain)} untraced operations, alternating",
        f"  tracing overhead: traced median {_median(traced):.6f} s vs untraced median "
        f"{_median(plain):.6f} s = {(_median(traced) / _median(plain) - 1) * 100:+.2f} % "
        "(base: untraced median)",
        "  import (python -X importtime, median of %d):" % IMPORT_PROBES,
    ]
    for key in ("numpy_s", "scipy_linalg_s", "flexsat_self_s"):
        lines.append(f"    import.{key:<20s} {values['import.' + key]:.6f} s")
    lines.append(f"    import.interpreter_s       {values['import.interpreter_s']:.6f} s  "
                 "(remainder: setup_s - cumulative import of flexsat)")
    lines.append("  per traced operation:                    calls     busy_s     self_s")
    absent = []
    for name, row in summary.items():
        if row["calls"] == 0:
            if not setup_summary[name]["calls"]:
                absent.append(name)
            continue
        extra = ""
        fp = row["counts"].get("freq_points")
        if fp:
            extra = f"  {fp / row['calls']:.0f} freq points per call (computed)"
        lines.append(f"    {name:<38s} {row['calls'] / n:7.1f} {row['busy_s'] / n:10.6f} "
                     f"{row['self_s'] / n:10.6f}{extra}")
    for name, row in setup_summary.items():
        if row["calls"]:
            lines.append(f"    {name:<38s} {row['calls']:7d} {row['busy_s']:10.6f} "
                         f"{row['self_s']:10.6f}  (set-up, once per run)")
    loop_self = values["simulate.propagate_autonomous.self_s"]
    if values["simulate.steps"]:
        lines.append(
            f"  simulate.steps {values['simulate.steps']:.0f}; propagate_flops (computed, 2 n^2 steps) "
            f"{values['simulate.propagate_flops']:.4g}; propagate_bytes (computed, 8 (n^2 + 2n) steps) "
            f"{values['simulate.propagate_bytes']:.4g}; propagate_gflops (computed, flops / loop "
            f"self time {loop_self:.4f} s) {values['simulate.propagate_flops'] / loop_self / 1e9:.3f}")
    if values["simulate.csv_bytes"]:
        lines.append(f"  simulate.csv_bytes {values['simulate.csv_bytes']:.0f} B per operation")
    if summary["analysis.sweep"]["calls"]:
        lines.append(
            f"  analysis.sweep: {values['analysis.sweep.stable_points']:.0f} stable of "
            f"{values['analysis.sweep.points']:.0f} points; concurrency (computed, sum of busy "
            f"time of the sweep's child spans / sweep wall) {values['analysis.sweep.concurrency']:.3f}")
    if values["synthesis.attempts"]:
        lines.append(f"  synthesis.failures {values['synthesis.failures']:.0f} of "
                     f"{values['synthesis.attempts']:.0f} attempts (outermost synthesis calls)")
    for command, _ in workloads.CLI_SESSION:
        row = summary[f"cli.cmd_{command}"]
        walls = [o["wall_s"] for o in ops if o["unit"] == command and not o["traced"]]
        if row["calls"] and walls:
            busy = row["busy_s"] / row["calls"]
            lines.append(f"  cli.overhead_s ({command}) {_median(walls) - busy:.6f} s = untraced "
                         f"subprocess median {_median(walls):.6f} s - command busy {busy:.6f} s")
    if absent:
        lines.append("  not called on this workload: " + ", ".join(absent))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "flexsat", "__init__.py")):
        print(f"error: no flexsat package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if args.self_test:
            return self_test()
        if args.record_golden:
            return record_golden()
        if args.workload is None:
            parser.error("--workload is required")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    for record, line, lines in results:
        print("\n".join(lines))
        path = os.path.join(WORK, "results",
                            f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(record, result=line), fh, indent=1)
        print(f"record: {os.path.relpath(path, ROOT)}")
    lines = [r[1] for r in results]
    if len(lines) == 1:
        summary = lines[0]
    else:
        summary = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{r[0]['workload']}/{k}": v for r in results for k, v in r[1]["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["failed"] == 0 else 1


def _one_op(unit):
    """One seed-0 operation of a unit (a CLI command or an in-process workload),
    with its invariant problems."""
    cli = dict(workloads.CLI_SESSION)
    workload = "cli-reference" if unit in cli else unit
    inputs = workloads.make_inputs(workload, 0)
    with _work_dir(unit, 0, False) as work:
        ini = _write_ini(work, inputs)
        if unit in cli:
            op, _ = _cli_op(unit, cli[unit], ini, False, work, 0)
        else:
            ops, _, _ = _run_inproc(workload, inputs, ini, 0.0, False, work)
            op = ops[0]
    op["problems"] = op["problems"] or gate.check_invariants(unit, op["tables"], inputs)
    return op


def record_golden() -> int:
    """Write bench/golden from one seed-0 operation per unit that passes its invariants."""
    units = [c for c, _ in workloads.CLI_SESSION] + list(workloads.WORKLOADS[1:])
    for unit in units:
        op = _one_op(unit)
        if op["problems"]:
            print(f"{unit}: not recorded: {op['problems']}", file=sys.stderr)
            return 1
        gate.record_golden(unit, op["tables"])
        print(f"{unit}: recorded {sorted(set(op['tables']) - gate.NO_GOLDEN)}")
    return 0


def self_test() -> int:
    """Seed-0 outputs pass the gate, and a golden nudged by 1e-9 fails it.

    For every numeric column of every golden table of two CLI commands, the
    entry of largest magnitude is multiplied by 1 + 1e-9; the comparison
    must then report that column.
    """
    missed, tried = [], 0
    for unit in ("simulate", "analyze"):
        op = _one_op(unit)
        golden = gate.load_golden(unit)
        problems = op["problems"] + gate.compare_golden(op["tables"], golden)
        if problems:
            print(f"self-test: {unit} seed-0 outputs fail the gate: {problems}", file=sys.stderr)
            return 1
        for name, (header, rows) in golden.items():
            for j, col in enumerate(header):
                values = gate.floats([r[j] for r in rows])
                if not values or not any(values):
                    continue
                i = max(range(len(values)), key=lambda k: abs(values[k]))
                nudged = [list(r) for r in rows]
                nudged[i][j] = repr(values[i] * (1.0 + 1e-9))
                tried += 1
                if not gate.compare_golden(op["tables"], {name: (header, nudged)}):
                    missed.append(f"{unit}/{name}.{col}")
    print(f"self-test: {tried - len(missed)} of {tried} nudged golden columns caught")
    if missed:
        print("self-test: missed " + ", ".join(missed), file=sys.stderr)
    return 1 if missed or not tried else 0


if __name__ == "__main__":
    sys.exit(main())
