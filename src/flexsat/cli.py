"""Command-line entry point: validate, analyze, simulate, and sweep workflows.

validate prints the records of analysis.validation_checks, each row as soon
as it is computed.  Exit status: 0 on success, 1 on runtime or model failure
(including failed validation checks and unstable closed loops), 2 on
configuration or usage errors, including an output directory that cannot be
created or written.
"""

import argparse
import os
import sys

import numpy as np

from . import analysis
from .config import (
    SWEEP_RANGES,
    ConfigError,
    RunConfig,
    default_sweep_grid,
    load_config,
    write_manifest,
)
from .discretize import assemble
from .simulate import error_metrics, write_csv
from .synthesis import assemble_closed_loop

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"grid must be lo:hi:n or lo:hi:n:log, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid specification {text!r}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"grid bounds must be finite, got {text!r}")
    if n < 1:
        raise ConfigError(f"grid needs at least one point, got n={n}")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ConfigError(f"grid scale must be 'log', got {parts[3]!r}")
        if lo <= 0 or hi <= 0:
            raise ConfigError(f"log grids need lo > 0 and hi > 0, got {text!r}")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _parse_perturb(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"perturbation must be name=factor, got {item!r}")
        name, _, val = item.partition("=")
        name = name.strip()
        if name in out:
            raise ConfigError(f"perturbation {name!r} given twice")
        try:
            out[name] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad perturbation factor in {item!r}") from exc
    if not out:
        raise ConfigError("empty perturbation list")
    return out


def _ensure_outdir(path: str) -> str:
    """Create the output directory at the first write, after every input check."""
    os.makedirs(path, exist_ok=True)
    return path


def cmd_validate(cfg: RunConfig) -> int:
    """Print each invariant check of analysis.validation_checks as it runs; 1 if any failed."""
    failed = False
    for check in analysis.validation_checks(cfg):
        print(f"[{check.status:>4s}] {check.name:<28s} {check.detail}")
        failed |= check.status == "fail"
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_analyze(cfg: RunConfig, out_dir: str) -> int:
    """Transfer-oracle convergence table and resolvent scan, written as CSV."""
    p = cfg.physical()
    Ns = (6, 8, 12, 16)
    omegas = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 6.0)
    rows = analysis.transfer_error_report(p, Ns, omegas)
    path = os.path.join(_ensure_outdir(out_dir), "transfer_errors.csv")
    write_csv(path, ("N", "max_rel_error"), rows)
    print(f"wrote {path}")

    ss = analysis.plant_from_config(cfg)
    grid = np.linspace(-200.0, 200.0, 401)
    vals = analysis.resolvent_norm_scan(ss, grid)
    path = os.path.join(out_dir, "resolvent_scan.csv")
    write_csv(path, ("omega", "resolvent_norm"), zip(grid, vals))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_dir: str, perturb: dict | None) -> int:
    """Closed-loop run with the configured controller; optional plant perturbation."""
    perturbed = cfg.physical().scaled(**perturb) if perturb else None  # refused before any work
    ss = analysis.plant_from_config(cfg)
    ctrl = analysis.controller_from_config(cfg, ss)
    if perturbed is not None:  # the controller keeps its design plant, so the loop's margin is a full eig
        ss = assemble(perturbed, cfg.n_basis, cfg.bd_profiles())
        print("plant perturbed:", ", ".join(f"{k} x {v}" for k, v in perturb.items()))
    cl = assemble_closed_loop(ss, ctrl)
    margin = cl.margin
    if margin <= 0.0:
        print(f"closed loop unstable: stability margin = {margin:.6e}", file=sys.stderr)
        return EXIT_RUNTIME

    trace = analysis.simulate_from_config(cfg, cl)
    metrics = error_metrics(trace)

    trace_path = os.path.join(_ensure_outdir(out_dir), "trace.csv")
    trace.to_csv(trace_path)
    summary_path = os.path.join(out_dir, "summary.csv")
    write_csv(summary_path, ("margin", "l2sq", "decay_rate"),
              [(margin, metrics.l2sq, metrics.decay_rate)])
    manifest_path = os.path.join(out_dir, "manifest.txt")
    write_manifest(cfg, manifest_path)
    print(f"wrote {trace_path}, {summary_path}, {manifest_path}")
    print(
        f"margin = {margin:.6f}, int ||e||^2 = {metrics.l2sq:.6f}, "
        f"decay rate = {metrics.decay_rate:.6f}"
    )
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out_dir: str, parameter: str, grid_text: str | None) -> int:
    """Margin and tracking-error sweep over one controller parameter."""
    grid = _parse_grid(grid_text) if grid_text is not None else default_sweep_grid(cfg, parameter)
    result = analysis.sweep(cfg, parameter, grid)
    path = os.path.join(_ensure_outdir(out_dir), f"sweep_{parameter}.csv")
    result.to_csv(path)
    n_unstable = int(np.sum(~result.stable))
    print(f"wrote {path} ({grid.size} points, {n_unstable} unstable/failed)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexsat",
        description="Flexible-satellite simulation, controller synthesis, and diagnostics",
    )
    parser.add_argument("--config", help="path to the INI configuration (defaults built in)")
    parser.add_argument("--out", help="output directory (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="run the invariant checks and report pass/fail")
    sub.add_parser("analyze", help="transfer-error report and resolvent scan")
    sim = sub.add_parser("simulate", help="integrate the closed loop and write trace files")
    sim.add_argument("--perturb", help="plant perturbation factors, e.g. gamma=0.9,m=1.1")
    swp = sub.add_parser("sweep", help="sweep one controller parameter")
    gains = "; ".join(f"{', '.join(r)} ({kind})" for kind, r in SWEEP_RANGES.items())
    swp.add_argument("--param", required=True, help=f"gain of the configured controller: {gains}")
    swp.add_argument("--grid", help="lo:hi:n or lo:hi:n:log (default: built-in range)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        out_dir = args.out if args.out is not None else cfg.out_dir
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg, out_dir)
        if args.command == "simulate":
            perturb = _parse_perturb(args.perturb) if args.perturb is not None else None
            return cmd_simulate(cfg, out_dir, perturb)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, args.param, args.grid)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, but a model failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:  # OSError: an output path that cannot be created or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
