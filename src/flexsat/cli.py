"""Command-line entry point: validate, analyze, simulate, and sweep workflows.

Exit status: 0 on success, 1 on runtime or model failure (including failed
validation checks and unstable closed loops), 2 on configuration or usage
errors.
"""

import argparse
import os
import sys

import numpy as np

from . import analysis, analytic
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
from .synthesis import (
    assemble_closed_loop,
    build_observer_controller,
    regulation_zero_check,
    solve_sylvester_H,
    sylvester_residual,
)

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


class _Report:
    """Collects named checks with pass/warn/skip/fail status."""

    def __init__(self):
        self.rows = []

    def add(self, name, status, detail=""):
        self.rows.append((name, status, detail))
        print(f"[{status:>4s}] {name:<28s} {detail}")

    @property
    def failed(self) -> bool:
        return any(status == "fail" for _, status, _ in self.rows)


def cmd_validate(cfg: RunConfig) -> int:
    """Run the invariant suite against the configured model."""
    p = cfg.physical()
    ss = analysis.plant_from_config(cfg)
    rep = _Report()

    coll = float(np.abs(ss.H @ ss.B - ss.C.T).max())
    rep.add("collocation_HB_eq_CT", "pass" if coll <= 1e-12 else "fail", f"max|HB - C^T| = {coll:.3e}")

    sym = ss.A.T @ ss.H + ss.H @ ss.A
    target = np.zeros_like(sym)
    nb = 2 * ss.n_basis
    target[nb:, nb:] = -2.0 * ss.damping
    struct = float(np.abs(sym - target).max())
    rep.add("dissipation_structure", "pass" if struct <= 1e-12 else "fail",
            f"max|A^T H + H A + 2 blockdiag(0, D)| = {struct:.3e}")
    top = float(np.max(np.linalg.eigvalsh(0.5 * (sym + sym.T))))
    if p.gamma == 0.0:
        rep.add("dissipativity", "pass" if top <= 1e-10 else "fail", f"top eigenvalue = {top:.3e}")
    else:
        # the elastic block of A^T H + H A is exactly zero; strict dissipation
        # lives on the velocity block
        vel_top = float(np.max(np.linalg.eigvalsh(0.5 * (sym + sym.T)[nb:, nb:])))
        ok = top <= 1e-10 and vel_top < 0.0
        rep.add("dissipativity", "pass" if ok else "fail",
                f"top eigenvalue = {top:.3e}, velocity block = {vel_top:.3e}")

    damped = ss.margin > 1e-8
    if damped:
        rep.add("plant_margin", "pass", f"margin = {ss.margin:.6f}")
    else:
        rep.add("plant_margin", "warn", f"margin = {ss.margin:.3e} (undamped configuration?)")

    omegas = [0.5, 1.0, 2.0, 5.0] + ([0.0] if damped else [])
    worst = analysis.oracle_error(ss, omegas)
    rep.add("transfer_oracle", "pass" if worst < 1e-3 else "fail",
            f"max rel error at N={cfg.n_basis} = {worst:.3e}")

    if damped:
        rng = np.random.default_rng(cfg.seed)
        res = 0.0
        Bc = np.diag([1.0 / p.m, 1.0 / p.I_m])
        for w in rng.uniform(-200.0, 200.0, size=100):
            S = analytic.s_matrix(w, p)
            ident = S @ (1j * w * np.eye(2) + Bc @ analytic.transfer_beam(w, p))
            res = max(res, float(np.abs(ident - np.eye(2)).max()))
        rep.add("s_matrix_identity", "pass" if res < 1e-12 else "fail", f"max residual = {res:.3e}")

        # one observer build: its solvers raise on a residual over their
        # bound, so these rows report the residuals they accepted; on an
        # observer config it is also the controller of the closed loop
        H = solve_sylvester_H(ss, cfg.frequencies)
        observer = build_observer_controller(ss, cfg.frequencies, cfg.q0, cfg.r0, H)
        rep.add("sylvester_residual", "pass",
                f"relative residual = {sylvester_residual(ss, cfg.frequencies, H):.3e}")
        rep.add("care_residual", "pass", f"relative residual = {observer.care_residual:.3e}")

        if cfg.controller_kind == "observer":
            ctrl = observer
        else:
            ctrl = analysis.controller_from_config(cfg, ss)
        cl = assemble_closed_loop(ss, ctrl)
        rep.add("closed_loop_margin", "pass" if cl.margin > 0.0 else "fail",
                f"{cfg.controller_kind}: margin = {cl.margin:.6f}")
        if cl.margin > 0.0:
            zeros = regulation_zero_check(cl, cfg.frequencies)
            zmax = max(zeros.values())
            rep.add("regulation_zeros", "pass" if zmax < 1e-8 else "fail",
                    f"max residual over tracked frequencies = {zmax:.3e}")
    else:
        rep.add("s_matrix_identity", "skip", "undamped: zero-frequency theory degenerates")
        for name in ("sylvester_residual", "care_residual", "closed_loop_margin", "regulation_zeros"):
            rep.add(name, "skip", "requires an exponentially stable plant")

    return EXIT_RUNTIME if rep.failed else EXIT_OK


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
    grid = _parse_grid(grid_text) if grid_text else default_sweep_grid(cfg, parameter)
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
        out_dir = args.out or cfg.out_dir
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg, out_dir)
        if args.command == "simulate":
            perturb = _parse_perturb(args.perturb) if args.perturb else None
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
