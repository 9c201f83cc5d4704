"""Spectral and frequency-domain diagnostics, and parameter sweeps.

A margin belongs to its system (LinearStateSpace.margin,
ClosedLoopSystem.margin); stability_margin is re-exported from discretize.
Resolvent norms are sampled along the imaginary axis as the reciprocal
smallest singular value of the shifted state matrix.  Sweeps vary one
controller parameter at a time, recording margin and integrated squared
tracking error per grid point, with failed points flagged, not fatal.
"""

from dataclasses import dataclass

import numpy as np

from . import analytic
from .config import RunConfig, sweep_range
from .discretize import LinearStateSpace, assemble, galerkin_transfer, project_initial_state, stability_margin
from .simulate import SimulationTrace, integrate, integrated_square_error, tracking_error, write_csv
from .synthesis import (
    ClosedLoopSystem,
    ControllerRealization,
    assemble_closed_loop,
    build_observer_controller,
    build_passive_controller,
    solve_sylvester_H,
)


def resolvent_norm_scan(ss: LinearStateSpace, omegas) -> np.ndarray:
    """||(i w I - A)^{-1}||_2 over a frequency grid.

    Computed as the reciprocal smallest singular value of i w I - A; since H
    is the identity in the assembled coordinates this is the energy-norm
    resolvent of the discretized dynamics.
    """
    if ss.margin <= 0.0:
        raise RuntimeError("resolvent scan requires an exponentially stable system")
    omegas = np.asarray(omegas, dtype=float)
    out = np.empty(omegas.size)
    eye = np.eye(ss.n)
    for i, w in enumerate(omegas):
        smin = np.linalg.svd(1j * w * eye - ss.A, compute_uv=False)[-1]
        if smin == 0.0:
            raise RuntimeError(f"singular shift at omega = {w!r}")
        out[i] = 1.0 / smin
    return out


def oracle_error(ss: LinearStateSpace, omegas) -> float:
    """Max relative deviation of the assembled transfer from the closed form over omegas."""
    worst = 0.0
    for w in omegas:
        ref = analytic.plant_transfer(w, ss.params)
        err = np.linalg.norm(galerkin_transfer(ss, w) - ref) / np.linalg.norm(ref)
        worst = max(worst, float(err))
    return worst


def transfer_error_report(p, Ns, omegas) -> list:
    """Max relative deviation of the assembled transfer from the closed form, per N.

    Returns [(N, max_rel_error)] in the given N order.
    """
    return [(int(N), oracle_error(assemble(p, N), omegas)) for N in Ns]


# --- configuration-driven construction --------------------------------------

def plant_from_config(cfg: RunConfig) -> LinearStateSpace:
    return assemble(cfg.physical(), cfg.n_basis, cfg.bd_profiles())


def controller_from_config(cfg: RunConfig, ss: LinearStateSpace, H=None) -> ControllerRealization:
    """The configured controller for plant ss; H is an observer's Sylvester solution, if solved."""
    if cfg.controller_kind == "passive":
        return build_passive_controller(cfg.frequencies, cfg.c1, cfg.c2)
    return build_observer_controller(ss, cfg.frequencies, cfg.q0, cfg.r0, H)


def initial_state_from_config(cfg: RunConfig, cl: ClosedLoopSystem) -> np.ndarray:
    """Projected plant initial state extended with a zero controller state."""
    x0_plant = project_initial_state(cfg.initial_profiles(), cl.plant)
    return np.concatenate([x0_plant, np.zeros(cl.controller.n_c)])


def simulate_from_config(cfg: RunConfig, cl: ClosedLoopSystem) -> SimulationTrace:
    x0 = initial_state_from_config(cfg, cl)
    return integrate(cl, x0, cfg.yref_spec(), cfg.wd_spec(), cfg.t_final, cfg.dt)


# --- parameter sweeps --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SweepResult:
    """Per-point stability margin and integrated squared error over a grid."""

    parameter: str
    grid: np.ndarray
    margin: np.ndarray
    l2sq: np.ndarray
    stable: np.ndarray

    def to_csv(self, path) -> None:
        names = [self.parameter] * self.grid.size
        rows = zip(names, self.grid, self.margin, self.l2sq, self.stable.astype(int))
        write_csv(path, ("param", "value", "margin", "l2sq", "stable"), rows)


def sweep(cfg: RunConfig, parameter: str, grid) -> SweepResult:
    """Synthesize, close the loop, and simulate across one parameter grid.

    parameter must be a gain that changes the configured controller (sweep_range),
    and every grid value must make a valid RunConfig (a gain is positive and
    finite), else the sweep raises ConfigError before any point runs.
    Unstable closed loops and synthesis failures are flagged in ``stable``
    and carry NaN metrics; the sweep always completes.  Work that depends on
    the plant and signals alone (initial state, signal specs, observer
    Sylvester solution, and with it the plant's cached margin) is done once;
    a point's margin is its loop's ClosedLoopSystem.margin, and a stable point
    integrates ||e||^2 over its tracking error (tracking_error).
    The points run in order: each one's work is multithreaded BLAS calls, so
    running points on threads of their own measured slower, not faster.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sweep grid must be nonempty")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("sweep grid must be strictly increasing")
    sweep_range(cfg, parameter)
    points = [cfg.with_overrides(**{parameter: float(value)}) for value in grid]
    ss = plant_from_config(cfg)
    x0_plant = project_initial_state(cfg.initial_profiles(), ss)
    yref, wd = cfg.yref_spec(), cfg.wd_spec()
    H = None
    if cfg.controller_kind == "observer":
        try:
            H = solve_sylvester_H(ss, cfg.frequencies)
        except (RuntimeError, ValueError):
            nan = np.full(grid.size, np.nan)
            return SweepResult(parameter, grid, nan, nan.copy(), np.zeros(grid.size, dtype=bool))

    def run_point(point: RunConfig):
        try:
            ctrl = controller_from_config(point, ss, H)
            cl = assemble_closed_loop(ss, ctrl)
            if cl.margin <= 0.0:
                return np.nan, np.nan, False
            x0 = np.concatenate([x0_plant, np.zeros(ctrl.n_c)])
            t, e = tracking_error(cl, x0, yref, wd, cfg.t_final, cfg.dt)
            return cl.margin, integrated_square_error(t, e), True
        except (RuntimeError, ValueError):
            return np.nan, np.nan, False

    rows = [run_point(p) for p in points]
    margin = np.array([r[0] for r in rows])
    l2sq = np.array([r[1] for r in rows])
    stable = np.array([r[2] for r in rows], dtype=bool)
    return SweepResult(parameter=parameter, grid=grid, margin=margin, l2sq=l2sq, stable=stable)
