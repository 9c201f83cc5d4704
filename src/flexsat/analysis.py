"""Spectral and frequency-domain diagnostics, and parameter sweeps.

The stability margin is minus the spectral abscissa of the closed-loop state
matrix; resolvent norms are sampled along the imaginary axis as the
reciprocal smallest singular value of the shifted state matrix.  Sweeps vary
one controller parameter at a time, recording margin and integrated squared
tracking error per grid point, with unstable or failed syntheses flagged
rather than aborting the sweep.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic
from .config import RunConfig
from .discretize import LinearStateSpace, assemble, galerkin_transfer, project_initial_state, spectral_abscissa
from .simulate import SimulationTrace, error_metrics, integrate, write_csv
from .synthesis import (
    ClosedLoopSystem,
    ControllerRealization,
    assemble_closed_loop,
    build_observer_controller,
    build_passive_controller,
    observer_synthesis,
    solve_sylvester_H,
)


def stability_margin(A: np.ndarray) -> float:
    """Decay exponent of the dynamics: minus the spectral abscissa."""
    return -spectral_abscissa(A)


def resolvent_norm_scan(ss: LinearStateSpace, omegas) -> np.ndarray:
    """||(i w I - A)^{-1}||_2 over a frequency grid.

    Computed as the reciprocal smallest singular value of i w I - A; since H
    is the identity in the assembled coordinates this is the energy-norm
    resolvent of the discretized dynamics.
    """
    if spectral_abscissa(ss.A) >= 0.0:
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


def controller_from_config(cfg: RunConfig, ss: LinearStateSpace) -> ControllerRealization:
    if cfg.controller_kind == "passive":
        return build_passive_controller(cfg.frequencies, cfg.c1, cfg.c2)
    return build_observer_controller(ss, cfg.frequencies, cfg.q0, cfg.r0)


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


_PASSIVE_PARAMS = ("c1", "c2")
_OBSERVER_PARAMS = ("q0", "r0")


def sweep(cfg: RunConfig, parameter: str, grid) -> SweepResult:
    """Synthesize, close the loop, and simulate across one parameter grid.

    Unstable closed loops and synthesis failures are flagged in ``stable``
    and carry NaN metrics; the sweep always completes.  Work that depends on
    the plant alone (initial state, observer Sylvester solution) is done once.
    ``cfg.workers`` threads run the points (0: one per core).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sweep grid must be nonempty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("sweep grid must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("sweep grid must be strictly increasing")
    allowed = _PASSIVE_PARAMS if cfg.controller_kind == "passive" else _OBSERVER_PARAMS
    if parameter not in allowed:
        raise ValueError(
            f"parameter {parameter!r} does not apply to the {cfg.controller_kind} controller "
            f"(choose from {allowed})"
        )
    ss = plant_from_config(cfg)
    x0_plant = project_initial_state(cfg.initial_profiles(), ss)
    H = None
    if cfg.controller_kind == "observer":
        try:
            H = solve_sylvester_H(ss, cfg.frequencies)
        except (RuntimeError, ValueError):
            nan = np.full(grid.size, np.nan)
            return SweepResult(parameter, grid, nan, nan.copy(), np.zeros(grid.size, dtype=bool))

    def run_point(value: float):
        try:
            point = cfg.with_overrides(**{parameter: float(value)})
            if H is None:
                ctrl = controller_from_config(point, ss)
            else:
                ctrl = observer_synthesis(ss, point.frequencies, point.q0, point.r0, H).controller
            cl = assemble_closed_loop(ss, ctrl)
            margin = stability_margin(cl.Ae)
            if margin <= 0.0:
                return np.nan, np.nan, False
            x0 = np.concatenate([x0_plant, np.zeros(ctrl.n_c)])
            trace = integrate(cl, x0, cfg.yref_spec(), cfg.wd_spec(), cfg.t_final, cfg.dt)
            return margin, error_metrics(trace).l2sq, True
        except (RuntimeError, ValueError):
            return np.nan, np.nan, False

    nworkers = max(1, min(cfg.workers or os.cpu_count() or 1, grid.size))
    if nworkers == 1:
        rows = [run_point(v) for v in grid]
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            rows = list(pool.map(run_point, grid))
    margin = np.array([r[0] for r in rows])
    l2sq = np.array([r[1] for r in rows])
    stable = np.array([r[2] for r in rows], dtype=bool)
    return SweepResult(parameter=parameter, grid=grid, margin=margin, l2sq=l2sq, stable=stable)
