"""Spectral and frequency-domain diagnostics, invariant checks, and parameter sweeps.

validation_checks yields the model's invariant checks as Check records, one
per row of ``flexsat validate``, which only prints them.  A margin belongs to
its system (LinearStateSpace.margin, ClosedLoopSystem.margin);
stability_margin is re-exported from discretize.
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
    regulation_zero_check,
    solve_sylvester_H,
    sylvester_residual,
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


# --- invariant checks ------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One invariant check: status pass/warn/skip/fail, the last number of detail (NaN if skipped)."""

    name: str
    status: str
    value: float
    detail: str


def validation_checks(cfg: RunConfig):
    """Yield the invariant checks of cfg's model in report order, each as soon as it is computed."""
    p = cfg.physical()
    ss = plant_from_config(cfg)

    coll = float(np.abs(ss.H @ ss.B - ss.C.T).max())
    yield Check("collocation_HB_eq_CT", "pass" if coll <= 1e-12 else "fail", coll,
                f"max|HB - C^T| = {coll:.3e}")

    sym = ss.A.T @ ss.H + ss.H @ ss.A
    target = np.zeros_like(sym)
    nb = 2 * ss.n_basis
    target[nb:, nb:] = -2.0 * ss.damping
    struct = float(np.abs(sym - target).max())
    yield Check("dissipation_structure", "pass" if struct <= 1e-12 else "fail", struct,
                f"max|A^T H + H A + 2 blockdiag(0, D)| = {struct:.3e}")
    top = float(np.max(np.linalg.eigvalsh(0.5 * (sym + sym.T))))
    if p.gamma == 0.0:
        yield Check("dissipativity", "pass" if top <= 1e-10 else "fail", top, f"top eigenvalue = {top:.3e}")
    else:
        # the elastic block of A^T H + H A is exactly zero; strict dissipation
        # lives on the velocity block
        vel_top = float(np.max(np.linalg.eigvalsh(0.5 * (sym + sym.T)[nb:, nb:])))
        ok = top <= 1e-10 and vel_top < 0.0
        yield Check("dissipativity", "pass" if ok else "fail", vel_top,
                    f"top eigenvalue = {top:.3e}, velocity block = {vel_top:.3e}")

    damped = ss.margin > 1e-8
    if damped:
        yield Check("plant_margin", "pass", ss.margin, f"margin = {ss.margin:.6f}")
    else:
        yield Check("plant_margin", "warn", ss.margin, f"margin = {ss.margin:.3e} (undamped configuration?)")

    omegas = [0.5, 1.0, 2.0, 5.0] + ([0.0] if damped else [])
    worst = oracle_error(ss, omegas)
    yield Check("transfer_oracle", "pass" if worst < 1e-3 else "fail", worst,
                f"max rel error at N={cfg.n_basis} = {worst:.3e}")

    if not damped:
        yield Check("s_matrix_identity", "skip", np.nan, "undamped: zero-frequency theory degenerates")
        for name in ("sylvester_residual", "care_residual", "closed_loop_margin", "regulation_zeros"):
            yield Check(name, "skip", np.nan, "requires an exponentially stable plant")
        return

    rng = np.random.default_rng(cfg.seed)
    res = 0.0
    Bc = np.diag([1.0 / p.m, 1.0 / p.I_m])
    for w in rng.uniform(-200.0, 200.0, size=100):
        S = analytic.s_matrix(w, p)
        ident = S @ (1j * w * np.eye(2) + Bc @ analytic.transfer_beam(w, p))
        res = max(res, float(np.abs(ident - np.eye(2)).max()))
    yield Check("s_matrix_identity", "pass" if res < 1e-12 else "fail", res, f"max residual = {res:.3e}")

    # one observer build: its solvers raise on a residual over their bound,
    # so these rows report the residuals they accepted; on an observer
    # config it is also the controller of the closed loop
    H = solve_sylvester_H(ss, cfg.frequencies)
    observer = build_observer_controller(ss, cfg.frequencies, cfg.q0, cfg.r0, H)
    syl, care = sylvester_residual(ss, cfg.frequencies, H), observer.care_residual
    yield Check("sylvester_residual", "pass", syl, f"relative residual = {syl:.3e}")
    yield Check("care_residual", "pass", care, f"relative residual = {care:.3e}")

    ctrl = observer if cfg.controller_kind == "observer" else controller_from_config(cfg, ss)
    cl = assemble_closed_loop(ss, ctrl)
    yield Check("closed_loop_margin", "pass" if cl.margin > 0.0 else "fail", cl.margin,
                f"{cfg.controller_kind}: margin = {cl.margin:.6f}")
    if cl.margin > 0.0:
        zmax = max(regulation_zero_check(cl, cfg.frequencies).values())
        yield Check("regulation_zeros", "pass" if zmax < 1e-8 else "fail", zmax,
                    f"max residual over tracked frequencies = {zmax:.3e}")


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
