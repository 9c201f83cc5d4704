"""Spectral and frequency-domain diagnostics, invariant checks, and parameter sweeps.

validation_checks yields the model's invariant checks as Check records, one
per row of ``flexsat validate``, which only prints them.  A margin belongs to
its system (LinearStateSpace.margin, ClosedLoopSystem.margin), which computes
it on first use and caches it; stability_margin is re-exported from
discretize.  Commands and sweep points build their controller with
controller_from_config, validate's Sylvester and CARE rows an observer with
build_observer_controller; the plant keeps each regulator solution it was
solved for (synthesis.solve_sylvester_H).
Resolvent norms are sampled along the imaginary axis as the reciprocal
smallest singular value of the shifted state matrix.  Sweeps vary one
controller parameter at a time, recording margin and integrated squared
tracking error per grid point; a point the model refuses is flagged, not fatal.
"""

from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .config import RunConfig, sweep_range
from .discretize import (LinearStateSpace, assemble, galerkin_transfer, project_initial_state, require_decay,
                         stability_margin)
from .simulate import SimulationTrace, integrate, integrated_square_error, tracking_error, write_csv
from .synthesis import (
    ClosedLoopSystem,
    ControllerRealization,
    assemble_closed_loop,
    build_observer_controller,
    build_passive_controller,
    regulation_zero_check,
    solve_sylvester_H,
)


def resolvent_norm_scan(ss: LinearStateSpace, omegas) -> np.ndarray:
    """||(i w I - A)^{-1}||_2 over a frequency grid.

    Computed as the reciprocal smallest singular value of i w I - A; since the
    plant state is in energy coordinates this is the energy-norm resolvent of
    the discretized dynamics.
    """
    require_decay(ss.margin, "resolvent scan requires an exponentially stable system")
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
    return assemble(cfg.physical(), cfg.n_basis, (cfg.bd1, cfg.bd2))


def controller_from_config(cfg: RunConfig, ss: LinearStateSpace) -> ControllerRealization:
    """The configured controller for plant ss; an observer reads ss's recorded Sylvester solution."""
    if cfg.controller_kind == "passive":
        return build_passive_controller(cfg.frequencies, cfg.c1, cfg.c2)
    return build_observer_controller(ss, cfg.frequencies, cfg.q0, cfg.r0)


def simulate_from_config(cfg: RunConfig, cl: ClosedLoopSystem) -> SimulationTrace:
    x0 = project_initial_state(cl.plant, **cfg.initial_profiles())
    return integrate(cl, x0, cfg.exosystem(), cfg.t_final, cfg.dt)


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

    # the row names keep the energy weight H, which is the identity in the plant's coordinates
    coll = float(np.abs(ss.B - ss.C.T).max())
    yield Check("collocation_HB_eq_CT", "pass" if coll <= 1e-12 else "fail", coll,
                f"max|HB - C^T| = {coll:.3e}")

    # + 0.0 turns -0.0 into +0.0, so an undamped plant's zero eigenvalue prints unsigned
    sym = ss.A.T + ss.A + 0.0
    target = np.zeros_like(sym)
    nb = 2 * ss.n_basis
    target[nb:, nb:] = 2.0 * ss.A[nb:, nb:]  # -2 D: D is A's velocity block, negated
    struct = float(np.abs(sym - target).max())
    yield Check("dissipation_structure", "pass" if struct <= 1e-12 else "fail", struct,
                f"max|A^T H + H A + 2 blockdiag(0, D)| = {struct:.3e}")
    top = float(np.max(np.linalg.eigvalsh(sym)))
    if p.gamma == 0.0:
        yield Check("dissipativity", "pass" if top <= 1e-10 else "fail", top, f"top eigenvalue = {top:.3e}")
    else:
        # A^T + A is zero on the elastic block; strict dissipation lives on the velocity block
        vel_top = float(np.max(np.linalg.eigvalsh(sym[nb:, nb:])))
        ok = top <= 1e-10 and vel_top < 0.0
        yield Check("dissipativity", "pass" if ok else "fail", vel_top,
                    f"top eigenvalue = {top:.3e}, velocity block = {vel_top:.3e}")

    damped = ss.margin > 1e-8
    if damped:
        yield Check("plant_margin", "pass", ss.margin, f"margin = {ss.margin:.6f}")
    elif p.gamma == 0.0:
        yield Check("plant_margin", "warn", ss.margin, f"margin = {ss.margin:.3e} (undamped configuration?)")
    else:  # gamma > 0 damps the plant; eig's backward error is about n eps ||A||_2
        rounding = np.finfo(float).eps * np.linalg.norm(ss.A, 2)
        why = "within eig's rounding" if abs(ss.margin) <= ss.n * rounding else "too small to pass"
        yield Check("plant_margin", "warn", ss.margin,
                    f"eps*||A||_2 = {rounding:.3e}, margin = {ss.margin:.3e} (damped plant, margin {why})")

    omegas = [0.5, 1.0, 2.0, 5.0] + ([0.0] if damped else [])
    worst = oracle_error(ss, omegas)
    ok = worst < 1e-3
    detail = f"max rel error at N={cfg.n_basis} = {worst:.3e}"
    if not ok:  # the error stays the detail's last number
        detail = f"the Galerkin model does not resolve the plant at this n_basis, a larger one may: {detail}"
    yield Check("transfer_oracle", "pass" if ok else "fail", worst, detail)

    if not damped:
        why = "undamped" if p.gamma == 0.0 else "damped plant with too small a margin"
        yield Check("s_matrix_identity", "skip", np.nan, f"{why}: zero-frequency theory degenerates")
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

    # one observer build, from the H the solve recorded on ss: the solvers raise over their bound, so
    # these rows report the residuals they accepted; on an observer config it is the loop's controller
    _, syl = solve_sylvester_H(ss, cfg.frequencies)
    observer = build_observer_controller(ss, cfg.frequencies, cfg.q0, cfg.r0)
    care = observer.care_residual
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
    A point is flagged, with NaN metrics and stable False, only when the model
    refuses its synthesis or its loop (RuntimeError, LinAlgError); anything else
    is raised.  The points share the
    initial state, exosystem and plant, and the plant keeps its margin and each
    regulator solution it was solved for: an observer's first point solves it,
    and if that solve fails the plant records the refusal, which each later
    point's build raises again without solving, so every point is flagged.
    A point's margin is its loop's ClosedLoopSystem.margin, and tracking_error,
    which refuses an unstable loop, gives the error whose ||e||^2 it integrates.
    The points run in order: each one's work is multithreaded BLAS calls, so
    running points on threads of their own measured slower, not faster.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("sweep grid must be nonempty")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("sweep grid must be strictly increasing")
    sweep_range(cfg, parameter)
    points = [replace(cfg, **{parameter: float(value)}) for value in grid]
    ss = plant_from_config(cfg)
    x0_plant = project_initial_state(ss, **cfg.initial_profiles())
    exo = cfg.exosystem()

    def run_point(point: RunConfig):
        with suppress(RuntimeError, np.linalg.LinAlgError):
            cl = assemble_closed_loop(ss, controller_from_config(point, ss))
            t, e = tracking_error(cl, x0_plant, exo, cfg.t_final, cfg.dt)  # refuses an unstable loop
            return cl.margin, integrated_square_error(t, e)
        return np.nan, np.nan

    margin, l2sq = np.array([run_point(p) for p in points]).T
    return SweepResult(parameter=parameter, grid=grid, margin=margin, l2sq=l2sq, stable=~np.isnan(margin))
