"""The signal generator, exact closed-loop integration, and error metrics.

The reference y_ref and the disturbance w_d are constants plus sinusoids at
the tracked frequencies the controllers take: the outputs of one exosystem
vd = S v, which exosystem builds once.  The closed loop is autonomous once
the generator is appended to the state, so trajectories are computed from a
single matrix exponential, applied in 32-step blocks of its powers (phi^32 by
five squarings): there is no time-discretization error at the grid points
beyond the exponential's own backward error.  The exponential is one [13/13]
Pade scaling-and-squaring routine.  The propagator returns only the linear
outputs its caller reads (the trace's plant state, error and control for
integrate, the two error rows for tracking_error), never the augmented state
history.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discretize import require_decay
from .synthesis import ClosedLoopSystem, internal_model

LOG_FLOOR = 1e-14  # floor for log|e| in the decay-rate fit
_BLOCK = 32  # grid steps filled by one matrix product in propagate_autonomous; a power of 2


@dataclass(frozen=True, eq=False)
class Exosystem:
    """The signal generator vd = S v, v(0) = v0, whose output E v stacks (w_d, y_ref).

    v holds a constant state, then one (cos, sin) pair per positive
    frequency w, on which S rotates at w; the pair starts at (1, 0).  Column 0
    of E holds the constant offsets, and columns 1 + 2k and 2 + 2k the cosine
    and sine coefficients of frequency k.  Rows 0-3 of E are w_d's channels,
    rows 4-5 y_ref's.
    """

    S: np.ndarray
    v0: np.ndarray
    E: np.ndarray


def exosystem(freqs, yref_const, wd_const,
              yref_cos=None, yref_sin=None, wd_cos=None, wd_sin=None) -> Exosystem:
    """The generator of y_ref = yref_const + sum_k (yref_cos[k] cos(w_k t) + yref_sin[k] sin(w_k t)),
    and of w_d alike, from the [signals] keys of the INI file as it writes them.

    freqs is the tracked-frequency list the controllers take, checked by
    internal_model: nonnegative and strictly increasing, 0 standing for the
    offsets, which must be zero unless 0 is listed.  An offset has one entry
    per channel (2 for y_ref, 4 for w_d).  A coefficient table has one row
    per positive frequency w_k and one entry per channel; None is the zero
    table, and with no positive frequency an empty table is the (0, channels)
    table.  A malformed argument raises ValueError naming it.
    """
    tracked = internal_model(freqs).frequencies
    freqs = [f for f in tracked if f]
    q = len(freqs)
    nw = 1 + 2 * q
    E = np.zeros((6, nw))
    for rows, signal, const, cos, sin in ((slice(0, 4), "wd", wd_const, wd_cos, wd_sin),
                                          (slice(4, 6), "yref", yref_const, yref_cos, yref_sin)):
        dim = rows.stop - rows.start
        if np.shape(const) != (dim,):
            raise ValueError(f"{signal}_const needs {dim} entries, got shape {np.shape(const)}")
        E[rows, 0] = const
        for col, name, table in ((1, "cos", cos), (2, "sin", sin)):
            if table is None:
                continue
            if len(table) != q or any(np.shape(row) != (dim,) for row in table):
                raise ValueError(f"{signal}_{name} must have {q} rows of {dim} entries")
            E[rows, col::2] = np.reshape(table, (q, dim)).T
    if tracked[0] and E[:, 0].any():  # 0 comes first when it is listed
        raise ValueError("a nonzero yref_const or wd_const needs 0 in frequencies to be tracked")
    S = np.zeros((nw, nw))
    k = np.arange(q)
    S[1 + 2 * k, 2 + 2 * k] = np.negative(freqs)
    S[2 + 2 * k, 1 + 2 * k] = freqs
    v0 = np.zeros(nw)
    v0[0] = 1.0
    v0[1::2] = 1.0  # each (cos, sin) pair starts at (1, 0)
    return Exosystem(S=S, v0=v0, E=E)


# --- matrix exponential -----------------------------------------------------

# [13/13] Pade coefficients, and the 1-norm up to which the approximant meets
# double precision (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _pade13(M):
    """Odd and even parts (U, V) of the [13/13] Pade approximant, exp(M) ~ (V - U)^-1 (V + U)."""
    b = _PADE13
    eye = np.eye(M.shape[0], dtype=M.dtype)
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    U = M @ (
        M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
        + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * eye
    )
    V = (
        M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
        + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye
    )
    return U, V


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring with the [13/13] Pade approximant."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    norm = np.linalg.norm(M, 1)
    if not math.isfinite(norm):
        raise ValueError(f"expected a matrix with a finite 1-norm, got {float(norm)!r}")
    if norm == 0.0:
        return np.eye(M.shape[0])
    s = max(0, int(math.ceil(math.log2(norm / _THETA13))))
    U, V = _pade13(M / (2.0**s))
    return np.linalg.matrix_power(np.linalg.solve(V - U, V + U), 2**s)


def grid_steps(t_final: float, dt: float) -> int:
    """Steps of dt from 0 to t_final, a whole multiple of dt > 0 (to 1e-9 relative), at most 2**53."""
    if not (dt > 0.0 and t_final >= dt):
        raise ValueError(f"need t_final >= dt > 0, got t_final={t_final!r}, dt={dt!r}")
    ratio = t_final / dt
    if not ratio <= 2.0**53:  # past it a double misses step indices k and times k dt; inf and NaN fail too
        raise ValueError(f"t_final / dt overflows 2**53 steps: t_final={t_final!r}, dt={dt!r}")
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * steps:
        raise ValueError(f"t_final={t_final!r} is not a whole multiple of dt={dt!r}: "
                         f"the grid would end at {steps * dt!r}")
    return steps


def propagate_autonomous(A: np.ndarray, x0: np.ndarray, T: float, dt: float, C: np.ndarray) -> tuple:
    """Grid times and outputs Y[k] = C x_k of xd = A x from one exact step phi = exp(A dt).

    The steps are taken in blocks of B = 32: the block starts x_{kB} =
    phi^B x_{(k-1)B} are chained by matvecs with phi^B from five squarings,
    and every output inside a block, C phi^j x_{kB}, comes from one product
    of the starts with the small table (C phi^j)^T, j = 1 .. B.  Outputs are
    exact at the grid points, and no state history is built: the caller asks
    for the rows it reads (``np.eye(n)`` gives the states).  A non-finite
    output or block start raises as a blow-up, so a growing mode that C does
    not see is caught at the next block start.  phi^B overflows once a mode's
    |lambda| dt exceeds about 22 (709 / B), raising even if x0 lacks the mode
    (a direct call only: integrate and tracking_error refuse an unstable loop).
    A grid numpy cannot hold for this A and C raises MemoryError, as a refused allocation does.
    """
    nt = grid_steps(T, dt) + 1
    n, m = A.shape[0], C.shape[0]
    nb = -(-(nt - 1) // _BLOCK)
    phi = matrix_exponential(A * dt)
    # table[:, j, :] = (C phi^(j+1))^T, so a row x^T @ table[:, j, :] is (C phi^(j+1) x)^T
    try:
        table = np.empty((n, _BLOCK, m))
        ys = np.empty((1 + nb * _BLOCK, m))
        starts = np.empty((nb, n))
    except ValueError as exc:  # numpy's refusal of a shape whose bytes overflow, made before allocating
        raise MemoryError(str(exc)) from exc
    starts[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        ys[0] = C @ x0
        c = C
        for j in range(_BLOCK):
            c = c @ phi
            table[:, j, :] = c.T
        pb = np.linalg.matrix_power(phi, _BLOCK)  # five squarings, as _BLOCK is a power of 2
        for k in range(1, nb):
            starts[k] = pb @ starts[k - 1]
        # writes straight into ys: row k of the product is steps kB+1 .. kB+B
        np.matmul(starts, table.reshape(n, _BLOCK * m), out=ys[1:].reshape(nb, _BLOCK * m))
    ys = ys[:nt]
    bad = np.concatenate([np.flatnonzero(~np.isfinite(ys).all(axis=1)),
                          _BLOCK * np.flatnonzero(~np.isfinite(starts).all(axis=1))])
    if bad.size:
        i = int(bad.min())
        raise RuntimeError(f"state became non-finite at step {i} (t = {i * dt:.6g})")
    return dt * np.arange(nt), ys


def write_csv(path, header, rows) -> None:
    """Write a header and rows as ascii CSV: floats as %.17g, other cells with str."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (format(v, ".17g") if isinstance(v, float) else str(v) for v in row)
            fh.write(",".join(cells) + "\n")


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Uniformly sampled closed-loop trajectory with derived signals."""

    t: np.ndarray
    y: np.ndarray
    e: np.ndarray
    u: np.ndarray
    energy: np.ndarray

    def to_csv(self, path) -> None:
        """Write t,y1,y2,e1,e2,u1,u2,energy rows at full double precision."""
        rows = np.column_stack([self.t, self.y, self.e, self.u, self.energy]).tolist()
        write_csv(path, ("t", "y1", "y2", "e1", "e2", "u1", "u2", "energy"), rows)


def _augment(cl: ClosedLoopSystem, x0: np.ndarray, exo: Exosystem) -> tuple:
    """The closed loop with the signal generator appended: (A_aug, initial state, error map [Ce, De E]).

    ``x0`` is the plant's initial state; the controller starts at rest.
    """
    require_decay(cl.margin, "closed loop unstable")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (cl.plant.n,):
        raise ValueError(f"initial plant state must have length {cl.plant.n}, got {x0.shape}")
    A_aug = np.block([[cl.Ae, cl.Be @ exo.E], [np.zeros((exo.S.shape[0], cl.n)), exo.S]])
    x0_aug = np.concatenate([x0, np.zeros(cl.controller.n_c), exo.v0])
    return A_aug, x0_aug, np.hstack([cl.Ce, cl.De @ exo.E])


def integrate(cl: ClosedLoopSystem, x0: np.ndarray, exo: Exosystem, T: float, dt: float) -> SimulationTrace:
    """Integrate the closed loop from plant state x0, the controller at rest, exactly on a uniform grid.

    Only the rows the trace reads are propagated (propagate_autonomous): the
    plant state (for y and the energy), the error map and the control map.  A
    loop with margin <= 0 raises RuntimeError before any exponential is taken.
    """
    A_aug, x0_aug, error_map = _augment(cl, x0, exo)
    n = cl.plant.n
    control_map = np.zeros_like(error_map)  # u = K z - kappa e
    control_map[:, n : cl.n] = cl.controller.K
    control_map -= cl.controller.kappa @ error_map
    C = np.vstack([np.eye(n, A_aug.shape[0]), error_map, control_map])
    t, ys = propagate_autonomous(A_aug, x0_aug, T, dt, C)
    xp = ys[:, :n]
    energy = 0.5 * np.einsum("ij,ij->i", xp, xp)  # the plant state is in energy coordinates
    return SimulationTrace(t=t, y=xp @ cl.plant.C.T, e=ys[:, n : n + 2], u=ys[:, n + 2 :], energy=energy)


def tracking_error(cl: ClosedLoopSystem, x0: np.ndarray, exo: Exosystem, T: float, dt: float) -> tuple:
    """Grid times and error e of integrate's run, propagating only e's two rows; refuses as integrate does."""
    A_aug, x0_aug, error_map = _augment(cl, x0, exo)
    return propagate_autonomous(A_aug, x0_aug, T, dt, error_map)


def integrated_square_error(t: np.ndarray, e: np.ndarray) -> float:
    """Trapezoidal integral of ||e||^2 over the grid t."""
    return float(np.trapezoid(np.linalg.norm(e, axis=1) ** 2, t))


@dataclass(frozen=True)
class ErrorMetrics:
    """Integrated squared error and fitted exponential decay rate."""

    l2sq: float
    decay_rate: float
    floored: bool


def error_metrics(trace: SimulationTrace) -> ErrorMetrics:
    """Trapezoidal integral of ||e||^2 and log-linear decay fit.

    The decay rate is the least-squares slope of log||e(t)|| over the
    trailing half of the run, and at least its last two samples, with ||e||
    floored at 1e-14; if every sample in the window sits at the floor the rate
    is reported as 0 with the flag set.
    """
    if trace.t.size == 0:
        raise ValueError("empty trace")
    l2sq = integrated_square_error(trace.t, trace.e)
    nrm = np.linalg.norm(trace.e, axis=1)
    half = trace.t >= 0.5 * trace.t[-1]
    half[-2:] = True  # a one-step run would fit a line through one sample
    tail_t = trace.t[half]
    tail = nrm[half]
    floored_mask = tail < LOG_FLOOR
    logs = np.log(np.maximum(tail, LOG_FLOOR))
    if np.all(floored_mask):
        return ErrorMetrics(l2sq=l2sq, decay_rate=0.0, floored=True)
    slope = np.polyfit(tail_t, logs, 1)[0]
    return ErrorMetrics(l2sq=l2sq, decay_rate=float(slope), floored=bool(np.any(floored_mask)))
