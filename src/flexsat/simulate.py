"""Signal generation, exact closed-loop integration, and error metrics.

The closed loop driven by constant-plus-sinusoidal references and
disturbances is autonomous once the signal generator is appended to the
state, so trajectories are computed from a single matrix exponential, applied
in 32-step blocks of its powers (phi^32 by five squarings): there is no
time-discretization error at the grid points beyond the exponential's own
backward error.  The exponential is one [13/13] Pade scaling-and-squaring
routine.  The propagator returns only the linear outputs its caller reads
(the trace's plant state, error and control for integrate, the two error rows
for tracking_error), never the augmented state history.
"""

import math
from dataclasses import dataclass

import numpy as np

from .synthesis import ClosedLoopSystem

LOG_FLOOR = 1e-14  # floor for log|e| in the decay-rate fit
_BLOCK = 32  # grid steps filled by one matrix product in propagate_autonomous; a power of 2


@dataclass(frozen=True)
class SignalSpec:
    """Constant plus sinusoidal signal a0 + sum_k (a_k cos(w_k t) + b_k sin(w_k t)).

    ``freqs`` are the strictly positive frequencies; the constant offset is
    carried separately.  Coefficient arrays have one row per frequency and
    one column per signal channel; with no frequency, an empty table is the
    (0, dim) table of a constant-only signal.
    """

    freqs: tuple
    const: tuple
    cos_coeffs: tuple
    sin_coeffs: tuple

    @classmethod
    def create(cls, freqs, const, cos_coeffs=None, sin_coeffs=None) -> "SignalSpec":
        freqs = tuple(float(f) for f in freqs)
        if any(f <= 0.0 for f in freqs) or list(freqs) != sorted(set(freqs)):
            raise ValueError("signal frequencies must be strictly positive and increasing")
        const = np.atleast_1d(np.asarray(const, dtype=float))
        dim = const.size
        q = len(freqs)

        def table(coeffs):
            rows = np.zeros((q, dim)) if coeffs is None else coeffs
            if len(rows) != q or any(np.shape(row) != (dim,) for row in rows):
                raise ValueError(f"coefficient tables must have {q} rows of {dim} entries")
            return tuple(map(tuple, np.asarray(rows, dtype=float).reshape(q, dim)))

        return cls(freqs=freqs, const=tuple(const),
                   cos_coeffs=table(cos_coeffs), sin_coeffs=table(sin_coeffs))

    @property
    def dim(self) -> int:
        return len(self.const)


def eval_signal(spec: SignalSpec, t):
    """Evaluate the signal at scalar or array times."""
    t = np.asarray(t, dtype=float)
    out = np.tile(np.asarray(spec.const), t.shape + (1,))
    for f, a, b in zip(spec.freqs, spec.cos_coeffs, spec.sin_coeffs):
        out += np.multiply.outer(np.cos(f * t), np.asarray(a))
        out += np.multiply.outer(np.sin(f * t), np.asarray(b))
    return out


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
    if norm == 0.0:
        return np.eye(M.shape[0])
    s = max(0, int(math.ceil(math.log2(norm / _THETA13))))
    U, V = _pade13(M / (2.0**s))
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def grid_steps(t_final: float, dt: float) -> int:
    """Steps of dt from 0 to t_final, a whole multiple of dt > 0 (to 1e-9 relative)."""
    if not (dt > 0.0 and math.isfinite(t_final) and t_final >= dt):
        raise ValueError(f"need t_final >= dt > 0, got t_final={t_final!r}, dt={dt!r}")
    steps = round(t_final / dt)
    if abs(t_final / dt - steps) > 1e-9 * steps:
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
    |lambda| dt exceeds about 22 (709 / B), raising even if x0 lacks the mode.
    """
    nt = grid_steps(T, dt) + 1
    n, m = A.shape[0], C.shape[0]
    nb = -(-(nt - 1) // _BLOCK)
    phi = matrix_exponential(A * dt)
    # table[:, j, :] = (C phi^(j+1))^T, so a row x^T @ table[:, j, :] is (C phi^(j+1) x)^T
    table = np.empty((n, _BLOCK, m))
    ys = np.empty((1 + nb * _BLOCK, m))
    starts = np.empty((nb, n))
    starts[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        ys[0] = C @ x0
        c = C
        for j in range(_BLOCK):
            c = c @ phi
            table[:, j, :] = c.T
        # phi^B by squarings; against a chained phi^8 this moved trace.csv <= 4.7e-14 of each
        # column maximum, and sweep l2sq 1.1e-13 and decay_rate 3.3e-11 relative (rounding)
        pb = phi
        for _ in range(_BLOCK.bit_length() - 1):
            pb = pb @ pb
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


def _exosystem(yref: SignalSpec, wd: SignalSpec):
    """Autonomous generator of (w_d, y_ref): constant state plus rotation pairs."""
    if yref.freqs != wd.freqs:
        raise ValueError(
            f"reference and disturbance must share the frequency list, "
            f"got {yref.freqs} and {wd.freqs}"
        )
    freqs = yref.freqs
    nw = 1 + 2 * len(freqs)
    S = np.zeros((nw, nw))
    v0 = np.zeros(nw)
    v0[0] = 1.0
    for i, f in enumerate(freqs):
        S[1 + 2 * i, 2 + 2 * i] = -f
        S[2 + 2 * i, 1 + 2 * i] = f
        v0[1 + 2 * i] = 1.0  # (cos, sin) pair starts at (1, 0)
    E = np.zeros((6, nw))
    E[:4, 0] = wd.const
    E[4:, 0] = yref.const
    for i in range(len(freqs)):
        E[:4, 1 + 2 * i] = wd.cos_coeffs[i]
        E[:4, 2 + 2 * i] = wd.sin_coeffs[i]
        E[4:, 1 + 2 * i] = yref.cos_coeffs[i]
        E[4:, 2 + 2 * i] = yref.sin_coeffs[i]
    return S, v0, E


def _augment(cl: ClosedLoopSystem, x0: np.ndarray, yref: SignalSpec, wd: SignalSpec) -> tuple:
    """The closed loop with the signal generator appended: (A_aug, initial state, E)."""
    if yref.dim != 2 or wd.dim != 4:
        raise ValueError("reference must have 2 channels and disturbance 4")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (cl.n,):
        raise ValueError(f"initial state must have length {cl.n}, got {x0.shape}")
    S, v0, E = _exosystem(yref, wd)
    ne, nw = cl.n, S.shape[0]
    A_aug = np.zeros((ne + nw, ne + nw))
    A_aug[:ne, :ne] = cl.Ae
    A_aug[:ne, ne:] = cl.Be @ E
    A_aug[ne:, ne:] = S
    return A_aug, np.concatenate([x0, v0]), E


def integrate(
    cl: ClosedLoopSystem,
    x0: np.ndarray,
    yref: SignalSpec,
    wd: SignalSpec,
    T: float,
    dt: float,
) -> SimulationTrace:
    """Integrate the closed loop exactly on a uniform grid.

    The exogenous generator is appended to the closed-loop state and the
    combined autonomous system is stepped with a single precomputed matrix
    exponential; the scheme is exact at the grid points.  Only the rows the
    trace reads are propagated: the plant state (for y and the energy), the
    error map [Ce, De E] and the control map.  ``x0`` is the extended initial
    state (plant then controller).
    """
    A_aug, x0_aug, E = _augment(cl, x0, yref, wd)
    n = cl.plant.n
    error_map = np.hstack([cl.Ce, cl.De @ E])
    control_map = np.zeros_like(error_map)  # u = K z - kappa e
    control_map[:, n : cl.n] = cl.controller.K
    control_map -= cl.controller.kappa @ error_map
    C = np.vstack([np.eye(n, A_aug.shape[0]), error_map, control_map])
    t, ys = propagate_autonomous(A_aug, x0_aug, T, dt, C)
    xp = ys[:, :n]
    energy = 0.5 * np.einsum("ij,ij->i", xp, xp)  # the plant's energy Gram H is the identity
    return SimulationTrace(t=t, y=xp @ cl.plant.C.T, e=ys[:, n : n + 2], u=ys[:, n + 2 :], energy=energy)


def tracking_error(
    cl: ClosedLoopSystem,
    x0: np.ndarray,
    yref: SignalSpec,
    wd: SignalSpec,
    T: float,
    dt: float,
) -> tuple:
    """Grid times and tracking error e of integrate's run, propagating only e's two rows."""
    A_aug, x0_aug, E = _augment(cl, x0, yref, wd)
    return propagate_autonomous(A_aug, x0_aug, T, dt, np.hstack([cl.Ce, cl.De @ E]))


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
