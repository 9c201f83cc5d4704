"""Signal generation, exact closed-loop integration, and error metrics.

The closed loop driven by constant-plus-sinusoidal references and
disturbances is autonomous once the signal generator is appended to the
state, so trajectories are computed from a single matrix exponential, applied
in blocks of its precomputed powers: there is no time-discretization error at
the grid points beyond the exponential's own backward error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .synthesis import ClosedLoopSystem

LOG_FLOOR = 1e-14  # floor for log|e| in the decay-rate fit
_BLOCK = 8  # grid steps filled by one matrix product in propagate_autonomous


@dataclass(frozen=True)
class SignalSpec:
    """Constant plus sinusoidal signal a0 + sum_k (a_k cos(w_k t) + b_k sin(w_k t)).

    ``freqs`` are the strictly positive frequencies; the constant offset is
    carried separately.  Coefficient arrays have one row per frequency and
    one column per signal channel.
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
        cos_c = np.zeros((q, dim)) if cos_coeffs is None else np.asarray(cos_coeffs, dtype=float)
        sin_c = np.zeros((q, dim)) if sin_coeffs is None else np.asarray(sin_coeffs, dtype=float)
        if cos_c.shape != (q, dim) or sin_c.shape != (q, dim):
            raise ValueError(
                f"coefficient tables must be ({q}, {dim}); got {cos_c.shape} and {sin_c.shape}"
            )
        return cls(
            freqs=freqs,
            const=tuple(const),
            cos_coeffs=tuple(map(tuple, cos_c)),
            sin_coeffs=tuple(map(tuple, sin_c)),
        )

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

_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0,
    ),
    13: (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
        960960.0, 16380.0, 182.0, 1.0,
    ),
}

# 1-norm thresholds below which the [m/m] Pade approximant meets double precision
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 5.371920351148152}


def _pade(M, m):
    b = _PADE_COEFFS[m]
    n = M.shape[0]
    eye = np.eye(n, dtype=M.dtype)
    M2 = M @ M
    if m == 13:
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
    pows = [eye, M2]
    for _ in range((m - 3) // 2):
        pows.append(pows[-1] @ M2)
    U = np.zeros_like(M)
    V = np.zeros_like(M)
    for i, Pk in enumerate(pows):
        U += b[2 * i + 1] * Pk
        V += b[2 * i] * Pk
    return M @ U, V


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring with diagonal Pade approximants."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    norm = np.linalg.norm(M, 1)
    if norm == 0.0:
        return np.eye(M.shape[0])
    for m in (3, 5, 7, 9):
        if norm <= _PADE_THETA[m]:
            U, V = _pade(M, m)
            return np.linalg.solve(V - U, V + U)
    s = max(0, int(math.ceil(math.log2(norm / _PADE_THETA[13]))))
    U, V = _pade(M / (2.0**s), 13)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def propagate_autonomous(A: np.ndarray, x0: np.ndarray, T: float, dt: float) -> tuple:
    """Grid times and states of xd = A x from one exact exponential step phi = exp(A dt).

    The steps are taken in blocks: with the powers phi^1 .. phi^B precomputed,
    the block starts x_{kB} = phi^B x_{(k-1)B} are chained by matvecs, and
    every state inside a block, phi^j x_{kB}, comes from one matrix product
    over all blocks.  Each state is still exact at its grid point.  A power
    phi^j that overflows makes its rows non-finite even when x0 has no
    component along the growing mode, so that case raises as a blow-up.
    """
    if dt <= 0.0 or T < dt:
        raise ValueError(f"need dt > 0 and T >= dt, got dt={dt!r}, T={T!r}")
    nt = int(round(T / dt)) + 1
    n = A.shape[0]
    nb = -(-(nt - 1) // _BLOCK)
    phi = matrix_exponential(A * dt)
    # pt[:, j, :] = (phi^(j+1))^T, so a row x^T @ pt[:, j, :] is (phi^(j+1) x)^T
    pt = np.empty((n, _BLOCK, n))
    xs = np.empty((1 + nb * _BLOCK, n))
    xs[0] = x0
    starts = np.empty((nb, n))
    starts[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        pt[:, 0, :] = phi.T
        for j in range(1, _BLOCK):
            np.matmul(pt[:, j - 1, :], phi.T, out=pt[:, j, :])
        phi_block = pt[:, -1, :].T
        for k in range(1, nb):
            starts[k] = phi_block @ starts[k - 1]
        # writes straight into xs: row k of the product is steps kB+1 .. kB+B
        np.matmul(starts, pt.reshape(n, _BLOCK * n), out=xs[1:].reshape(nb, _BLOCK * n))
    xs = xs[:nt]
    bad = ~np.isfinite(xs).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise RuntimeError(f"state became non-finite at step {i} (t = {i * dt:.6g})")
    return dt * np.arange(nt), xs


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
    exponential; the scheme is exact at the grid points.  ``x0`` is the
    extended initial state (plant then controller).
    """
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
    t, xs = propagate_autonomous(A_aug, np.concatenate([x0, v0]), T, dt)

    xe = xs[:, :ne]
    ue = xs[:, ne:] @ E.T
    e = xe @ cl.Ce.T + ue @ cl.De.T
    n = cl.plant.n
    y = xe[:, :n] @ cl.plant.C.T
    z = xe[:, n:]
    u = z @ cl.controller.K.T - e @ cl.controller.kappa.T
    energy = 0.5 * np.einsum("ij,ij->i", xe[:, :n], xe[:, :n] @ cl.plant.H.T)
    return SimulationTrace(t=t, y=y, e=e, u=u, energy=energy)


@dataclass(frozen=True)
class ErrorMetrics:
    """Integrated squared error and fitted exponential decay rate."""

    l2sq: float
    decay_rate: float
    floored: bool


def error_metrics(trace: SimulationTrace) -> ErrorMetrics:
    """Trapezoidal integral of ||e||^2 and log-linear decay fit.

    The decay rate is the least-squares slope of log||e(t)|| over the
    trailing half of the run, with ||e|| floored at 1e-14; if every sample in
    the window sits at the floor the rate is reported as 0 with the flag set.
    """
    if trace.t.size == 0:
        raise ValueError("empty trace")
    nrm = np.linalg.norm(trace.e, axis=1)
    l2sq = float(np.trapezoid(nrm**2, trace.t))
    half = trace.t >= 0.5 * trace.t[-1]
    tail_t = trace.t[half]
    tail = nrm[half]
    floored_mask = tail < LOG_FLOOR
    logs = np.log(np.maximum(tail, LOG_FLOOR))
    if np.all(floored_mask):
        return ErrorMetrics(l2sq=l2sq, decay_rate=0.0, floored=True)
    slope = np.polyfit(tail_t, logs, 1)[0]
    return ErrorMetrics(l2sq=l2sq, decay_rate=float(slope), floored=bool(np.any(floored_mask)))
