"""Internal-model controller synthesis and closed-loop assembly.

Two dynamic error-feedback controllers

    zd(t) = G1 z(t) + G2 e(t),      u(t) = K z(t) - kappa e(t)

are provided.  The passive controller is a fixed-structure skew-symmetric
internal model with output feedback; it needs no model information beyond
the tracked frequencies.  The observer-based controller augments the internal
model with a full plant copy; its stabilizing gain comes from a continuous
algebraic Riccati equation and its coupling from the regulator (Sylvester)
equation G1 H = H A + G2 C of the real rotation-block internal model, solved
with one shifted solve of the plant per tracked frequency.
build_observer_controller is the one observer construction, and the
realization it returns carries the Riccati residual.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .discretize import LinearStateSpace, shifted_solve, stability_margin

CARE_RESIDUAL_RTOL = 1e-8
SYLVESTER_RESIDUAL_RTOL = 1e-8


def _validate_freqs(freqs) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=float)
    if freqs.ndim != 1 or freqs.size == 0:
        raise ValueError("frequency list must be a nonempty 1-D sequence")
    if np.any(freqs < 0.0):
        raise ValueError("frequencies must be nonnegative (conjugates are implicit)")
    if np.any(np.diff(freqs) <= 0.0):
        raise ValueError("frequencies must be strictly increasing (duplicates rejected)")
    return freqs


def signed_frequencies(freqs) -> list[float]:
    """Signed frequency list -w_q .. -w_1, [0,] w_1 .. w_q."""
    freqs = _validate_freqs(freqs)
    pos = [f for f in freqs if f > 0.0]
    out = [-f for f in reversed(pos)]
    if freqs[0] == 0.0:
        out.append(0.0)
    out.extend(pos)
    return out


@dataclass(frozen=True, eq=False)
class InternalModel:
    """Real block realization of the tracked-signal generator.

    G1 is block diagonal: a 2x2 zero block when 0 is tracked, and one
    rotation block [[0, w I2], [-w I2, 0]] per positive frequency.  The
    spectrum is {0} plus {+-i w_k}, each with multiplicity 2.
    """

    G1: np.ndarray
    blocks: tuple  # (frequency, slice) per block
    dim: int


def internal_model(freqs) -> InternalModel:
    """Rotation-block internal model for the given nonnegative frequencies."""
    freqs = _validate_freqs(freqs)
    has_zero = freqs[0] == 0.0
    pos = [float(f) for f in freqs if f > 0.0]
    dim = (2 if has_zero else 0) + 4 * len(pos)
    G1 = np.zeros((dim, dim))
    blocks = []
    pos_idx = 0
    if has_zero:
        blocks.append((0.0, slice(0, 2)))
        pos_idx = 2
    for f in pos:
        sl = slice(pos_idx, pos_idx + 4)
        G1[sl.start : sl.start + 2, sl.start + 2 : sl.stop] = f * np.eye(2)
        G1[sl.start + 2 : sl.stop, sl.start : sl.start + 2] = -f * np.eye(2)
        blocks.append((f, sl))
        pos_idx += 4
    return InternalModel(G1=G1, blocks=tuple(blocks), dim=dim)


@dataclass(frozen=True, eq=False)
class ControllerRealization:
    """Matrices (G1, G2, K, kappa) of a dynamic error-feedback controller.

    An observer controller also carries design_plant, the plant it was built
    on; servo, its Hurwitz servo matrix G1 + B1 K1; and care_residual, the
    relative residual of the Riccati solution behind K1 (all None otherwise).
    Since K2 = K1 H and the plant copy has no error injection, the loop closed
    around design_plant is block-triangular in the coordinates
    (x - xhat, z1 + H xhat, xhat), so its spectrum is spec(A) twice together
    with spec(servo); around any other plant that structure is lost.
    """

    G1: np.ndarray
    G2: np.ndarray
    K: np.ndarray
    kappa: np.ndarray
    design_plant: LinearStateSpace | None = None
    servo: np.ndarray | None = None
    care_residual: float | None = None

    @property
    def n_c(self) -> int:
        return self.G1.shape[0]


def zero_controller() -> ControllerRealization:
    """Degenerate zero-dimensional controller (closed loop equals the plant)."""
    return ControllerRealization(
        G1=np.zeros((0, 0)),
        G2=np.zeros((0, 2)),
        K=np.zeros((2, 0)),
        kappa=np.zeros((2, 2)),
    )


def build_passive_controller(freqs, c1: float, c2: float) -> ControllerRealization:
    """Passive internal-model controller.

    G1 is the skew-symmetric rotation-block internal model; the error drives
    the zero block with -I and the leading half of each rotation block with
    -c1 I; K = -G2^T and kappa = c2 I close the loop passively.  c1 and c2
    set the closed-loop stability margin and transient size.  The margin is
    not monotone in c1: it vanishes as c1 -> 0 and as c1 -> inf, with a
    maximum in between.
    """
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError(f"c1 and c2 must be positive, got c1={c1!r}, c2={c2!r}")
    im = internal_model(freqs)
    G2 = np.zeros((im.dim, 2))
    for f, sl in im.blocks:
        if f == 0.0:
            G2[sl.start : sl.start + 2] = -np.eye(2)
        else:
            G2[sl.start : sl.start + 2] = -c1 * np.eye(2)
    return ControllerRealization(G1=im.G1, G2=G2, K=-G2.T, kappa=c2 * np.eye(2))


def _observer_G2(im: InternalModel) -> np.ndarray:
    """Error input of the observer's internal model: I on the zero block and
    sqrt(2) I on the trailing half of each rotation block."""
    G2 = np.zeros((im.dim, 2))
    for f, sl in im.blocks:
        if f == 0.0:
            G2[sl] = np.eye(2)
        else:
            G2[sl.start + 2 : sl.stop] = np.sqrt(2.0) * np.eye(2)
    return G2


def solve_sylvester_H(ss: LinearStateSpace, freqs) -> np.ndarray:
    """Real solution H of G1 H = H A + G2 C for the rotation-block internal model.

    G1 is internal_model(freqs).G1, G2 the observer's error input, and the rows
    of H follow its blocks.  With R_w = C (i w I - A)^{-1}, one shifted solve per
    tracked frequency, the zero block is Re R_0 and each rotation block stacks
    sqrt(2) Im R_w over sqrt(2) Re R_w.  The plant must be exponentially stable
    so that every shift is regular.
    """
    if ss.margin <= 0.0:
        raise RuntimeError(f"plant must be exponentially stable (stability margin {ss.margin:.3e})")
    im = internal_model(freqs)
    H = np.empty((im.dim, ss.n))
    s2 = np.sqrt(2.0)
    for f, sl in im.blocks:
        R = shifted_solve(ss.A.T, f, ss.C.T).T
        H[sl] = R.real if f == 0.0 else np.vstack([s2 * R.imag, s2 * R.real])
    residual = sylvester_residual(ss, freqs, H)
    if residual > SYLVESTER_RESIDUAL_RTOL:
        worst = max(np.linalg.cond(1j * f * np.eye(ss.n) - ss.A) for f, _ in im.blocks)
        raise RuntimeError(
            f"relative Sylvester residual {residual:.3e} exceeds {SYLVESTER_RESIDUAL_RTOL:.1e} "
            f"(worst shift condition number {worst:.3e})"
        )
    return H


def sylvester_residual(ss: LinearStateSpace, freqs, H: np.ndarray) -> float:
    """Relative residual ||G1 H - H A - G2 C|| / (1 + ||H||) of solve_sylvester_H's equation."""
    im = internal_model(freqs)
    res = im.G1 @ H - H @ ss.A - _observer_G2(im) @ ss.C
    return float(np.linalg.norm(res) / (1.0 + np.linalg.norm(H)))


def _riccati_map(A, G, Q, P):
    """A^T P + P A - P G P + Q, which vanishes at a Riccati solution P."""
    return A.T @ P + P @ A - P @ G @ P + Q


def care_residual(A, B, Q, R, P) -> float:
    """Relative residual ||A^T P + P A - P B R^{-1} B^T P + Q|| / max(||P||, 1)."""
    G = B @ np.linalg.inv(R) @ B.T
    return float(np.linalg.norm(_riccati_map(A, G, Q, P)) / max(np.linalg.norm(P), 1.0))


def care_solve(A, B, Q, R):
    """Stabilizing solution of A^T P + P A - P B R^{-1} B^T P + Q = 0.

    Solved by an ordered Schur decomposition of the 2n x 2n Hamiltonian
    matrix (stable invariant subspace), followed by a Newton refinement step
    when the residual calls for it.  Returns (P, K) with K = R^{-1} B^T P and
    A - B K Hurwitz.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    n = A.shape[0]
    Rinv = np.linalg.inv(R)
    G = B @ Rinv @ B.T
    ham = np.block([[A, -G], [-Q, -A.T]])
    T, Z, sdim = sla.schur(ham, output="real", sort=lambda re, im: re < 0.0)
    if sdim != n:
        raise RuntimeError(
            f"(A, B) appears unstabilizable: stable invariant subspace has "
            f"dimension {sdim}, expected {n}"
        )
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    try:
        P = np.linalg.solve(U1.T, U2.T).T
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("singular Schur basis block; Riccati solution undefined") from exc
    P = 0.5 * (P + P.T)

    res = care_residual(A, B, Q, R, P)
    if res > 0.1 * CARE_RESIDUAL_RTOL:
        # one Newton step: Lyapunov equation for the correction
        Ac = A - G @ P
        try:
            delta = sla.solve_sylvester(Ac.T, Ac, -_riccati_map(A, G, Q, P))
            P = 0.5 * (P + delta + (P + delta).T)
            res = care_residual(A, B, Q, R, P)
        except np.linalg.LinAlgError:
            pass
    if res > CARE_RESIDUAL_RTOL:
        raise RuntimeError(f"relative Riccati residual {res:.3e} exceeds {CARE_RESIDUAL_RTOL:.1e}")
    eigs = np.linalg.eigvalsh(P)
    if eigs.min() < -1e-8 * max(eigs.max(), 1.0):
        raise RuntimeError("Riccati solution is not positive semidefinite")
    K = Rinv @ B.T @ P
    if stability_margin(A - B @ K) <= 0.0:
        raise RuntimeError("Riccati gain failed to stabilize A - B K")
    return P, K


def build_observer_controller(ss: LinearStateSpace, freqs, q0: float, r0: float, H=None) -> ControllerRealization:
    """Observer-based internal-model controller from the Sylvester solution H.

    H is solve_sylvester_H(ss, freqs), which depends on the plant alone and is
    solved here when not given.  The servocompensator is the real
    rotation-block internal model driven by the tracking error; its
    stabilizing gain K1 makes G1 + B1 K1 Hurwitz via the Riccati equation with
    weights q0 I and r0 I (the Riccati gain enters with a plus sign here, so
    the conventional sign is flipped).  A full copy of the plant acts as
    observer, and K2 = K1 H couples it back.
    """
    if H is None:
        H = solve_sylvester_H(ss, freqs)
    if q0 <= 0.0 or r0 <= 0.0:
        raise ValueError(f"q0 and r0 must be positive, got q0={q0!r}, r0={r0!r}")
    im = internal_model(freqs)
    B1 = H @ ss.B
    # every B1 block is a transfer-function value; they must be nonsingular
    for f, sl in im.blocks:
        rows = B1[sl.start : sl.start + 2] if f == 0.0 else B1[sl]
        if np.linalg.matrix_rank(rows, tol=1e-10) < 2:
            raise RuntimeError(f"plant transfer value at omega = {f} is singular; cannot stabilize")

    Q, R = q0 * np.eye(im.dim), r0 * np.eye(2)
    P, Klqr = care_solve(im.G1, B1, Q, R)
    K1 = -Klqr
    servo = im.G1 + B1 @ K1  # care_solve has checked that it is Hurwitz
    K2 = K1 @ H

    n = ss.n
    nz = im.dim
    G1 = np.zeros((nz + n, nz + n))
    G1[:nz, :nz] = im.G1
    G1[nz:, :nz] = ss.B @ K1
    G1[nz:, nz:] = ss.A + ss.B @ K2
    G2 = np.vstack([_observer_G2(im), np.zeros((n, 2))])
    K = np.hstack([K1, K2])
    return ControllerRealization(G1=G1, G2=G2, K=K, kappa=np.zeros((2, 2)), design_plant=ss,
                                 servo=servo, care_residual=care_residual(im.G1, B1, Q, R, P))


@dataclass(frozen=True, eq=False)
class ClosedLoopSystem:
    """Closed loop of plant and controller with exogenous input (w_d, y_ref)."""

    Ae: np.ndarray
    Be: np.ndarray
    Ce: np.ndarray
    De: np.ndarray
    plant: LinearStateSpace
    controller: ControllerRealization

    @property
    def n(self) -> int:
        return self.Ae.shape[0]

    @cached_property
    def margin(self) -> float:
        """Stability margin of Ae, computed on first use; around its design plant an
        observer loop's is min(plant, servo) by separation (see ControllerRealization),
        sparing an eig of Ae that splits the doubled plant spectrum by about sqrt(eps)."""
        ctrl = self.controller
        if ctrl.servo is not None and ctrl.design_plant is self.plant:
            return min(self.plant.margin, stability_margin(ctrl.servo))
        return stability_margin(self.Ae)


def assemble_closed_loop(ss: LinearStateSpace, ctrl: ControllerRealization) -> ClosedLoopSystem:
    """Block assembly of the closed loop.

    Ae = [[A - B kappa C, B K], [G2 C, G1]], Be = [[Bd, B kappa], [0, -G2]],
    Ce = [C, 0], De = [0, -I]; the exogenous input is (w_d, y_ref).
    """
    n = ss.n
    nc = ctrl.n_c
    if ctrl.G2.shape != (nc, 2) or ctrl.K.shape != (2, nc) or ctrl.kappa.shape != (2, 2):
        raise ValueError(
            f"inconsistent controller dimensions: G1 {ctrl.G1.shape}, "
            f"G2 {ctrl.G2.shape}, K {ctrl.K.shape}, kappa {ctrl.kappa.shape}"
        )
    Ae = np.zeros((n + nc, n + nc))
    Ae[:n, :n] = ss.A - ss.B @ ctrl.kappa @ ss.C
    Ae[:n, n:] = ss.B @ ctrl.K
    Ae[n:, :n] = ctrl.G2 @ ss.C
    Ae[n:, n:] = ctrl.G1
    Be = np.zeros((n + nc, 6))
    Be[:n, :4] = ss.Bd
    Be[:n, 4:] = ss.B @ ctrl.kappa
    Be[n:, 4:] = -ctrl.G2
    Ce = np.hstack([ss.C, np.zeros((2, nc))])
    De = np.hstack([np.zeros((2, 4)), -np.eye(2)])
    return ClosedLoopSystem(Ae=Ae, Be=Be, Ce=Ce, De=De, plant=ss, controller=ctrl)


def regulation_zero_check(cl: ClosedLoopSystem, freqs) -> dict:
    """Norm of the closed-loop error transfer at each signed tracked frequency.

    An internal-model controller drives these to rounding level; a missing
    frequency shows up as an order-one residual.  The closed loop must be
    stable for the values to mean anything, so instability is rejected.
    """
    if cl.margin <= 0.0:
        raise RuntimeError(f"closed loop is not stable (stability margin {cl.margin:.3e})")
    out = {}
    for w in signed_frequencies(freqs):
        G = cl.Ce @ shifted_solve(cl.Ae, w, cl.Be) + cl.De
        out[w] = float(np.linalg.norm(G, 2))
    return out
