"""Legendre spectral Galerkin discretization of the coupled panel/hub dynamics.

The transverse displacement of each panel is split into rigid motion carried
by the hub plus an elastic deviation clamped at the attachment point,

    w(xi, t) = w_c(t) + xi * theta_c(t) + eta(xi, t),     eta(0) = eta'(0) = 0,

and eta is expanded in twice-antidifferentiated Legendre polynomials, held per
panel as one table of Legendre coefficients so that one Clenshaw sum evaluates
all N functions (BeamBasis).  Testing the weak form with the same shapes gives

    M qdd + D qd + K q = B_f u + B_w w_d

with q = (w_c, theta_c, elastic coefficients).  The clamped basis makes the
hub interface conditions exact, the free-end conditions natural, and the
elastic stiffness Gram diagonal.  Because no potential energy is attached to
the rigid displacements they drop out of the state, which is

    x = (sqrt(k_e) * eta coefficients,  L^T qd),      M = L L^T,

of dimension 4N + 2.  In these coordinates the energy weight is exactly the
identity (the state 2-norm squared is twice the mechanical energy), the
collocation identity H B = C^T holds bit-exactly, and A^T H + H A equals
-blockdiag(0, 2 * damping) bit-exactly.  Initial data reuse the same Gauss
rule and shape rows: an initial velocity profile is projected as the load a
distributed disturbance of that shape puts on B_w, and a hub velocity enters
through the actuator columns.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polyutils as pu

from .params import PhysicalParams

_QUAD_EXTRA = 8  # Gauss nodes per panel: 2N + 8, exact for every assembly integrand
_DOMAINS = {"left": (-1.0, 0.0), "right": (0.0, 1.0)}  # panel coordinate xi, hub at 0
_WINDOW = (-1.0, 1.0)  # Legendre window the panel domain is mapped onto


@dataclass(frozen=True, eq=False)
class BeamBasis:
    """Clamped polynomial basis for the elastic deviation of one panel.

    phi_j is the Legendre polynomial of degree j on the panel domain,
    antidifferentiated twice from xi = 0, so phi_j(0) = phi_j'(0) = 0 exactly
    and phi_j'' is again a Legendre polynomial (diagonal stiffness Gram).
    The basis is one (n + 2, n) coefficient table: column j holds the Legendre
    coefficients of phi_j in the window variable t = off + scl * xi on [-1, 1],
    zero-padded above degree j + 2.
    """

    side: str
    n: int
    domain: tuple[float, float]
    coef: np.ndarray

    def eval(self, xi, order: int = 0) -> np.ndarray:
        """Values (order 0) or spatial derivatives of all phi_j at points xi.

        Returns an (n, len(xi)) array.
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        off, scl = pu.mapparms(self.domain, _WINDOW)
        coef = self.coef if order == 0 else npleg.legder(self.coef, order, scl=scl, axis=0)
        return npleg.legval(off + scl * xi, coef)


def build_basis(n: int, side: str) -> BeamBasis:
    """Construct the clamped Legendre basis for the left or right panel."""
    if n < 1:
        raise ValueError(f"need at least one basis function, got {n}")
    if side not in _DOMAINS:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    # integrate twice from xi = 0, which is t = off in the window variable
    off, scl = pu.mapparms(_DOMAINS[side], _WINDOW)
    coef = npleg.legint(np.eye(n), 2, lbnd=off, scl=1.0 / scl, axis=0)
    return BeamBasis(side=side, n=n, domain=_DOMAINS[side], coef=coef)


def _panels(basis_l: BeamBasis, basis_r: BeamBasis):
    """Yield (i, basis, xi, w, V) per panel (left i = 0, right i = 1): its 2N + 8
    Gauss nodes and weights, and the rows V of every shape function there --
    rigid 1 and xi, this panel's elastic functions, zeros for the other's."""
    N = basis_l.n
    nq = 2 * N + _QUAD_EXTRA
    xg, wg = npleg.leggauss(nq)
    for i, basis in enumerate((basis_l, basis_r)):
        lo, hi = basis.domain
        xi, w = 0.5 * (hi - lo) * xg + 0.5 * (hi + lo), 0.5 * (hi - lo) * wg
        V = np.zeros((2 + 2 * N, nq))
        V[0], V[1] = 1.0, xi
        V[2 + i * N : 2 + (i + 1) * N] = basis.eval(xi)
        yield i, basis, xi, w, V


@dataclass(frozen=True, eq=False)
class LinearStateSpace:
    """Finite state-space realization (A, B, Bd, C) with energy weight H.

    State ordering: 2N elastic coordinates (stiffness-normalized Legendre
    coefficients, left panel then right), then 2N + 2 velocity coordinates
    (Cholesky-transformed generalized velocities).  H is the identity in
    these coordinates; the plant energy is 0.5 * x.T @ H @ x.
    """

    A: np.ndarray
    B: np.ndarray
    Bd: np.ndarray
    C: np.ndarray
    H: np.ndarray
    n: int
    n_basis: int
    params: PhysicalParams
    basis_left: BeamBasis
    basis_right: BeamBasis
    damping: np.ndarray       # velocity-block damping in state coordinates
    stiffness: np.ndarray     # diagonal of the elastic stiffness Gram
    chol_inv: np.ndarray      # L^{-1} with M = L L^T

    def energy(self, x: np.ndarray) -> float:
        """Mechanical energy of a plant state (elastic plus kinetic)."""
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ self.H @ x)

    @cached_property
    def margin(self) -> float:
        """Stability margin of A, computed on first use."""
        return stability_margin(self.A)


def _as_profile(fn):
    """Normalize a profile given as callable or polynomial coefficients."""
    if fn is None:
        return lambda x: np.ones_like(x)
    if callable(fn):
        return fn
    coeffs = np.asarray(fn, dtype=float)
    return lambda x: np.polynomial.polynomial.polyval(x, coeffs)


def assemble(p: PhysicalParams, N: int, bd_profiles=None) -> LinearStateSpace:
    """Assemble the 4N + 2 dimensional state space for N basis functions per panel.

    Parameters
    ----------
    p : PhysicalParams
        Beam and hub constants.
    N : int
        Number of elastic basis functions per panel.
    bd_profiles : pair, optional
        Spatial shapes (b_d1, b_d2) of the two distributed disturbance
        channels, as callables on the panel domain or polynomial coefficient
        sequences.  Defaults to the constant 1 on both panels.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if bd_profiles is None:
        bd_profiles = (None, None)

    nc = 2 + 2 * N
    basis_l = build_basis(N, "left")
    basis_r = build_basis(N, "right")
    gram = np.zeros((nc, nc))
    ke = np.empty(2 * N)
    Bw = np.zeros((nc, 4))
    for (i, basis, xi, w, V), bd in zip(_panels(basis_l, basis_r), bd_profiles):
        gram += (V * w) @ V.T
        # elastic stiffness Gram: diagonal by Legendre orthogonality
        ke[i * N : (i + 1) * N] = p.EI * (basis.eval(xi, order=2) ** 2) @ w
        Bw[:, i] = V @ (w * _as_profile(bd)(xi))  # distributed disturbance on this panel
    Bw[0, 2] = Bw[1, 3] = 1.0  # force and torque disturbances enter with the hub inputs

    M = p.rho_a * gram
    M[0, 0] += p.m
    M[1, 1] += p.I_m
    D = p.gamma * gram

    L = np.linalg.cholesky(M)
    W = sla.solve_triangular(L, np.eye(nc), lower=True)

    n = 4 * N + 2
    sk = np.sqrt(ke)
    # F maps velocity coordinates to elastic-coordinate rates
    F = (W[:, 2:] * sk).T
    Dt = W @ D @ W.T
    Dt = 0.5 * (Dt + Dt.T)

    A = np.zeros((n, n))
    A[: 2 * N, 2 * N :] = F
    A[2 * N :, : 2 * N] = -F.T
    A[2 * N :, 2 * N :] = -Dt
    B = np.zeros((n, 2))
    B[2 * N :] = W[:, :2]
    Bd = np.zeros((n, 4))
    Bd[2 * N :] = W @ Bw
    C = np.zeros((2, n))
    C[:, 2 * N :] = W[:, :2].T

    return LinearStateSpace(
        A=A,
        B=B,
        Bd=Bd,
        C=C,
        H=np.eye(n),
        n=n,
        n_basis=N,
        params=p,
        basis_left=basis_l,
        basis_right=basis_r,
        damping=Dt,
        stiffness=ke,
        chol_inv=W,
    )


@dataclass(frozen=True)
class InitialProfiles:
    """Initial condition in physical variables.

    Velocity profiles are in m/s on each panel's domain; moment profiles are
    the initial bending moments.  ``hub_velocity`` is (linear, angular).
    Profiles may be callables or polynomial coefficient sequences; None means
    identically zero.
    """

    left_velocity: object = None
    right_velocity: object = None
    left_moment: object = None
    right_moment: object = None
    hub_velocity: tuple[float, float] = (0.0, 0.0)


def project_initial_state(profiles: InitialProfiles, ss: LinearStateSpace) -> np.ndarray:
    """Project physical initial data onto the discrete state.

    Bending moments are converted to elastic coordinates through the
    stiffness-weighted projection (for polynomial moments of degree < N this
    is exact).  A velocity profile is the same momentum load b as a distributed
    disturbance of that shape (rho_a times its B_w column), a hub velocity
    enters through the actuator columns as (m h0, I_m h1), and the velocity
    block is L^T M^{-1} b = L^{-1} b.
    """
    N = ss.n_basis
    p = ss.params
    x = np.zeros(ss.n)
    b = np.zeros(2 * N + 2)
    moments = (profiles.left_moment, profiles.right_moment)
    velocities = (profiles.left_velocity, profiles.right_velocity)
    for i, basis, xi, w, V in _panels(ss.basis_left, ss.basis_right):
        if moments[i] is not None:
            # phi_j'' are orthogonal, so the stiffness-weighted projection is
            # coefficientwise: a_j = <m, phi_j''> / ||phi_j''||^2
            ke = ss.stiffness[i * N : (i + 1) * N]
            num = p.EI * basis.eval(xi, order=2) @ (w * _as_profile(moments[i])(xi))
            x[i * N : (i + 1) * N] = np.sqrt(ke) * (num / ke)
        if velocities[i] is not None:
            b += p.rho_a * V @ (w * _as_profile(velocities[i])(xi))
    b[:2] += p.m * profiles.hub_velocity[0], p.I_m * profiles.hub_velocity[1]
    x[2 * N :] = ss.chol_inv @ b
    return x


def stability_margin(A: np.ndarray) -> float:
    """Minus the largest real part of eigvals(A): the decay rate of xd = A x, > 0 iff A is Hurwitz."""
    return -float(np.max(np.linalg.eigvals(A).real))


def shifted_solve(A: np.ndarray, omega: float, rhs: np.ndarray) -> np.ndarray:
    """(i w I - A)^{-1} rhs; a numerically singular shift raises RuntimeError."""
    shift = 1j * omega * np.eye(A.shape[0]) - A
    try:
        return np.linalg.solve(shift, rhs.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"i*omega - A is numerically singular at omega = {omega!r}") from exc


def galerkin_transfer(ss: LinearStateSpace, omega: float) -> np.ndarray:
    """Transfer matrix C (i w I - A)^{-1} B of the assembled system."""
    return ss.C @ shifted_solve(ss.A, omega, ss.B)
