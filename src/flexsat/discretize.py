"""Legendre spectral Galerkin discretization of the coupled panel/hub dynamics.

The transverse displacement of each panel is split into rigid motion carried
by the hub plus an elastic deviation clamped at the attachment point,

    w(xi, t) = w_c(t) + xi * theta_c(t) + eta(xi, t),     eta(0) = eta'(0) = 0,

and eta is expanded in twice-antidifferentiated Legendre polynomials.  Testing
the weak form with the same shapes gives

    M qdd + D qd + K q = B_f u + B_w w_d

with q = (w_c, theta_c, elastic coefficients).  The clamped basis makes the
hub interface conditions exact, the free-end conditions natural, and the
elastic stiffness Gram diagonal.  Because no potential energy is attached to
the rigid displacements they drop out of the state, which is

    x = (sqrt(k_e) * eta coefficients,  L^T qd),      M = L L^T,

of dimension 4N + 2.  In these coordinates the energy weight is exactly the
identity (the state 2-norm squared is twice the mechanical energy), the
collocation identity H B = C^T holds bit-exactly, and A^T H + H A equals
-blockdiag(0, 2 * damping) bit-exactly.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from numpy.polynomial import Legendre
from numpy.polynomial import legendre as npleg

from .params import PhysicalParams

_QUAD_EXTRA = 8  # Gauss nodes per panel: 2N + 8, exact for every assembly integrand


@dataclass(frozen=True, eq=False)
class BeamBasis:
    """Clamped polynomial basis for the elastic deviation of one panel.

    phi_j is the Legendre polynomial of degree j on the panel domain,
    antidifferentiated twice from xi = 0, so phi_j(0) = phi_j'(0) = 0 exactly
    and phi_j'' is again a Legendre polynomial (diagonal stiffness Gram).
    """

    side: str
    n: int
    domain: tuple[float, float]
    _series: tuple

    def eval(self, xi, order: int = 0) -> np.ndarray:
        """Values (order 0) or spatial derivatives of all phi_j at points xi.

        Returns an (n, len(xi)) array.
        """
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.empty((self.n, xi.size))
        for j, phi in enumerate(self._series):
            out[j] = phi(xi) if order == 0 else phi.deriv(order)(xi)
        return out


def build_basis(n: int, side: str) -> BeamBasis:
    """Construct the clamped Legendre basis for the left or right panel."""
    if n < 1:
        raise ValueError(f"need at least one basis function, got {n}")
    if side == "left":
        domain = (-1.0, 0.0)
    elif side == "right":
        domain = (0.0, 1.0)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    series = []
    for j in range(n):
        coef = np.zeros(j + 1)
        coef[j] = 1.0
        series.append(Legendre(coef, domain=list(domain)).integ(2, lbnd=0.0))
    return BeamBasis(side=side, n=n, domain=domain, _series=tuple(series))


def _panel_quadrature(domain, n_points):
    xg, wg = npleg.leggauss(n_points)
    lo, hi = domain
    return 0.5 * (hi - lo) * xg + 0.5 * (hi + lo), 0.5 * (hi - lo) * wg


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
    bd1 = _as_profile(bd_profiles[0])
    bd2 = _as_profile(bd_profiles[1])

    nq = 2 * N + _QUAD_EXTRA
    basis_l = build_basis(N, "left")
    basis_r = build_basis(N, "right")
    xl, wl = _panel_quadrature(basis_l.domain, nq)
    xr, wr = _panel_quadrature(basis_r.domain, nq)

    # shape function values on each panel: rigid (1, xi) plus that panel's
    # elastic functions; the other panel's functions vanish there
    nc = 2 + 2 * N
    Vl = np.zeros((nc, nq))
    Vr = np.zeros((nc, nq))
    Vl[0], Vl[1] = 1.0, xl
    Vr[0], Vr[1] = 1.0, xr
    Vl[2 : 2 + N] = basis_l.eval(xl)
    Vr[2 + N :] = basis_r.eval(xr)

    gram = (Vl * wl) @ Vl.T + (Vr * wr) @ Vr.T
    M = p.rho_a * gram
    M[0, 0] += p.m
    M[1, 1] += p.I_m
    D = p.gamma * gram

    # elastic stiffness Gram: diagonal by Legendre orthogonality
    ke = np.empty(2 * N)
    curv_l = basis_l.eval(xl, order=2)
    curv_r = basis_r.eval(xr, order=2)
    ke[:N] = p.EI * (curv_l**2) @ wl
    ke[N:] = p.EI * (curv_r**2) @ wr

    Bf = np.zeros((nc, 2))
    Bf[0, 0] = Bf[1, 1] = 1.0
    Bw = np.zeros((nc, 4))
    Bw[:, 0] = Vl @ (wl * bd1(xl))
    Bw[:, 1] = Vr @ (wr * bd2(xr))
    Bw[:, 2:] = Bf

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
    is exact); velocity profiles are projected in the mass inner product onto
    the generalized velocities.
    """
    N = ss.n_basis
    p = ss.params
    nq = 2 * N + _QUAD_EXTRA
    x = np.zeros(ss.n)

    for offset, basis in ((0, ss.basis_left), (N, ss.basis_right)):
        mom = profiles.left_moment if basis.side == "left" else profiles.right_moment
        if mom is None:
            continue
        xi, w = _panel_quadrature(basis.domain, nq)
        curv = basis.eval(xi, order=2)
        mvals = _as_profile(mom)(xi)
        # phi_j'' are orthogonal, so the stiffness-weighted projection is
        # coefficientwise: a_j = <m, phi_j''> / ||phi_j''||^2
        num = p.EI * curv @ (w * mvals)
        a = num / ss.stiffness[offset : offset + N]
        x[offset : offset + N] = np.sqrt(ss.stiffness[offset : offset + N]) * a

    b = np.zeros(2 * N + 2)
    any_vel = False
    for offset, basis in ((0, ss.basis_left), (N, ss.basis_right)):
        vel = profiles.left_velocity if basis.side == "left" else profiles.right_velocity
        if vel is None:
            continue
        any_vel = True
        xi, w = _panel_quadrature(basis.domain, nq)
        vvals = _as_profile(vel)(xi)
        b[0] += p.rho_a * np.sum(w * vvals)
        b[1] += p.rho_a * np.sum(w * xi * vvals)
        b[2 + offset : 2 + offset + N] = p.rho_a * basis.eval(xi) @ (w * vvals)
    if profiles.hub_velocity != (0.0, 0.0):
        any_vel = True
        b[0] += p.m * profiles.hub_velocity[0]
        b[1] += p.I_m * profiles.hub_velocity[1]
    if any_vel:
        # qd = M^{-1} b, state block is L^T qd = L^{-1} b
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
