"""Closed-form frequency-domain and eigenstructure formulas for the satellite model.

Everything in this module is exact (up to floating point) and serves as the
oracle against which the spectral discretization is verified.  The combined
panel pair seen from the hub has the 2x2 diagonal transfer matrix

    P_b(i w) = 4 EI (alpha / (i w)) diag(alpha^2 C2w, C3w),   w != 0,
    P_b(0)   = gamma diag(2, 2/3),

with alpha(w) the principal fourth root of (rho a / EI)(w^2 - i gamma w / (rho a)),
and C2w = (C2 cos a - C1 C5)/(C2 C3), C3w = C4/C2 at a = alpha(w), where
C1 = 1 + cos a cosh a + sin a sinh a, C2 = 2 + 2 cos a cosh a, C3 = sinh a + sin a,
C4 = cos a sinh a - sin a cosh a and C5 = cosh a + cos a.  The hub alone is the
lossless integrator P_c(i w) = diag(1/m, 1/I_m) / (i w).  The full plant
transfer is P(i w) = C_c S(i w) B_c with

    S(i w) = [i w I + B_c P_b(i w) C_c]^{-1}.

All hyperbolic ratios are evaluated in exponentially scaled form so the
formulas stay finite far past |w| = 1e6 at moderate damping (at gamma = 5 with
unit constants, |Im alpha| stays below 0.54 at every w).  Their products still
carry e^(2 |Im alpha|), which leaves double range once |Im alpha| exceeds
about 355.2: for an overdamped panel (gamma >> rho a |w|) that is
gamma |w| / EI above about 7.43e11, for example gamma = 1e12 at w = 1 with
unit constants.  transfer_beam then raises RuntimeError naming w and gamma.
"""

import math

import numpy as np

from .params import PhysicalParams

# Below this |omega| the dedicated w = 0 closed forms are used; the two-term
# S(i w) formula loses ~|w|^-1 digits to cancellation as w -> 0.
OMEGA_ZERO_THRESHOLD = 1e-8


def alpha(omega: float, p: PhysicalParams) -> complex:
    """Complex wavenumber: principal fourth root of (rho a/EI)(w^2 - i gamma w/(rho a)).

    Satisfies alpha(0) = 0 and alpha(-w) = conj(alpha(w)).
    """
    z = complex(omega * omega, -p.gamma / p.rho_a * omega)
    return (p.rho_a / p.EI) ** 0.25 * z ** 0.25


def _sech(z: complex) -> complex:
    """Overflow-safe sech for arbitrary real part."""
    x, y = z.real, z.imag
    if abs(x) > 30.0:
        s = 1.0 if x >= 0.0 else -1.0
        ex = math.exp(-abs(x))
        rot = complex(math.cos(y), s * math.sin(y))
        # cosh z = e^{|x|} (rot + e^{-2|x|} conj(rot)) / 2
        return 2.0 * ex / (rot + ex * ex * rot.conjugate())
    return 1.0 / np.cosh(z)


def transfer_beam(omega: float, p: PhysicalParams) -> np.ndarray:
    """Transfer matrix of the combined panel pair as seen from the hub.

    Inputs are the hub's linear and angular velocities, outputs the net force
    and torque the panels exert back.  Diagonal 2x2; at w = 0 it equals
    gamma diag(2, 2/3).
    """
    if abs(omega) < OMEGA_ZERO_THRESHOLD:
        return np.diag([2.0 * p.gamma, 2.0 * p.gamma / 3.0]).astype(complex)
    al = alpha(omega, p)
    # hk = Ck / cosh(alpha) stay finite where the Ck overflow (Re(alpha) > ~710);
    # h2 * c overflows past |Im(alpha)| ~ 355, which the finiteness check reports
    with np.errstate(over="ignore", invalid="ignore"):
        T = np.tanh(al)
        S = _sech(al)
        c = np.cos(al)
        s = np.sin(al)
        h1 = S + c + s * T
        h2 = 2.0 * (S + c)
        h3 = T + s * S
        h4 = c * T - s
        h5 = 1.0 + c * S
        c2w = (h2 * c * S - h1 * h5) / (h2 * h3)
        c3w = h4 / h2
        pref = 4.0 * p.EI * al / (1j * omega)
        out = np.diag([pref * al * al * c2w, pref * c3w])
    if not np.isfinite(out).all():
        raise RuntimeError(f"the closed-form panel transfer overflows at omega = {omega!r}, "
                           f"gamma = {p.gamma!r}")
    return out


def transfer_rigid(omega: float, p: PhysicalParams) -> np.ndarray:
    """Transfer matrix of the free hub: (1/(i w)) diag(1/m, 1/I_m).

    Purely imaginary for every real w != 0; w = 0 is a pole.
    """
    if omega == 0.0:
        raise ValueError("rigid-body transfer has a pole at omega = 0")
    return np.diag([1.0 / (1j * omega * p.m), 1.0 / (1j * omega * p.I_m)])


def s_matrix(omega: float, p: PhysicalParams) -> np.ndarray:
    """The 2x2 matrix S(i w) = [i w I + B_c P_b(i w) C_c]^{-1}.

    Uses the two-term formula away from w = 0 and the closed form
    (B_c P_b(0) C_c)^{-1} = diag(m/(2 gamma), 3 I_m/(2 gamma)) at w = 0.
    """
    Bc = np.diag([1.0 / p.m, 1.0 / p.I_m])
    Pb = transfer_beam(omega, p)
    if abs(omega) < OMEGA_ZERO_THRESHOLD:
        if p.gamma == 0.0:
            raise RuntimeError("S(0) is undefined for an undamped panel (P_b(0) = 0)")
        return np.diag([p.m / (2.0 * p.gamma), 3.0 * p.I_m / (2.0 * p.gamma)]).astype(complex)
    Pc = transfer_rigid(omega, p)
    Q = np.eye(2) + Pb @ Pc
    det = Q[0, 0] * Q[1, 1] - Q[0, 1] * Q[1, 0]
    if abs(det) < 1e-14 * max(1.0, np.linalg.norm(Q)) ** 2:
        raise RuntimeError(f"I + P_b P_c is numerically singular at omega = {omega!r}")
    return (1.0 / (1j * omega)) * np.eye(2) + (1.0 / omega**2) * Bc @ Pb @ np.linalg.inv(Q)


def plant_transfer(omega: float, p: PhysicalParams) -> np.ndarray:
    """Transfer matrix of the full satellite on the imaginary axis: C_c S(i w) B_c."""
    Bc = np.diag([1.0 / p.m, 1.0 / p.I_m])
    return s_matrix(omega, p) @ Bc


# --- eigenstructure of a single clamped-free panel -------------------------

def _mu_char(mu: float) -> float:
    """Overflow-safe characteristic function: cos(mu) + sech(mu).

    Equals (cosh(mu) cos(mu) + 1) / cosh(mu), so it has exactly the
    clamped-free roots without evaluating cosh directly.
    """
    return math.cos(mu) + 1.0 / math.cosh(mu) if mu < 710.0 else math.cos(mu)


def beam_mu(k: int) -> float:
    """k-th positive root of cosh(mu) cos(mu) + 1 = 0 in increasing order.

    Roots interlace as mu_k in (pi (k-1), pi k) and approach pi (k - 1/2)
    exponentially fast; Brent's method finds the one in that bracket.
    """
    # imported here: at module level it would add about 0.2 s to every CLI start,
    # and no command calls beam_mu
    from scipy.optimize import brentq

    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    return brentq(_mu_char, max(math.pi * (k - 1), 1e-3), math.pi * k, xtol=1e-15)
