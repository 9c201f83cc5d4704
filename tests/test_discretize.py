"""Spectral Galerkin assembly: structure, projections, transfer-oracle match."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Legendre

import flexsat as fx
from flexsat import discretize
from flexsat.discretize import build_basis, shifted_solve


def test_basis_clamped_at_hub():
    for side in ("left", "right"):
        basis = build_basis(6, side)
        vals = basis.eval(0.0)
        slopes = basis.eval(0.0, order=1)
        assert np.max(np.abs(vals)) < 1e-14
        assert np.max(np.abs(slopes)) < 1e-14


def test_basis_first_function_is_half_xi_squared():
    basis = build_basis(1, "right")
    xi = np.linspace(0.0, 1.0, 7)
    assert np.allclose(basis.eval(xi)[0], 0.5 * xi**2, atol=1e-14)


def test_basis_stiffness_gram_diagonal():
    basis = build_basis(8, "right")
    xg, wg = np.polynomial.legendre.leggauss(24)
    xi, w = 0.5 * (xg + 1.0), 0.5 * wg
    curv = basis.eval(xi, order=2)
    gram = (curv * w) @ curv.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-14
    assert np.all(np.diag(gram) > 0.0)


class _SeriesBasis:
    """The per-function reference the coefficient table must reproduce bit for
    bit: one Legendre series per phi_j, differentiated on every evaluation."""

    def __init__(self, n, side):
        self.n, self.side = n, side
        self.domain = (-1.0, 0.0) if side == "left" else (0.0, 1.0)
        self.series = [Legendre(np.eye(n)[j, : j + 1], domain=list(self.domain)).integ(2, lbnd=0.0)
                       for j in range(n)]

    def eval(self, xi, order=0):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        return np.array([phi(xi) if order == 0 else phi.deriv(order)(xi) for phi in self.series])


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n", [1, 2, 10, 40, 80])
def test_basis_table_matches_series_bit_for_bit(n, side):
    ref = _SeriesBasis(n, side)
    lo, hi = ref.domain
    xg, _ = np.polynomial.legendre.leggauss(2 * n + 8)
    xi = np.concatenate([np.linspace(lo, hi, 41), 0.5 * (hi - lo) * xg + 0.5 * (hi + lo)])
    basis = build_basis(n, side)
    for order in (0, 1, 2):
        assert np.array_equal(basis.eval(xi, order), ref.eval(xi, order)), order


def test_assembly_with_series_basis_is_bit_identical(params, monkeypatch):
    bd = ((1.0, -0.5, 2.0), lambda x: np.cos(3.0 * x))
    profiles = fx.InitialProfiles(left_velocity=lambda x: np.sin(2.0 * x), right_velocity=(0.3, 0.0, -1.0),
                                  left_moment=(1.0, 2.0, 0.0, -4.0), right_moment=lambda x: np.exp(-x),
                                  hub_velocity=(0.7, -0.2))
    fields = ("A", "B", "Bd", "C", "H", "damping", "stiffness", "chol_inv")

    def run():
        out = []
        for N in (1, 4, 10, 40):
            ss = fx.assemble(params, N, bd)
            out += [getattr(ss, name) for name in fields] + [fx.project_initial_state(profiles, ss)]
        return out

    table = run()
    monkeypatch.setattr(discretize, "build_basis", _SeriesBasis)
    series = run()
    assert isinstance(fx.assemble(params, 1).basis_left, _SeriesBasis)
    assert all(np.array_equal(a, b) for a, b in zip(table, series, strict=True))


def test_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        build_basis(0, "right")
    with pytest.raises(ValueError):
        build_basis(3, "middle")


def test_state_dimension(params):
    for N in (1, 4, 10):
        assert fx.assemble(params, N).n == 4 * N + 2
    with pytest.raises(ValueError):
        fx.assemble(params, 0)


def test_collocation_identity_exact(ss10):
    assert np.array_equal(ss10.H @ ss10.B, ss10.C.T)


def test_dissipation_identity_exact(ss10):
    sym = ss10.A.T @ ss10.H + ss10.H @ ss10.A
    target = np.zeros_like(sym)
    nb = 2 * ss10.n_basis
    target[nb:, nb:] = -2.0 * ss10.damping
    assert np.array_equal(sym, target)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    p=st.builds(
        fx.PhysicalParams,
        rho=_log_uniform(0.2, 5.0), a=_log_uniform(0.2, 5.0),
        E=_log_uniform(0.2, 5.0), I=_log_uniform(0.2, 5.0),
        gamma=st.floats(0.0, 10.0),
        m=_log_uniform(math.exp(-1.5), math.exp(1.5)), I_m=_log_uniform(math.exp(-1.5), math.exp(1.5)),
    ),
    N=st.integers(4, 80),
)
def test_structural_invariants_exact_across_parameters(p, N):
    ss = fx.assemble(p, N)
    assert np.array_equal(ss.H @ ss.B, ss.C.T)
    sym = ss.A.T @ ss.H + ss.H @ ss.A
    target = np.zeros_like(sym)
    target[2 * N:, 2 * N:] = -2.0 * ss.damping
    assert np.array_equal(sym, target)


def test_dissipation_semidefinite(ss10):
    sym = ss10.A.T @ ss10.H + ss10.H @ ss10.A
    top = np.max(np.linalg.eigvalsh(0.5 * (sym + sym.T)))
    assert top <= 1e-10
    nb = 2 * ss10.n_basis
    vel_top = np.max(np.linalg.eigvalsh(sym[nb:, nb:]))
    assert vel_top < 0.0


def test_undamped_assembly_is_conservative():
    p0 = fx.PhysicalParams(gamma=0.0)
    ss = fx.assemble(p0, 8)
    sym = ss.A.T @ ss.H + ss.H @ ss.A
    assert np.array_equal(sym, np.zeros_like(sym))


def test_elastic_spectrum_matches_characteristic_roots(params):
    # clamped basis alone (hub decoupled), no damping: the generalized
    # eigenvalues of (K, M) on one panel are the squared characteristic roots
    N = 16
    basis = build_basis(N, "right")
    xg, wg = np.polynomial.legendre.leggauss(2 * N + 8)
    xi, w = 0.5 * (xg + 1.0), 0.5 * wg
    vals = basis.eval(xi)
    curv = basis.eval(xi, order=2)
    M = (vals * w) @ vals.T
    K = (curv * w) @ curv.T
    lam2 = np.sort(np.linalg.eigvals(np.linalg.solve(M, K)).real)
    for k in (1, 2, 3):
        lam = math.sqrt(params.EI / params.rho_a) * fx.beam_mu(k) ** 2
        assert abs(math.sqrt(lam2[k - 1]) - lam) / lam < 1e-6


def test_project_zero_profiles(ss10):
    x0 = fx.project_initial_state(fx.InitialProfiles(), ss10)
    assert np.array_equal(x0, np.zeros(ss10.n))


def reconstruct_elastic(ss, x, side, xi):
    """Elastic deviation eta on one panel from the state coordinates."""
    N = ss.n_basis
    offset = 0 if side == "left" else N
    basis = ss.basis_left if side == "left" else ss.basis_right
    coeffs = x[offset : offset + N] / np.sqrt(ss.stiffness[offset : offset + N])
    return coeffs @ basis.eval(xi)


def test_project_moment_closed_form(params):
    # right-panel moment 4(1-xi)^2 integrates twice (clamped at 0) to
    # eta(xi) = ((1-xi)^4 - 1)/3 + 4 xi / 3; left mirrors it
    for N in (4, 6, 10):
        ss = fx.assemble(params, N)
        prof = fx.InitialProfiles(
            left_moment=lambda x: 4.0 * (1.0 + x) ** 2,
            right_moment=lambda x: 4.0 * (1.0 - x) ** 2,
        )
        x0 = fx.project_initial_state(prof, ss)
        xi_r = np.linspace(0.0, 1.0, 33)
        eta_r = reconstruct_elastic(ss, x0, "right", xi_r)
        want_r = ((1.0 - xi_r) ** 4 - 1.0) / 3.0 + 4.0 * xi_r / 3.0
        assert np.max(np.abs(eta_r - want_r)) < 1e-10
        xi_l = np.linspace(-1.0, 0.0, 33)
        eta_l = reconstruct_elastic(ss, x0, "left", xi_l)
        want_l = ((1.0 + xi_l) ** 4 - 1.0) / 3.0 - 4.0 * xi_l / 3.0
        assert np.max(np.abs(eta_l - want_l)) < 1e-10
        assert np.max(np.abs(x0[2 * N :])) == 0.0  # no initial velocities


def test_project_moment_energy(ss10):
    # elastic energy of the projected state: 0.5 * EI * int m^2 over both
    # panels = 16/5 + ... here int 16(1 -+ xi)^4 = 16/5 per panel
    prof = fx.InitialProfiles(
        left_moment=lambda x: 4.0 * (1.0 + x) ** 2,
        right_moment=lambda x: 4.0 * (1.0 - x) ** 2,
    )
    x0 = fx.project_initial_state(prof, ss10)
    assert ss10.energy(x0) == pytest.approx(3.2, abs=1e-12)


def test_project_velocity_energy(params):
    # representable velocity field: right panel xi^2, rest at rest;
    # kinetic energy = 0.5 rho a int xi^4 = rho a / 10
    ss = fx.assemble(params, 6)
    prof = fx.InitialProfiles(right_velocity=lambda x: x**2)
    x0 = fx.project_initial_state(prof, ss)
    assert ss.energy(x0) == pytest.approx(params.rho_a / 10.0, rel=1e-12)
    # consistent rigid field: hub at (2, 1), panels moving with it
    rigid = lambda x: 2.0 + x
    prof2 = fx.InitialProfiles(
        left_velocity=rigid, right_velocity=rigid, hub_velocity=(2.0, 1.0)
    )
    x2 = fx.project_initial_state(prof2, ss)
    want = 0.5 * (params.m * 4.0 + params.I_m * 1.0) + 0.5 * params.rho_a * 26.0 / 3.0
    assert ss.energy(x2) == pytest.approx(want, rel=1e-12)


def test_velocity_projects_as_distributed_disturbance():
    # an initial velocity profile is the same load as a distributed
    # disturbance of that shape: x0's velocity block is rho a times its Bd column,
    # up to rounding (L^{-1} multiplies one load vector here and all of Bw there)
    params = fx.PhysicalParams(rho=2.0, a=1.5, m=3.0, I_m=0.5)
    shape = (0.3, -1.0, 2.0)
    for N in (1, 4, 10, 20):
        for col, bd, prof in ((0, (shape, None), fx.InitialProfiles(left_velocity=shape)),
                              (1, (None, shape), fx.InitialProfiles(right_velocity=shape))):
            ss = fx.assemble(params, N, bd)
            got = fx.project_initial_state(prof, ss)
            want = params.rho_a * ss.Bd[2 * N :, col]
            assert np.max(np.abs(got[2 * N :] - want)) < 1e-12 * np.max(np.abs(want)), (N, col)
            assert not got[: 2 * N].any()


def test_hub_velocity_enters_through_actuator_columns():
    params = fx.PhysicalParams(rho=2.0, a=1.5, m=3.0, I_m=0.5)
    h0, h1 = 0.7, -0.2
    for N in (1, 4, 10):
        ss = fx.assemble(params, N)
        x0 = fx.project_initial_state(fx.InitialProfiles(hub_velocity=(h0, h1)), ss)
        want = ss.B[2 * N :] @ np.array([params.m * h0, params.I_m * h1])
        assert np.max(np.abs(x0[2 * N :] - want)) < 1e-13 * np.max(np.abs(want)), N
        assert not x0[: 2 * N].any()


def test_galerkin_transfer_matches_closed_form(params, ss12):
    ref0 = fx.plant_transfer(0.0, params)
    assert np.max(np.abs(fx.galerkin_transfer(ss12, 0.0) - ref0)) < 1e-6
    for w in (1.0, 2.0, 5.0):
        ref = fx.plant_transfer(w, params)
        err = np.linalg.norm(fx.galerkin_transfer(ss12, w) - ref) / np.linalg.norm(ref)
        assert err < 1e-3


def test_galerkin_transfer_conjugate_symmetry(ss10):
    for w in (0.5, 2.0, 11.0):
        assert np.allclose(
            fx.galerkin_transfer(ss10, -w),
            np.conj(fx.galerkin_transfer(ss10, w)),
            atol=1e-13,
        )


def test_shifted_solve_singular_shift_raises_runtime_error():
    with pytest.raises(RuntimeError, match="singular"):
        shifted_solve(np.zeros((3, 3)), 0.0, np.ones((3, 2)))


def test_transfer_error_floor(params):
    # the oracle error collapses to the rounding floor once every field on
    # the tested band is resolved; N = 6 still shows genuine truncation error
    omegas = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 6.0)
    rows = dict(fx.transfer_error_report(params, (6, 8, 12, 16), omegas))
    assert rows[6] > 1e-10        # approximation-dominated
    assert rows[8] < 1e-3 * rows[6]
    for N in (8, 12, 16):
        assert rows[N] < 1e-12    # at or below the linear-algebra floor


def test_disturbance_hub_columns_equal_control_columns(ss10):
    # the last two disturbance channels act exactly like the control forces
    assert np.array_equal(ss10.Bd[:, 2:], ss10.B)


def test_disturbance_profile_polynomials(params):
    # bd given as polynomial coefficients must agree with the same callable
    ss_poly = fx.assemble(params, 5, bd_profiles=((1.0, 2.0), (0.5,)))
    ss_call = fx.assemble(params, 5, bd_profiles=(lambda x: 1.0 + 2.0 * x, lambda x: 0.5 * np.ones_like(x)))
    assert np.allclose(ss_poly.Bd, ss_call.Bd, atol=1e-15)


def test_assembled_immutability_flags(ss10):
    with pytest.raises(AttributeError):
        ss10.n = 7
