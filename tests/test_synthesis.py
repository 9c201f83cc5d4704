"""Controller builders, Riccati/Sylvester solvers, closed-loop assembly."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flexsat as fx
from flexsat import synthesis
from flexsat.synthesis import (
    CARE_RESIDUAL_RTOL,
    SYLVESTER_RESIDUAL_RTOL,
    care_residual,
    signed_frequencies,
    sylvester_residual,
)
from conftest import FREQS


# --- internal model and passive controller -------------------------------------


def test_internal_model_structure():
    im = fx.internal_model(FREQS)
    assert im.dim == 14
    eigs = np.sort_complex(np.linalg.eigvals(im.G1))
    want = np.sort_complex([1j * w for w in signed_frequencies(FREQS) for _ in range(2)])
    assert np.max(np.abs(eigs - want)) < 1e-12


def test_internal_model_rejects_bad_freqs():
    for bad in ([], [1.0, 1.0], [2.0, 1.0], [-1.0, 2.0]):
        with pytest.raises(ValueError):
            fx.internal_model(bad)


def test_passive_single_integrator_block():
    ctrl = fx.build_passive_controller((0.0,), 1.0, 3.0)
    assert ctrl.n_c == 2
    assert np.array_equal(ctrl.G1, np.zeros((2, 2)))
    assert np.array_equal(ctrl.G2, -np.eye(2))
    assert np.array_equal(ctrl.K, np.eye(2))
    assert np.array_equal(ctrl.kappa, 3.0 * np.eye(2))


def test_passive_dimension_and_structure(passive_ctrl):
    assert passive_ctrl.n_c == 14
    assert np.array_equal(passive_ctrl.K, -passive_ctrl.G2.T)
    assert np.array_equal(passive_ctrl.G1, -passive_ctrl.G1.T)  # skew symmetric


def test_passive_spectrum(passive_ctrl):
    eigs = np.sort_complex(np.linalg.eigvals(passive_ctrl.G1))
    want = np.sort_complex(
        [0.0, 0.0] + [s * 1j * w for w in (1.0, 2.0, 5.0) for s in (1, -1) for _ in range(2)]
    )
    assert np.max(np.abs(eigs - want)) < 1e-12


def test_passive_rejects_nonpositive_gains():
    with pytest.raises(ValueError):
        fx.build_passive_controller(FREQS, 0.0, 1.0)
    with pytest.raises(ValueError):
        fx.build_passive_controller(FREQS, 1.0, -2.0)


def test_passive_transfer_closed_form(passive_ctrl):
    # K (s I - G1)^{-1} G2 - kappa must equal
    # -c2 I - I/s - sum_k c1^2 s / (s^2 + w_k^2)
    c1, c2 = 2.5, 4.0
    for s in (0.7, 1.0 + 0.5j, -0.3 + 2.2j):
        got = (
            passive_ctrl.K @ np.linalg.solve(s * np.eye(14) - passive_ctrl.G1, passive_ctrl.G2)
            - passive_ctrl.kappa
        )
        coef = -c2 - 1.0 / s - sum(c1**2 * s / (s**2 + w**2) for w in (1.0, 2.0, 5.0))
        assert np.allclose(got, coef * np.eye(2), atol=1e-12)


# --- Sylvester solution ---------------------------------------------------------


def test_sylvester_zero_frequency_block(ss10):
    H = fx.solve_sylvester_H(ss10, FREQS)
    im = fx.internal_model(FREQS)
    f0, sl0 = im.blocks[0]
    assert f0 == 0.0
    want = ss10.C @ np.linalg.solve(-ss10.A, np.eye(ss10.n))
    assert np.isrealobj(H) and H.shape == (im.dim, ss10.n)
    assert np.max(np.abs(H[sl0] - want)) < 1e-10


def test_sylvester_rows_give_transfer_values(ss10):
    # H B stacks transfer values G(i w): G(0) on the zero block, and
    # sqrt(2) Im G(i w) over sqrt(2) Re G(i w) on each rotation block
    H = fx.solve_sylvester_H(ss10, FREQS)
    for f, sl in fx.internal_model(FREQS).blocks:
        got = H[sl] @ ss10.B
        G = fx.galerkin_transfer(ss10, f)
        want = G if f == 0.0 else np.sqrt(2.0) * np.vstack([G.imag, G.real])
        assert np.max(np.abs(got - want)) < 1e-10


def test_sylvester_residual(ss10):
    H = fx.solve_sylvester_H(ss10, FREQS)
    im = fx.internal_model(FREQS)
    # the observer's error input: I on the zero block, sqrt(2) I on the
    # trailing half of each rotation block
    G2 = np.zeros((im.dim, 2))
    for f, sl in im.blocks:
        G2[sl.stop - 2 : sl.stop] = np.eye(2) if f == 0.0 else np.sqrt(2.0) * np.eye(2)
    res = np.linalg.norm(im.G1 @ H - H @ ss10.A - G2 @ ss10.C)
    assert res < 1e-8 * (1.0 + np.linalg.norm(H))
    assert sylvester_residual(ss10, FREQS, H) == pytest.approx(res / (1.0 + np.linalg.norm(H)), rel=1e-12)


def test_sylvester_residual_separates_solution_from_perturbation(ss10):
    H = fx.solve_sylvester_H(ss10, FREQS)
    assert sylvester_residual(ss10, FREQS, H) < SYLVESTER_RESIDUAL_RTOL
    assert sylvester_residual(ss10, FREQS, H * (1.0 + 1e-6)) > SYLVESTER_RESIDUAL_RTOL


# --- Riccati solver -------------------------------------------------------------


def test_care_scalar_integrator():
    P, K = fx.care_solve(np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1))
    assert P[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert K[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_care_scalar_unstable():
    P, K = fx.care_solve(np.eye(1), np.eye(1), 2.0 * np.eye(1), np.eye(1))
    assert P[0, 0] == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)
    assert K[0, 0] == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)
    # closed loop at -sqrt(3)
    assert (1.0 - K[0, 0]) == pytest.approx(-math.sqrt(3.0), abs=1e-12)


def test_care_zero_cost_stable_plant():
    A = np.diag([-1.0, -2.0])
    P, K = fx.care_solve(A, np.eye(2), np.zeros((2, 2)), np.eye(2))
    assert np.max(np.abs(P)) < 1e-12
    assert np.max(np.abs(K)) < 1e-12


def test_care_random_system():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 2))
    Q = np.eye(5)
    R = np.eye(2)
    P, K = fx.care_solve(A, B, Q, R)
    res = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q
    assert np.linalg.norm(res) < 1e-8 * np.linalg.norm(P)
    assert np.min(np.linalg.eigvalsh(P)) > -1e-10
    assert fx.stability_margin(A - B @ K) > 0.0


def test_care_residual_at_reference_internal_model(ss10, observer_ctrl, passive_ctrl):
    im = fx.internal_model(FREQS)
    B1 = fx.solve_sylvester_H(ss10, FREQS) @ ss10.B
    Q, R = 10.0 * np.eye(im.dim), 0.1 * np.eye(2)
    P, _ = fx.care_solve(im.G1, B1, Q, R)
    # care_residual is already divided by max(||P||, 1)
    assert care_residual(im.G1, B1, Q, R, P) < CARE_RESIDUAL_RTOL
    assert care_residual(im.G1, B1, Q, R, P * (1.0 + 1e-6)) > CARE_RESIDUAL_RTOL
    # the observer realization carries the residual of the same solve
    assert observer_ctrl.care_residual == care_residual(im.G1, B1, Q, R, P)
    assert passive_ctrl.care_residual is None


def test_care_newton_step_refines_schur_solution(ss10, monkeypatch):
    # q0 = 1e4, r0 = 10 on the reference plant: the Schur solution alone misses the tolerance
    residuals = []

    def recorded(*args):
        residuals.append(care_residual(*args))
        return residuals[-1]

    monkeypatch.setattr(synthesis, "care_residual", recorded)
    ctrl = fx.build_observer_controller(ss10, FREQS, 1e4, 10.0)
    schur, stepped, reported = residuals  # before and after the Newton step, then the realization's
    assert schur > CARE_RESIDUAL_RTOL
    assert stepped == reported == ctrl.care_residual < 0.1 * CARE_RESIDUAL_RTOL


def test_care_rejects_unstabilizable():
    with pytest.raises(RuntimeError):
        fx.care_solve(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]), np.eye(2), np.eye(1))


# --- observer controller --------------------------------------------------------


def test_observer_dimensions(observer_ctrl, ss10):
    assert observer_ctrl.n_c == 14 + ss10.n
    assert np.array_equal(observer_ctrl.kappa, np.zeros((2, 2)))


def test_observer_internal_model_stabilized(ss10):
    im = fx.internal_model(FREQS)
    B1 = fx.solve_sylvester_H(ss10, FREQS) @ ss10.B
    _, Klqr = fx.care_solve(im.G1, B1, 10.0 * np.eye(im.dim), 0.1 * np.eye(2))
    assert fx.stability_margin(im.G1 + B1 @ (-Klqr)) > 0.0
    # the Riccati gain with the conventional sign does not stabilize the
    # skew-symmetric model; the sign flip is essential
    assert fx.stability_margin(im.G1 + B1 @ Klqr) < 0.0


def test_real_internal_model_sylvester_identity(ss10, observer_ctrl):
    # the internal-model rows of the controller realization are the G1 and G2
    # that solve_sylvester_H's H satisfies
    H = fx.solve_sylvester_H(ss10, FREQS)
    nz = fx.internal_model(FREQS).dim
    G1, G2 = observer_ctrl.G1[:nz, :nz], observer_ctrl.G2[:nz]
    res = np.linalg.norm(G1 @ H - H @ ss10.A - G2 @ ss10.C)
    assert res < 1e-8 * (1.0 + np.linalg.norm(H))


def test_real_internal_model_accepts_high_frequency(ss10):
    # eigenvalues of a rotation block carry rounding of order eps * w, so a
    # fixed absolute spectrum tolerance would reject a valid w = 1e7
    H = fx.solve_sylvester_H(ss10, (1.0, 1e7))
    assert H.shape == (8, ss10.n)
    assert np.all(np.isfinite(H))


def test_observer_requires_stable_plant(ss10):
    ss0 = fx.assemble(fx.PhysicalParams(gamma=0.0), 6)
    with pytest.raises(RuntimeError):
        fx.build_observer_controller(ss0, FREQS, 10.0, 0.1)
    with pytest.raises(ValueError):
        fx.build_observer_controller(ss10, FREQS, -1.0, 0.1)


def test_observer_closed_loop_margin(observer_loop, passive_loop):
    m_obs = fx.stability_margin(observer_loop.Ae)
    m_pas = fx.stability_margin(passive_loop.Ae)
    assert m_obs > 0.0 and m_pas > 0.0
    assert m_obs > m_pas


def test_loop_margin_follows_the_design_plant():
    # around its design plant an observer loop's margin is min(plant, servo),
    # which the full eig of Ae matches to about sqrt(eps); the same controller
    # around a finer plant of the same physics has no separation structure
    # (Balas 1978), so there the margin is the eig of Ae itself
    rng = np.random.default_rng(14)
    for _ in range(12):
        factors = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=6))
        p = fx.PhysicalParams(*factors[:4], float(np.exp(rng.uniform(np.log(0.1), np.log(10.0)))),
                              *factors[4:])
        N = int(rng.choice([4, 8, 12]))
        ss = fx.assemble(p, N)
        ctrl = fx.build_observer_controller(ss, FREQS, 10.0, 0.1)
        cl = fx.assemble_closed_loop(ss, ctrl)
        assert cl.margin == min(ss.margin, fx.stability_margin(ctrl.servo))
        assert cl.margin == pytest.approx(fx.stability_margin(cl.Ae), rel=1e-5)
        fine = fx.assemble_closed_loop(fx.assemble(p, 2 * N), ctrl)
        assert fine.margin == fx.stability_margin(fine.Ae)


# --- closed-loop assembly -------------------------------------------------------


def test_closed_loop_dimensions(passive_loop, ss10):
    assert passive_loop.Ae.shape == (56, 56)
    assert passive_loop.Be.shape == (56, 6)
    assert passive_loop.Ce.shape == (2, 56)
    assert np.array_equal(passive_loop.De, np.hstack([np.zeros((2, 4)), -np.eye(2)]))
    # block content
    n = ss10.n
    assert np.array_equal(passive_loop.Ae[n:, n:], passive_loop.controller.G1)
    assert np.array_equal(passive_loop.Be[:n, :4], ss10.Bd)


def test_zero_controller_loop(ss10):
    cl = fx.assemble_closed_loop(ss10, fx.zero_controller())
    assert np.array_equal(cl.Ae, ss10.A)
    w = 1.3
    G = cl.Ce @ np.linalg.solve(1j * w * np.eye(cl.n) - cl.Ae, cl.Be) + cl.De
    want_dist = ss10.C @ np.linalg.solve(1j * w * np.eye(ss10.n) - ss10.A, ss10.Bd)
    assert np.allclose(G[:, :4], want_dist, atol=1e-12)
    assert np.allclose(G[:, 4:], -np.eye(2), atol=1e-15)


def test_closed_loop_dimension_mismatch(ss10, passive_ctrl):
    bad = fx.ControllerRealization(
        G1=passive_ctrl.G1, G2=passive_ctrl.G2[:, :1], K=passive_ctrl.K, kappa=passive_ctrl.kappa
    )
    with pytest.raises(ValueError):
        fx.assemble_closed_loop(ss10, bad)


# --- regulation zeros -----------------------------------------------------------


def test_regulation_zeros_passive(passive_loop):
    zeros = fx.regulation_zero_check(passive_loop, FREQS)
    assert set(zeros) == {-5.0, -2.0, -1.0, 0.0, 1.0, 2.0, 5.0}
    assert max(zeros.values()) < 1e-8


def test_regulation_zeros_observer(observer_loop):
    zeros = fx.regulation_zero_check(observer_loop, FREQS)
    assert max(zeros.values()) < 1e-8


def test_regulation_zeros_conjugate_pairs(passive_loop):
    zeros = fx.regulation_zero_check(passive_loop, FREQS)
    for w in (1.0, 2.0, 5.0):
        assert zeros[w] == pytest.approx(zeros[-w], rel=1e-6, abs=1e-12)


def test_regulation_zeros_incomplete_internal_model(ss10):
    ctrl = fx.build_passive_controller((0.0, 1.0, 2.0), 2.5, 4.0)
    cl = fx.assemble_closed_loop(ss10, ctrl)
    zeros = fx.regulation_zero_check(cl, FREQS)
    assert zeros[1.0] < 1e-8 and zeros[2.0] < 1e-8
    assert zeros[5.0] > 0.01 and zeros[-5.0] > 0.01


def test_regulation_zeros_reject_unstable(ss10):
    unstable = fx.ControllerRealization(
        G1=np.array([[0.5]]), G2=np.zeros((1, 2)), K=np.zeros((2, 1)), kappa=np.zeros((2, 2))
    )
    cl = fx.assemble_closed_loop(ss10, unstable)
    with pytest.raises(RuntimeError):
        fx.regulation_zero_check(cl, FREQS)


# --- robust regulation: every stable perturbed loop still regulates ---------------
# The controllers are built here, not taken as fixtures: hypothesis prints every
# argument of a failing example, and a controller's arrays would swamp the report.

_PHYSICAL = ("rho", "a", "E", "I", "gamma", "m", "I_m")


_PASSIVE = fx.build_passive_controller(FREQS, 2.5, 4.0)


@functools.cache
def _nominal_observer():
    return fx.build_observer_controller(fx.assemble(fx.PhysicalParams(), 10), FREQS, 10.0, 0.1)


def _scale_factors(factor):
    """A draw of one scale factor per physical parameter, keyed by name."""
    return st.fixed_dictionaries({name: factor for name in _PHYSICAL})


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(factors=_scale_factors(st.floats(-1.5, 1.5).map(math.exp)), N=st.integers(4, 20))
def test_passive_loop_regulates_across_parameters(factors, N):
    # a passive controller keeps every damped passive plant stable, and the
    # internal model then zeroes the error transfer at each tracked frequency
    plant = fx.assemble(fx.PhysicalParams().scaled(**factors), N)
    cl = fx.assemble_closed_loop(plant, _PASSIVE)
    assert cl.margin > 0.0
    assert max(fx.regulation_zero_check(cl, FREQS).values()) < 1e-8


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(factors=_scale_factors(st.floats(0.9, 1.1)))
def test_observer_loop_regulates_around_perturbed_plants(factors):
    # designed on the nominal N = 10 plant, closed around plants within 10 % per parameter
    plant = fx.assemble(fx.PhysicalParams().scaled(**factors), 10)
    cl = fx.assemble_closed_loop(plant, _nominal_observer())
    assert cl.margin > 0.0
    assert max(fx.regulation_zero_check(cl, FREQS).values()) < 1e-8
