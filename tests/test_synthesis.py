"""Controller builders, Riccati/Sylvester solvers, closed-loop assembly."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flexsat as fx
from flexsat import analysis, simulate, synthesis
from flexsat.config import RunConfig
from flexsat.synthesis import (
    CARE_RESIDUAL_RTOL,
    SYLVESTER_RESIDUAL_RTOL,
    care_residual,
    sylvester_residual,
)
from conftest import FREQS


# --- internal model and passive controller -------------------------------------


def test_internal_model_structure():
    im = fx.internal_model(FREQS)
    assert im.dim == 14
    eigs = np.sort_complex(np.linalg.eigvals(im.G1))
    want = np.sort_complex([1j * w for w in (-5.0, -2.0, -1.0, 0.0, 1.0, 2.0, 5.0) for _ in range(2)])
    assert np.max(np.abs(eigs - want)) < 1e-12


_I2, _O2 = np.eye(2), np.zeros((2, 2))
_ROT = np.block([[_O2, _I2], [-_I2, _O2]])
_S2 = np.sqrt(2.0)


@pytest.mark.parametrize("freqs, blocks, G1, passive_G2, observer_G2, signed", [
    ((1.0, 3.0), ((1.0, slice(0, 4)), (3.0, slice(4, 8))),
     np.block([[_ROT, np.zeros((4, 4))], [np.zeros((4, 4)), 3.0 * _ROT]]),
     np.vstack([-2.5 * _I2, _O2, -2.5 * _I2, _O2]),
     np.vstack([_O2, _S2 * _I2, _O2, _S2 * _I2]),
     [-3.0, -1.0, 1.0, 3.0]),
    ((0.0,), ((0.0, slice(0, 2)),), _O2, -_I2, _I2, [0.0]),
    ((0.0, 1.0), ((0.0, slice(0, 2)), (1.0, slice(2, 6))),
     np.block([[_O2, np.zeros((2, 4))], [np.zeros((4, 2)), _ROT]]),
     np.vstack([-_I2, -2.5 * _I2, _O2]),
     np.vstack([_I2, _O2, _S2 * _I2]),
     [-1.0, 0.0, 1.0]),
])
def test_layout_off_the_reference_list(ss10, freqs, blocks, G1, passive_G2, observer_G2, signed):
    # a zero block is 2 rows and a rotation block 4; the passive error input
    # sits on each block's leading row pair, the observer's on its trailing pair
    im = fx.internal_model(freqs)
    assert im.blocks == blocks and im.dim == G1.shape[0]
    assert np.array_equal(im.G1, G1)
    passive = fx.build_passive_controller(freqs, 2.5, 4.0)
    assert np.array_equal(passive.G2, passive_G2)
    observer = fx.build_observer_controller(ss10, freqs, 10.0, 0.1)
    assert np.array_equal(observer.G2[:im.dim], observer_G2)
    zeros = fx.regulation_zero_check(fx.assemble_closed_loop(ss10, passive), freqs)
    assert list(zeros) == signed and max(zeros.values()) < 1e-8


def test_internal_model_rejects_bad_freqs():
    # NaN passes both the sign and the ordering test, and would build a non-finite G1
    for bad in ([], [1.0, 1.0], [2.0, 1.0], [-1.0, 2.0], [np.nan], [0.0, np.inf], [1.0, np.nan]):
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
    H, _ = fx.solve_sylvester_H(ss10, FREQS)
    im = fx.internal_model(FREQS)
    f0, sl0 = im.blocks[0]
    assert f0 == 0.0
    want = ss10.C @ np.linalg.solve(-ss10.A, np.eye(ss10.n))
    assert np.isrealobj(H) and H.shape == (im.dim, ss10.n)
    assert np.max(np.abs(H[sl0] - want)) < 1e-10


def test_sylvester_rows_give_transfer_values(ss10):
    # H B stacks transfer values G(i w): G(0) on the zero block, and
    # sqrt(2) Im G(i w) over sqrt(2) Re G(i w) on each rotation block
    H, _ = fx.solve_sylvester_H(ss10, FREQS)
    for f, sl in fx.internal_model(FREQS).blocks:
        got = H[sl] @ ss10.B
        G = fx.galerkin_transfer(ss10, f)
        want = G if f == 0.0 else np.sqrt(2.0) * np.vstack([G.imag, G.real])
        assert np.max(np.abs(got - want)) < 1e-10


def test_sylvester_residual(ss10):
    H, returned = fx.solve_sylvester_H(ss10, FREQS)
    im = fx.internal_model(FREQS)
    # the observer's error input: I on the zero block, sqrt(2) I on the
    # trailing half of each rotation block
    G2 = np.zeros((im.dim, 2))
    for f, sl in im.blocks:
        G2[sl.stop - 2 : sl.stop] = np.eye(2) if f == 0.0 else np.sqrt(2.0) * np.eye(2)
    res = np.linalg.norm(im.G1 @ H - H @ ss10.A - G2 @ ss10.C)
    assert res < 1e-8 * (1.0 + np.linalg.norm(H))
    assert sylvester_residual(ss10, FREQS, H) == pytest.approx(res / (1.0 + np.linalg.norm(H)), rel=1e-12)
    # the solve hands on the residual its bound check accepted, bit for bit
    assert returned == sylvester_residual(ss10, FREQS, H)


def test_sylvester_residual_separates_solution_from_perturbation(ss10):
    H, _ = fx.solve_sylvester_H(ss10, FREQS)
    assert sylvester_residual(ss10, FREQS, H) < SYLVESTER_RESIDUAL_RTOL
    assert sylvester_residual(ss10, FREQS, H * (1.0 + 1e-6)) > SYLVESTER_RESIDUAL_RTOL


# --- Riccati solver -------------------------------------------------------------


def test_care_scalar_integrator():
    P, K, _, _ = fx.care_solve(np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1))
    assert P[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert K[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_care_scalar_unstable():
    P, K, _, _ = fx.care_solve(np.eye(1), np.eye(1), 2.0 * np.eye(1), np.eye(1))
    assert P[0, 0] == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)
    assert K[0, 0] == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)
    # closed loop at -sqrt(3)
    assert (1.0 - K[0, 0]) == pytest.approx(-math.sqrt(3.0), abs=1e-12)


def test_care_zero_cost_stable_plant():
    A = np.diag([-1.0, -2.0])
    P, K, _, _ = fx.care_solve(A, np.eye(2), np.zeros((2, 2)), np.eye(2))
    assert np.max(np.abs(P)) < 1e-12
    assert np.max(np.abs(K)) < 1e-12


def test_care_random_system():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 2))
    Q = np.eye(5)
    R = np.eye(2)
    P, K, residual, margin = fx.care_solve(A, B, Q, R)
    res = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q
    assert np.linalg.norm(res) < 1e-8 * np.linalg.norm(P)
    assert np.min(np.linalg.eigvalsh(P)) > -1e-10
    assert fx.stability_margin(A - B @ K) > 0.0
    # the returned figures are the ones of the returned P and K
    assert residual == care_residual(A, B, Q, R, P)
    assert margin == fx.stability_margin(A - B @ K)


@pytest.mark.parametrize("reason, margin, refuse", [
    ("plant must be exponentially stable", None, lambda ss: fx.solve_sylvester_H(ss, FREQS)),
    ("resolvent scan requires an exponentially stable system", None,
     lambda ss: analysis.resolvent_norm_scan(ss, [0.0, 1.0])),
    ("Riccati gain failed to stabilize A - B K", -1.0,
     lambda ss: fx.care_solve(np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1))),
], ids=["sylvester", "resolvent-scan", "care"])
def test_each_refusal_names_its_margin(monkeypatch, reason, margin, refuse):
    # a plant, servo or loop that does not decay is refused by one gate, in one
    # format: the undamped plant's margin (rounding level, not positive) or the
    # servo margin care_solve checks, here patched to -1
    ss = fx.assemble(fx.PhysicalParams(gamma=0.0), 6)
    if margin is None:
        margin = ss.margin
    else:
        monkeypatch.setattr(synthesis, "stability_margin", lambda A: margin)
    with pytest.raises(RuntimeError) as refusal:
        refuse(ss)
    assert str(refusal.value) == f"{reason}: stability margin = {margin:.6e}"


def test_care_residual_at_reference_internal_model(ss10, observer_ctrl, passive_ctrl):
    im = fx.internal_model(FREQS)
    H, _ = fx.solve_sylvester_H(ss10, FREQS)
    B1 = H @ ss10.B
    Q, R = 10.0 * np.eye(im.dim), 0.1 * np.eye(2)
    P, _, _, _ = fx.care_solve(im.G1, B1, Q, R)
    # care_residual is already divided by max(||P||, 1)
    assert care_residual(im.G1, B1, Q, R, P) < CARE_RESIDUAL_RTOL
    assert care_residual(im.G1, B1, Q, R, P * (1.0 + 1e-6)) > CARE_RESIDUAL_RTOL
    # the observer realization carries the residual of the same solve
    assert observer_ctrl.care_residual == care_residual(im.G1, B1, Q, R, P)
    assert passive_ctrl.care_residual is None


def test_care_newton_step_refines_schur_solution(ss10, monkeypatch):
    # q0 = 1e5, r0 = 10 on the reference plant: the Schur solution alone misses the tolerance,
    # about 1e-6 under OpenBLAS's SkylakeX, Haswell and Sandybridge kernels (q0 = 1e4 left
    # 8.1e-9 under Sandybridge, already inside it)
    residuals = []

    def recorded(*args):
        residuals.append(care_residual(*args))
        return residuals[-1]

    monkeypatch.setattr(synthesis, "care_residual", recorded)
    ctrl = fx.build_observer_controller(ss10, FREQS, 1e5, 10.0)
    schur, stepped = residuals  # before and after the Newton step; the realization keeps the second
    assert schur > CARE_RESIDUAL_RTOL
    assert stepped == ctrl.care_residual < 0.1 * CARE_RESIDUAL_RTOL


def test_care_refuses_the_schur_residual_when_the_newton_step_fails(ss10, monkeypatch):
    # the same solve as above, with the Newton step's Lyapunov solve failing: the Schur
    # solution's residual, about 1e-6, is left over the bound and refused
    def diverge(*args):
        raise np.linalg.LinAlgError("Lyapunov solve failed")

    monkeypatch.setattr(synthesis.sla, "solve_sylvester", diverge)
    with pytest.raises(RuntimeError, match=r"^relative Riccati residual \d\.\d{3}e-\d\d exceeds 1\.0e-08$"):
        fx.build_observer_controller(ss10, FREQS, 1e5, 10.0)


def test_care_rejects_unstabilizable():
    # an unreachable unstable mode leaves U1 singular; with A = 0 and B = 0 the
    # Hamiltonian has no stable eigenvalue at all
    with pytest.raises(RuntimeError, match="singular Schur basis block"):
        fx.care_solve(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]), np.eye(2), np.eye(1))
    with pytest.raises(RuntimeError, match=r"\(A, B\) appears unstabilizable: .* dimension 0, expected 2"):
        fx.care_solve(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2), np.eye(1))


def test_care_rejects_an_indefinite_solution():
    # Q = -0.5 < 0: the stabilizing root of -2 P - P^2 - 0.5 = 0 is P = -1 + sqrt(0.5),
    # which meets the residual bound and makes A - B K stable, but is negative
    with pytest.raises(RuntimeError, match="Riccati solution is not positive semidefinite"):
        fx.care_solve(np.array([[-1.0]]), np.array([[1.0]]), np.array([[-0.5]]), np.array([[1.0]]))


# --- observer controller --------------------------------------------------------


def test_observer_dimensions(observer_ctrl, ss10):
    assert observer_ctrl.n_c == 14 + ss10.n
    assert np.array_equal(observer_ctrl.kappa, np.zeros((2, 2)))


def test_observer_internal_model_stabilized(ss10):
    im = fx.internal_model(FREQS)
    H, _ = fx.solve_sylvester_H(ss10, FREQS)
    B1 = H @ ss10.B
    _, Klqr, _, _ = fx.care_solve(im.G1, B1, 10.0 * np.eye(im.dim), 0.1 * np.eye(2))
    assert fx.stability_margin(im.G1 + B1 @ (-Klqr)) > 0.0
    # the Riccati gain with the conventional sign does not stabilize the
    # skew-symmetric model; the sign flip is essential
    assert fx.stability_margin(im.G1 + B1 @ Klqr) < 0.0


def test_real_internal_model_sylvester_identity(ss10, observer_ctrl):
    # the internal-model rows of the controller realization are the G1 and G2
    # that solve_sylvester_H's H satisfies
    H, _ = fx.solve_sylvester_H(ss10, FREQS)
    nz = fx.internal_model(FREQS).dim
    G1, G2 = observer_ctrl.G1[:nz, :nz], observer_ctrl.G2[:nz]
    res = np.linalg.norm(G1 @ H - H @ ss10.A - G2 @ ss10.C)
    assert res < 1e-8 * (1.0 + np.linalg.norm(H))


def test_real_internal_model_accepts_high_frequency(ss10):
    # eigenvalues of a rotation block carry rounding of order eps * w, so a
    # fixed absolute spectrum tolerance would reject a valid w = 1e7
    H, _ = fx.solve_sylvester_H(ss10, (1.0, 1e7))
    assert H.shape == (8, ss10.n)
    assert np.all(np.isfinite(H))


def test_observer_requires_stable_plant(ss10):
    ss0 = fx.assemble(fx.PhysicalParams(gamma=0.0), 6)
    with pytest.raises(RuntimeError):
        fx.build_observer_controller(ss0, FREQS, 10.0, 0.1)
    with pytest.raises(ValueError):
        fx.build_observer_controller(ss10, FREQS, -1.0, 0.1)


def test_observer_refuses_a_singular_transfer_value(params):
    # a recorded regulator solution H = 0 makes every B1 = H B block zero; the first, at
    # omega = 0, is refused before the Riccati solve
    ss = fx.assemble(params, 6)
    im = fx.internal_model(FREQS)
    ss.regulator[im.frequencies] = np.zeros((im.dim, ss.n)), 0.0
    with pytest.raises(RuntimeError, match=r"^plant transfer value at omega = 0\.0 is singular; cannot stabilize$"):
        fx.build_observer_controller(ss, FREQS, 10.0, 0.1)


def test_observer_refuses_bad_gains_before_any_solve(monkeypatch):
    # on an undamped plant a bad r0 is reported, not the plant the Sylvester solve would refuse
    def unreachable(*args):
        raise AssertionError("solve_sylvester_H called before the gain check")

    monkeypatch.setattr(synthesis, "solve_sylvester_H", unreachable)
    ss0 = fx.assemble(fx.PhysicalParams(gamma=0.0), 6)
    with pytest.raises(ValueError, match="r0"):
        fx.build_observer_controller(ss0, FREQS, 10.0, 0.0)


def _counting_shifted_solves(monkeypatch):
    """The list that grows by one per shifted_solve of synthesis."""
    calls = []
    solve = synthesis.shifted_solve

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(synthesis, "shifted_solve", counting)
    return calls


def test_plant_keeps_its_regulator_solution(monkeypatch):
    # the first build solves G1 H = H A + G2 C, one shifted solve per tracked
    # frequency, and records (H, residual) on the plant; later builds read it
    calls = _counting_shifted_solves(monkeypatch)
    ss = fx.assemble(fx.PhysicalParams(), 6)
    first = fx.build_observer_controller(ss, FREQS, 10.0, 0.1)
    assert len(calls) == len(FREQS)
    key = fx.internal_model(FREQS).frequencies
    assert list(ss.regulator) == [key]
    H, residual = ss.regulator[key]
    assert residual == sylvester_residual(ss, FREQS, H) < SYLVESTER_RESIDUAL_RTOL
    calls.clear()
    again = fx.build_observer_controller(ss, (-0.0, 1.0, 2.0, 5.0), 10.0, 0.1)  # -0.0 is 0.0
    other = fx.build_observer_controller(ss, FREQS, 1.0, 0.5)
    assert calls == []
    nz = fx.internal_model(FREQS).dim
    assert np.array_equal(other.K[:, nz:], other.K[:, :nz] @ H)  # K2 = K1 H, from the record
    # the recorded H gives the bits a fresh solve on an equal plant gives
    fresh = fx.build_observer_controller(fx.assemble(fx.PhysicalParams(), 6), FREQS, 10.0, 0.1)
    for name in ("G1", "G2", "K"):
        assert np.array_equal(getattr(again, name), getattr(first, name))
        assert np.array_equal(getattr(fresh, name), getattr(first, name))
    # another frequency list is another regulator equation, solved and recorded apart
    calls.clear()
    fx.build_observer_controller(ss, (1.0, 3.0), 10.0, 0.1)
    assert len(calls) == 2 and set(ss.regulator) == {key, (1.0, 3.0)}


def test_failed_regulator_solve_is_raised_from_its_record(monkeypatch):
    # an undamped plant is refused before any shift and leaves no record; a solve
    # over its residual bound is refused after its shifts and records the refusal's
    # text, which a later build raises again with no shifted solve
    ss0 = fx.assemble(fx.PhysicalParams(gamma=0.0), 6)
    with pytest.raises(RuntimeError, match="exponentially stable"):
        fx.build_observer_controller(ss0, FREQS, 10.0, 0.1)
    assert ss0.regulator == {}
    calls = _counting_shifted_solves(monkeypatch)
    ss = fx.assemble(fx.PhysicalParams(), 6)
    monkeypatch.setattr(synthesis, "SYLVESTER_RESIDUAL_RTOL", 1e-30)
    refusals = []
    for solves in (len(FREQS), 0):
        calls.clear()
        with pytest.raises(RuntimeError, match="Sylvester residual") as refusal:
            fx.build_observer_controller(ss, FREQS, 10.0, 0.1)
        assert len(calls) == solves
        refusals.append(str(refusal.value))
    assert refusals[1] == refusals[0]
    assert ss.regulator == {fx.internal_model(FREQS).frequencies: refusals[0]}


@pytest.mark.parametrize("q0, r0, residuals", [(10.0, 0.1, 1), (1e4, 10.0, 2)],
                         ids=["reference", "newton-step"])
def test_observer_build_checks_each_figure_once(ss10, monkeypatch, q0, r0, residuals):
    # the realization keeps the residual and servo margin care_solve's checks
    # computed, so neither the build nor its loop's margin computes them again
    counts, sizes = [], []

    def residual(*args):
        counts.append(1)
        return care_residual(*args)

    def margin(A):
        sizes.append(A.shape[0])
        return fx.stability_margin(A)

    monkeypatch.setattr(synthesis, "care_residual", residual)
    monkeypatch.setattr(synthesis, "stability_margin", margin)
    ctrl = fx.build_observer_controller(ss10, FREQS, q0, r0)
    assert fx.assemble_closed_loop(ss10, ctrl).margin == min(ss10.margin, ctrl.servo_margin)
    assert len(counts) == residuals
    assert sizes == [fx.internal_model(FREQS).dim]  # the Riccati check, which is the servo's


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
        assert cl.margin == min(ss.margin, ctrl.servo_margin)
        assert cl.margin == pytest.approx(fx.stability_margin(cl.Ae), rel=1e-5)
        fine = fx.assemble_closed_loop(fx.assemble(p, 2 * N), ctrl)
        assert fine.margin == fx.stability_margin(fine.Ae)


@pytest.mark.parametrize("N, passive, observer", [
    (4, (0.050552, 0.050007), (0.030983, -0.047694)),
    (6, (0.050046, 0.050000), (0.030983, 0.020246)),
    (10, (0.050002, 0.050000), (0.030983, 0.030983)),
])
def test_spillover_around_the_2N_plant(N, passive, observer):
    # gamma = 0.1, the reference gains: each controller is designed on the N
    # plant and closed around it and around the 2N plant of the same physics
    # (Balas 1978).  The observer takes the N plant's recorded H into the 2N
    # loop, and the 2N plant records none.  At N = 4 the unmodelled modes
    # destabilize the observer loop; by N = 10 its margin has converged.
    p = fx.PhysicalParams(gamma=0.1)
    ss, fine = fx.assemble(p, N), fx.assemble(p, 2 * N)
    for ctrl, want in ((_PASSIVE, passive), (fx.build_observer_controller(ss, FREQS, 10.0, 0.1), observer)):
        got = (fx.assemble_closed_loop(ss, ctrl).margin, fx.assemble_closed_loop(fine, ctrl).margin)
        assert got == pytest.approx(want, abs=1e-6)
    assert list(ss.regulator) == [fx.internal_model(FREQS).frequencies] and fine.regulator == {}


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


def test_zero_controller_loop(ss10, plant_only_ctrl):
    cl = fx.assemble_closed_loop(ss10, plant_only_ctrl)
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


def _symmetric_part(cl):
    """Ae^T + Ae as its plant block and the largest magnitude outside that block."""
    sym = cl.Ae.T + cl.Ae
    n = cl.plant.n
    return sym[:n, :n], max(np.abs(sym[n:]).max(), np.abs(sym[:n, n:]).max())


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(factors=_scale_factors(st.floats(-1.5, 1.5).map(math.exp)), N=st.integers(4, 20))
def test_passive_loop_regulates_across_parameters(factors, N):
    # a passive controller keeps every damped passive plant stable, and the
    # internal model then zeroes the error transfer at each tracked frequency
    plant = fx.assemble(fx.PhysicalParams().scaled(**factors), N)
    cl = fx.assemble_closed_loop(plant, _PASSIVE)
    assert cl.margin > 0.0
    assert max(fx.regulation_zero_check(cl, FREQS).values()) < 1e-8
    # Ae^T + Ae, the loop's contraction structure: K = -G2^T with B = C^T and a
    # skew G1 cancel exactly off the plant block, which keeps the plant's
    # dissipation plus the output feedthrough c2 = 4
    block, off = _symmetric_part(cl)
    assert off == 0.0
    target = -8.0 * plant.C.T @ plant.C
    target[2 * N :, 2 * N :] += 2.0 * plant.A[2 * N :, 2 * N :]  # -2 D, D = -A's velocity block
    assert np.max(np.abs(block - target)) <= 1e-15 * np.max(np.abs(target))


_REFERENCE = RunConfig()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(factors=_scale_factors(st.floats(-1.5, 1.5).map(math.exp)), N=st.integers(4, 20))
@example(factors=dict.fromkeys(_PHYSICAL, 1.0), N=10)
def test_passive_loop_contracts_the_regulation_error(factors, N):
    # with Ae Pi - Pi S = -Be E (Francis 1977), z = x - Pi v obeys zd = Ae z and
    # the error is e = Ce z, so the contraction structure above makes ||z||
    # non-increasing and bounds int ||e||^2 by ||z0||^2 / (2 c2): a theorem the
    # exact propagator and the trapezoid l2sq of the reference signals must obey
    # (on the reference loop 11.845 against 47.579)
    plant = fx.assemble(fx.PhysicalParams().scaled(**factors), N)
    cl = fx.assemble_closed_loop(plant, _PASSIVE)
    exo = _REFERENCE.exosystem()
    Pi = sla.solve_sylvester(cl.Ae, -exo.S, -cl.Be @ exo.E)
    assert np.linalg.norm(cl.Ce @ Pi + cl.De @ exo.E) < 1e-8
    x0 = fx.project_initial_state(plant, **_REFERENCE.initial_profiles())
    A_aug, x0_aug, _ = simulate._augment(cl, x0, exo)
    T, dt = _REFERENCE.t_final, _REFERENCE.dt
    _, z = fx.propagate_autonomous(A_aug, x0_aug, T, dt, np.hstack([np.eye(cl.n), -Pi]))
    norms = np.linalg.norm(z, axis=1)
    assert np.all(np.diff(norms) <= 1e-12 * norms[0])
    t, e = simulate.tracking_error(cl, x0, exo, T, dt)
    assert simulate.integrated_square_error(t, e) <= norms[0] ** 2 / (2.0 * _PASSIVE.kappa[0, 0])


def test_passive_loop_symmetric_part_sees_a_mismatched_gain(ss10):
    # K = -(1 + 1e-9) G2^T leaves -1e-9 C^T G2^T off the plant block
    G2 = _PASSIVE.G2
    mismatched = fx.ControllerRealization(G1=_PASSIVE.G1, G2=G2, K=-(1.0 + 1e-9) * G2.T,
                                          kappa=_PASSIVE.kappa)
    _, off = _symmetric_part(fx.assemble_closed_loop(ss10, mismatched))
    assert off == pytest.approx(1e-9 * np.abs(ss10.C.T @ G2.T).max(), rel=1e-6)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(factors=_scale_factors(st.floats(0.9, 1.1)))
def test_observer_loop_regulates_around_perturbed_plants(factors):
    # designed on the nominal N = 10 plant, closed around plants within 10 % per parameter
    plant = fx.assemble(fx.PhysicalParams().scaled(**factors), 10)
    cl = fx.assemble_closed_loop(plant, _nominal_observer())
    assert cl.margin > 0.0
    assert max(fx.regulation_zero_check(cl, FREQS).values()) < 1e-8
    # designed on the draw's own plant, the realization hands on exactly the
    # servo margin and Riccati residual of the matrices it is built from
    H, _ = fx.solve_sylvester_H(plant, FREQS)
    own = fx.build_observer_controller(plant, FREQS, 10.0, 0.1)
    im = fx.internal_model(FREQS)
    B1 = H @ plant.B
    assert own.servo_margin == fx.stability_margin(im.G1 + B1 @ own.K[:, :im.dim])
    Q, R = 10.0 * np.eye(im.dim), 0.1 * np.eye(2)
    assert own.care_residual == care_residual(im.G1, B1, Q, R, fx.care_solve(im.G1, B1, Q, R)[0])
