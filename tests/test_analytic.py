"""Closed-form layer: wavenumber, characteristic roots, transfers."""

import cmath
import math

import numpy as np
import pytest

import flexsat as fx
from conftest import random_params

# --- independent oracles ------------------------------------------------------


def alpha_oracle(omega, p):
    """Principal fourth root via explicit polar form."""
    z = complex(omega * omega, -p.gamma / (p.rho * p.a) * omega)
    r, phi = cmath.polar(z)
    root = r**0.25 * cmath.exp(1j * phi / 4.0)
    return (p.rho * p.a / (p.E * p.I)) ** 0.25 * root


def mu_bisection_oracle(k, iters=200):
    """Plain bisection of cosh(mu) cos(mu) + 1 on the k-th bracket."""
    f = lambda mu: math.cosh(mu) * math.cos(mu) + 1.0
    lo, hi = (1.0, math.pi) if k == 1 else (math.pi * (k - 1), math.pi * k)
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# --- wavenumber ---------------------------------------------------------------


def test_alpha_zero(params):
    assert fx.alpha(0.0, params) == 0.0


def test_alpha_reference_value(params):
    val = fx.alpha(1.0, params)
    assert val == pytest.approx(alpha_oracle(1.0, params), abs=1e-14)
    assert val.real == pytest.approx(1.4150, abs=1e-4)
    assert val.imag == pytest.approx(-0.5059, abs=1e-4)


def test_alpha_conjugate_symmetry(params):
    for w in [0.3, 1.0, 7.7, 123.0, 2.0e5]:
        assert fx.alpha(-w, params) == pytest.approx(np.conj(fx.alpha(w, params)), abs=1e-12)


def test_alpha_random_params_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_params(rng)
        w = float(rng.uniform(-50.0, 50.0))
        got = fx.alpha(w, p)
        want = alpha_oracle(w, p)
        assert got == pytest.approx(want, rel=1e-13)


# --- characteristic roots -----------------------------------------------------


def test_beam_mu_matches_bisection_oracle():
    for k in range(1, 6):
        assert abs(fx.beam_mu(k) - mu_bisection_oracle(k)) < 1e-10


def test_beam_mu_frozen_values():
    assert fx.beam_mu(1) == pytest.approx(1.8751040687, abs=1e-9)
    assert fx.beam_mu(2) == pytest.approx(4.6940911330, abs=1e-9)


def test_beam_mu_scaled_residual():
    for k in range(1, 21):
        mu = fx.beam_mu(k)
        assert abs(math.cos(mu) + 1.0 / math.cosh(mu)) < 1e-12


def test_beam_mu_raw_residual_small_k():
    # the raw residual scales with cosh(mu_k); only the first few roots can
    # meet an absolute 1e-12 in double precision
    for k in (1, 2):
        mu = fx.beam_mu(k)
        assert abs(math.cosh(mu) * math.cos(mu) + 1.0) < 1e-12


def test_beam_mu_interlacing_and_gaps():
    mus = [fx.beam_mu(k) for k in range(1, 12)]
    for k, mu in enumerate(mus, start=1):
        assert math.pi * (k - 1) < mu < math.pi * k
    gap_dev = np.abs(np.diff(mus) - math.pi)
    assert np.all(np.diff(gap_dev) < 0.0)  # gaps approach pi monotonically
    assert gap_dev[-1] < 1e-9


def test_beam_mu_asymptote_monotone():
    dev = [abs(fx.beam_mu(k) - math.pi * (k - 0.5)) for k in range(3, 11)]
    assert all(dev[i + 1] < dev[i] for i in range(len(dev) - 1))


def test_beam_mu_rejects_bad_index():
    with pytest.raises(ValueError):
        fx.beam_mu(0)


# --- transfer functions -------------------------------------------------------


def test_transfer_beam_zero_frequency_random_params():
    rng = np.random.default_rng(123)
    for _ in range(5):
        p = random_params(rng)
        got = fx.transfer_beam(0.0, p)
        want = np.diag([2.0 * p.gamma, 2.0 * p.gamma / 3.0])
        assert np.max(np.abs(got - want)) < 1e-12


def test_transfer_beam_diagonal(params):
    for w in (0.0, 0.3, 2.0, 40.0):
        Pb = fx.transfer_beam(w, params)
        assert Pb[0, 1] == 0.0 and Pb[1, 0] == 0.0


def test_transfer_beam_growth_bound(params):
    # the constant of ||P_b(i w)|| <= M (|w| + 1) found at low frequency bounds the high band
    ratio = lambda w: np.linalg.norm(fx.transfer_beam(w, params), 2) / (abs(w) + 1.0)
    M = max(ratio(w) for w in np.geomspace(0.1, 100.0, 80))
    for w in np.geomspace(100.0, 1e5, 80):
        assert ratio(w) <= M


def test_transfer_beam_continuity_at_zero_switch(params):
    just_above = fx.transfer_beam(1.0000001e-8, params)
    at_zero = fx.transfer_beam(0.0, params)
    assert np.max(np.abs(just_above - at_zero)) < 1e-6


def test_transfer_beam_overflow_safe(params):
    for w in (1e4, 1e5, 1e6):
        Pb = fx.transfer_beam(w, params)
        assert np.isfinite(Pb[0, 0]) and np.isfinite(Pb[1, 1])


def test_transfer_beam_overflow_raises():
    # an overdamped panel overflows once |Im alpha| passes about 355.2, at
    # gamma |w| / EI ~ 7.43e11 here; below it the result stays finite, past it
    # transfer_beam raises naming w and gamma instead of warning
    for omega in (1.0, -5.0):
        below = fx.PhysicalParams(gamma=7.42e11 / abs(omega))
        assert np.isfinite(fx.transfer_beam(omega, below)).all()
        above = fx.PhysicalParams(gamma=7.44e11 / abs(omega))
        with pytest.raises(RuntimeError, match=rf"omega = {omega!r}, gamma = {above.gamma!r}"):
            fx.transfer_beam(omega, above)
    with pytest.raises(RuntimeError, match="overflows"):
        fx.plant_transfer(1.0, fx.PhysicalParams(gamma=1e12))


def test_transfer_beam_conjugate_symmetry(params):
    for w in (0.2, 1.0, 5.0, 77.0):
        assert np.allclose(fx.transfer_beam(-w, params), np.conj(fx.transfer_beam(w, params)), atol=1e-12)


def test_beam_passivity_positive_hermitian_part(params):
    for w in np.geomspace(0.05, 500.0, 40):
        Pb = fx.transfer_beam(w, params)
        herm = 0.5 * (Pb + Pb.conj().T)
        assert np.min(np.linalg.eigvalsh(herm)) > 0.0


def test_transfer_rigid(params):
    got = fx.transfer_rigid(1.0, params)
    assert np.allclose(got, -1j * np.eye(2), atol=1e-15)
    got2 = fx.transfer_rigid(2.0, params)
    assert np.allclose(got2, -0.5j * np.eye(2), atol=1e-15)
    for w in (0.5, 3.0, -7.0):
        herm = fx.transfer_rigid(w, params)
        assert np.max(np.abs(herm + herm.conj().T)) == 0.0  # purely imaginary
    with pytest.raises(ValueError):
        fx.transfer_rigid(0.0, params)


def test_s_matrix_zero_frequency(params):
    got = fx.s_matrix(0.0, params)
    assert np.allclose(got, np.diag([0.1, 0.3]), atol=1e-15)
    p2 = fx.PhysicalParams(m=2.0, I_m=3.0, gamma=4.0)
    want = np.diag([2.0 / 8.0, 9.0 / 8.0])
    assert np.allclose(fx.s_matrix(0.0, p2), want, atol=1e-14)


def test_s_matrix_defining_identity_random(params):
    rng = np.random.default_rng(20240601)
    Bc = np.diag([1.0 / params.m, 1.0 / params.I_m])
    worst = 0.0
    for w in rng.uniform(-200.0, 200.0, size=1000):
        S = fx.s_matrix(w, params)
        resid = S @ (1j * w * np.eye(2) + Bc @ fx.transfer_beam(w, params)) - np.eye(2)
        worst = max(worst, float(np.abs(resid).max()))
    assert worst < 1e-12


def test_s_matrix_brute_force_inversion(params):
    w = 5.0
    Bc = np.diag([1.0 / params.m, 1.0 / params.I_m])
    brute = np.linalg.inv(1j * w * np.eye(2) + Bc @ fx.transfer_beam(w, params))
    assert np.allclose(fx.s_matrix(w, params), brute, atol=1e-14)


def test_plant_transfer_zero(params):
    assert np.allclose(fx.plant_transfer(0.0, params), np.diag([0.1, 0.3]), atol=1e-15)


def test_plant_transfer_nonsingular(params):
    for w in (0.0, 1.0, 2.0, 5.0):
        smin = np.linalg.svd(fx.plant_transfer(w, params), compute_uv=False)[-1]
        assert smin > 0.0


def test_plant_transfer_conjugate_symmetry(params):
    for w in (0.4, 1.0, 3.3, 12.0):
        assert np.allclose(fx.plant_transfer(-w, params), np.conj(fx.plant_transfer(w, params)), atol=1e-13)


def test_frequency_constants_match_naive(params):
    w = 2.0
    al = fx.alpha(w, params)
    c1 = 1 + np.cos(al) * np.cosh(al) + np.sin(al) * np.sinh(al)
    c2 = 2 + 2 * np.cosh(al) * np.cos(al)
    c3 = np.sinh(al) + np.sin(al)
    c4 = np.cos(al) * np.sinh(al) - np.sin(al) * np.cosh(al)
    c5 = np.cosh(al) + np.cos(al)
    c2w = (c2 * np.cos(al) - c1 * c5) / (c2 * c3)
    c3w = c4 / c2
    pref = 4.0 * params.EI * al / (1j * w)
    Pb = fx.transfer_beam(w, params)
    assert Pb[0, 0] == pytest.approx(pref * al**2 * c2w, rel=1e-12)
    assert Pb[1, 1] == pytest.approx(pref * c3w, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        fx.PhysicalParams(m=-1.0)
    with pytest.raises(ValueError):
        fx.PhysicalParams(rho=0.0)
    with pytest.raises(ValueError, match="gamma must be finite"):
        fx.PhysicalParams(gamma=float("nan"))
    with pytest.raises(ValueError, match="E must be finite"):
        fx.PhysicalParams(E=1e308).scaled(E=10.0)
    fx.PhysicalParams(gamma=0.0)  # undamped limit is allowed
    p = fx.PhysicalParams().scaled(gamma=0.9, m=1.1)
    assert p.gamma == pytest.approx(4.5) and p.m == pytest.approx(1.1)
    with pytest.raises(ValueError):
        fx.PhysicalParams().scaled(nonsense=2.0)
    for name in ("rho_a", "EI", "scaled"):  # a property or method is not a field
        with pytest.raises(ValueError, match="unknown parameter"):
            fx.PhysicalParams().scaled(**{name: 2.0})
