"""Signal evaluation, matrix exponential, exact integration, error metrics."""

import numpy as np
import pytest
import scipy.linalg as sla

import flexsat as fx
from flexsat import analysis
from flexsat.simulate import _augment, _exosystem


def reference_yref():
    return fx.SignalSpec.create(
        (1.0, 2.0, 5.0),
        (1.0, 2.0),
        cos_coeffs=[[3.0, 0.0], [0.0, 1.5], [0.0, 0.0]],
        sin_coeffs=[[0.0, 0.0], [0.0, 0.0], [0.0, -1.0]],
    )


def reference_wd():
    return fx.SignalSpec.create((1.0, 2.0, 5.0), (0.0, 0.0, 10.0, 15.0))


# --- signals --------------------------------------------------------------------


def test_eval_signal_reference_values():
    y0 = fx.eval_signal(reference_yref(), 0.0)
    assert np.allclose(y0, [4.0, 3.5], atol=1e-15)
    t = np.array([0.0, 0.4, 2.0])
    wd = fx.eval_signal(reference_wd(), t)
    assert np.allclose(wd, np.tile([0.0, 0.0, 10.0, 15.0], (3, 1)), atol=1e-15)
    # spot check the closed form at one time
    y = fx.eval_signal(reference_yref(), 0.7)
    assert y[0] == pytest.approx(1.0 + 3.0 * np.cos(0.7), rel=1e-15)
    assert y[1] == pytest.approx(2.0 - np.sin(3.5) + 1.5 * np.cos(1.4), rel=1e-15)


def test_eval_signal_zero():
    z = fx.SignalSpec.create((), np.zeros(4))
    assert np.allclose(fx.eval_signal(z, 3.2), np.zeros(4), atol=0.0)


def test_signal_spec_validation():
    with pytest.raises(ValueError):
        fx.SignalSpec.create((2.0, 1.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        fx.SignalSpec.create((1.0,), (0.0, 0.0), cos_coeffs=[[1.0, 2.0], [3.0, 4.0]])


def test_exosystem_reproduces_eval_signal():
    # the generator appended to the closed loop is the signal's closed form
    rng = np.random.default_rng(3)
    freqs = (0.7, 1.0, 2.0, 5.0)
    yref = fx.SignalSpec.create(freqs, rng.normal(size=2), rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
    wd = fx.SignalSpec.create(freqs, rng.normal(size=4), rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
    S, v0, E = _exosystem(yref, wd)
    for t in (0.0, 0.3, 1.7, 4.0, 9.1, 12.5):
        expected = np.concatenate([fx.eval_signal(wd, t), fx.eval_signal(yref, t)])
        np.testing.assert_allclose(E @ sla.expm(S * t) @ v0, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("trace", ["passive_trace", "observer_trace"])
def test_trace_error_is_output_minus_reference(request, default_config, trace):
    tr = request.getfixturevalue(trace)
    ref = fx.eval_signal(default_config.yref_spec(), tr.t)
    assert np.abs(tr.e - (tr.y - ref)).max() <= 1e-10 * np.abs(ref).max()


# --- matrix exponential ---------------------------------------------------------


def test_expm_zero_matrix():
    assert np.array_equal(fx.matrix_exponential(np.zeros((3, 3))), np.eye(3))


def test_expm_rotation_closed_form():
    for wt in (0.3, 2.0, 40.0):
        M = np.array([[0.0, wt], [-wt, 0.0]])
        want = np.array([[np.cos(wt), np.sin(wt)], [-np.sin(wt), np.cos(wt)]])
        assert np.allclose(fx.matrix_exponential(M), want, atol=1e-12)


def test_expm_symmetric_eigendecomposition_oracle():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    M = 0.5 * (M + M.T)
    lam, Q = np.linalg.eigh(M)
    want = Q @ np.diag(np.exp(lam)) @ Q.T
    got = fx.matrix_exponential(M)
    assert np.max(np.abs(got - want)) < 1e-11


def test_expm_large_norm_rotation():
    # ||M|| ~ 1e4 exercises deep scaling and squaring
    w = 1.0e4
    M = np.array([[0.0, w], [-w, 0.0]])
    got = fx.matrix_exponential(M)
    want = np.array([[np.cos(w), np.sin(w)], [-np.sin(w), np.cos(w)]])
    assert np.max(np.abs(got - want)) < 1e-9


def test_expm_matches_scipy():
    import scipy.linalg as sla

    rng = np.random.default_rng(11)
    M = rng.standard_normal((6, 6))
    assert np.allclose(fx.matrix_exponential(M), sla.expm(M), atol=1e-12, rtol=1e-12)


def test_expm_rejects_nonsquare():
    with pytest.raises(ValueError):
        fx.matrix_exponential(np.zeros((2, 3)))


# --- exact propagation ----------------------------------------------------------


def known_4x4():
    """Stable 4x4 with a known eigendecomposition (orthogonal similarity)."""
    rng = np.random.default_rng(17)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    lam = np.array([-0.5, -1.0, -2.0, -3.5])
    A = Q @ np.diag(lam) @ Q.T
    return A, Q, lam


def test_propagate_exactness_known_eigensystem():
    A, Q, lam = known_4x4()
    x0 = np.array([1.0, -2.0, 0.5, 0.25])
    t, xs = fx.propagate_autonomous(A, x0, 2.0, 0.01, np.eye(4))
    want = (Q * np.exp(np.outer(t, lam))[:, None, :]) @ (Q.T @ x0)
    worst = np.max(np.abs(xs - want.reshape(xs.shape)))
    assert worst < 1e-10


def test_propagate_grid_invariance():
    A, _, _ = known_4x4()
    x0 = np.array([1.0, 0.0, -1.0, 2.0])
    t1, xs1 = fx.propagate_autonomous(A, x0, 1.0, 0.02, np.eye(4))
    t2, xs2 = fx.propagate_autonomous(A, x0, 1.0, 0.01, np.eye(4))
    assert np.max(np.abs(xs1 - xs2[::2])) < 1e-10


def test_propagate_validates_grid():
    A = -np.eye(2)
    with pytest.raises(ValueError):
        fx.propagate_autonomous(A, np.ones(2), 1.0, 0.0, np.eye(2))
    with pytest.raises(ValueError):
        fx.propagate_autonomous(A, np.ones(2), 0.1, 0.5, np.eye(2))
    for T, dt in ((1.0, 0.4), (0.35, 0.1)):
        with pytest.raises(ValueError, match="whole multiple"):
            fx.propagate_autonomous(A, np.ones(2), T, dt, np.eye(2))
    # T / dt is 2.9999999999999996 here, a whole multiple within rounding
    t, _ = fx.propagate_autonomous(A, np.ones(2), 0.3, 0.1, np.eye(2))
    assert t.size == 4 and t[-1] == pytest.approx(0.3, rel=1e-15)


def test_propagate_detects_blowup():
    # x_i = exp(200 i) first overflows at i = 4 (exp(800) > 1.8e308 > exp(600))
    A = np.array([[400.0]])
    with pytest.raises(RuntimeError, match=r"non-finite at step 4 \(t = 2\)"):
        fx.propagate_autonomous(A, np.array([1.0]), 10.0, 0.5, np.eye(1))
    # a growing mode that C does not see is caught at the next block start:
    # 40 steps, so the one start after step 0 is step 32
    A = np.diag([400.0, -1.0])
    with pytest.raises(RuntimeError, match=r"non-finite at step 32 \(t = 16\)"):
        fx.propagate_autonomous(A, np.ones(2), 20.0, 0.5, np.array([[0.0, 1.0]]))


def step_loop(A, x0, T, dt):
    """Reference propagation: one matvec with exp(A dt) per grid step."""
    nt = int(round(T / dt)) + 1
    phi = fx.matrix_exponential(A * dt)
    xs = np.empty((nt, A.shape[0]))
    xs[0] = x0
    for i in range(1, nt):
        xs[i] = phi @ xs[i - 1]
    return xs


def assert_matches_step_loop(A, x0, T, dt, C):
    t, ys = fx.propagate_autonomous(A, x0, T, dt, C)
    want = step_loop(A, x0, T, dt) @ C.T
    assert ys.shape == want.shape
    assert np.array_equal(t, dt * np.arange(want.shape[0]))
    assert np.max(np.abs(ys - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("steps", [1, 7, 8, 9, 31, 32, 33, 65, 3000])
def test_propagate_blocked_matches_step_loop(steps):
    # fewer steps than one block, exactly one block, one step past one and two
    # blocks, and partial last blocks
    rng = np.random.default_rng(steps)
    A = 0.3 * rng.standard_normal((12, 12)) - np.eye(12)
    x0 = rng.standard_normal(12)
    dt = 0.01
    for C in (np.eye(12), rng.standard_normal((2, 12))):
        assert_matches_step_loop(A, x0, steps * dt, dt, C)


def augmented_loop(cl, cfg):
    """Closed loop with the configured signal generator appended, and its initial state."""
    x0 = analysis.initial_state_from_config(cfg, cl)
    return _augment(cl, x0, cfg.yref_spec(), cfg.wd_spec())[:2]


def test_propagate_reference_loops_match_step_loop(default_config, passive_loop):
    A, x0 = augmented_loop(passive_loop, default_config)
    assert_matches_step_loop(A, x0, default_config.t_final, default_config.dt, np.eye(A.shape[0]))

    cfg = default_config.with_overrides(controller_kind="observer", n_basis=20)
    ss = analysis.plant_from_config(cfg)
    cl = fx.assemble_closed_loop(ss, analysis.controller_from_config(cfg, ss))
    A, x0 = augmented_loop(cl, cfg)
    assert A.shape == (185, 185)
    assert_matches_step_loop(A, x0, cfg.t_final, cfg.dt, np.eye(185))


# --- closed-loop integration ----------------------------------------------------


def test_integrate_zero_inputs_zero_state(passive_loop):
    yref = fx.SignalSpec.create((1.0, 2.0, 5.0), np.zeros(2))
    wd = fx.SignalSpec.create((1.0, 2.0, 5.0), np.zeros(4))
    trace = fx.integrate(passive_loop, np.zeros(passive_loop.n), yref, wd, 1.0, 0.01)
    assert np.max(np.abs(trace.y)) == 0.0
    assert np.max(np.abs(trace.e)) == 0.0
    assert np.max(np.abs(trace.u)) == 0.0
    assert np.max(trace.energy) == 0.0


def test_integrate_autonomous_energy_decay(ss10, default_config):
    # plant alone, no inputs: energy is nonincreasing and strictly smaller at
    # the end (exponential stability of the assembled model)
    cl = fx.assemble_closed_loop(ss10, fx.zero_controller())
    x0 = fx.project_initial_state(default_config.initial_profiles(), ss10)
    yref = fx.SignalSpec.create((), np.zeros(2))
    wd = fx.SignalSpec.create((), np.zeros(4))
    trace = fx.integrate(cl, x0, yref, wd, 15.0, 0.005)
    assert trace.energy[0] == pytest.approx(ss10.energy(x0), rel=1e-14)
    diffs = np.diff(trace.energy)
    assert np.all(diffs <= 1e-12 * trace.energy[0])
    assert trace.energy[-1] < trace.energy[0]
    assert trace.energy[-1] < 1e-8 * trace.energy[0]


def test_integrate_grid_invariance(passive_loop, default_config):
    from flexsat import analysis

    x0 = analysis.initial_state_from_config(default_config, passive_loop)
    yref = default_config.yref_spec()
    wd = default_config.wd_spec()
    tr1 = fx.integrate(passive_loop, x0, yref, wd, 3.0, 0.01)
    tr2 = fx.integrate(passive_loop, x0, yref, wd, 3.0, 0.005)
    assert np.max(np.abs(tr1.y - tr2.y[::2])) < 1e-10
    assert np.max(np.abs(tr1.e - tr2.e[::2])) < 1e-10


def test_integrate_validates_inputs(passive_loop):
    yref = fx.SignalSpec.create((1.0,), np.zeros(2))
    wd_wrong = fx.SignalSpec.create((2.0,), np.zeros(4))
    with pytest.raises(ValueError):
        fx.integrate(passive_loop, np.zeros(passive_loop.n), yref, wd_wrong, 1.0, 0.01)
    wd3 = fx.SignalSpec.create((1.0,), np.zeros(3))
    with pytest.raises(ValueError):
        fx.integrate(passive_loop, np.zeros(passive_loop.n), yref, wd3, 1.0, 0.01)
    wd = fx.SignalSpec.create((1.0,), np.zeros(4))
    with pytest.raises(ValueError):
        fx.integrate(passive_loop, np.zeros(3), yref, wd, 1.0, 0.01)


def test_energy_balance_forced_run(ss10, default_config):
    # inject sinusoidal forces through the hub disturbance channels and close
    # the discrete energy balance: E(T) - E(0) = int u.y - int v.D v
    cl = fx.assemble_closed_loop(ss10, fx.zero_controller())
    yref = fx.SignalSpec.create((1.0, 2.0), np.zeros(2))
    wd = fx.SignalSpec.create(
        (1.0, 2.0),
        np.zeros(4),
        cos_coeffs=[[0, 0, 0, 0], [0, 0, 0, 1.0]],
        sin_coeffs=[[0, 0, 1.0, 0], [0, 0, 0, 0]],
    )
    x0 = fx.project_initial_state(default_config.initial_profiles(), ss10)
    residuals = []
    for dt in (0.005, 0.0025):
        A_aug, x0_aug, E = _augment(cl, x0, yref, wd)
        t, xs = fx.propagate_autonomous(A_aug, x0_aug, 15.0, dt, np.eye(A_aug.shape[0]))
        xp = xs[:, : ss10.n]
        vel = xp[:, 2 * ss10.n_basis :]
        u_inj = (xs[:, cl.n :] @ E.T)[:, 2:4]
        y = xp @ ss10.C.T
        energy = 0.5 * np.einsum("ij,ij->i", xp, xp)
        supply = np.trapezoid(np.einsum("ij,ij->i", u_inj, y), t)
        dissip = np.trapezoid(np.einsum("ij,ij->i", vel, vel @ ss10.damping.T), t)
        residuals.append(abs(energy[-1] - energy[0] - supply + dissip))
    scale = max(1.0, ss10.energy(x0))
    assert residuals[0] < 1e-5 * scale
    assert residuals[1] < 0.5 * residuals[0]  # trapezoid quadrature order


def test_tracking_envelope_shrinks(passive_trace, observer_trace):
    # the last fifth of the run must sit strictly below the first tenth
    for trace in (passive_trace, observer_trace):
        nrm = np.linalg.norm(trace.e, axis=1)
        T = trace.t[-1]
        early = nrm[trace.t <= 0.1 * T].max()
        late = nrm[trace.t >= 0.8 * T].max()
        assert late < early


def test_trace_u_matches_controller_output(passive_trace, passive_loop):
    # sanity: at t = 0 the state is (x0, 0), so u(0) = -kappa e(0)
    e0 = passive_trace.e[0]
    u0 = passive_trace.u[0]
    assert np.allclose(u0, -passive_loop.controller.kappa @ e0, atol=1e-12)


# --- metrics and export ---------------------------------------------------------


def synthetic_trace(t, e):
    z2 = np.zeros((t.size, 2))
    return fx.SimulationTrace(t=t, y=z2, e=e, u=z2, energy=np.zeros(t.size))


def test_metrics_constant_error():
    t = np.linspace(0.0, 15.0, 3001)
    e = np.tile([1.0, 0.0], (t.size, 1))
    m = fx.error_metrics(synthetic_trace(t, e))
    assert m.l2sq == pytest.approx(15.0, rel=1e-12)
    assert m.decay_rate == pytest.approx(0.0, abs=1e-12)
    assert not m.floored


def test_metrics_exponential_decay():
    t = np.linspace(0.0, 10.0, 2001)
    e = np.stack([np.exp(-2.0 * t), np.zeros_like(t)], axis=1)
    m = fx.error_metrics(synthetic_trace(t, e))
    assert m.decay_rate == pytest.approx(-2.0, rel=0.01)


def test_metrics_zero_error():
    t = np.linspace(0.0, 1.0, 101)
    m = fx.error_metrics(synthetic_trace(t, np.zeros((101, 2))))
    assert m.l2sq == 0.0
    assert m.decay_rate == 0.0
    assert m.floored


def test_metrics_empty_trace_rejected():
    with pytest.raises(ValueError):
        fx.error_metrics(synthetic_trace(np.zeros(0), np.zeros((0, 2))))


def test_trace_csv_roundtrip(tmp_path, passive_trace):
    path = tmp_path / "trace.csv"
    passive_trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y1,y2,e1,e2,u1,u2,energy"
    assert len(lines) == passive_trace.t.size + 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], passive_trace.t)  # full precision
    assert np.array_equal(data[:, 1:3], passive_trace.y)
    assert np.array_equal(data[:, 7], passive_trace.energy)
