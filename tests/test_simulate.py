"""The exosystem, matrix exponential, exact integration, error metrics."""

from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import flexsat as fx
from flexsat import analysis, simulate
from flexsat.config import RunConfig, load_config
from flexsat.simulate import _augment

REFERENCE_INI = Path(__file__).resolve().parents[1] / "configs" / "reference.ini"
REFERENCE_SIGNALS = dict(
    freqs=(0.0, 1.0, 2.0, 5.0),
    yref_const=(1.0, 2.0),
    wd_const=(0.0, 0.0, 10.0, 15.0),
    yref_cos=[[3.0, 0.0], [0.0, 1.5], [0.0, 0.0]],
    yref_sin=[[0.0, 0.0], [0.0, 0.0], [0.0, -1.0]],
)


def closed_form(t, freqs, const, cos=None, sin=None):
    """const + sum_k (cos[k] cos(w_k t) + sin[k] sin(w_k t)) at scalar or array times t,
    w_k the positive entries of freqs."""
    t = np.asarray(t, dtype=float)
    out = np.tile(np.asarray(const, dtype=float), t.shape + (1,))
    for k, w in enumerate(f for f in freqs if f):
        for table, wave in ((cos, np.cos), (sin, np.sin)):
            if table is not None:
                out += np.multiply.outer(wave(w * t), np.asarray(table[k], dtype=float))
    return out


def generated(exo, t):
    """(w_d, y_ref) = E exp(S t) v0, the exosystem's output at time t."""
    return exo.E @ sla.expm(exo.S * t) @ exo.v0


# --- the exosystem --------------------------------------------------------------


def test_generator_reference_values():
    exo = fx.exosystem(**REFERENCE_SIGNALS)
    assert np.allclose(generated(exo, 0.0), [0.0, 0.0, 10.0, 15.0, 4.0, 3.5], atol=1e-15)
    for t in (0.4, 2.0):
        assert np.allclose(generated(exo, t)[:4], [0.0, 0.0, 10.0, 15.0], atol=1e-15)
    # spot check the closed form at one time
    y = generated(exo, 0.7)[4:]
    assert y[0] == pytest.approx(1.0 + 3.0 * np.cos(0.7), rel=1e-15)
    assert y[1] == pytest.approx(2.0 - np.sin(3.5) + 1.5 * np.cos(1.4), rel=1e-15)


def test_generator_of_zero_signals():
    exo = fx.exosystem((0.0,), np.zeros(2), np.zeros(4))
    assert exo.S.shape == (1, 1) and np.array_equal(exo.v0, [1.0])
    assert np.array_equal(generated(exo, 3.2), np.zeros(6))


def test_generator_validation():
    # the frequency list is the controllers' (internal_model's rules)
    with pytest.raises(ValueError, match="strictly increasing"):
        fx.exosystem((2.0, 1.0), (0.0, 0.0), np.zeros(4))
    with pytest.raises(ValueError, match="nonnegative"):
        fx.exosystem((-1.0, 1.0), (0.0, 0.0), np.zeros(4))
    with pytest.raises(ValueError, match="nonempty"):
        fx.exosystem((), (0.0, 0.0), np.zeros(4))
    # listing 0 is valid, and with zero offsets the generator is the one without it, bit for bit
    with_zero = fx.exosystem((0.0, 1.0), (0.0, 0.0), np.zeros(4))
    without = fx.exosystem((1.0,), (0.0, 0.0), np.zeros(4))
    for name in ("S", "v0", "E"):
        assert np.array_equal(getattr(with_zero, name), getattr(without, name))
    # an offset needs 0 listed
    with pytest.raises(ValueError, match="needs 0 in frequencies"):
        fx.exosystem((1.0,), (0.0, 0.0), (0.0, 0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="yref_cos"):
        fx.exosystem((1.0,), (0.0, 0.0), np.zeros(4), yref_cos=[[1.0, 2.0], [3.0, 4.0]])
    # a disturbance table built for another frequency list
    with pytest.raises(ValueError, match="wd_sin"):
        fx.exosystem((1.0,), (0.0, 0.0), np.zeros(4), wd_sin=np.zeros((2, 4)))
    # a 3-channel disturbance, and a 1-channel reference
    with pytest.raises(ValueError, match="wd_const"):
        fx.exosystem((1.0,), (0.0, 0.0), np.zeros(3))
    with pytest.raises(ValueError, match="yref_const"):
        fx.exosystem((1.0,), (0.0,), np.zeros(4))


def test_generator_reproduces_closed_form():
    # the generator appended to the closed loop is the signal's closed form
    rng = np.random.default_rng(3)
    freqs = (0.0, 0.7, 1.0, 2.0, 5.0)
    yref = (rng.normal(size=2), rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
    wd = (rng.normal(size=4), rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
    exo = fx.exosystem(freqs, yref[0], wd[0], yref_cos=yref[1], yref_sin=yref[2],
                       wd_cos=wd[1], wd_sin=wd[2])
    for t in (0.0, 0.3, 1.7, 4.0, 9.1, 12.5):
        expected = np.concatenate([closed_form(t, freqs, *wd), closed_form(t, freqs, *yref)])
        np.testing.assert_allclose(generated(exo, t), expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("trace", ["passive_trace", "observer_trace"])
def test_trace_error_is_output_minus_reference(request, default_config, trace):
    tr = request.getfixturevalue(trace)
    cfg = default_config
    ref = closed_form(tr.t, cfg.frequencies, cfg.yref_const, cfg.yref_cos, cfg.yref_sin)
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


def test_expm_rejects_non_finite_norm():
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite 1-norm"):
            fx.matrix_exponential(np.array([[value]]))


def test_grid_steps_refuses_an_overflowing_ratio():
    with pytest.raises(ValueError, match="overflows"):
        simulate.grid_steps(1e300, 1e-10)
    # 2**53 steps is the last count at which a double holds every step index and time
    assert simulate.grid_steps(2.0**53, 1.0) == 2**53
    for t_final in (float(np.nextafter(2.0**53, np.inf)), np.inf):
        with pytest.raises(ValueError, match=r"overflows 2\*\*53 steps: t_final="):
            simulate.grid_steps(t_final, 1.0)


def test_unaddressable_grid_is_a_refused_allocation():
    # 8e15 steps of 200 outputs need 1.3e19 bytes, more than numpy can address:
    # its shape ValueError, raised before anything is allocated, becomes MemoryError
    with pytest.raises(MemoryError, match="array is too big"):
        fx.propagate_autonomous(-np.eye(2), np.ones(2), 8e15, 1.0, np.ones((200, 2)))


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
    x0 = fx.project_initial_state(cl.plant, **cfg.initial_profiles())
    return _augment(cl, x0, cfg.exosystem())[:2]


def test_propagate_reference_loops_match_step_loop(default_config, passive_loop):
    A, x0 = augmented_loop(passive_loop, default_config)
    assert_matches_step_loop(A, x0, default_config.t_final, default_config.dt, np.eye(A.shape[0]))

    cfg = replace(default_config, controller_kind="observer", n_basis=20)
    ss = analysis.plant_from_config(cfg)
    cl = fx.assemble_closed_loop(ss, analysis.controller_from_config(cfg, ss))
    A, x0 = augmented_loop(cl, cfg)
    assert A.shape == (185, 185)
    assert_matches_step_loop(A, x0, cfg.t_final, cfg.dt, np.eye(185))


# --- closed-loop integration ----------------------------------------------------


def test_integrate_zero_inputs_zero_state(passive_loop):
    exo = fx.exosystem((1.0, 2.0, 5.0), np.zeros(2), np.zeros(4))
    trace = fx.integrate(passive_loop, np.zeros(passive_loop.plant.n), exo, 1.0, 0.01)
    assert np.max(np.abs(trace.y)) == 0.0
    assert np.max(np.abs(trace.e)) == 0.0
    assert np.max(np.abs(trace.u)) == 0.0
    assert np.max(trace.energy) == 0.0


def test_integrate_autonomous_energy_decay(ss10, default_config, plant_only_ctrl):
    # plant alone, no inputs: energy is nonincreasing and strictly smaller at
    # the end (exponential stability of the assembled model)
    cl = fx.assemble_closed_loop(ss10, plant_only_ctrl)
    x0 = fx.project_initial_state(ss10, **default_config.initial_profiles())
    exo = fx.exosystem((0.0,), np.zeros(2), np.zeros(4))
    trace = fx.integrate(cl, x0, exo, 15.0, 0.005)
    assert trace.energy[0] == pytest.approx(0.5 * float(x0 @ x0), rel=1e-14)
    diffs = np.diff(trace.energy)
    assert np.all(diffs <= 1e-12 * trace.energy[0])
    assert trace.energy[-1] < trace.energy[0]
    assert trace.energy[-1] < 1e-8 * trace.energy[0]


def test_integrate_grid_invariance(passive_loop, default_config):
    x0 = fx.project_initial_state(passive_loop.plant, **default_config.initial_profiles())
    exo = default_config.exosystem()
    tr1 = fx.integrate(passive_loop, x0, exo, 3.0, 0.01)
    tr2 = fx.integrate(passive_loop, x0, exo, 3.0, 0.005)
    assert np.max(np.abs(tr1.y - tr2.y[::2])) < 1e-10
    assert np.max(np.abs(tr1.e - tr2.e[::2])) < 1e-10


@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["passive", "observer"]), N=st.integers(4, 40))
def test_halving_dt_does_not_move_the_samples(kind, N):
    # the integrator is exact at the grid points, so a finer grid only adds samples
    cfg = RunConfig(controller_kind=kind, n_basis=N, t_final=5.0)
    ss = analysis.plant_from_config(cfg)
    cl = fx.assemble_closed_loop(ss, analysis.controller_from_config(cfg, ss))
    x0 = fx.project_initial_state(ss, **cfg.initial_profiles())
    args = (cl, x0, cfg.exosystem(), cfg.t_final)
    t, e = simulate.tracking_error(*args, cfg.dt)
    t_fine, e_fine = simulate.tracking_error(*args, cfg.dt / 2)
    assert np.array_equal(t, t_fine[::2])
    assert np.max(np.abs(e - e_fine[::2])) <= 1e-10 * np.max(np.abs(e))


def test_integrate_validates_inputs(passive_loop):
    # signals that disagree on frequencies or channels cannot form an
    # Exosystem (test_generator_validation); a wrong-length x0 is refused here
    exo = fx.exosystem((1.0,), np.zeros(2), np.zeros(4))
    with pytest.raises(ValueError):
        fx.integrate(passive_loop, np.zeros(3), exo, 1.0, 0.01)


def test_unstable_loop_is_refused_before_any_exponential(monkeypatch):
    # the observer designed on the reference INI, closed around its plant with E
    # halved (margin -0.0505): integrate and tracking_error refuse it in _augment,
    # before matrix_exponential, with the text regulation_zero_check raises too
    cfg = replace(load_config(REFERENCE_INI), controller_kind="observer")
    ctrl = analysis.controller_from_config(cfg, analysis.plant_from_config(cfg))
    halved = analysis.plant_from_config(replace(cfg, **asdict(cfg.physical().scaled(E=0.5))))
    cl = fx.assemble_closed_loop(halved, ctrl)
    x0 = fx.project_initial_state(halved, **cfg.initial_profiles())
    exponentials = []
    expm = simulate.matrix_exponential

    def counting(M):
        exponentials.append(M.shape)
        return expm(M)

    monkeypatch.setattr(simulate, "matrix_exponential", counting)
    refusals = []
    for run in (simulate.integrate, simulate.tracking_error):
        with pytest.raises(RuntimeError) as refusal:
            run(cl, x0, cfg.exosystem(), cfg.t_final, cfg.dt)
        refusals.append(str(refusal.value))
    assert exponentials == []
    with pytest.raises(RuntimeError) as refusal:
        fx.regulation_zero_check(cl, cfg.frequencies)
    refusals.append(str(refusal.value))
    assert refusals == ["closed loop unstable: stability margin = -5.050022e-02"] * 3


def test_initial_state_is_the_plant_state(passive_loop, default_config):
    # the controller starts at rest: _augment appends its zero state and the
    # generator's, and a loop-length x0 is refused, naming the plant length
    exo = default_config.exosystem()
    x0 = fx.project_initial_state(passive_loop.plant, **default_config.initial_profiles())
    _, x0_aug, error_map = _augment(passive_loop, x0, exo)
    assert np.array_equal(x0_aug, np.concatenate([x0, np.zeros(passive_loop.controller.n_c), exo.v0]))
    assert np.array_equal(error_map, np.hstack([passive_loop.Ce, passive_loop.De @ exo.E]))
    trace = fx.integrate(passive_loop, x0, exo, 1.0, 0.01)
    t, e = simulate.tracking_error(passive_loop, x0, exo, 1.0, 0.01)
    assert np.array_equal(t, trace.t)
    assert np.max(np.abs(e - trace.e)) <= 1e-12 * np.max(np.abs(e))
    loop_x0 = np.zeros(passive_loop.n)
    for run in (fx.integrate, simulate.tracking_error):
        with pytest.raises(ValueError, match=rf"length {passive_loop.plant.n}, got \({passive_loop.n},\)"):
            run(passive_loop, loop_x0, exo, 1.0, 0.01)


def test_energy_balance_forced_run(ss10, default_config, plant_only_ctrl):
    # inject sinusoidal forces through the hub disturbance channels and close
    # the discrete energy balance: E(T) - E(0) = int u.y - int v.D v
    cl = fx.assemble_closed_loop(ss10, plant_only_ctrl)
    exo = fx.exosystem(
        (1.0, 2.0),
        np.zeros(2),
        np.zeros(4),
        wd_cos=[[0, 0, 0, 0], [0, 0, 0, 1.0]],
        wd_sin=[[0, 0, 1.0, 0], [0, 0, 0, 0]],
    )
    x0 = fx.project_initial_state(ss10, **default_config.initial_profiles())
    E = exo.E
    nb = 2 * ss10.n_basis
    D = -ss10.A[nb:, nb:]  # the plant's damping, A's velocity block negated
    residuals = []
    for dt in (0.005, 0.0025):
        A_aug, x0_aug, _ = _augment(cl, x0, exo)
        t, xs = fx.propagate_autonomous(A_aug, x0_aug, 15.0, dt, np.eye(A_aug.shape[0]))
        xp = xs[:, : ss10.n]
        vel = xp[:, nb:]
        u_inj = (xs[:, cl.n :] @ E.T)[:, 2:4]
        y = xp @ ss10.C.T
        energy = 0.5 * np.einsum("ij,ij->i", xp, xp)
        supply = np.trapezoid(np.einsum("ij,ij->i", u_inj, y), t)
        dissip = np.trapezoid(np.einsum("ij,ij->i", vel, vel @ D.T), t)
        residuals.append(abs(energy[-1] - energy[0] - supply + dissip))
    scale = max(1.0, 0.5 * float(x0 @ x0))
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
