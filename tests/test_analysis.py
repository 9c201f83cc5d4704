"""Spectral diagnostics, resolvent scans, convergence report, sweeps."""

import math
import re

import numpy as np
import pytest

import flexsat as fx
from flexsat import analysis
from flexsat.config import RunConfig


def test_spectral_abscissa_closed_forms():
    assert analysis.stability_margin(np.diag([-1.0, -2.0])) == pytest.approx(1.0, abs=1e-14)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert analysis.stability_margin(rot) == pytest.approx(0.0, abs=1e-14)
    assert analysis.stability_margin(np.diag([1.0, -2.0])) == pytest.approx(-1.0, abs=1e-14)


CHECK_NAMES = ("collocation_HB_eq_CT", "dissipation_structure", "dissipativity", "plant_margin",
               "transfer_oracle", "s_matrix_identity", "sylvester_residual", "care_residual",
               "closed_loop_margin", "regulation_zeros")
NUMBER = re.compile(r"[-+]?\d+\.\d+(?:e[-+]\d+)?")


def last_number_is_value(check):
    # a row prints its value as %.3e, or %.6f for a margin that passed
    fmt = ".6f" if check.name.endswith("margin") and check.status != "warn" else ".3e"
    return NUMBER.findall(check.detail)[-1] == format(check.value, fmt)


@pytest.mark.parametrize("kind", ["passive", "observer"])
def test_validation_checks_are_records(kind):
    checks = list(analysis.validation_checks(RunConfig(controller_kind=kind)))
    assert tuple(c.name for c in checks) == CHECK_NAMES
    assert all(c.status == "pass" for c in checks)
    for check in checks:
        assert last_number_is_value(check), check
    by_name = {c.name: c for c in checks}
    assert by_name["dissipativity"].value < 0.0  # the velocity block, not the zero top eigenvalue
    assert by_name["closed_loop_margin"].detail.startswith(f"{kind}: ")


def test_validation_checks_skip_rows_carry_nan():
    checks = list(analysis.validation_checks(RunConfig(gamma=0.0, n_basis=6)))
    assert tuple(c.name for c in checks) == CHECK_NAMES
    statuses = [c.status for c in checks]
    assert statuses == ["pass", "pass", "pass", "warn", "pass"] + ["skip"] * 5
    for check in checks:
        if check.status == "skip":
            assert math.isnan(check.value), check
        else:
            assert last_number_is_value(check), check


def test_assembled_plant_is_stable(params):
    for N in (8, 10, 12):
        ss = fx.assemble(params, N)
        assert ss.margin > 0.0


def test_margin_decreases_with_damping():
    margins = []
    for gamma in (5.0, 1.0, 0.1):
        ss = fx.assemble(fx.PhysicalParams(gamma=gamma), 10)
        margins.append(analysis.stability_margin(ss.A))
    assert margins[0] > margins[1] > margins[2] > 0.0


def test_resolvent_scalar_closed_form():
    # wrap a scalar system: ||(i w + 1)^{-1}|| = 1/sqrt(1 + w^2)
    ss = fx.assemble(fx.PhysicalParams(), 1)
    # direct check on the underlying routine via a tiny stand-in system
    class Tiny:
        A = np.array([[-1.0]])
        n = 1
    for w in (0.0, 0.5, 3.0):
        val = 1.0 / np.linalg.svd(1j * w * np.eye(1) - Tiny.A, compute_uv=False)[-1]
        assert val == pytest.approx(1.0 / np.sqrt(1.0 + w * w), rel=1e-12)
    del ss


def test_resolvent_scan_even_and_bounded(ss10):
    grid = np.linspace(-50.0, 50.0, 101)
    vals = analysis.resolvent_norm_scan(ss10, grid)
    assert np.max(np.abs(vals - vals[::-1])) < 1e-10
    assert np.all(np.isfinite(vals))


def test_resolvent_scan_lower_bound(ss10):
    eigs = np.linalg.eigvals(ss10.A)
    for w in (0.0, 3.0, 20.0, 150.0):
        val = analysis.resolvent_norm_scan(ss10, [w])[0]
        dist = np.min(np.abs(1j * w - eigs))
        assert val >= 1.0 / dist - 1e-12


def test_resolvent_scan_rejects_unstable():
    ss0 = fx.assemble(fx.PhysicalParams(gamma=0.0), 4)
    with pytest.raises(RuntimeError):
        analysis.resolvent_norm_scan(ss0, [1.0])


def test_transfer_error_report(params):
    rows = analysis.transfer_error_report(params, (6, 12), (0.0, 0.1, 1.0, 5.0, 6.0))
    got = dict(rows)
    assert got[12] < 1e-3
    assert got[6] < 1e-3  # already well converged on this band
    assert got[12] < got[6]


def test_sweep_single_point_matches_direct(default_config, ss10, passive_loop, passive_trace):
    res = analysis.sweep(default_config, "c1", [2.5])
    assert res.stable[0]
    assert res.margin[0] == pytest.approx(analysis.stability_margin(passive_loop.Ae), rel=1e-10)
    assert res.l2sq[0] == pytest.approx(fx.error_metrics(passive_trace).l2sq, rel=1e-10)


def test_sweep_observer_single_point_matches_direct(default_config, ss10):
    # the sweep propagates only the error rows; integrate propagates the trace's
    for kind, parameter, value in (("observer", "r0", 0.1), ("passive", "c1", 2.5)):
        cfg = default_config.with_overrides(controller_kind=kind, **{parameter: value})
        res = analysis.sweep(cfg, parameter, [value])
        cl = fx.assemble_closed_loop(ss10, analysis.controller_from_config(cfg, ss10))
        trace = analysis.simulate_from_config(cfg, cl)
        assert res.stable[0]
        assert res.margin[0] == pytest.approx(analysis.stability_margin(cl.Ae), rel=1e-10)
        assert res.l2sq[0] == pytest.approx(fx.error_metrics(trace).l2sq, rel=1e-12)


def test_sweep_propagates_error_rows_only(default_config, monkeypatch):
    # no sweep point builds a state history: each propagation returns e's two rows
    rows = []
    propagate = fx.simulate.propagate_autonomous

    def counting(A, x0, T, dt, C):
        rows.append(C.shape[0])
        return propagate(A, x0, T, dt, C)

    monkeypatch.setattr(fx.simulate, "propagate_autonomous", counting)
    cfg = default_config.with_overrides(controller_kind="observer")
    res = analysis.sweep(cfg, "r0", [0.05, 0.1, 0.2])
    assert res.stable.all()
    assert rows == [2, 2, 2]


def test_sweep_projects_initial_state_once(default_config, monkeypatch):
    calls = []
    project = analysis.project_initial_state

    def counting(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(analysis, "project_initial_state", counting)
    res = analysis.sweep(default_config, "c1", [2.0, 2.5, 3.0])
    assert res.stable.all()
    assert len(calls) == 1


@pytest.mark.parametrize("kind, parameter, grid, solves", [
    ("observer", "r0", [0.05, 0.1, 0.2], 1),
    ("passive", "c1", [2.0, 2.5, 3.0], 0),
], ids=["observer-r0", "passive-c1"])
def test_sweep_solves_sylvester_once(default_config, monkeypatch, kind, parameter, grid, solves):
    # the Sylvester solution depends on the plant alone: one solve per
    # observer sweep, none for the passive controller
    calls = []
    solve = analysis.solve_sylvester_H

    def counting(*args):
        calls.append(args)
        return solve(*args)

    for module in (analysis, fx.synthesis):
        monkeypatch.setattr(module, "solve_sylvester_H", counting)
    cfg = default_config.with_overrides(controller_kind=kind)
    res = analysis.sweep(cfg, parameter, grid)
    assert res.stable.all()
    assert len(calls) == solves


def _observer_point(cfg):
    """Plant, controller and closed loop of an observer config, built point by point."""
    ss = analysis.plant_from_config(cfg)
    H = fx.solve_sylvester_H(ss, cfg.frequencies)
    ctrl = fx.build_observer_controller(ss, cfg.frequencies, cfg.q0, cfg.r0, H)
    return ss, ctrl, fx.assemble_closed_loop(ss, ctrl)


@pytest.mark.parametrize("n_basis", [10, 20])
def test_observer_sweep_margin_is_separation_margin(default_config, n_basis):
    # spec(Ae) = spec(A) twice with spec(G1 + B1 K1); on the reference plant
    # the servo spectrum binds, and the full eig of Ae agrees
    cfg = default_config.with_overrides(controller_kind="observer", n_basis=n_basis)
    ss, ctrl, cl = _observer_point(cfg)
    res = analysis.sweep(cfg, "r0", [cfg.r0])
    servo_margin = analysis.stability_margin(ctrl.servo)
    assert servo_margin < analysis.stability_margin(ss.A)
    assert res.margin[0] == servo_margin
    assert res.margin[0] == pytest.approx(analysis.stability_margin(cl.Ae), rel=1e-11)


def test_observer_sweep_margins_match_full_eig(default_config):
    cfg = default_config.with_overrides(controller_kind="observer")
    grid = [0.05, 0.1, 0.2]
    res = analysis.sweep(cfg, "r0", grid)
    full = [analysis.stability_margin(_observer_point(cfg.with_overrides(r0=r0))[2].Ae) for r0 in grid]
    assert res.stable.all()
    np.testing.assert_allclose(res.margin, full, rtol=1e-11, atol=0.0)
    assert np.unique(res.margin).size == len(grid)


def test_observer_sweep_margin_binds_on_plant(default_config):
    # weak damping puts the plant spectrum, doubled in Ae, to the right of the
    # servo spectrum; the double eigenvalue splits by about sqrt(eps) in a
    # full eig of Ae, so the separation margin is the plant margin itself
    cfg = default_config.with_overrides(controller_kind="observer", gamma=0.1)
    ss, ctrl, cl = _observer_point(cfg)
    plant_margin = analysis.stability_margin(ss.A)
    assert plant_margin < analysis.stability_margin(ctrl.servo)
    res = analysis.sweep(cfg, "r0", [cfg.r0])
    assert res.margin[0] == plant_margin
    assert res.margin[0] == pytest.approx(analysis.stability_margin(cl.Ae), rel=1e-5)


def test_observer_sweep_takes_no_closed_loop_eig(default_config, monkeypatch):
    sizes = []
    margin = fx.discretize.stability_margin

    def counting(A):
        sizes.append(A.shape[0])
        return margin(A)

    for module in (fx.discretize, analysis, fx.synthesis):
        monkeypatch.setattr(module, "stability_margin", counting)
    cfg = default_config.with_overrides(controller_kind="observer")
    n = analysis.plant_from_config(cfg).n
    res = analysis.sweep(cfg, "r0", [0.05, 0.1, 0.2])
    assert res.stable.all()
    assert max(sizes) == n
    assert sizes.count(n) == 1  # the plant margin, cached on ss for the Sylvester check and every point


@pytest.mark.parametrize("kind, parameter, grid", [
    ("passive", "c1", [2.0, 2.5, 3.0]),
    ("observer", "r0", [0.05, 0.1, 0.2]),
], ids=["passive-c1", "observer-r0"])
def test_sweep_equals_points_swept_one_at_a_time(default_config, kind, parameter, grid):
    # the points share the plant, x0, and for the observer H and the plant
    # margin; no point may leave a trace in what the next one reads
    cfg = default_config.with_overrides(controller_kind=kind)
    res = analysis.sweep(cfg, parameter, grid)
    alone = [analysis.sweep(cfg, parameter, [value]) for value in grid]
    assert res.stable.all()
    for name in ("margin", "l2sq", "stable"):
        assert np.array_equal(getattr(res, name), np.concatenate([getattr(r, name) for r in alone]))


def test_sweep_records_synthesis_failures():
    # undamped plant: the observer synthesis refuses every grid point, and
    # the sweep must complete with all points flagged
    cfg = RunConfig(gamma=0.0, controller_kind="observer", n_basis=4)
    res = analysis.sweep(cfg, "r0", [0.05, 0.1])
    assert not np.any(res.stable)
    assert np.all(np.isnan(res.margin))
    assert np.all(np.isnan(res.l2sq))


def test_sweep_rejects_empty_grid(default_config):
    with pytest.raises(ValueError):
        analysis.sweep(default_config, "c1", [])
    with pytest.raises(ValueError):
        analysis.sweep(default_config, "c1", [3.0, 2.0])
    with pytest.raises(ValueError):
        analysis.sweep(default_config, "c1", [np.nan, 1.0, 2.0])
    with pytest.raises(ValueError):
        analysis.sweep(default_config, "c1", [1.0, np.inf])
    with pytest.raises(ValueError):
        analysis.sweep(default_config, "c1", [0.0, 1.0])


def test_sweep_rejects_inapplicable_parameter(default_config):
    with pytest.raises(ValueError):
        analysis.sweep(default_config, "q0", [1.0])
    cfg_obs = default_config.with_overrides(controller_kind="observer")
    with pytest.raises(ValueError):
        analysis.sweep(cfg_obs, "c2", [1.0])


def test_sweep_csv_deterministic(tmp_path, default_config):
    grid = [2.0, 4.0]
    a = analysis.sweep(default_config, "c2", grid)
    b = analysis.sweep(default_config, "c2", grid)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()
    header = pa.read_text().splitlines()[0]
    assert header == "param,value,margin,l2sq,stable"
