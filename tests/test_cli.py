"""Command-line workflows: exit codes, file outputs, determinism."""

import numpy as np
import pytest

from flexsat import cli
from flexsat.config import RunConfig, config_to_ini, load_config


def write_config(tmp_path, cfg=None, **overrides):
    cfg = (cfg or RunConfig()).with_overrides(**overrides) if overrides else (cfg or RunConfig())
    path = tmp_path / "run.ini"
    path.write_text(config_to_ini(cfg))
    return path, cfg


def test_validate_default_passes(tmp_path, capsys):
    path, _ = write_config(tmp_path, n_basis=8)
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "v"), "validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fail" not in out
    assert "transfer_oracle" in out


def test_validate_undamped_warns_but_passes(tmp_path, capsys):
    path, _ = write_config(tmp_path, gamma=0.0, n_basis=6)
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "v"), "validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "warn" in out
    assert "fail" not in out


@pytest.mark.parametrize("kind", ["passive", "observer"])
def test_validate_solves_sylvester_and_care_once(tmp_path, monkeypatch, capsys, kind):
    from flexsat import analysis, synthesis

    counts = {"solve_sylvester_H": 0, "care_solve": 0}
    for name in counts:
        solver = getattr(synthesis, name)

        def counting(*args, _solver=solver, _name=name):
            counts[_name] += 1
            return _solver(*args)

        for module in (synthesis, analysis, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    path, _ = write_config(tmp_path, controller_kind=kind)
    rc = cli.main(["--config", str(path), "validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sylvester_residual" in out and "care_residual" in out
    assert counts == {"solve_sylvester_H": 1, "care_solve": 1}


def test_validate_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.ini"
    for text, command in (("[physical]\nm = -1.0\n", "validate"),
                          ("[simulation]\nt_final = inf\n", "simulate"),
                          ("[physical]\ngamma = nan\n", "validate"),
                          ("[simulation]\ndt = nan\n", "validate")):
        path.write_text(text)
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"), command])
        assert rc == 2, text


def test_undamped_model_failures_exit_1(tmp_path):
    # the undamped plant is a valid config but leaves the observer and S(0) undefined
    path, _ = write_config(tmp_path, gamma=0.0, n_basis=6, controller_kind="observer")
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "x"), "simulate"]) == 1
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "x"), "analyze"]) == 1


def test_missing_config_file_exits_2(tmp_path):
    rc = cli.main(["--config", str(tmp_path / "nope.ini"), "validate"])
    assert rc == 2


def test_simulate_writes_outputs(tmp_path):
    path, cfg = write_config(tmp_path)
    out = tmp_path / "run"
    rc = cli.main(["--config", str(path), "--out", str(out), "simulate"])
    assert rc == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,y1,y2,e1,e2,u1,u2,energy"
    assert len(trace) == 3002  # 15 / 0.005 + 1 samples plus header
    header, row = (out / "summary.csv").read_text().splitlines()
    assert header == "margin,l2sq,decay_rate"
    margin, l2sq, decay = map(float, row.split(","))
    assert margin > 0.0 and l2sq > 0.0 and decay < 0.0


def test_simulate_observer_configuration(tmp_path):
    path, _ = write_config(tmp_path, controller_kind="observer")
    out = tmp_path / "obs"
    rc = cli.main(["--config", str(path), "--out", str(out), "simulate"])
    assert rc == 0
    _, row = (out / "summary.csv").read_text().splitlines()
    margin, _, decay = map(float, row.split(","))
    assert margin > 0.0 and decay < 0.0


def test_manifest_roundtrip(tmp_path):
    path, cfg = write_config(tmp_path, c1=3.25, seed=17)
    out = tmp_path / "run"
    rc = cli.main(["--config", str(path), "--out", str(out), "simulate"])
    assert rc == 0
    assert load_config(out / "manifest.txt") == cfg


def test_simulate_perturbed_plant(tmp_path):
    path, _ = write_config(tmp_path)
    out = tmp_path / "pert"
    rc = cli.main([
        "--config", str(path), "--out", str(out),
        "simulate", "--perturb", "gamma=0.9,m=1.1",
    ])
    assert rc == 0
    data = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    t, e = data[:, 0], data[:, 3:5]
    nrm = np.linalg.norm(e, axis=1)
    assert nrm[t >= 12.0].max() < nrm[t <= 1.0].max()  # still converging


def test_simulate_bad_perturbation_exits_2(tmp_path):
    path, _ = write_config(tmp_path)
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"),
                   "simulate", "--perturb", "warp=0.5"])
    assert rc == 2
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"),
                   "simulate", "--perturb", "gammafast"])
    assert rc == 2


def test_simulate_deterministic(tmp_path):
    path, _ = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["--config", str(path), "--out", str(out1), "simulate"]) == 0
    assert cli.main(["--config", str(path), "--out", str(out2), "simulate"]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_sweep_writes_csv(tmp_path):
    path, _ = write_config(tmp_path)
    out = tmp_path / "sw"
    rc = cli.main([
        "--config", str(path), "--out", str(out),
        "sweep", "--param", "c2", "--grid", "2:6:3",
    ])
    assert rc == 0
    lines = (out / "sweep_c2.csv").read_text().splitlines()
    assert lines[0] == "param,value,margin,l2sq,stable"
    assert len(lines) == 4
    assert lines[1].startswith("c2,2,")


def test_sweep_log_grid(tmp_path):
    path, _ = write_config(tmp_path)
    out = tmp_path / "swlog"
    rc = cli.main([
        "--config", str(path), "--out", str(out),
        "sweep", "--param", "c1", "--grid", "1:4:3:log", "--workers", "2",
    ])
    assert rc == 0
    lines = (out / "sweep_c1.csv").read_text().splitlines()
    assert len(lines) == 4
    assert float(lines[2].split(",")[1]) == pytest.approx(2.0, rel=1e-12)


def test_sweep_empty_grid_exits_2(tmp_path):
    path, _ = write_config(tmp_path)
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"),
                   "sweep", "--param", "c1", "--grid", "1:2:0"])
    assert rc == 2
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"),
                   "sweep", "--param", "c1", "--grid", "nan:1:3"])
    assert rc == 2


def test_sweep_inapplicable_parameter_exits_2(tmp_path):
    path, _ = write_config(tmp_path)  # passive controller
    for args in (["--param", "q0", "--grid", "1:2:2"], ["--param", "q0"], ["--param", "zz"],
                 ["--param", "c1", "--grid", "1:2:2", "--workers", "-3"]):
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"), "sweep", *args])
        assert rc == 2, args


def test_analyze_writes_reports(tmp_path):
    path, _ = write_config(tmp_path, n_basis=8)
    out = tmp_path / "an"
    rc = cli.main(["--config", str(path), "--out", str(out), "analyze"])
    assert rc == 0
    rows = (out / "transfer_errors.csv").read_text().splitlines()
    assert rows[0] == "N,max_rel_error"
    assert [int(r.split(",")[0]) for r in rows[1:]] == [6, 8, 12, 16]
    scan = np.loadtxt(out / "resolvent_scan.csv", delimiter=",", skiprows=1)
    assert scan.shape == (401, 2)
    assert np.all(scan[:, 1] > 0.0)


def test_unknown_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_defaults_without_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["--out", str(tmp_path / "d"), "analyze"])
    assert rc == 0
