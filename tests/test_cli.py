"""Command-line workflows: exit codes, file outputs, determinism."""

import pathlib
from dataclasses import replace

import numpy as np
import pytest

from flexsat import analysis, cli
from flexsat.config import SWEEP_RANGES, RunConfig, config_to_ini, default_sweep_grid, load_config

REFERENCE_INI = pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference.ini"


def write_config(tmp_path, cfg=None, **overrides):
    cfg = replace(cfg or RunConfig(), **overrides)
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


@pytest.mark.parametrize("name, message", [("SYLVESTER_RESIDUAL_RTOL", "Sylvester residual"),
                                           ("CARE_RESIDUAL_RTOL", "Riccati residual")])
def test_validate_residual_failure_exits_1(monkeypatch, capsys, name, message):
    # the solver's own bound is the only residual check; validate reports its failure
    from flexsat import synthesis

    monkeypatch.setattr(synthesis, name, 1e-30)
    assert cli.main(["--config", str(REFERENCE_INI), "validate"]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    # the rows computed before the observer build were printed as they ran
    printed = [line.split()[1] for line in captured.out.splitlines()]
    assert printed == ["collocation_HB_eq_CT", "dissipation_structure", "dissipativity",
                       "plant_margin", "transfer_oracle", "s_matrix_identity"]


def test_validate_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.ini"
    for text, command in (("[physical]\nm = -1.0\n", "validate"),
                          ("[simulation]\nt_final = inf\n", "simulate"),
                          ("[physical]\ngamma = nan\n", "validate"),
                          ("[simulation]\ndt = nan\n", "validate")):
        path.write_text(text)
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"), command])
        assert rc == 2, text
    assert not (tmp_path / "x").exists()


def test_undamped_model_failures_exit_1(tmp_path):
    # the undamped plant is a valid config but leaves the observer and S(0) undefined
    path, _ = write_config(tmp_path, gamma=0.0, n_basis=6, controller_kind="observer")
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "x"), "simulate"]) == 1
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "x"), "analyze"]) == 1


def test_linear_algebra_failure_exits_1(tmp_path, monkeypatch, capsys):
    # np.linalg.LinAlgError subclasses ValueError but is a model failure, not a config error
    from flexsat import discretize

    def diverge(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(discretize, "stability_margin", diverge)
    path, _ = write_config(tmp_path, n_basis=6)
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"), "analyze"])
    assert rc == 1
    assert "runtime failure: Eigenvalues did not converge" in capsys.readouterr().err


def test_refused_config_prints_nothing(tmp_path, capsys):
    # refused on load: a negative seed used to fail validate after five check
    # rows, and a t_final that is no whole multiple of dt ended the run early
    path = tmp_path / "bad.ini"
    for text, command, message in (("[output]\nseed = -1\n", "validate", "seed"),
                                   ("[simulation]\nt_final = 1.0\ndt = 0.4\n", "simulate", "end at 0.8"),
                                   ("[simulation]\nt_final = 0.35\ndt = 0.1\n", "simulate", "whole multiple")):
        path.write_text(text)
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"), command])
        captured = capsys.readouterr()
        assert rc == 2, text
        assert captured.out == "" and message in captured.err, text
    assert not (tmp_path / "x").exists()


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


def test_observer_margin_from_separation_structure(tmp_path, monkeypatch):
    # unperturbed simulate and validate take the observer loop's margin as
    # min(plant, servo): on the reference it agrees with the full eig of Ae,
    # and at gamma = 0.1, where the plant binds, it is the plant margin itself;
    # on a perturbed plant the structure is lost and the margin is the eig of Ae
    import functools

    import flexsat as fx
    from flexsat import analysis

    margins = []
    compute = fx.ClosedLoopSystem.margin.func

    def recording(cl):
        margins.append(compute(cl))
        return margins[-1]

    recorded = functools.cached_property(recording)
    recorded.__set_name__(fx.ClosedLoopSystem, "margin")
    monkeypatch.setattr(fx.ClosedLoopSystem, "margin", recorded)
    for gamma in (5.0, 0.1):
        path, cfg = write_config(tmp_path, controller_kind="observer", gamma=gamma)
        out = tmp_path / f"gamma{gamma}"
        assert cli.main(["--config", str(path), "--out", str(out), "simulate"]) == 0
        assert cli.main(["--config", str(path), "validate"]) == 0
        margin = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)[0]
        assert margins[-2:] == [margin, margin]
        ss = analysis.plant_from_config(cfg)
        if gamma == 0.1:
            assert margin == analysis.stability_margin(ss.A)
        else:
            cl = fx.assemble_closed_loop(ss, analysis.controller_from_config(cfg, ss))
            assert margin == pytest.approx(analysis.stability_margin(cl.Ae), rel=1e-11)

    path, cfg = write_config(tmp_path, controller_kind="observer")
    out = tmp_path / "perturbed"
    assert cli.main(["--config", str(path), "--out", str(out),
                     "simulate", "--perturb", "gamma=0.9,m=1.1"]) == 0
    ss = analysis.plant_from_config(cfg)
    ss_run = fx.assemble(cfg.physical().scaled(gamma=0.9, m=1.1), cfg.n_basis, cfg.bd_profiles())
    cl = fx.assemble_closed_loop(ss_run, analysis.controller_from_config(cfg, ss))
    assert margins[-1] == analysis.stability_margin(cl.Ae)
    assert np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)[0] == margins[-1]


def test_each_margin_takes_one_eig(tmp_path, monkeypatch, capsys):
    # a plant's and a loop's margins are computed once each, and an observer
    # loop around its design plant takes none of its own: observer validate and
    # simulate take the plant's, the Riccati check's and the servo's, and
    # passive simulate only the loop's
    from flexsat import analysis, discretize, synthesis

    sizes = []
    margin = discretize.stability_margin

    def counting(A):
        sizes.append(A.shape[0])
        return margin(A)

    for module in (discretize, synthesis, analysis):
        monkeypatch.setattr(module, "stability_margin", counting)
    observer, cfg = write_config(tmp_path, controller_kind="observer")
    n = analysis.plant_from_config(cfg).n
    for path, command, eigs in ((observer, "validate", 3), (REFERENCE_INI, "simulate", 1),
                                (observer, "simulate", 3)):
        sizes.clear()
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "x"), command]) == 0
        assert len(sizes) == eigs, (path, command, sizes)
        if path == observer:
            assert max(sizes) == n
    capsys.readouterr()


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
    for factors in ("gamma=nan", "gamma=inf", "m=inf", "rho_a=2", "EI=2", "scaled=2",
                    "gamma=0.5,gamma=2", "m=2, m =2", "", ","):
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"),
                       "simulate", "--perturb", factors])
        assert rc == 2, factors
    assert not (tmp_path / "x").exists()


def test_unusable_output_path_exits_2(tmp_path, monkeypatch, capsys):
    # an output path that cannot be made a directory is a usage error, refused before any model is built
    assembled = []
    for module in (analysis, cli):
        monkeypatch.setattr(module, "assemble", lambda *a, **k: assembled.append(a))
    blocker = tmp_path / "file"
    blocker.write_text("")
    short, _ = write_config(tmp_path, t_final=0.5)
    no_dir = tmp_path / "no_dir.ini"
    no_dir.write_text(short.read_text().replace("directory = out", "directory = "))
    before = sorted(tmp_path.rglob("*"))
    for command in (["analyze"], ["simulate"], ["sweep", "--param", "c1"]):
        for config, out in ((short, [str(blocker)]), (short, [str(blocker / "sub")]),
                            (short, [str(blocker / "sub" / "deeper")]), (short, [""]), (no_dir, [])):
            rc = cli.main(["--config", str(config), *(["--out", *out] if out else []), *command])
            err = capsys.readouterr().err
            assert rc == 2, (command, config, out)
            assert err.startswith("error: ") and err.count("\n") == 1, err
    assert assembled == []
    assert blocker.read_text() == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_one_step_simulation(tmp_path):
    # t_final = dt: the decay fit's window takes both samples, under warnings as errors
    path, cfg = write_config(tmp_path, t_final=0.005)
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "simulate"]) == 0
    trace = np.loadtxt(tmp_path / "o" / "trace.csv", delimiter=",", skiprows=1)
    nrm = np.linalg.norm(trace[:, 3:5], axis=1)
    slope = (np.log(nrm[1]) - np.log(nrm[0])) / cfg.dt
    decay = np.loadtxt(tmp_path / "o" / "summary.csv", delimiter=",", skiprows=1)[2]
    assert decay == pytest.approx(slope, rel=1e-9)


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
        "sweep", "--param", "c1", "--grid", "1:4:3:log",
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
    for grid in ("nan:1:3", "inf:1:3", "1:inf:3:log", "0:1:3", "1:-1:5:log", "1:0:5:log", ""):
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"),
                       "sweep", "--param", "c1", "--grid", grid])
        assert rc == 2, grid
    assert not (tmp_path / "x").exists()


def test_grid_spec_is_judged_by_runconfig(tmp_path, capsys):
    cfg = RunConfig()
    assert np.array_equal(default_sweep_grid(cfg, "c1", "0.5:10:25:log"), default_sweep_grid(cfg, "c1"))
    assert np.array_equal(default_sweep_grid(cfg, "c2", "2:6:3"), np.linspace(2.0, 6.0, 3))
    assert np.array_equal(default_sweep_grid(cfg, "c2", "1:1:1"), [1.0])  # one point needs no order
    path, _ = write_config(tmp_path)
    out = str(tmp_path / "x")
    for grid, reason in (("1:0:5:log", "c1 must be positive"), ("nan:1:3", "c1 must be finite"),
                         ("1:2:0", "sweep_points must be >= 1"), ("1:2:3:lin", "lo:hi:n:log"),
                         ("a:2:3", "'a'"), ("", "lo:hi:n"), ("2:1:3", "lo must be below hi"),
                         ("1:1:2", "lo must be below hi"), ("5:1:3:log", "lo must be below hi")):
        assert cli.main(["--config", str(path), "--out", out, "sweep", "--param", "c1",
                         "--grid", grid]) == 2, grid
        err = capsys.readouterr().err
        assert err.startswith(f"config error: grid {grid!r}: ") and reason in err, err
    # the gain is judged before the grid text
    assert cli.main(["--config", str(path), "--out", out, "sweep", "--param", "q0", "--grid", ""]) == 2
    assert "passive controller" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_config_text_rules_through_cli(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(config_to_ini(RunConfig(out_dir="runs/100%")))
    assert cli.main(["--config", str(path), "validate"]) == 0
    for text in ("[DEFAULT]\nrho = 2\n", "[DEFAULT]\nrho = 2\n[controller]\nc1 = 3\n",
                 "[simulation]\ninitial_profile = zero\nleft_velocity = 1.0\n",
                 "[simulation]\nhub_velocity = 0.0 0.5\n"):
        path.write_text(text)
        for command in ("validate", "simulate"):
            assert cli.main(["--config", str(path), "--out", str(tmp_path / "x"), command]) == 2, text
    assert not (tmp_path / "x").exists()


def test_sweep_inapplicable_parameter_exits_2(tmp_path):
    path, _ = write_config(tmp_path)  # passive controller
    for args in (["--param", "q0", "--grid", "1:2:2"], ["--param", "q0"], ["--param", "zz"]):
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"), "sweep", *args])
        assert rc == 2, args
    # [sweep] workers is unused but still validated: a negative count is refused
    text = path.read_text()
    assert "\nworkers = 0\n" in text
    path.write_text(text.replace("\nworkers = 0\n", "\nworkers = -1\n"))
    rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"),
                   "sweep", "--param", "c1", "--grid", "1:2:2"])
    assert rc == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("kind", sorted(SWEEP_RANGES))
def test_sweep_gain_of_other_kind_exits_2(tmp_path, capsys, kind):
    path, _ = write_config(tmp_path, controller_kind=kind)
    others = [g for k, ranges in SWEEP_RANGES.items() if k != kind for g in ranges]
    for gain in others:
        for grid in (["--grid", "1:2:2"], []):
            rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"),
                           "sweep", "--param", gain, *grid])
            assert rc == 2, (gain, grid)
            assert f"{kind} controller" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_help_lists_gains_per_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    for kind, ranges in SWEEP_RANGES.items():
        assert f"{', '.join(ranges)} ({kind})" in help_text


def test_constant_only_config_runs_every_command(tmp_path):
    # frequencies = 0.0 tracks constants only, and its coefficient tables are empty
    tables = dict.fromkeys(("yref_cos", "yref_sin", "wd_cos", "wd_sin"), ())
    path, _ = write_config(tmp_path, frequencies=(0.0,), **tables)
    assert "\nyref_cos = \n" in path.read_text()
    out = tmp_path / "const"
    for command in (["validate"], ["simulate"], ["analyze"], ["sweep", "--param", "c2", "--grid", "1:2:2"]):
        assert cli.main(["--config", str(path), "--out", str(out), *command]) == 0, command
    margin, l2sq, _ = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)
    assert margin == pytest.approx(0.071612, abs=1e-6) and l2sq == pytest.approx(5.420112, abs=1e-6)
    rows = (out / "sweep_c2.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",1") for row in rows)

    path, _ = write_config(tmp_path, frequencies=(0.0,), controller_kind="observer", **tables)
    assert cli.main(["--config", str(path), "--out", str(out), "simulate"]) == 0
    margin = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)[0]
    assert margin == pytest.approx(1.0, abs=1e-6)


def test_sweep_c1_without_positive_frequency_exits_2(tmp_path, capsys):
    # c1 scales only the rotation blocks, so on a constant-only loop every row would be equal
    tables = dict.fromkeys(("yref_cos", "yref_sin", "wd_cos", "wd_sin"), ())
    path, _ = write_config(tmp_path, frequencies=(0.0,), **tables)
    for grid in (["--grid", "1:2:2"], []):
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "x"), "sweep", "--param", "c1", *grid])
        assert rc == 2, grid
        assert "c1" in capsys.readouterr().err
    assert not (tmp_path / "x" / "sweep_c1.csv").exists()


def test_constant_offset_without_zero_frequency_exits_2(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    path.write_text(path.read_text().replace("frequencies = 0.0 1.0 2.0 5.0", "frequencies = 1.0 2.0 5.0"))
    for command in ("validate", "simulate"):
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "x"), command]) == 2, command
        assert "needs 0 in frequencies" in capsys.readouterr().err


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
