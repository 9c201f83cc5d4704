"""Configuration parsing, validation, and manifest round-trips."""

import numpy as np
import pytest

import flexsat as fx
from flexsat.config import ConfigError, RunConfig, config_to_ini, default_sweep_grid, parse_config


def test_default_config_roundtrip():
    cfg = RunConfig()
    assert parse_config(config_to_ini(cfg)) == cfg


def test_modified_config_roundtrip():
    cfg = RunConfig(
        gamma=3.7,
        n_basis=7,
        controller_kind="observer",
        q0=12.5,
        r0=0.05,
        frequencies=(0.0, 0.5, np.pi),
        yref_const=(0.1, -0.2),
        yref_cos=((1.0, 0.0), (0.0, 2.0)),
        yref_sin=((0.0, 0.0), (0.5, 0.0)),
        wd_cos=((0.0,) * 4, (1.0, 0.0, 0.0, 0.0)),
        wd_sin=((0.0,) * 4, (0.0,) * 4),
        dt=0.01,
        t_final=5.0,
        initial_profile="custom",
        right_moment=(1.0, -2.0, 1.0),
        hub_velocity=(0.3, -0.1),
        bd1=(1.0, 1.0),
        out_dir="elsewhere",
        seed=99,
    )
    assert parse_config(config_to_ini(cfg)) == cfg


def test_parse_partial_config():
    cfg = parse_config("[physical]\ngamma = 2.0\n\n[controller]\nkind = observer\n")
    assert cfg.gamma == 2.0
    assert cfg.controller_kind == "observer"
    assert cfg.n_basis == 10  # untouched defaults


def test_reference_signals():
    cfg = RunConfig()
    y0 = fx.eval_signal(cfg.yref_spec(), 0.0)
    assert np.allclose(y0, [4.0, 3.5], atol=1e-15)
    w0 = fx.eval_signal(cfg.wd_spec(), 12.34)
    assert np.allclose(w0, [0.0, 0.0, 10.0, 15.0], atol=1e-15)


def test_initial_profile_presets():
    zero = RunConfig(initial_profile="zero").initial_profiles()
    assert zero.left_moment is None and zero.hub_velocity == (0.0, 0.0)
    bent = RunConfig().initial_profiles()
    xi = np.linspace(0.0, 1.0, 5)
    assert np.allclose(bent.right_moment(xi), 4.0 * (1.0 - xi) ** 2, atol=1e-15)
    assert np.allclose(bent.left_moment(-xi), 4.0 * (1.0 - xi) ** 2, atol=1e-15)
    custom = RunConfig(initial_profile="custom", right_moment=(0.0, 1.0)).initial_profiles()
    assert custom.right_moment == (0.0, 1.0)


def test_validation_errors():
    with pytest.raises(ConfigError):
        RunConfig(m=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(controller_kind="fuzzy")
    with pytest.raises(ConfigError):
        RunConfig(frequencies=(0.0, 2.0, 1.0))
    with pytest.raises(ConfigError):
        RunConfig(frequencies=(0.0, 1.0, 1.0))
    with pytest.raises(ConfigError):
        RunConfig(yref_cos=((1.0, 0.0),))  # wrong row count
    with pytest.raises(ConfigError):
        RunConfig(t_final=0.001, dt=0.01)
    with pytest.raises(ConfigError):
        RunConfig(c1=-2.0)
    with pytest.raises(ConfigError):
        RunConfig(initial_profile="unknown_preset")
    with pytest.raises(ConfigError):
        RunConfig(sweep_scale="cubic")
    for name, value in (("t_final", np.inf), ("gamma", np.nan), ("dt", np.nan),
                        ("frequencies", (0.0, 1.0, 2.0, np.inf)), ("wd_const", (0.0, 0.0, np.nan, 1.0))):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: value})


def test_parse_rejects_unknown_structure():
    with pytest.raises(ConfigError):
        parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[physical]\nwarp = 9\n")
    with pytest.raises(ConfigError):
        parse_config("[physical]\nrho = fast\n")
    with pytest.raises(ConfigError):
        parse_config("no sections at all")


def test_gamma_zero_is_parseable():
    cfg = parse_config("[physical]\ngamma = 0.0\n")
    assert cfg.gamma == 0.0
    assert cfg.physical().gamma == 0.0


def test_reference_config_file_matches_defaults():
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference.ini"
    assert parse_config(path.read_text()) == RunConfig()
    assert config_to_ini(RunConfig()).encode() == path.read_bytes()


def test_default_sweep_grids():
    cfg = RunConfig(sweep_points=5)
    g = default_sweep_grid(cfg, "c1")
    assert g.size == 5 and g[0] == pytest.approx(0.5) and g[-1] == pytest.approx(10.0)
    g2 = default_sweep_grid(cfg.with_overrides(sweep_scale="linear"), "r0")
    assert np.allclose(np.diff(g2), np.diff(g2)[0])
    with pytest.raises(ConfigError):
        default_sweep_grid(cfg, "mass")
