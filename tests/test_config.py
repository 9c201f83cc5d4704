"""Configuration parsing, validation, and manifest round-trips."""

import numpy as np
import pytest

import flexsat as fx
from flexsat import analysis
from flexsat.config import (
    SWEEP_RANGES,
    ConfigError,
    RunConfig,
    config_to_ini,
    default_sweep_grid,
    parse_config,
)


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
    with pytest.raises(ConfigError, match="yref"):
        RunConfig(yref_cos=((3.0, 0.0), (0.0,), (0.0, 0.0)))  # ragged row
    with pytest.raises(ConfigError, match="yref"):
        RunConfig(yref_sin=((0.0, 0.0, 0.0),) * 3)  # wrong column count
    with pytest.raises(ConfigError, match="wd"):
        RunConfig(wd_cos=((0.0,) * 4,) * 2)  # wrong row count
    with pytest.raises(ConfigError, match="frequencies"):
        RunConfig(frequencies=(-1.0, 0.0, 1.0, 2.0))
    with pytest.raises(ConfigError, match="frequency list"):
        RunConfig(frequencies=())
    with pytest.raises(ConfigError):
        RunConfig(t_final=0.001, dt=0.01)
    for t_final, dt in ((1.0, 0.4), (0.35, 0.1)):  # the grid would stop short of t_final
        with pytest.raises(ConfigError, match="whole multiple"):
            RunConfig(t_final=t_final, dt=dt)
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError):
        RunConfig(c1=-2.0)
    with pytest.raises(ConfigError):
        RunConfig(initial_profile="unknown_preset")
    with pytest.raises(ConfigError):
        RunConfig(sweep_scale="cubic")
    for hub in ((0.5,), (0.5, 0.1, 9.0)):
        with pytest.raises(ConfigError, match="hub_velocity"):
            RunConfig(initial_profile="custom", hub_velocity=hub)
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
    obs = cfg.with_overrides(controller_kind="observer", sweep_scale="linear")
    g2 = default_sweep_grid(obs, "r0")
    assert np.allclose(np.diff(g2), np.diff(g2)[0])
    with pytest.raises(ConfigError):
        default_sweep_grid(cfg, "mass")


def test_constant_only_signals():
    # with no positive frequency, empty coefficient tables are the (0, dim) tables
    cfg = parse_config("[signals]\nfrequencies = 0.0\nyref_cos =\nyref_sin =\nwd_cos =\nwd_sin =\n")
    assert cfg.yref_spec().freqs == () and cfg.yref_spec().const == (1.0, 2.0)
    assert np.allclose(fx.eval_signal(cfg.wd_spec(), 3.0), [0.0, 0.0, 10.0, 15.0], atol=0.0)
    assert parse_config(config_to_ini(cfg)) == cfg


def test_constant_offset_needs_zero_frequency():
    # the internal model tracks a constant only when 0 is among the frequencies
    for name, const in (("yref_const", (1.0, 0.0)), ("wd_const", (0.0, 0.0, 0.0, -2.0))):
        zeroed = dict(yref_const=(0.0, 0.0), wd_const=(0.0,) * 4)
        zeroed[name] = const
        with pytest.raises(ConfigError, match="needs 0 in frequencies"):
            RunConfig(frequencies=(1.0, 2.0, 5.0), **zeroed)
    with pytest.raises(ConfigError, match="needs 0 in frequencies"):
        parse_config("[signals]\nfrequencies = 1.0 2.0 5.0\n")
    # zero offsets need no zero frequency
    cfg = RunConfig(frequencies=(1.0, 2.0, 5.0), yref_const=(0.0, 0.0), wd_const=(0.0,) * 4)
    assert cfg.yref_spec().const == (0.0, 0.0)


def test_c1_sweep_needs_a_positive_frequency():
    tables = dict.fromkeys(("yref_cos", "yref_sin", "wd_cos", "wd_sin"), ())
    cfg = RunConfig(frequencies=(0.0,), sweep_points=3, **tables)
    with pytest.raises(ConfigError, match="c1"):
        default_sweep_grid(cfg, "c1")
    with pytest.raises(ConfigError, match="c1"):
        analysis.sweep(cfg, "c1", [1.0, 2.0])
    assert default_sweep_grid(cfg, "c2").size == 3


@pytest.mark.parametrize("kind", sorted(SWEEP_RANGES))
def test_sweep_gains_follow_controller_kind(kind):
    cfg = RunConfig(controller_kind=kind, sweep_points=3)
    for gain, (lo, hi) in SWEEP_RANGES[kind].items():
        grid = default_sweep_grid(cfg, gain)
        assert grid[0] == pytest.approx(lo) and grid[-1] == pytest.approx(hi)
    others = [g for k, ranges in SWEEP_RANGES.items() if k != kind for g in ranges]
    assert others
    for gain in others:
        with pytest.raises(ConfigError, match=f"{kind} controller"):
            default_sweep_grid(cfg, gain)
        with pytest.raises(ConfigError, match=f"{kind} controller"):
            analysis.sweep(cfg, gain, [1.0])
