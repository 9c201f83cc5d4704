"""Configuration parsing, validation, and manifest round-trips."""

from dataclasses import fields, replace

import numpy as np
import pytest

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


def test_every_field_roundtrips_off_default():
    # every field away from its default: a field the file's sections lack would come back changed
    cfg = RunConfig(
        rho=1.5, a=0.8, E=2.0, I=0.7, gamma=3.7, m=1.2, I_m=0.9,
        n_basis=7,
        controller_kind="observer", c1=1.5, c2=3.0, q0=12.5, r0=0.05,
        frequencies=(0.0, 0.5, np.pi),
        yref_const=(0.1, -0.2),
        yref_cos=((1.0, 0.0), (0.0, 2.0)),
        yref_sin=((0.0, 0.25), (0.5, 0.0)),
        wd_const=(1.0, 0.0, -1.0, 2.5),
        wd_cos=((0.0,) * 4, (1.0, 0.0, 0.0, 0.0)),
        wd_sin=((0.0, 0.0, 0.5, 0.0), (0.0,) * 4),
        t_final=5.0, dt=0.01,
        initial_profile="custom",
        left_velocity=(0.1,), right_velocity=(0.0, -0.3),
        left_moment=(2.0,), right_moment=(1.0, -2.0, 1.0),
        hub_velocity=(0.3, -0.1), bd1=(1.0, 1.0), bd2=(0.5,),
        sweep_points=9, sweep_scale="linear", workers=3,
        out_dir="elsewhere", seed=99,
    )
    for f in fields(RunConfig):
        assert getattr(cfg, f.name) != f.default, f.name
    text = config_to_ini(cfg)
    assert parse_config(text) == cfg
    assert sum(" = " in line for line in text.splitlines()) == len(fields(RunConfig))


def test_parse_partial_config():
    cfg = parse_config("[physical]\ngamma = 2.0\n\n[controller]\nkind = observer\n")
    assert cfg.gamma == 2.0
    assert cfg.controller_kind == "observer"
    assert cfg.n_basis == 10  # untouched defaults


def test_reference_signals():
    # (w_d, y_ref) = E v at t = 0, where every (cos, sin) pair of v is (1, 0)
    exo = RunConfig().exosystem()
    assert np.allclose(exo.E @ exo.v0, [0.0, 0.0, 10.0, 15.0, 4.0, 3.5], atol=1e-15)
    # w_d is constant: its only nonzero column is the offset's
    assert np.array_equal(exo.E[:4, 1:], np.zeros((4, 6)))


def test_initial_profile_presets():
    # each preset resolves to project_initial_state's keywords, the five profile keys
    zero = RunConfig(initial_profile="zero").initial_profiles()
    assert zero["left_moment"] is None and zero["hub_velocity"] == (0.0, 0.0)
    bent = RunConfig().initial_profiles()
    assert set(bent) == {"left_moment", "right_moment"}
    xi = np.linspace(0.0, 1.0, 5)
    assert np.allclose(bent["right_moment"](xi), 4.0 * (1.0 - xi) ** 2, atol=1e-15)
    assert np.allclose(bent["left_moment"](-xi), 4.0 * (1.0 - xi) ** 2, atol=1e-15)
    custom = RunConfig(initial_profile="custom", right_moment=(0.0, 1.0)).initial_profiles()
    assert custom["right_moment"] == (0.0, 1.0)
    assert set(custom) == {"left_velocity", "right_velocity", "left_moment", "right_moment", "hub_velocity"}


def test_each_field_declares_its_section_and_key():
    # a key is one field: the file lists (section, key) exactly as the fields declare them, in field order
    written, section = [], None
    for line in config_to_ini(RunConfig()).splitlines():
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            written.append((section, line.split(" = ")[0]))
    declared = [(f.metadata["section"], f.metadata["key"] or f.name) for f in fields(RunConfig)]
    assert written == declared
    assert ("controller", "kind") in written and ("output", "directory") in written


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
    with pytest.raises(ConfigError, match="overflows"):  # both finite, t_final / dt is not
        parse_config("[simulation]\nt_final = 1e300\ndt = 1e-10\n")
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
                        ("frequencies", (0.0, 1.0, 2.0, np.inf)), ("wd_const", (0.0, 0.0, np.nan, 1.0)),
                        ("yref_const", (1.0,)), ("wd_const", (0.0,) * 3), ("hub_velocity", (0.0,))):
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


def test_percent_in_a_value_is_literal():
    # values are not interpolated: '%' loads as written and the manifest reparses to it
    cfg = parse_config("[output]\ndirectory = runs/100%\n")
    assert cfg.out_dir == "runs/100%"
    assert parse_config(config_to_ini(cfg)) == cfg
    assert parse_config("[output]\ndirectory = a%%b\n").out_dir == "a%%b"


def test_output_directory_must_read_back_from_the_manifest():
    # the INI reader strips a value, ends it at a line break and cuts a '#' comment
    # that opens the value or follows whitespace; such a directory is refused
    for out_dir in (" out", "\tout", "out\r", "a #b", "a\t#b", "#x", "x\ny"):
        with pytest.raises(ConfigError, match="output directory"):
            RunConfig(out_dir=out_dir)
    for out_dir in ("a#b", "a;b", "runs/100%"):
        cfg = RunConfig(out_dir=out_dir)
        assert parse_config(config_to_ini(cfg)) == cfg


def test_default_section_is_refused():
    for text in ("[DEFAULT]\nrho = 2\n", "[DEFAULT]\nrho = 2\n[controller]\nc1 = 3\n"):
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            parse_config(text)


@pytest.mark.parametrize("preset", ["zero", "parabolic_moment"])
def test_preset_refuses_profile_keys(preset):
    for name, value in (("left_velocity", (1.0,)), ("right_velocity", (0.0, 2.0)),
                        ("left_moment", (0.5,)), ("right_moment", (0.0, 1.0)),
                        ("hub_velocity", (0.0, 0.3))):
        with pytest.raises(ConfigError, match="initial_profile = custom"):
            RunConfig(initial_profile=preset, **{name: value})
    # empty lists and a zero hub velocity, as in configs/reference.ini, are no profile
    assert RunConfig(initial_profile=preset, hub_velocity=(0.0, 0.0)).left_velocity == ()


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
    obs = replace(cfg, controller_kind="observer", sweep_scale="linear")
    g2 = default_sweep_grid(obs, "r0")
    assert np.allclose(np.diff(g2), np.diff(g2)[0])
    with pytest.raises(ConfigError):
        default_sweep_grid(cfg, "mass")


def test_constant_only_signals():
    # with no positive frequency, empty coefficient tables are the (0, dim) tables
    cfg = parse_config("[signals]\nfrequencies = 0.0\nyref_cos =\nyref_sin =\nwd_cos =\nwd_sin =\n")
    exo = cfg.exosystem()
    assert exo.S.shape == (1, 1) and np.array_equal(exo.E[:, 0], [0.0, 0.0, 10.0, 15.0, 1.0, 2.0])
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
    assert not cfg.exosystem().E[:, 0].any()  # the offsets column


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
