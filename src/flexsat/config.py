"""Run configuration: a single INI file with nested sections.

Each key is one RunConfig field.  The field's annotation sets how the key is
read and written: float and int as numbers, str as text, Vec as
whitespace-separated numbers, and Mat as a coefficient table whose rows are
separated by ';', one row per positive frequency and one column per channel.
The field's entry in _SECTIONS sets the key's section, its name in the file
and its place in the written file.  Initial panel profiles and disturbance
shapes are polynomial coefficient lists (ascending powers of xi) or named
presets.  Values are literal ('%' included); [DEFAULT] is an unknown section.
The resolved configuration is written back out (the run manifest) and
reparses to an identical value.  default_sweep_grid builds every sweep grid.
"""

import configparser
import io
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .discretize import InitialProfiles
from .params import PhysicalParams
from .simulate import SignalSpec, grid_steps
from .synthesis import internal_model


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


INITIAL_PROFILE_PRESETS = ("parabolic_moment", "zero", "custom")

# the gains each controller kind can sweep, with their default ranges (lo, hi)
SWEEP_RANGES = {
    "passive": {"c1": (0.5, 10.0), "c2": (0.5, 10.0)},
    "observer": {"q0": (1.0, 100.0), "r0": (0.01, 1.0)},
}
CONTROLLER_KINDS = tuple(SWEEP_RANGES)

Vec = tuple[float, ...]  # a whitespace-separated list of numbers in the file
Mat = tuple[Vec, ...]  # rows separated by ';'


def _numbers(value):
    """Every number in a field value, descending into nested tuples."""
    if isinstance(value, tuple):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)):
        yield value


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (value-typed, equality-comparable)."""

    rho: float = 1.0
    a: float = 1.0
    E: float = 1.0
    I: float = 1.0
    gamma: float = 5.0
    m: float = 1.0
    I_m: float = 1.0

    n_basis: int = 10

    controller_kind: str = "passive"
    c1: float = 2.5
    c2: float = 4.0
    q0: float = 10.0
    r0: float = 0.1

    frequencies: Vec = (0.0, 1.0, 2.0, 5.0)
    yref_const: Vec = (1.0, 2.0)
    yref_cos: Mat = ((3.0, 0.0), (0.0, 1.5), (0.0, 0.0))
    yref_sin: Mat = ((0.0, 0.0), (0.0, 0.0), (0.0, -1.0))
    wd_const: Vec = (0.0, 0.0, 10.0, 15.0)
    wd_cos: Mat = ((0.0,) * 4, (0.0,) * 4, (0.0,) * 4)
    wd_sin: Mat = ((0.0,) * 4, (0.0,) * 4, (0.0,) * 4)

    t_final: float = 15.0
    dt: float = 0.005
    initial_profile: str = "parabolic_moment"
    left_velocity: Vec = ()
    right_velocity: Vec = ()
    left_moment: Vec = ()
    right_moment: Vec = ()
    hub_velocity: Vec = (0.0, 0.0)
    bd1: Vec = (1.0,)
    bd2: Vec = (1.0,)

    sweep_points: int = 25
    sweep_scale: str = "log"
    workers: int = 0  # validated and echoed in the manifest; sweeps run serially and ignore it

    out_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if not all(math.isfinite(v) for v in _numbers(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
        try:
            self.physical()
            internal_model(self.frequencies)
            grid_steps(self.t_final, self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.n_basis < 1:
            raise ConfigError(f"n_basis must be >= 1, got {self.n_basis}")
        if self.controller_kind not in CONTROLLER_KINDS:
            raise ConfigError(f"controller kind must be one of {CONTROLLER_KINDS}")
        for name in ("c1", "c2", "q0", "r0"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if len(self.yref_const) != 2 or len(self.wd_const) != 4 or len(self.hub_velocity) != 2:
            raise ConfigError("yref offset needs 2 entries, wd offset 4 and hub_velocity 2")
        if 0.0 not in self.frequencies and any(self.yref_const + self.wd_const):
            raise ConfigError("a nonzero yref_const or wd_const needs 0 in frequencies to be tracked")
        for name, spec in (("yref", self.yref_spec), ("wd", self.wd_spec)):
            try:
                spec()
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        if self.initial_profile not in INITIAL_PROFILE_PRESETS:
            raise ConfigError(f"initial profile must be one of {INITIAL_PROFILE_PRESETS}")
        profiles = (self.left_velocity, self.right_velocity, self.left_moment, self.right_moment)
        if self.initial_profile != "custom" and (any(profiles) or any(self.hub_velocity)):
            raise ConfigError("profile coefficients and hub_velocity need initial_profile = custom")
        if self.sweep_scale not in ("log", "linear"):
            raise ConfigError("sweep scale must be 'log' or 'linear'")
        if self.sweep_points < 1:
            raise ConfigError("sweep_points must be >= 1")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    # --- resolved objects ---

    def physical(self) -> PhysicalParams:
        return PhysicalParams(
            rho=self.rho, a=self.a, E=self.E, I=self.I,
            gamma=self.gamma, m=self.m, I_m=self.I_m,
        )

    def positive_frequencies(self) -> tuple:
        return tuple(f for f in self.frequencies if f > 0.0)

    def yref_spec(self) -> SignalSpec:
        return SignalSpec.create(
            self.positive_frequencies(), self.yref_const, self.yref_cos, self.yref_sin
        )

    def wd_spec(self) -> SignalSpec:
        return SignalSpec.create(
            self.positive_frequencies(), self.wd_const, self.wd_cos, self.wd_sin
        )

    def initial_profiles(self) -> InitialProfiles:
        if self.initial_profile == "zero":
            return InitialProfiles()
        if self.initial_profile == "parabolic_moment":
            # panels at rest with parabolic initial bending moments 4(1 +- xi)^2
            return InitialProfiles(
                left_moment=lambda x: 4.0 * (1.0 + x) ** 2,
                right_moment=lambda x: 4.0 * (1.0 - x) ** 2,
            )
        return InitialProfiles(  # an empty coefficient list is a zero profile
            left_velocity=self.left_velocity or None,
            right_velocity=self.right_velocity or None,
            left_moment=self.left_moment or None,
            right_moment=self.right_moment or None,
            hub_velocity=tuple(self.hub_velocity),
        )

    def bd_profiles(self) -> tuple:
        return (tuple(self.bd1), tuple(self.bd2))


def _fmt_vec(vec) -> str:
    return " ".join(repr(float(v)) for v in vec)  # repr: the shortest string that parses back


def _fmt_mat(mat) -> str:
    return " ; ".join(_fmt_vec(row) for row in mat)


def _parse_vec(text: str) -> Vec:
    return tuple(float(tok) for tok in text.split())


def _parse_mat(text: str) -> Mat:
    return tuple(_parse_vec(row) for row in text.split(";")) if text.strip() else ()


# a value is read from and written to the file by its field's annotation in
# _TYPES (the evaluated annotation: this module must not postpone annotations);
# any annotation not listed here is called on the text and written with str
_TYPES = {f.name: f.type for f in fields(RunConfig)}
_READERS = {str: str.strip, Vec: _parse_vec, Mat: _parse_mat}
_WRITERS = {float: repr, Vec: _fmt_vec, Mat: _fmt_mat}


def _keys(*entries) -> dict:
    """{key: RunConfig field} in file order; an entry is 'key=field' where the names differ."""
    return dict(e.split("=") if "=" in e else (e, e) for e in entries)


# every key of the file, section by section, in the order config_to_ini writes them
_SECTIONS = {
    "physical": _keys("rho", "a", "E", "I", "gamma", "m", "I_m"),
    "discretization": _keys("n_basis"),
    "controller": _keys("kind=controller_kind", "c1", "c2", "q0", "r0"),
    "signals": _keys("frequencies", "yref_const", "yref_cos", "yref_sin",
                     "wd_const", "wd_cos", "wd_sin"),
    "simulation": _keys("t_final", "dt", "initial_profile", "left_velocity", "right_velocity",
                        "left_moment", "right_moment", "hub_velocity", "bd1", "bd2"),
    "sweep": _keys("points=sweep_points", "scale=sweep_scale", "workers"),
    "output": _keys("directory=out_dir", "seed"),
}


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; missing keys keep their defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None,
                                       default_section="")
    parser.optionxform = str  # keys are case sensitive (E vs e)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse config: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name = _SECTIONS[section][key]
            try:
                values[name] = _READERS.get(_TYPES[name], _TYPES[name])(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc


def config_to_ini(cfg: RunConfig) -> str:
    """Serialize a resolved configuration; parsing the result reproduces it."""
    buf = io.StringIO()
    for section, keys in _SECTIONS.items():
        buf.write(f"[{section}]\n")
        for key, name in keys.items():
            buf.write(f"{key} = {_WRITERS.get(_TYPES[name], str)(getattr(cfg, name))}\n")
        buf.write("\n")
    return buf.getvalue()


def write_manifest(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_to_ini(cfg))


def sweep_range(cfg: RunConfig, parameter: str) -> tuple:
    """Default (lo, hi) range of a gain that changes cfg's controller."""
    ranges = SWEEP_RANGES[cfg.controller_kind]
    if parameter not in ranges:
        raise ConfigError(f"parameter {parameter!r} does not apply to the {cfg.controller_kind} "
                          f"controller (choose from {', '.join(ranges)})")
    if parameter == "c1" and not cfg.positive_frequencies():  # c1 scales only rotation blocks
        raise ConfigError("c1 has no effect without a positive frequency: every row would be equal")
    return ranges[parameter]


def default_sweep_grid(cfg: RunConfig, parameter: str, spec: str | None = None) -> np.ndarray:
    """cfg.sweep_points values of a gain over its SWEEP_RANGES range, log- or
    linearly spaced as cfg.sweep_scale says; the gain must suit the controller.
    A spec 'lo:hi:n' or 'lo:hi:n:log' replaces range, count and spacing: its
    text and lo < hi (if n > 1) are checked here, and RunConfig judges lo and hi
    as values of the gain and n as sweep_points (ConfigError naming the spec)."""
    lo, hi = sweep_range(cfg, parameter)
    if spec is not None:
        parts = spec.split(":")
        try:
            if len(parts) not in (3, 4) or parts[3:] not in ([], ["log"]):
                raise ConfigError("expected lo:hi:n or lo:hi:n:log")
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
            replace(cfg, **{parameter: lo})
            cfg = replace(cfg, **{parameter: hi}, sweep_points=n,
                          sweep_scale="log" if parts[3:] else "linear")
            if n > 1 and not lo < hi:
                raise ConfigError("lo must be below hi when n > 1")
        except ValueError as exc:  # ConfigError included
            raise ConfigError(f"grid {spec!r}: {exc}") from exc
    if cfg.sweep_scale == "log":
        return np.geomspace(lo, hi, cfg.sweep_points)
    return np.linspace(lo, hi, cfg.sweep_points)
