"""Run configuration: a single INI file with nested sections.

Each key is one RunConfig field.  The field's annotation sets how the key is
read and written: float and int as numbers, str as text, Vec as
whitespace-separated numbers, and Mat as a coefficient table whose rows are
separated by ';', one row per positive frequency and one column per channel.
The field declares its section and, where it differs from the field's name,
its key (_ini); the field order is the written file's order.  Initial panel
profiles and disturbance shapes are polynomial coefficient lists (ascending
powers of xi) or named presets.  The model builders take the keys as the file
writes them: simulate.exosystem the [signals] keys (RunConfig.exosystem), the
controllers and regulation_zero_check the same frequencies,
discretize.assemble the pair (bd1, bd2), and discretize.project_initial_state
the five profile keys as keywords (RunConfig.initial_profiles, which resolves
initial_profile).  Values are literal ('%' included); [DEFAULT] is an unknown
section.  The resolved configuration is written back out (the run manifest)
and reparses to an identical value.  default_sweep_grid builds every sweep grid.
"""

import configparser
import io
import math
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .params import PhysicalParams
from .simulate import Exosystem, exosystem, grid_steps


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


def _ini(section: str, default, key: str | None = None):
    """A RunConfig field: its default, its INI section and its key where that is not the field's name."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (value-typed, equality-comparable)."""

    rho: float = _ini("physical", 1.0)
    a: float = _ini("physical", 1.0)
    E: float = _ini("physical", 1.0)
    I: float = _ini("physical", 1.0)
    gamma: float = _ini("physical", 5.0)
    m: float = _ini("physical", 1.0)
    I_m: float = _ini("physical", 1.0)

    n_basis: int = _ini("discretization", 10)

    controller_kind: str = _ini("controller", "passive", key="kind")
    c1: float = _ini("controller", 2.5)
    c2: float = _ini("controller", 4.0)
    q0: float = _ini("controller", 10.0)
    r0: float = _ini("controller", 0.1)

    frequencies: Vec = _ini("signals", (0.0, 1.0, 2.0, 5.0))
    yref_const: Vec = _ini("signals", (1.0, 2.0))
    yref_cos: Mat = _ini("signals", ((3.0, 0.0), (0.0, 1.5), (0.0, 0.0)))
    yref_sin: Mat = _ini("signals", ((0.0, 0.0), (0.0, 0.0), (0.0, -1.0)))
    wd_const: Vec = _ini("signals", (0.0, 0.0, 10.0, 15.0))
    wd_cos: Mat = _ini("signals", ((0.0,) * 4, (0.0,) * 4, (0.0,) * 4))
    wd_sin: Mat = _ini("signals", ((0.0,) * 4, (0.0,) * 4, (0.0,) * 4))

    t_final: float = _ini("simulation", 15.0)
    dt: float = _ini("simulation", 0.005)
    initial_profile: str = _ini("simulation", "parabolic_moment")
    left_velocity: Vec = _ini("simulation", ())
    right_velocity: Vec = _ini("simulation", ())
    left_moment: Vec = _ini("simulation", ())
    right_moment: Vec = _ini("simulation", ())
    hub_velocity: Vec = _ini("simulation", (0.0, 0.0))
    bd1: Vec = _ini("simulation", (1.0,))
    bd2: Vec = _ini("simulation", (1.0,))

    sweep_points: int = _ini("sweep", 25, key="points")
    sweep_scale: str = _ini("sweep", "log", key="scale")
    workers: int = _ini("sweep", 0)  # validated and echoed in the manifest; sweeps run serially and ignore it

    out_dir: str = _ini("output", "out", key="directory")
    seed: int = _ini("output", 0)

    def __post_init__(self):
        for f in fields(self):
            if not all(math.isfinite(v) for v in _numbers(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
        try:
            self.physical()
            self.exosystem()
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
        if len(self.hub_velocity) != 2:
            raise ConfigError(f"hub_velocity needs 2 entries, got {len(self.hub_velocity)}")
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
        if self.out_dir != self.out_dir.strip() or re.search(r"[\n\r]|(^|\s)#", self.out_dir):
            raise ConfigError(f"output directory {self.out_dir!r} would not read back from the manifest: "
                              "no edge whitespace, line break, or '#' at the start or after whitespace")

    # --- resolved objects ---

    def physical(self) -> PhysicalParams:
        return PhysicalParams(
            rho=self.rho, a=self.a, E=self.E, I=self.I,
            gamma=self.gamma, m=self.m, I_m=self.I_m,
        )

    def exosystem(self) -> Exosystem:
        return exosystem(self.frequencies, self.yref_const, self.wd_const,
                         self.yref_cos, self.yref_sin, self.wd_cos, self.wd_sin)

    def initial_profiles(self) -> dict:
        """project_initial_state's keywords: the five profile keys, or the preset's profiles."""
        if self.initial_profile == "parabolic_moment":
            # panels at rest with parabolic initial bending moments 4(1 +- xi)^2
            return dict(
                left_moment=lambda x: 4.0 * (1.0 + x) ** 2,
                right_moment=lambda x: 4.0 * (1.0 - x) ** 2,
            )
        return dict(  # empty coefficient lists, as the zero preset has, give zero profiles
            left_velocity=self.left_velocity or None,
            right_velocity=self.right_velocity or None,
            left_moment=self.left_moment or None,
            right_moment=self.right_moment or None,
            hub_velocity=tuple(self.hub_velocity),
        )


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

# {section: {key: field}}: every key of the file, in field order, the order config_to_ini writes them
_SECTIONS = {}
for _f in fields(RunConfig):
    _SECTIONS.setdefault(_f.metadata["section"], {})[_f.metadata["key"] or _f.name] = _f.name


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
    if parameter == "c1" and not any(cfg.frequencies):  # c1 scales only rotation blocks
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
