"""Workload catalogue and seeded input generation (standard library only).

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Seed 0 reproduces the reference inputs
exactly (for ``cli-reference`` the INI text equals
``configs/reference.ini``).  Any other seed multiplies physical constants, controller gains,
signal amplitudes and frequency points by factors drawn uniformly from
[1 - JITTER, 1 + JITTER]; sizes (N, grid lengths, step counts, controller
kind) never change, so every seed does the same amount of work.
"""

import random

JITTER = 0.03

# one operation of cli-reference: the four commands in order, each a fresh subprocess
CLI_SESSION = (
    ("validate", ["validate"]),
    ("simulate", ["simulate"]),
    ("analyze", ["analyze"]),
    ("sweep", ["sweep", "--param", "c1"]),
)
WORKLOADS = ("cli-reference", "observer-sweep-n20", "frequency-scan-n40")

# configs/reference.ini, section by section; the order is the file's order
_REFERENCE = (
    ("physical", (
        ("rho", 1.0), ("a", 1.0), ("E", 1.0), ("I", 1.0),
        ("gamma", 5.0), ("m", 1.0), ("I_m", 1.0),
    )),
    ("discretization", (("n_basis", 10),)),
    ("controller", (
        ("kind", "passive"), ("c1", 2.5), ("c2", 4.0), ("q0", 10.0), ("r0", 0.1),
    )),
    ("signals", (
        ("frequencies", (0.0, 1.0, 2.0, 5.0)),
        ("yref_const", (1.0, 2.0)),
        ("yref_cos", ((3.0, 0.0), (0.0, 1.5), (0.0, 0.0))),
        ("yref_sin", ((0.0, 0.0), (0.0, 0.0), (0.0, -1.0))),
        ("wd_const", (0.0, 0.0, 10.0, 15.0)),
        ("wd_cos", ((0.0,) * 4,) * 3),
        ("wd_sin", ((0.0,) * 4,) * 3),
    )),
    ("simulation", (
        ("t_final", 15.0), ("dt", 0.005), ("initial_profile", "parabolic_moment"),
        ("left_velocity", ()), ("right_velocity", ()),
        ("left_moment", ()), ("right_moment", ()),
        ("hub_velocity", (0.0, 0.0)), ("bd1", (1.0,)), ("bd2", (1.0,)),
    )),
    ("sweep", (("points", 25), ("scale", "log"), ("workers", 0))),
    ("output", (("directory", "out"), ("seed", 0))),
)

# values the seed may jitter; everything else fixes sizes or choices
_JITTERED = {
    "rho", "a", "E", "I", "gamma", "m", "I_m", "c1", "c2", "q0", "r0",
    "frequencies", "yref_const", "yref_cos", "yref_sin", "wd_const", "wd_cos", "wd_sin",
}

# the analyze command's transfer-report frequencies and resolvent grid
CLI_TRANSFER_OMEGAS = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 6.0)
SCAN_POINTS = 401
SCAN_NS = (6, 8, 12, 16, 24, 32, 40)
EXTRA_TRANSFER_OMEGAS = 5


def _format(value) -> str:
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return " ; ".join(_format(row) for row in value)
        return " ".join(repr(float(v)) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _jitter(value, rng, on: bool):
    if isinstance(value, tuple):
        return tuple(_jitter(v, rng, on) for v in value)
    factor = 1.0 + rng.uniform(-JITTER, JITTER)
    return value * factor if on else value


def _ini_values(rng, seed: int, n_basis: int, kind: str) -> dict:
    values = {}
    for section, items in _REFERENCE:
        for key, value in items:
            if key in _JITTERED:
                value = _jitter(value, rng, seed != 0)
            values[(section, key)] = value
    values[("discretization", "n_basis")] = n_basis
    values[("controller", "kind")] = kind
    return values


def _ini_text(values: dict) -> str:
    out = []
    for section, items in _REFERENCE:
        out.append(f"[{section}]")
        out.extend(f"{key} = {_format(values[(section, key)])}" for key, _ in items)
        out.append("")
    return "\n".join(out) + "\n"


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload for one seed, as JSON-serialisable data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    if workload == "observer-sweep-n20":
        n_basis, kind = 20, "observer"
    elif workload == "frequency-scan-n40":
        n_basis, kind = 40, "passive"
    else:
        n_basis, kind = 10, "passive"
    values = _ini_values(rng, seed, n_basis, kind)
    inputs = {
        "workload": workload,
        "seed": seed,
        "ini": _ini_text(values),
        "steps": int(round(values[("simulation", "t_final")] / values[("simulation", "dt")])),
        "sweep_points": values[("sweep", "points")],
    }
    if workload == "frequency-scan-n40":
        half = (SCAN_POINTS - 1) // 2
        grid = [float(i - half) * 200.0 / half for i in range(SCAN_POINTS)]
        inputs["scan_omegas"] = [_jitter(w, rng, seed != 0) for w in grid]
        cli = [_jitter(w, rng, seed != 0) for w in CLI_TRANSFER_OMEGAS]
        extra = [rng.uniform(0.05, 6.0) for _ in range(EXTRA_TRANSFER_OMEGAS)]
        inputs["transfer_omegas"] = cli + extra
        inputs["transfer_ns"] = list(SCAN_NS)
    if workload == "observer-sweep-n20":
        inputs["sweep_parameter"] = "r0"
    return inputs
