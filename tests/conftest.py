"""Shared fixtures: the reference configuration and its assembled systems."""

import ctypes
import glob
import os

import numpy as np
import pytest

import flexsat as fx
from flexsat import analysis
from flexsat.config import RunConfig

FREQS = (0.0, 1.0, 2.0, 5.0)


def pytest_report_header(config):
    """numpy's OpenBLAS kernel and thread count: the bit-identity tests hold under SkylakeX only."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            corename = lib.scipy_openblas_get_corename64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        corename.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
        return f"OpenBLAS: core {corename().decode()}, {threads()} threads"
    return "OpenBLAS: no numpy-bundled library found"


@pytest.fixture(scope="session")
def params():
    return fx.PhysicalParams()


@pytest.fixture(scope="session")
def default_config():
    return RunConfig()


@pytest.fixture(scope="session")
def ss10(params):
    return fx.assemble(params, 10)


@pytest.fixture(scope="session")
def ss12(params):
    return fx.assemble(params, 12)


@pytest.fixture(scope="session")
def passive_ctrl():
    return fx.build_passive_controller(FREQS, 2.5, 4.0)


@pytest.fixture(scope="session")
def plant_only_ctrl():
    """Zero-dimensional controller with no feedthrough: the closed loop is the plant."""
    return fx.ControllerRealization(
        G1=np.zeros((0, 0)), G2=np.zeros((0, 2)), K=np.zeros((2, 0)), kappa=np.zeros((2, 2))
    )


@pytest.fixture(scope="session")
def observer_ctrl(ss10):
    return fx.build_observer_controller(ss10, FREQS, 10.0, 0.1)


@pytest.fixture(scope="session")
def passive_loop(ss10, passive_ctrl):
    return fx.assemble_closed_loop(ss10, passive_ctrl)


@pytest.fixture(scope="session")
def observer_loop(ss10, observer_ctrl):
    return fx.assemble_closed_loop(ss10, observer_ctrl)


@pytest.fixture(scope="session")
def passive_trace(default_config, passive_loop):
    return analysis.simulate_from_config(default_config, passive_loop)


@pytest.fixture(scope="session")
def observer_trace(default_config, observer_loop):
    return analysis.simulate_from_config(default_config, observer_loop)


def random_params(rng) -> fx.PhysicalParams:
    """Positive parameter set drawn over a couple of decades."""
    draw = lambda lo, hi: float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    return fx.PhysicalParams(
        rho=draw(0.2, 5.0),
        a=draw(0.2, 5.0),
        E=draw(0.2, 5.0),
        I=draw(0.2, 5.0),
        gamma=draw(0.5, 20.0),
        m=draw(0.2, 5.0),
        I_m=draw(0.2, 5.0),
    )
