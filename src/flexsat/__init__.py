"""Flexible-satellite model: closed-form frequency-domain oracles, Legendre
spectral Galerkin discretization, internal-model controller synthesis, exact
closed-loop simulation, and stability diagnostics."""

from .analysis import (
    SweepResult,
    resolvent_norm_scan,
    sweep,
    transfer_error_report,
)
from .analytic import (
    alpha,
    beam_mu,
    plant_transfer,
    s_matrix,
    transfer_beam,
    transfer_rigid,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .discretize import (
    BeamBasis,
    InitialProfiles,
    LinearStateSpace,
    assemble,
    build_basis,
    galerkin_transfer,
    project_initial_state,
    stability_margin,
)
from .params import PhysicalParams
from .simulate import (
    ErrorMetrics,
    SignalSpec,
    SimulationTrace,
    error_metrics,
    eval_signal,
    integrate,
    matrix_exponential,
    propagate_autonomous,
)
from .synthesis import (
    ClosedLoopSystem,
    ControllerRealization,
    InternalModel,
    assemble_closed_loop,
    build_observer_controller,
    build_passive_controller,
    care_solve,
    internal_model,
    regulation_zero_check,
    solve_sylvester_H,
    zero_controller,
)

__version__ = "0.1.0"

__all__ = [
    "PhysicalParams",
    "alpha",
    "beam_mu",
    "transfer_beam",
    "transfer_rigid",
    "s_matrix",
    "plant_transfer",
    "BeamBasis",
    "build_basis",
    "LinearStateSpace",
    "assemble",
    "InitialProfiles",
    "project_initial_state",
    "galerkin_transfer",
    "InternalModel",
    "internal_model",
    "ControllerRealization",
    "zero_controller",
    "build_passive_controller",
    "solve_sylvester_H",
    "care_solve",
    "build_observer_controller",
    "ClosedLoopSystem",
    "assemble_closed_loop",
    "regulation_zero_check",
    "SignalSpec",
    "eval_signal",
    "matrix_exponential",
    "propagate_autonomous",
    "integrate",
    "SimulationTrace",
    "ErrorMetrics",
    "error_metrics",
    "stability_margin",
    "resolvent_norm_scan",
    "transfer_error_report",
    "sweep",
    "SweepResult",
    "RunConfig",
    "ConfigError",
    "load_config",
    "parse_config",
]
