"""Space-time adaptive IMEX finite elements for the semilinear heat equation.

The package solves u_t - a*lap(u) = f(u) on 2-D rectangles with a first
order implicit-explicit scheme on quadtree meshes, evaluates a conditional
pointwise-in-space-and-time a posteriori error bound, and drives space-time
adaptivity whose stop signal doubles as a blow-up detector.
"""

from .mesh import Rectangle, Mesh, DomainMismatchError, face_set
from .fespace import Space, Field, interpolate
from .linalg import assemble_mass, assemble_stiffness, solve_spd, SolverFailure
from .scheme import TimeSlab, Trajectory, project_initial, imex_step
from .estimators import (EstimatorLedger, LipschitzModulus, log_factor,
                         initial_space_estimator, xi_value,
                         fixed_point_delta, gronwall_factor, TimeNodes,
                         SlabEnd, SlabWorkspace)
from .problems import ProblemSpec, builtin, modulus_check
from .driver import (Tolerances, DriverOptions, RunResult, run_adaptive,
                     run_fixed, time_indicator, space_indicator,
                     extrapolate_blowup, weighted_average_dofs)
from .cli import RunConfig, parse_config, emit_config, run_sweep, fit_slope

__all__ = [
    "Rectangle", "Mesh", "DomainMismatchError", "face_set",
    "Space", "Field", "interpolate",
    "assemble_mass", "assemble_stiffness", "solve_spd", "SolverFailure",
    "TimeSlab", "Trajectory", "project_initial", "imex_step",
    "EstimatorLedger", "LipschitzModulus", "log_factor",
    "initial_space_estimator", "xi_value",
    "fixed_point_delta", "gronwall_factor", "TimeNodes", "SlabEnd",
    "SlabWorkspace",
    "ProblemSpec", "builtin", "modulus_check",
    "Tolerances", "DriverOptions", "RunResult", "run_adaptive", "run_fixed",
    "time_indicator", "space_indicator", "extrapolate_blowup",
    "weighted_average_dofs",
    "RunConfig", "parse_config", "emit_config", "run_sweep", "fit_slope",
]

__version__ = "0.1.0"
