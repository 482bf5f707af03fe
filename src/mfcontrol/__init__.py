"""Iterative PDE-based solvers for mean-field control problems.

The package couples an accelerated proximal-gradient loop over feedback
policies with a monotone finite-difference solve of the adjoint PDE system,
the state law being realized by a seeded interacting-particle simulation.
"""

from .config import ConfigError, RunConfig, parse_config
from .emreg import PiecewiseConstantAdjoint, regress_adjoint
from .fdsolver import AdjointField, assemble_source, backward_sweep, build_operator
from .grids import (
    GridField,
    PolicyField,
    SpaceTimeGrid,
    field_from_csv,
    field_to_csv,
    max_principle_check,
    multilinear_eval,
)
from .measures import EmpiricalMeasure, MeasureKernel
from .nag import (
    IterationRecord,
    NagState,
    RunReport,
    SolverError,
    gradient_field,
    gradient_slice,
    nag_step,
    run,
)
from .particles import ParticleEnsemble, estimate_cost, simulate
from .problem import DerivativeReport, MfcProblem, validate_derivatives
from .problems import (
    CuckerSmaleParams,
    PortfolioParams,
    cs2d_grid,
    cs2d_problem,
    portfolio_grid,
    portfolio_problem,
)
from .prox import ProxSpec, ell_value, prox_apply
from .riccati import (
    AffineFitReport,
    RiccatiSolution,
    affine_fit_check,
    cs_lq_feedback,
    closed_loop_mean_velocity,
    riccati_steady_state,
    solve_cs_riccati,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointField",
    "AffineFitReport",
    "ConfigError",
    "CuckerSmaleParams",
    "DerivativeReport",
    "EmpiricalMeasure",
    "GridField",
    "IterationRecord",
    "MeasureKernel",
    "MfcProblem",
    "NagState",
    "ParticleEnsemble",
    "PiecewiseConstantAdjoint",
    "PolicyField",
    "PortfolioParams",
    "ProxSpec",
    "RiccatiSolution",
    "RunConfig",
    "RunReport",
    "SolverError",
    "SpaceTimeGrid",
    "affine_fit_check",
    "assemble_source",
    "backward_sweep",
    "build_operator",
    "closed_loop_mean_velocity",
    "cs2d_grid",
    "cs2d_problem",
    "cs_lq_feedback",
    "ell_value",
    "estimate_cost",
    "field_from_csv",
    "field_to_csv",
    "gradient_field",
    "gradient_slice",
    "max_principle_check",
    "multilinear_eval",
    "nag_step",
    "parse_config",
    "portfolio_grid",
    "portfolio_problem",
    "prox_apply",
    "regress_adjoint",
    "riccati_steady_state",
    "run",
    "simulate",
    "solve_cs_riccati",
    "validate_derivatives",
]
