"""Kinetic model of wall-confined self-propelled rods, its thin-layer
bulk-wall limit, matched-layer composite approximations, and the
verification harness tying them together."""

from .coefficients import (AngularCoefficient, ModelParams,
                           epsilon_from_physical, mu0, sup_abs,
                           validate_assumptions)
from .errors import (ActiveRodsError, AssumptionViolationError,
                     ConfigurationError, FitError, GridError,
                     NumericalFailureError)
from .grids import (PhaseField, aggregate_phi, build_phi_grid, build_y_grid,
                    exp_cell_averages, exp_cell_integrals,
                    norms, overlap_average_y, phi_derivative,
                    poly_exp_cell_averages, trace_wall, wall_layer)
from .full_solver import FullSolverConfig, phi_substep, run_full, steady_layer
from .limit_solver import (BulkWallState, LineField, ResolventProblem,
                           build_line_grid, coercivity_gap, manufactured_state,
                           resolvent_solve, run_limit)
from .asymptotics import (a_coeffs, build_inner, composite_refined,
                          composite_simple, p0_coeffs, residual_report)
from .decomposition import (Decomposition, decompose, energy_step,
                            weak_pairings)
from .particles import (ParticleEnsemble, em_step, histogram, run_particles,
                        sample_initial, tv_distance)
from .config import bulk_exp_field, load_config, parse_config
from .reports import field_rows, profile_rows, write_csv
from .sweep import SweepRecord, fit_order, sweep_epsilon, weak_pairing_sweep

__version__ = "0.1.0"

__all__ = [
    "ActiveRodsError", "AngularCoefficient", "AssumptionViolationError",
    "BulkWallState", "ConfigurationError", "Decomposition", "FitError",
    "FullSolverConfig", "GridError", "LineField", "ModelParams",
    "NumericalFailureError", "ParticleEnsemble", "PhaseField",
    "ResolventProblem", "SweepRecord", "a_coeffs", "aggregate_phi",
    "build_inner", "build_line_grid", "build_phi_grid", "build_y_grid",
    "bulk_exp_field", "coercivity_gap", "composite_refined",
    "composite_simple", "decompose", "em_step",
    "energy_step", "epsilon_from_physical",
    "exp_cell_averages", "exp_cell_integrals", "field_rows", "fit_order",
    "histogram", "load_config", "manufactured_state",
    "mu0", "norms", "overlap_average_y", "p0_coeffs", "parse_config",
    "phi_derivative", "phi_substep", "poly_exp_cell_averages",
    "profile_rows", "residual_report", "resolvent_solve", "run_full",
    "run_limit", "run_particles", "sample_initial", "steady_layer",
    "sup_abs", "sweep_epsilon", "trace_wall", "tv_distance",
    "validate_assumptions", "wall_layer", "weak_pairing_sweep",
    "write_csv",
]
