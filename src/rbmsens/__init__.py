"""Reflected Brownian motion in polyhedral cones.

Simulation of the constrained process and its pathwise parameter
derivative, contraction diagnostics for the reflection geometry, and
estimators for stationary means and their sensitivities.
"""

from __future__ import annotations

from .errors import (ConfigError, ConvergenceError, DomainError,
                     EstimationError, GeometryError, RbmError)
from .geometry import (BNorm, ConeModel, ValidationReport, active_faces,
                       build_b_norm, drift_stability_check, face_mask,
                       face_set, perturbed_model, spectral_radius,
                       validate_cone)
from .skorokhod import (DiscretePath, LcpSolution, SPResult, lcp_solve,
                        lyapunov_m, sp_1d_oracle, sp_solve_path, sp_step)
from .derivative import (DerivativeState, OperatorCache, contraction_probe,
                         delta0_probes, derivative_projection,
                         derivative_step, estimate_delta0, psi_increment,
                         subspace_gap)
from .sim import (JointTrajectory, RngContract, SimConfig, Trajectory,
                  brownian_increments, simulate_joint, simulate_joint_pair,
                  simulate_rbm, simulate_variants, visit_all_faces_time,
                  write_trajectory_csv)
from .estimators import (Functional, SensitivityReport, batch_means,
                         fd_oracle, fd_report, finite_horizon_sensitivity,
                         gradient_check, ipa_sensitivity, linear_functional,
                         log1p_sum_functional, stationary_estimate,
                         write_report_csv)
from .config import (BUILTIN_SCENARIOS, ScenarioConfig, builtin_scenario,
                     emit_config, load_config, parse_config)

__version__ = "0.1.0"
