"""Variational inference for ferromagnetic Ising models.

Mean-field and belief-propagation iterations with convergence-rate bounds,
exact references, and an ellipsoid-method solver for the optimal fixed point
of either variational objective.
"""

from .bp import (LocalDistribution, RegionMembership, beliefs_from_messages,
                 bp_error_bound, bp_iterate, bp_message_bound, bp_step,
                 dual_bethe, dual_bethe_gradient, local_consistency_check,
                 messages_to_csv, node_estimates, primal_bethe,
                 region_membership)
from .ellipsoid import (EllipsoidState, FeasibilityError, SeparationResult,
                        ellipsoid_maximize, ellipsoid_progress_csv,
                        separation_oracle_bp, separation_oracle_mf,
                        solve_bethe_exponential, solve_mf_exponential)
from .meanfield import (bernoulli_entropy, mf_error_bound, mf_gradient,
                        mf_iterate, mf_objective, mf_step)
from .model import (DomainError, IsingModel, ModelError, ModelNorms,
                    generate_topology, load_model, model_hash, save_model)
from .oracle import (ExactResult, SizeGuardError, brute_force_bethe_optimum,
                     brute_force_mf_optimum, exact_log_z,
                     exact_result_from_csv, exact_result_to_csv)
from .textio import ParseError
from .trace import IterationTrace, trace_from_csv, trace_meta, trace_norms, trace_to_csv

__version__ = "0.1.0"

__all__ = [
    "IsingModel", "ModelError", "ParseError", "DomainError", "ModelNorms",
    "load_model", "save_model", "model_hash", "generate_topology",
    "mf_objective", "mf_gradient", "mf_step", "mf_iterate", "mf_error_bound",
    "bernoulli_entropy",
    "bp_step", "bp_iterate", "dual_bethe", "dual_bethe_gradient",
    "node_estimates", "region_membership", "RegionMembership",
    "LocalDistribution", "beliefs_from_messages", "local_consistency_check",
    "primal_bethe", "bp_error_bound", "bp_message_bound", "messages_to_csv",
    "ExactResult", "SizeGuardError", "exact_log_z",
    "brute_force_mf_optimum", "brute_force_bethe_optimum",
    "exact_result_to_csv", "exact_result_from_csv",
    "SeparationResult", "EllipsoidState", "FeasibilityError",
    "separation_oracle_bp", "separation_oracle_mf", "ellipsoid_maximize",
    "ellipsoid_progress_csv", "solve_bethe_exponential", "solve_mf_exponential",
    "IterationTrace", "trace_to_csv", "trace_from_csv", "trace_meta", "trace_norms",
]
