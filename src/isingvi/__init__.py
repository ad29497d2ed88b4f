"""Variational inference for ferromagnetic Ising models.

Mean-field and belief-propagation iterations with convergence-rate bounds,
exact references, and an ellipsoid-method solver for the optimal fixed point
of either variational objective.

The names below are loaded on first use (PEP 562), so importing the package,
or its numpy-free modules such as `cli`, `topology` and `textio`, loads no
numpy.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "IsingModel", "ModelError", "ParseError", "DomainError", "ModelNorms",
    "load_model", "save_model", "model_hash", "generate_topology",
    "mf_objective", "mf_gradient", "mf_step", "mf_iterate", "mf_error_bound",
    "bernoulli_entropy",
    "bp_step", "bp_iterate", "dual_bethe", "dual_bethe_gradient",
    "node_estimates", "region_membership", "RegionMembership",
    "LocalDistribution", "beliefs_from_messages", "local_consistency_check",
    "primal_bethe", "bp_error_bound", "bp_message_bound",
    "ExactResult", "SizeGuardError", "exact_log_z",
    "brute_force_mf_optimum", "brute_force_bethe_optimum",
    "exact_result_to_csv", "exact_result_from_csv",
    "SeparationResult", "EllipsoidState", "FeasibilityError",
    "separation_oracle_bp", "separation_oracle_mf", "ellipsoid_maximize",
    "ellipsoid_progress_csv", "solve_bethe_exponential", "solve_mf_exponential",
    "IterationTrace", "trace_to_csv", "trace_from_csv", "trace_meta", "trace_norms",
]

# The modules that define the names above, searched in this order on first
# use; the errors come first, so that importing one loads no numpy.
_MODULES = ("errors", "model", "meanfield", "bp", "oracle", "ellipsoid", "trace")


def __getattr__(name):
    if name in __all__:
        for module in _MODULES:
            value = getattr(importlib.import_module(f".{module}", __name__), name, None)
            if value is not None:
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
