"""Process-set trees, step-level rewards, and objective cross-checks for
group-relative policy optimization.

Each public name is imported from its module on first access, so a
program loads only the modules whose names it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": """DEFAULT_EPSILON DEFAULT_TOL Group POPULATION RewardStats SAMPLE
        Trajectory group_from_sequences outcome_advantages reward_stats""",
    "metrics": "GroupMetrics MetricsSummary group_metrics",
    "objectives": """DEFAULT_BETA ConfigurationError GRPO LAMBDA ObjectiveConfig
        ObjectiveReport PRM TokenTerms lambda_weights objective_grpo
        objective_lambda objective_prm token_terms""",
    "rewards": "GroupDerivation step_advantages step_rewards",
    "sim": """SimConfig ToyEnv ToyPolicy analytic_gradient exploitation_scenario
        finite_diff_check node_gradient one_step_comparison rollout_group
        run_experiment""",
    "tree": """ProcessNode ProcessTree TokenAssignment assign_tokens
        build_process_tree export_tree is_trivial""",
    "verify": """GenParams IDENTITY_TOL VerificationReport generate_random_group
        run_verification verify_proof_identities verify_equivalence""",
}

# public name -> the module that defines it
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
