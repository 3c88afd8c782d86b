"""Process-set trees, step-level rewards, and objective cross-checks for
group-relative policy optimization."""

from types import ModuleType as _ModuleType

from .core import (
    DEFAULT_EPSILON,
    Group,
    POPULATION,
    RewardStats,
    SAMPLE,
    Trajectory,
    group_from_sequences,
    outcome_advantages,
    reward_stats,
)
from .metrics import GroupMetrics, MetricsSummary, aggregate_metrics, group_metrics
from .objectives import (
    DEFAULT_BETA,
    ConfigurationError,
    GRPO,
    LAMBDA,
    ObjectiveConfig,
    ObjectiveReport,
    PRM,
    TokenTerms,
    lambda_weights,
    objective_grpo,
    objective_lambda,
    objective_prm,
    token_terms,
)
from .rewards import step_advantages, step_rewards
from .sim import (
    SimConfig,
    ToyEnv,
    ToyPolicy,
    analytic_gradient,
    exploitation_scenario,
    finite_diff_check,
    node_gradient,
    one_step_comparison,
    rollout_group,
    run_experiment,
)
from .tree import (
    ProcessNode,
    ProcessTree,
    TokenAssignment,
    assign_tokens,
    build_process_tree,
    export_tree,
    is_trivial,
)
from .verify import (
    DEFAULT_TOL,
    GenParams,
    IDENTITY_TOL,
    VerificationReport,
    derive_group,
    generate_random_group,
    run_verification,
    verify_proof_identities,
    verify_equivalence,
)

__version__ = "0.1.0"

# the public names are exactly the ones imported above
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
