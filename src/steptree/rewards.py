"""Monte-Carlo step rewards, step-level advantages, and the per-group
derivation every objective is built from.

The step reward of a process set is the mean outcome reward of its members,
i.e. the Monte-Carlo estimate from the sampled completions of that step.
Each token inherits the step reward of its owning node, and the step
advantage normalizes it with the whole-group mean/std (not per-sibling
statistics).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

from .core import DEFAULT_EPSILON, Group, RewardStats, SAMPLE, normalized_advantage
from .core import outcome_advantages, reward_stats
from .objectives import ObjectiveConfig, ObjectiveReport, TokenTerms
from .objectives import objective_grpo, objective_lambda, token_terms
from .tree import ProcessTree, TokenAssignment, assign_tokens, build_process_tree


def step_rewards(tree: ProcessTree, group: Group) -> tuple[float, ...]:
    """Step reward of every node of the tree, indexed by ``node_id``."""
    outcome = [t.reward for t in group.trajectories]
    return tuple(
        [
            math.fsum([outcome[i] for i in n.members]) / len(n.members)
            for n in tree.nodes
        ]
    )


def node_advantages(
    tree: ProcessTree, group: Group, stats: RewardStats
) -> tuple[float, ...]:
    """Step advantage of every node, indexed by ``node_id``."""
    return tuple([normalized_advantage(r, stats) for r in step_rewards(tree, group)])


def step_advantages(
    tree: ProcessTree,
    assignment: TokenAssignment,
    group: Group,
    stats: RewardStats,
) -> tuple[tuple[float, ...], ...]:
    """Step advantage A[i][t] of every token, one row per completion.

    Tokens owned by singleton nodes recover the outcome advantage exactly;
    shared spans receive the normalized Monte-Carlo mean reward of their
    owning set instead.
    """
    return tuple(map(tuple, assignment.rows(node_advantages(tree, group, stats))))


class GroupDerivation:
    """What the objectives of one group are built from, each derived once.

    ``stats`` and the outcome ``advantages`` are computed here. The
    ``tree``, its token ``assignment``, the per-node step advantages
    (``node_advantages``, indexed by node id) and, one per config in
    ``configs``, the token ``terms`` and the ``grpo`` and ``lam`` reports
    are computed on first read, so a caller pays only for what it reads.
    """

    def __init__(
        self,
        group: Group,
        configs: Sequence[ObjectiveConfig],
        std_mode: str = SAMPLE,
        epsilon: float = DEFAULT_EPSILON,
    ):
        self.group = group
        self.configs = tuple(configs)
        self.stats = reward_stats(group, std_mode, epsilon)
        self.advantages = outcome_advantages(group, self.stats)

    @cached_property
    def tree(self) -> ProcessTree:
        return build_process_tree(self.group)

    @cached_property
    def assignment(self) -> TokenAssignment:
        return assign_tokens(self.tree)

    @cached_property
    def node_advantages(self) -> tuple[float, ...]:
        # the module-level function: a method body does not see class names
        return node_advantages(self.tree, self.group, self.stats)

    @cached_property
    def terms(self) -> tuple[TokenTerms, ...]:
        return tuple([token_terms(self.group, config) for config in self.configs])

    @cached_property
    def grpo(self) -> tuple[ObjectiveReport, ...]:
        return tuple([objective_grpo(self.group, self.advantages, t) for t in self.terms])

    @cached_property
    def lam(self) -> tuple[ObjectiveReport, ...]:
        args = (self.group, self.assignment, self.advantages)
        return tuple([objective_lambda(*args, t) for t in self.terms])
