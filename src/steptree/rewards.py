"""Monte-Carlo step rewards and step-level advantages.

The step reward of a process set is the mean outcome reward of its members,
i.e. the Monte-Carlo estimate from the sampled completions of that step.
Each token inherits the step reward of its owning node, and the step
advantage normalizes it with the whole-group mean/std (not per-sibling
statistics).
"""

from __future__ import annotations

import math

from .core import Group, RewardStats, normalized_advantage
from .tree import ProcessTree, TokenAssignment


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
