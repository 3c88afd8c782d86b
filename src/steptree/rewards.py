"""Monte-Carlo step rewards and step-level advantages.

The step reward of a process set is the mean outcome reward of its members,
i.e. the Monte-Carlo estimate from the sampled completions of that step.
Each token inherits the step reward of its owning node, and the step
advantage normalizes it with the whole-group mean/std (not per-sibling
statistics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Group, RewardStats, normalized_advantage
from .tree import ProcessNode, ProcessTree, TokenAssignment


def step_reward(node: ProcessNode, group: Group) -> float:
    """Mean outcome reward of the node's members."""
    return math.fsum(group.trajectories[i].reward for i in node.members) / node.size


def step_rewards(tree: ProcessTree, group: Group) -> tuple[float, ...]:
    """Step reward of every node of the tree, indexed by ``node_id``."""
    outcome = [t.reward for t in group.trajectories]
    return tuple(
        [
            math.fsum([outcome[i] for i in n.members]) / len(n.members)
            for n in tree.nodes
        ]
    )


@dataclass(eq=False)
class StepAdvantages:
    """Per-token step rewards R[i][t] and step advantages A[i][t]."""

    token_reward: tuple[tuple[float, ...], ...]
    token_advantage: tuple[tuple[float, ...], ...]

    def reward(self, i: int, t: int) -> float:
        return self.token_reward[i][t]

    def advantage(self, i: int, t: int) -> float:
        return self.token_advantage[i][t]


def step_advantages(
    tree: ProcessTree,
    assignment: TokenAssignment,
    group: Group,
    stats: RewardStats,
) -> StepAdvantages:
    """Token-level reward/advantage maps covering the whole group.

    Tokens owned by singleton nodes recover the outcome reward and the
    outcome advantage exactly; shared spans receive the owning set's
    Monte-Carlo mean instead.
    """
    rewards = step_rewards(tree, group)
    node_adv = [normalized_advantage(r, stats) for r in rewards]
    return StepAdvantages(
        token_reward=tuple(
            [tuple([rewards[n.node_id] for n in row]) for row in assignment.owners]
        ),
        token_advantage=tuple(
            [tuple([node_adv[n.node_id] for n in row]) for row in assignment.owners]
        ),
    )
