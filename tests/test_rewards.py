import math

import pytest

from steptree import (
    assign_tokens,
    build_process_tree,
    group_from_sequences,
    outcome_advantages,
    reward_stats,
    step_advantages,
)
from steptree.verify import GenParams, generate_random_group

from oracles import partition_at, step_reward

SHARED_TRIO_ADV = -0.22140372138502393  # (1/3 - mean) / std for the overlap fixture


def find_node(tree, members):
    for node in tree.nodes:
        if node.members == tuple(sorted(members)):
            return node
    raise AssertionError(f"no node {members}")


class TestStepReward:
    def test_shared_trio_mean(self, overlap_group):
        tree = build_process_tree(overlap_group)
        node = find_node(tree, {2, 3, 4})
        assert step_reward(node, overlap_group) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_singleton_recovers_outcome(self, overlap_group):
        tree = build_process_tree(overlap_group)
        for i, leaf in enumerate(tree.leaves):
            assert step_reward(leaf, overlap_group) == overlap_group.rewards[i]

    def test_root_is_group_mean(self, overlap_group):
        tree = build_process_tree(overlap_group)
        assert step_reward(tree.root, overlap_group) == pytest.approx(
            2.5 / 6.0, abs=1e-15
        )

    def test_parent_mixture(self):
        params = GenParams(seed=21, reward_dist="uniform", fork_bias=0.7)
        for index in range(40):
            group = generate_random_group(params, index)
            tree = build_process_tree(group)
            for node in tree.nodes:
                if not node.children:
                    continue
                mixed = math.fsum(
                    child.size * step_reward(child, group) for child in node.children
                ) / node.size
                assert mixed == pytest.approx(step_reward(node, group), abs=1e-12)

    def test_partition_conservation(self):
        params = GenParams(seed=22, reward_dist="uniform", fork_bias=0.7)
        for index in range(40):
            group = generate_random_group(params, index)
            tree = build_process_tree(group)
            for t in range(max(map(len, group.trajectories))):
                weighted = math.fsum(
                    n.size * step_reward(n, group) for n in partition_at(tree, t)
                )
                alive = math.fsum(
                    traj.reward for traj in group.trajectories if len(traj) > t
                )
                assert weighted == pytest.approx(alive, abs=1e-12)


class TestStepAdvantages:
    def test_shared_trio_value(self, overlap_group):
        tree = build_process_tree(overlap_group)
        assignment = assign_tokens(tree)
        stats = reward_stats(overlap_group)
        steps = step_advantages(tree, assignment, overlap_group, stats)
        # any token of the shared four-token step
        assert steps[2][0] == pytest.approx(SHARED_TRIO_ADV, abs=1e-15)
        assert steps[4][3] == steps[2][0]
        # rounds to -0.22
        assert round(steps[2][0], 2) == -0.22

    def test_pair_node_value(self, overlap_group):
        tree = build_process_tree(overlap_group)
        assignment = assign_tokens(tree)
        stats = reward_stats(overlap_group)
        steps = step_advantages(tree, assignment, overlap_group, stats)
        adv = outcome_advantages(overlap_group, stats)
        # mean reward of the pair {3, 4} is 0, same as each member's reward
        assert steps[3][4] == adv[3]
        assert steps[4][5] == adv[4]

    def test_singleton_tokens_equal_outcome_advantage(self, overlap_group):
        tree = build_process_tree(overlap_group)
        assignment = assign_tokens(tree)
        stats = reward_stats(overlap_group)
        steps = step_advantages(tree, assignment, overlap_group, stats)
        adv = outcome_advantages(overlap_group, stats)
        for i, traj in enumerate(overlap_group.trajectories):
            for t in range(len(traj)):
                if assignment.owner(i, t).size == 1:
                    assert steps[i][t] == adv[i]

    def test_full_domain(self, overlap_group):
        tree = build_process_tree(overlap_group)
        assignment = assign_tokens(tree)
        steps = step_advantages(
            tree, assignment, overlap_group, reward_stats(overlap_group)
        )
        for i, traj in enumerate(overlap_group.trajectories):
            assert len(steps[i]) == len(traj)

    def test_trivial_tree_reduces_to_outcome(self, trivial_group):
        tree = build_process_tree(trivial_group)
        assignment = assign_tokens(tree)
        stats = reward_stats(trivial_group)
        steps = step_advantages(tree, assignment, trivial_group, stats)
        adv = outcome_advantages(trivial_group, stats)
        for i, traj in enumerate(trivial_group.trajectories):
            for t in range(len(traj)):
                assert steps[i][t] == adv[i]

    def test_degenerate_std_zeroes_advantages(self):
        group = group_from_sequences("c", [(1, 1), (1, 2)], [0.5, 0.5])
        tree = build_process_tree(group)
        assignment = assign_tokens(tree)
        steps = step_advantages(tree, assignment, group, reward_stats(group))
        for row in steps:
            assert all(a == 0.0 for a in row)
