import math

import pytest

from steptree import (
    Group,
    POPULATION,
    SAMPLE,
    Trajectory,
    group_from_sequences,
    outcome_advantages,
    reward_stats,
)
from steptree.verify import GenParams, generate_random_group

from conftest import make_overlap_group

# direct-arithmetic values for the overlap fixture rewards
OVERLAP_MEAN = 0.4166666666666667
OVERLAP_STD_SAMPLE = 0.3763863263545405
OVERLAP_ADV = (
    0.22140372138502376,
    0.22140372138502376,
    1.5498260496951666,
    -1.107018606925119,
    -1.107018606925119,
    0.22140372138502376,
)


class TestRewardStats:
    def test_overlap_sample(self, overlap_group):
        stats = reward_stats(overlap_group, SAMPLE)
        assert stats.mean == pytest.approx(OVERLAP_MEAN, abs=1e-15)
        assert stats.std == pytest.approx(OVERLAP_STD_SAMPLE, abs=1e-15)
        assert not stats.degenerate

    def test_constant_rewards(self):
        group = group_from_sequences("c", [(1,), (2,), (3,)], [0.5, 0.5, 0.5])
        stats = reward_stats(group)
        assert stats.mean == 0.5
        assert stats.std == 0.0
        assert stats.degenerate

    def test_constant_nondyadic_rewards_degenerate(self):
        # 0.7 is not exactly representable; the mean rounds and the std
        # lands at ~1e-16, still far below epsilon
        group = group_from_sequences("c", [(1,), (2,), (3,)], [0.7, 0.7, 0.7])
        stats = reward_stats(group)
        assert stats.mean == pytest.approx(0.7)
        assert stats.std < stats.epsilon
        assert stats.degenerate

    def test_two_point_population(self):
        group = group_from_sequences("p", [(0,), (1,)], [0.0, 1.0])
        stats = reward_stats(group, POPULATION)
        assert stats.mean == 0.5
        assert stats.std == 0.5

    def test_sample_vs_population_divisor(self):
        group = group_from_sequences("d", [(0,), (1,)], [0.0, 1.0])
        sample = reward_stats(group, SAMPLE)
        population = reward_stats(group, POPULATION)
        assert sample.std == pytest.approx(population.std * math.sqrt(2.0))

    def test_unknown_mode_rejected(self, overlap_group):
        with pytest.raises(ValueError):
            reward_stats(overlap_group, "bogus")


class TestOutcomeAdvantages:
    def test_overlap_values(self, overlap_group):
        stats = reward_stats(overlap_group)
        adv = outcome_advantages(overlap_group, stats)
        assert adv == pytest.approx(OVERLAP_ADV, abs=1e-15)

    def test_constant_rewards_zeroed(self):
        group = group_from_sequences("c", [(1,), (2,)], [0.3, 0.3])
        adv = outcome_advantages(group, reward_stats(group))
        assert adv == [0.0, 0.0]

    def test_two_point_population(self):
        group = group_from_sequences("p", [(0,), (1,)], [0.0, 1.0])
        adv = outcome_advantages(group, reward_stats(group, POPULATION))
        assert adv == pytest.approx([-1.0, 1.0])

    def test_sum_to_zero(self):
        params = GenParams(seed=11, reward_dist="uniform")
        for index in range(50):
            group = generate_random_group(params, index)
            adv = outcome_advantages(group, reward_stats(group))
            assert abs(math.fsum(adv)) < 1e-12

    def test_affine_invariance(self):
        params = GenParams(seed=12, reward_dist="uniform")
        for index in range(25):
            group = generate_random_group(params, index)
            adv = outcome_advantages(group, reward_stats(group))
            shifted = Group(
                query_id=group.query_id,
                trajectories=tuple(
                    Trajectory(tokens=t.tokens, reward=2.5 * t.reward + 1.25)
                    for t in group.trajectories
                ),
            )
            adv_shifted = outcome_advantages(shifted, reward_stats(shifted))
            for a, b in zip(adv, adv_shifted):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_permutation_equivariance(self, overlap_group):
        order = [3, 0, 5, 1, 4, 2]
        permuted = Group(
            query_id="perm",
            trajectories=tuple(overlap_group.trajectories[i] for i in order),
        )
        adv = outcome_advantages(overlap_group, reward_stats(overlap_group))
        adv_perm = outcome_advantages(permuted, reward_stats(permuted))
        for pos, src in enumerate(order):
            assert adv_perm[pos] == adv[src]


class TestValidation:
    def test_group_needs_two(self):
        with pytest.raises(ValueError):
            Group(query_id="x", trajectories=(Trajectory(tokens=(1,), reward=0.0),))

    def test_logp_length_mismatch(self):
        with pytest.raises(ValueError, match="logp_new"):
            Trajectory(tokens=(1, 2), reward=0.0, logp_new=(-0.5,))

    def test_positive_logp_rejected(self):
        with pytest.raises(ValueError, match="<= 0"):
            Trajectory(tokens=(1,), reward=0.0, logp_ref=(0.25,))

    def test_negative_token_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Trajectory(tokens=(1, -2), reward=0.0)

    @pytest.mark.parametrize("token", [1.7, 2.0, True])
    def test_non_integer_token_rejected(self, token):
        with pytest.raises(ValueError, match="token ids must be integers"):
            Trajectory(tokens=(token, 2), reward=1)

    def test_nonfinite_reward_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(tokens=(1,), reward=float("nan"))

    def test_zero_length_trajectory_allowed(self):
        traj = Trajectory(tokens=(), reward=1.0, logp_new=())
        assert len(traj) == 0

    def test_logps_at_zero_allowed(self):
        traj = Trajectory(tokens=(3,), reward=0.0, logp_new=(0.0,))
        assert traj.logp_new == (0.0,)


def test_overlap_values_match_direct_arithmetic():
    rewards = make_overlap_group().rewards
    mean = sum(rewards) / len(rewards)
    std = math.sqrt(sum((r - mean) ** 2 for r in rewards) / (len(rewards) - 1))
    assert mean == pytest.approx(OVERLAP_MEAN, abs=1e-16)
    assert std == pytest.approx(OVERLAP_STD_SAMPLE, abs=1e-16)
