import math

import pytest

from steptree import (
    ConfigurationError,
    Group,
    ObjectiveConfig,
    POPULATION,
    Trajectory,
    assign_tokens,
    build_process_tree,
    group_from_sequences,
    lambda_weights,
    objective_grpo,
    objective_lambda,
    objective_prm,
    outcome_advantages,
    reward_stats,
    step_advantages,
    token_terms,
)
from steptree.io import effective_config
from steptree.objectives import TokenTerms, kl_terms, ratio_terms
from steptree.verify import (
    LOGP_ABSENT,
    LOGP_RANDOM_CONSISTENT,
    GenParams,
    degenerate_groups,
    generate_random_group,
    verification_configs,
)

from oracles import (
    node_sum_lambda,
    node_sum_prm,
    token_sum_grpo,
    token_sum_lambda,
    token_sum_terms,
)

# oracle-derived goldens for the overlap fixture with unit ratios, beta=0
OVERLAP_L_GRPO = -0.13023748316766112
OVERLAP_L_LAMBDA = -0.032559370791915315

UNIT = ObjectiveConfig(beta=0.0, assume_unit_ratio=True)


def full_eval(group, config=UNIT):
    stats = reward_stats(group)
    adv = outcome_advantages(group, stats)
    tree = build_process_tree(group)
    assignment = assign_tokens(tree)
    steps = step_advantages(tree, assignment, group, stats)
    terms = token_terms(group, config)
    return (
        objective_grpo(group, adv, terms),
        objective_prm(group, steps, terms),
        objective_lambda(group, assignment, adv, terms),
        assignment,
    )


class TestRatioTerms:
    def test_unit_assumption(self, overlap_group):
        rows = ratio_terms(overlap_group, UNIT)
        assert all(x == 1.0 for row in rows for x in row)

    def test_identical_policies(self):
        traj = Trajectory(
            tokens=(1, 2), reward=1.0, logp_new=(-0.5, -1.0), logp_old=(-0.5, -1.0)
        )
        group = Group(query_id="p", trajectories=(traj, traj))
        rows = ratio_terms(group, ObjectiveConfig(beta=0.0, assume_unit_ratio=False))
        assert all(x == 1.0 for row in rows for x in row)

    def test_log_two_bump(self):
        bump = math.log(2.0)
        traj = Trajectory(
            tokens=(1, 2),
            reward=1.0,
            logp_new=(-0.5, -1.0 + bump),
            logp_old=(-0.5, -1.0),
        )
        group = Group(query_id="p", trajectories=(traj, traj))
        rows = ratio_terms(group, ObjectiveConfig(beta=0.0, assume_unit_ratio=False))
        assert rows[0][0] == 1.0
        assert rows[0][1] == pytest.approx(2.0, rel=1e-15)

    def test_missing_logp_old_errors(self, overlap_group):
        with pytest.raises(ConfigurationError, match="logp_old"):
            ratio_terms(overlap_group, ObjectiveConfig(beta=0.0, assume_unit_ratio=False))

    def test_ratio_never_clipped(self):
        # a wildly off-policy token keeps its faithful ratio
        traj = Trajectory(
            tokens=(1,), reward=1.0, logp_new=(-0.01,), logp_old=(-6.0,)
        )
        group = Group(query_id="p", trajectories=(traj, traj))
        rows = ratio_terms(group, ObjectiveConfig(beta=0.0, assume_unit_ratio=False))
        assert rows[0][0] == pytest.approx(math.exp(5.99), rel=1e-12)


class TestKlTerms:
    def test_matching_policies_zero(self):
        traj = Trajectory(
            tokens=(1, 2), reward=1.0, logp_new=(-0.5, -1.0), logp_ref=(-0.5, -1.0)
        )
        group = Group(query_id="p", trajectories=(traj, traj))
        rows = kl_terms(group, ObjectiveConfig(beta=0.04))
        assert all(x == 0.0 for row in rows for x in row)

    def test_ratio_two_value(self):
        delta = math.log(2.0)
        traj = Trajectory(
            tokens=(1,), reward=1.0, logp_new=(-1.0,), logp_ref=(-1.0 + delta,)
        )
        group = Group(query_id="p", trajectories=(traj, traj))
        rows = kl_terms(group, ObjectiveConfig(beta=0.04))
        assert rows[0][0] == pytest.approx(2.0 - math.log(2.0) - 1.0, rel=1e-12)

    def test_nonnegative(self):
        params = GenParams(seed=31, logp_mode="random_consistent")
        config = ObjectiveConfig(beta=0.04)
        for index in range(25):
            group = generate_random_group(params, index)
            for row in kl_terms(group, config):
                assert all(x >= 0.0 for x in row)

    def test_beta_zero_needs_no_ref(self, overlap_group):
        rows = kl_terms(overlap_group, ObjectiveConfig(beta=0.0))
        assert all(x == 0.0 for row in rows for x in row)

    def test_missing_ref_with_beta_errors(self, overlap_group):
        with pytest.raises(ConfigurationError, match="logp_ref"):
            kl_terms(overlap_group, ObjectiveConfig(beta=0.04))

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(beta=-0.1)


class TestObjectiveGrpo:
    def test_overlap_golden(self, overlap_group):
        report, *_ = full_eval(overlap_group)
        assert report.value == pytest.approx(OVERLAP_L_GRPO, abs=1e-12)
        assert report.total_tokens == 34

    def test_matches_oracle(self, overlap_group):
        seqs = [t.tokens for t in overlap_group.trajectories]
        report, *_ = full_eval(overlap_group)
        assert report.value == pytest.approx(
            token_sum_grpo(seqs, list(overlap_group.rewards)), abs=1e-15
        )

    def test_constant_rewards_zero(self):
        group = group_from_sequences("c", [(1, 2), (3, 4)], [0.5, 0.5])
        report, *_ = full_eval(group)
        assert report.value == 0.0

    def test_symmetric_pair_cancels(self):
        group = group_from_sequences("s", [(0, 1), (1, 0)], [0.0, 1.0])
        stats = reward_stats(group, POPULATION)
        adv = outcome_advantages(group, stats)
        report = objective_grpo(group, adv, token_terms(group, UNIT))
        assert report.value == 0.0

    def test_value_is_term_mean(self, overlap_group_logps):
        config = ObjectiveConfig(beta=0.04, assume_unit_ratio=False)
        stats = reward_stats(overlap_group_logps)
        adv = outcome_advantages(overlap_group_logps, stats)
        report = objective_grpo(
            overlap_group_logps, adv, token_terms(overlap_group_logps, config)
        )
        flat = [x for row in report.per_token_terms for x in row]
        assert report.value == math.fsum(flat) / overlap_group_logps.total_tokens

    def test_loss_is_negated(self, overlap_group):
        report, *_ = full_eval(overlap_group)
        assert report.loss == -report.value

    def test_all_empty_group(self):
        group = group_from_sequences("e", [(), ()], [0.0, 1.0])
        report, *_ = full_eval(group)
        assert report.value == 0.0
        assert report.total_tokens == 0


class TestObjectivePrm:
    def test_equals_grpo_on_overlap(self, overlap_group):
        grpo, prm, *_ = full_eval(overlap_group)
        assert prm.value == pytest.approx(grpo.value, abs=1e-15)
        assert prm.value == pytest.approx(OVERLAP_L_GRPO, abs=1e-12)

    def test_matches_node_oracle(self, overlap_group):
        seqs = [t.tokens for t in overlap_group.trajectories]
        _, prm, *_ = full_eval(overlap_group)
        assert prm.value == pytest.approx(
            node_sum_prm(seqs, list(overlap_group.rewards)), abs=1e-15
        )

    def test_trivial_tree_terms_identical(self, trivial_group):
        grpo, prm, *_ = full_eval(trivial_group)
        assert prm.per_token_terms == grpo.per_token_terms

    def test_random_groups_match_grpo(self):
        params = GenParams(seed=32, logp_mode="random_consistent", fork_bias=0.7)
        config = ObjectiveConfig(beta=0.04, assume_unit_ratio=False)
        for index in range(25):
            group = generate_random_group(params, index)
            grpo, prm, *_ = full_eval(group, config)
            scale = max(abs(grpo.value), abs(prm.value), 1e-3)
            assert abs(grpo.value - prm.value) / scale < 1e-9


class TestObjectiveLambda:
    def test_overlap_golden(self, overlap_group):
        *_, lam, _ = full_eval(overlap_group)
        assert lam.value == pytest.approx(OVERLAP_L_LAMBDA, abs=1e-12)

    def test_matches_both_oracles(self, overlap_group):
        seqs = [t.tokens for t in overlap_group.trajectories]
        rewards = list(overlap_group.rewards)
        *_, lam, _ = full_eval(overlap_group)
        assert lam.value == pytest.approx(token_sum_lambda(seqs, rewards), abs=1e-15)
        assert lam.value == pytest.approx(node_sum_lambda(seqs, rewards), abs=1e-13)

    def test_trivial_tree_equals_grpo_exactly(self, trivial_group):
        grpo, _, lam, _ = full_eval(trivial_group)
        assert lam.per_token_terms == grpo.per_token_terms
        assert lam.value == grpo.value

    def test_duplicate_pair_down_weighted(self, duplicate_group):
        grpo, _, lam, assignment = full_eval(duplicate_group)
        for i, traj in enumerate(duplicate_group.trajectories):
            for t in range(len(traj)):
                size = assignment.owner(i, t).size
                assert lam.per_token_terms[i][t] == grpo.per_token_terms[i][t] / size
        # the duplicated span really is halved
        assert assignment.owner(0, 1).size == 2
        assert lam.per_token_terms[0][1] == grpo.per_token_terms[0][1] / 2.0

    def test_scaling_law_per_token(self, overlap_group_logps):
        config = ObjectiveConfig(beta=0.04, assume_unit_ratio=False)
        grpo, _, lam, assignment = full_eval(overlap_group_logps, config)
        for i, traj in enumerate(overlap_group_logps.trajectories):
            for t in range(len(traj)):
                size = assignment.owner(i, t).size
                # division identity holds bitwise by construction
                assert lam.per_token_terms[i][t] == grpo.per_token_terms[i][t] / size
                # multiplicative form within a rounding
                assert size * lam.per_token_terms[i][t] == pytest.approx(
                    grpo.per_token_terms[i][t], rel=1e-12, abs=1e-300
                )


def signed_zero_group():
    # the mean reward is 0.0, so both -0.0 rewards give -0.0 advantages
    return group_from_sequences(
        "signed-zero", [(1, 2), (1, 3), (2,), (1, 2, 4)], [-0.0, -0.0, 1.0, -1.0]
    )


def bit_identity_groups():
    """Generated groups at fork bias 0, 0.5 and 1 with and without logps,
    the built-in degenerate groups (empty completions, duplicates, constant
    rewards) and the signed-zero group."""
    groups = [
        generate_random_group(
            GenParams(
                seed=41, k_range=(2, 8), length_range=(0, 10), fork_bias=fork_bias,
                logp_mode=logp_mode,
            ),
            index,
        )
        for fork_bias in (0.0, 0.5, 1.0)
        for logp_mode in (LOGP_ABSENT, LOGP_RANDOM_CONSISTENT)
        for index in range(25)
    ]
    return groups + degenerate_groups(True) + degenerate_groups(False) + [signed_zero_group()]


def bits(rows):
    return [[float.hex(term) for term in row] for row in rows]


def assert_per_token_bits(group, advantages, terms):
    """GRPO and lambda value and terms equal the per-token expression's bits."""
    seqs = [t.tokens for t in group.trajectories]
    assignment = assign_tokens(build_process_tree(group))
    reports = (
        (objective_grpo(group, advantages, terms), False),
        (objective_lambda(group, assignment, advantages, terms), True),
    )
    for report, set_size in reports:
        value, rows = token_sum_terms(seqs, advantages, *terms, set_size=set_size)
        assert float.hex(report.value) == float.hex(value), group.query_id
        assert bits(report.per_token_terms) == bits(rows), group.query_id


class TestNodeConstantRows:
    """Rows summed once per span keep the per-token expression's bits."""

    @pytest.mark.parametrize(
        "config",
        verification_configs(),
        ids=lambda c: f"beta={c.beta},unit={c.assume_unit_ratio}",
    )
    def test_matches_the_per_token_expression(self, config):
        for group in bit_identity_groups():
            stats = reward_stats(group)
            config_used = effective_config(group, config.beta, config.assume_unit_ratio)
            assert_per_token_bits(
                group, outcome_advantages(group, stats), token_terms(group, config_used)
            )

    def test_signed_zero_advantages_occur(self):
        group = signed_zero_group()
        advantages = outcome_advantages(group, reward_stats(group))
        assert [math.copysign(1.0, a) for a in advantages[:2]] == [-1.0, -1.0]
        assert advantages[:2] == [0.0, 0.0]

    @pytest.mark.parametrize("fill", [0.0, -0.0, -1.0, "mixed"])
    def test_kl_signs_at_beta_zero(self, fill):
        # 0.0 * d is -0.0 for a d of -0.0 or below, and -0.0 - -0.0 is +0.0:
        # a -0.0 advantage must not reach the span sum with such rows
        group = signed_zero_group()
        advantages = outcome_advantages(group, reward_stats(group))
        ones = [[1.0] * len(t) for t in group.trajectories]
        if fill == "mixed":
            kl = [[(-0.0, 0.0)[t % 2] for t in range(len(traj))] for traj in group.trajectories]
        else:
            kl = [[fill] * len(t) for t in group.trajectories]
        assert_per_token_bits(group, advantages, TokenTerms(ones, kl, 0.0))

    @pytest.mark.parametrize("fill", [math.inf, math.nan])
    def test_non_finite_kl_at_beta_zero_is_an_error(self, overlap_group, fill):
        # 0.0 * inf is nan, so these rows are not node-constant
        advantages = outcome_advantages(overlap_group, reward_stats(overlap_group))
        ones = [[1.0] * len(t) for t in overlap_group.trajectories]
        kl = [[0.0] * len(t) for t in overlap_group.trajectories]
        kl[0][1] = fill
        terms = TokenTerms(ones, kl, 0.0)
        assignment = assign_tokens(build_process_tree(overlap_group))
        with pytest.raises(ValueError, match="objective term overflows"):
            objective_grpo(overlap_group, advantages, terms)
        with pytest.raises(ValueError, match="objective term overflows"):
            objective_lambda(overlap_group, assignment, advantages, terms)


class TestLambdaWeights:
    def test_overlap_samples(self, overlap_group):
        tree = build_process_tree(overlap_group)
        weights = lambda_weights(assign_tokens(tree))
        assert weights[2][0] == pytest.approx(1.0 / 3.0)
        assert weights[3][4] == 0.5
        assert weights[0][3] == 1.0

    def test_trivial_all_ones(self, trivial_group):
        tree = build_process_tree(trivial_group)
        weights = lambda_weights(assign_tokens(tree))
        assert all(w == 1.0 for row in weights for w in row)

    def test_identical_trajectories_share_equally(self):
        group = group_from_sequences("same", [(7, 7)] * 4, [1.0, 0.0, 1.0, 0.0])
        tree = build_process_tree(group)
        weights = lambda_weights(assign_tokens(tree))
        assert all(w == 0.25 for row in weights for w in row)

    def test_in_unit_interval(self):
        params = GenParams(seed=33, fork_bias=0.8)
        for index in range(20):
            group = generate_random_group(params, index)
            tree = build_process_tree(group)
            weights = lambda_weights(assign_tokens(tree))
            assert all(0.0 < w <= 1.0 for row in weights for w in row)
