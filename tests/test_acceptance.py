"""Acceptance gates. Each test checks one release criterion at its stated
tolerance and prints a PASS line (visible with ``pytest -s``).

The numeric goldens were frozen from the brute-force oracles in
``tests/oracles.py`` (direct arithmetic, explicit process-set enumeration,
and two independent summation orders) before the package was built.
"""

import math
import time

import pytest

from steptree import (
    Group,
    ObjectiveConfig,
    Trajectory,
    analytic_gradient,
    SimConfig,
    assign_tokens,
    build_process_tree,
    exploitation_scenario,
    finite_diff_check,
    is_trivial,
    lambda_weights,
    node_gradient,
    objective_grpo,
    objective_lambda,
    objective_prm,
    one_step_comparison,
    outcome_advantages,
    reward_stats,
    rollout_group,
    step_advantages,
    token_terms,
)
from steptree.cli import main
from steptree.io import iter_groups, serialize_group
from steptree.metrics import aggregate_metrics, group_metrics
from steptree.sim import ToyEnv, ToyPolicy
from steptree.verify import (
    GenParams,
    LOGP_RANDOM_CONSISTENT,
    generate_random_group,
    run_verification,
    verification_configs,
)

from conftest import OVERLAP_REWARDS, OVERLAP_SEQS, make_overlap_group, make_trivial_group
from oracles import node_sum_lambda, node_sum_prm, token_sum_grpo, token_sum_lambda

# oracle-frozen goldens for the overlap fixture (unit ratios, beta = 0)
GOLDEN_L_GRPO = -0.13023748316766112
GOLDEN_L_LAMBDA = -0.032559370791915315
GOLDEN_SHARED_ADV = -0.22140372138502393

UNIT = ObjectiveConfig(beta=0.0, assume_unit_ratio=True)

ACCEPTANCE_PARAMS = GenParams(
    seed=7, k_range=(2, 16), length_range=(1, 64), fork_bias=0.5
)


def full_reports(group, config=UNIT):
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
    )


def test_criterion_1_equivalence_suite():
    """1000 random groups, beta in {0, 0.04}, ratio on/off: gap <= 1e-9."""
    start = time.perf_counter()
    equivalence, _ = run_verification(
        ACCEPTANCE_PARAMS,
        1000,
        configs=verification_configs(0.04),
        tol=1e-9,
        check_identities=False,
    )
    elapsed = time.perf_counter() - start
    assert equivalence.failures == []
    assert equivalence.max_rel_gap <= 1e-9
    assert equivalence.groups_checked >= 1000
    assert elapsed < 10.0
    print(
        f"criterion 1 (equivalence suite): PASS "
        f"[{equivalence.groups_checked} groups, max rel gap {equivalence.max_rel_gap:.2e}, "
        f"{elapsed:.1f}s]"
    )


def test_criterion_2_proof_identities():
    """Per-node sums, partition regrouping, and size scaling <= 1e-12."""
    equivalence, identities = run_verification(
        ACCEPTANCE_PARAMS,
        1000,
        configs=verification_configs(0.04),
        tol=1e-9,
    )
    assert identities is not None
    assert identities.tol == 1e-12
    assert identities.failures == []
    assert identities.max_rel_gap <= 1e-12
    # the mandatory degenerate shapes are part of every run
    degenerate_count = identities.groups_checked - 1000
    assert degenerate_count >= 6
    print(
        f"criterion 2 (proof identities): PASS "
        f"[max rel gap {identities.max_rel_gap:.2e}, "
        f"{degenerate_count} degenerate cases included]"
    )


def test_criterion_3_shared_step_advantage():
    """The three-member shared step scores -0.22 +- 0.005."""
    group = make_overlap_group()
    tree = build_process_tree(group)
    assignment = assign_tokens(tree)
    steps = step_advantages(tree, assignment, group, reward_stats(group))
    value = steps[2][0]
    assert value == steps[3][2] == steps[4][0]
    assert abs(value - (-0.22)) <= 0.005
    assert value == pytest.approx(GOLDEN_SHARED_ADV, abs=1e-15)
    print(f"criterion 3 (shared step advantage): PASS [{value:.6f} ~ -0.22]")


def test_criterion_4_structural_goldens():
    """Tree spans, token owners, path depth, and terminal proportion, exact."""
    group = make_overlap_group()
    tree = build_process_tree(group)
    spans = {n.members: (n.span_start, n.span_end) for n in tree.nodes}
    assert spans == {
        frozenset({0, 1, 2, 3, 4, 5}): (0, 0),
        frozenset({0, 1}): (0, 3),
        frozenset({2, 3, 4}): (0, 4),
        frozenset({3, 4}): (4, 6),
        frozenset({0}): (3, 6),
        frozenset({1}): (3, 5),
        frozenset({2}): (4, 6),
        frozenset({3}): (6, 7),
        frozenset({4}): (6, 8),
        frozenset({5}): (0, 2),
    }
    assignment = assign_tokens(tree)
    assert assignment.owner(0, 0).members == frozenset({0, 1})
    assert assignment.owner(0, 3).members == frozenset({0})
    assert assignment.owner(4, 5).members == frozenset({3, 4})
    metrics = group_metrics(tree, group)
    assert metrics.path_depth[3] == 2
    assert metrics.intermediate_proportion[3] == 6.0 / 7.0
    print("criterion 4 (structural goldens): PASS")


def test_criterion_5_objective_goldens():
    """Objective values confirmed by two independent summation orders."""
    group = make_overlap_group()
    seqs = [list(s) for s in OVERLAP_SEQS]
    rewards = list(OVERLAP_REWARDS)

    oracle_token_grpo = token_sum_grpo(seqs, rewards)
    oracle_node_prm = node_sum_prm(seqs, rewards)
    oracle_token_lambda = token_sum_lambda(seqs, rewards)
    oracle_node_lambda = node_sum_lambda(seqs, rewards)
    # the two summation orders agree with each other and with the goldens
    assert abs(oracle_token_grpo - oracle_node_prm) <= 1e-12
    assert abs(oracle_token_lambda - oracle_node_lambda) <= 1e-12
    assert oracle_token_grpo == pytest.approx(GOLDEN_L_GRPO, abs=1e-6)
    assert oracle_token_lambda == pytest.approx(GOLDEN_L_LAMBDA, abs=1e-6)

    grpo, prm, lam = full_reports(group)
    assert grpo.value == pytest.approx(GOLDEN_L_GRPO, abs=1e-6)
    assert prm.value == pytest.approx(GOLDEN_L_GRPO, abs=1e-6)
    assert lam.value == pytest.approx(GOLDEN_L_LAMBDA, abs=1e-6)
    assert abs(grpo.value - prm.value) <= 1e-12
    print(
        f"criterion 5 (objective goldens): PASS "
        f"[grpo/prm {grpo.value:.9f}, size-corrected {lam.value:.9f}]"
    )


def varied_rewards(group):
    """Replace rollout rewards with a generic deterministic spread.

    Low-discrepancy values avoid repeated rewards: equal-and-opposite
    advantages would cancel some logit gradients to exactly zero, where the
    fixed relative-error denominator measures pure finite-difference noise
    instead of the gradient.
    """
    return Group(
        query_id=group.query_id,
        trajectories=tuple(
            Trajectory(
                tokens=t.tokens,
                reward=math.fmod(0.7548776662 * (i + 1) + 0.3183098861 * sum(t.tokens), 1.0),
                logp_new=t.logp_new,
            )
            for i, t in enumerate(group.trajectories)
        ),
    )


def test_criterion_6_gradient_verification():
    """Analytic vs central differences <= 1e-4; size scaling exact."""
    worst = 0.0
    checked_nodes = 0
    checked_advantages = 0

    policy_a = ToyPolicy(vocab_size=3, horizon=8)
    policy_a.ensure_context(())[1] = 0.4
    policy_b = ToyPolicy(vocab_size=4, horizon=6, temperature=0.8)
    policy_c, _, constructed = exploitation_scenario()
    dummy_env_a = ToyEnv(reward_table={}, max_len=8)
    dummy_env_b = ToyEnv(reward_table={}, max_len=6)
    cases = [
        (policy_a, varied_rewards(rollout_group(policy_a, dummy_env_a, k=8, seed=61))),
        (policy_b, varied_rewards(rollout_group(policy_b, dummy_env_b, k=6, seed=62))),
        (policy_c, varied_rewards(rollout_group(policy_c, dummy_env_a, k=8, seed=63))),
        (policy_c, constructed),
    ]

    for policy, group in cases:
        stats = reward_stats(group)
        advantages = outcome_advantages(group, stats)
        nonzero = sum(1 for a in advantages if a != 0.0)
        assert nonzero >= 2  # the check must exercise real gradients
        checked_advantages += nonzero
        tree = build_process_tree(group)
        for objective in ("grpo", "lambda"):
            config = SimConfig(seed=0, k=group.k, objective=objective)
            worst = max(
                worst, finite_diff_check(policy, group, objective, config, h=1e-5)
            )
        # token-wise scaling: the restricted set-size-corrected gradient is
        # exactly the uncorrected one divided by the owning set size
        config = SimConfig(seed=0, k=group.k)
        for node in tree.nodes:
            if node.span_len == 0:
                continue
            grpo_grad = node_gradient(policy, group, node, "grpo", config)
            lam_grad = node_gradient(policy, group, node, "lambda", config)
            for ctx, vec in grpo_grad.items():
                for a, b in zip(vec, lam_grad[ctx]):
                    assert b == a / node.size
            checked_nodes += 1
    assert 0.0 < worst <= 1e-4
    print(
        f"criterion 6 (gradient verification): PASS "
        f"[max fd error {worst:.2e}, exact scaling on {checked_nodes} nodes]"
    )


def test_criterion_7_exploitation_scenario():
    """One step shrinks the shared-prefix probability; uncorrected pushes 3x."""
    policy, _, group = exploitation_scenario()
    config = SimConfig(seed=0, k=6, learn_rate=0.5, objective="grpo")
    comparison = one_step_comparison(policy, group, config)
    assert comparison.shared_size == 3
    assert comparison.grpo.prefix_prob_delta < 0.0
    assert comparison.lam.prefix_prob_delta < 0.0
    assert abs(comparison.grpo.prefix_prob_delta) > abs(comparison.lam.prefix_prob_delta)
    # exact 3x on the shared node's gradient contribution
    for ctx, vec in comparison.grpo.shared_gradient.items():
        for a, b in zip(vec, comparison.lam.shared_gradient[ctx]):
            assert b == a / 3.0
    # contexts strictly inside the shared prefix are touched by no other
    # tokens, so even the full gradients carry the exact factor
    advantages = outcome_advantages(group, reward_stats(group))
    ones = [[1.0] * len(t) for t in group.trajectories]
    corrected = lambda_weights(assign_tokens(build_process_tree(group)))
    grpo_grad = analytic_gradient(policy, group, advantages, ones)
    lam_grad = analytic_gradient(policy, group, advantages, corrected)
    for ctx in ((7,), (7, 7), (7, 7, 7)):
        for a, b in zip(grpo_grad[ctx], lam_grad[ctx]):
            assert a == pytest.approx(3.0 * b, rel=1e-12, abs=1e-300)
    print(
        f"criterion 7 (exploitation scenario): PASS "
        f"[grpo delta {comparison.grpo.prefix_prob_delta:.2e}, "
        f"corrected delta {comparison.lam.prefix_prob_delta:.2e}]"
    )


def test_criterion_8_determinism_and_io(tmp_path):
    """Byte-identical outputs; lossless round-trip over 10,000 groups."""
    # CLI byte determinism on identical (input, flags)
    dump = tmp_path / "dump.jsonl"
    dump.write_text(
        "".join(
            serialize_group(g) + "\n"
            for g in (make_overlap_group(step=2), make_trivial_group())
        ),
        encoding="utf-8",
    )
    for command in (
        ["analyze", str(dump), "--csv", "{out}"],
        ["tree", str(dump), "--group-id", "overlap", "-o", "{out}"],
        ["weights", str(dump), "--objective", "lambda", "-o", "{out}"],
    ):
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        assert main([arg.format(out=out_a) for arg in command]) == 0
        assert main([arg.format(out=out_b) for arg in command]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    # lossless JSONL round-trip at full float precision
    params = GenParams(
        seed=88,
        k_range=(2, 4),
        length_range=(0, 12),
        fork_bias=0.6,
        reward_dist="uniform",
        logp_mode=LOGP_RANDOM_CONSISTENT,
    )
    count = 0
    for index in range(10_000):
        group = generate_random_group(params, index)
        assert next(iter(iter_groups([serialize_group(group)]))) == group
        count += 1
    assert count == 10_000
    print(f"criterion 8 (determinism and io): PASS [{count} groups round-tripped]")


def test_criterion_9_triviality_semantics():
    """Trivial groups collapse step advantages to outcome advantages."""
    trivial_params = GenParams(
        seed=99,
        k_range=(2, 6),
        vocab_size=8,
        fork_bias=0.0,
        force_distinct_first=True,
        reward_dist="uniform",
    )
    for index in range(25):
        group = generate_random_group(trivial_params, index)
        tree = build_process_tree(group)
        assert is_trivial(tree)
        stats = reward_stats(group)
        adv = outcome_advantages(group, stats)
        assignment = assign_tokens(tree)
        steps = step_advantages(tree, assignment, group, stats)
        for i in range(group.k):
            for t in range(len(group.trajectories[i])):
                assert steps[i][t] == adv[i]
        terms = token_terms(group, UNIT)
        grpo = objective_grpo(group, adv, terms)
        prm = objective_prm(group, steps, terms)
        assert prm.per_token_terms == grpo.per_token_terms

    # aggregate fraction over a mixed stream
    stream = []
    trivial_count = 0
    for index in range(67):
        if index % 5 == 0:
            group = make_overlap_group()
        else:
            group = generate_random_group(trivial_params, 1000 + index)
            trivial_count += 1
        stream.append(group_metrics(build_process_tree(group), group))
    summary = aggregate_metrics(stream)
    assert summary.group_count == 67
    assert summary.trivial_count == trivial_count
    assert summary.trivial_fraction == trivial_count / 67
    print(
        f"criterion 9 (triviality semantics): PASS "
        f"[{trivial_count}/67 trivial in mixed stream]"
    )
