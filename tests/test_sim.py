import math
import random
from itertools import accumulate
from types import SimpleNamespace

import pytest

import steptree.rewards
import steptree.sim
from steptree import (
    Group,
    SimConfig,
    Trajectory,
    ToyEnv,
    ToyPolicy,
    analytic_gradient,
    assign_tokens,
    build_process_tree,
    exploitation_scenario,
    finite_diff_check,
    lambda_weights,
    node_gradient,
    one_step_comparison,
    outcome_advantages,
    reward_stats,
    rollout_group,
    run_experiment,
)
from steptree.sim import best_sequence, expected_reward, sequence_probability, surrogate_value

GRPO_CFG = SimConfig(seed=0, k=4, steps=1, learn_rate=0.1, objective="grpo")
LAMBDA_CFG = SimConfig(seed=0, k=4, steps=1, learn_rate=0.1, objective="lambda")
ONE_STEP_CFG = SimConfig(seed=0, k=4, steps=1, learn_rate=0.5, objective="grpo")


def gradient_inputs(group, objective):
    """Outcome advantages and per-token weight rows of the objective."""
    advantages = outcome_advantages(group, reward_stats(group))
    if objective == "grpo":
        return advantages, [[1.0] * len(t) for t in group.trajectories]
    return advantages, lambda_weights(assign_tokens(build_process_tree(group)))


def small_env(max_len=4, terminal=None):
    return ToyEnv(
        reward_table={(0, 1, 2, 0): 1.0, (1, 1, 1, 1): 0.5, (2, 0, 1, 2): 0.25},
        max_len=max_len,
        terminal_token=terminal,
    )


class TestPolicy:
    def test_probs_normalized(self):
        policy = ToyPolicy(vocab_size=5, temperature=0.7)
        policy.ensure_context((1, 2))[3] = 2.5
        for ctx in ((), (1, 2), (4, 4, 4, 4)):
            probs = policy.softmax(ctx)[0]
            assert abs(math.fsum(probs) - 1.0) < 1e-12
            assert all(p > 0 for p in probs)

    def test_logprobs_match_probs(self):
        policy = ToyPolicy(vocab_size=4, temperature=2.0)
        policy.ensure_context((0,))[1] = -1.0
        probs, logps = policy.softmax((0,))
        for p, lp in zip(probs, logps):
            assert lp <= 0.0 or p > 1.0 - 1e-12
            assert math.exp(lp) == pytest.approx(p, rel=1e-12)

    def test_context_truncation(self):
        policy = ToyPolicy(vocab_size=3, context_order=2)
        assert policy.context((1, 2, 0, 1)) == (0, 1)
        assert policy.context(()) == ()
        stateless = ToyPolicy(vocab_size=3, context_order=0)
        assert stateless.context((1, 2)) == ()

    def test_sequence_logps_consistent(self):
        policy = ToyPolicy(vocab_size=3)
        policy.ensure_context(())[2] = 1.0
        seq = (2, 0, 1)
        logps = policy.sequence_logps(seq)
        prob = math.exp(math.fsum(logps))
        assert prob == pytest.approx(sequence_probability(policy, seq), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ToyPolicy(vocab_size=1)
        with pytest.raises(ValueError):
            ToyPolicy(vocab_size=17)
        with pytest.raises(ValueError):
            ToyPolicy(vocab_size=4, temperature=0.0)
        with pytest.raises(ValueError):
            ToyPolicy(vocab_size=4, horizon=13)


class TestEnv:
    def test_reward_lookup_defaults_to_zero(self):
        env = small_env()
        assert env.reward((0, 1, 2, 0)) == 1.0
        assert env.reward((3, 3, 3, 3)) == 0.0

    def test_rejects_overlong_sequences(self):
        with pytest.raises(ValueError):
            ToyEnv(reward_table={(1, 1, 1): 1.0}, max_len=2)

    def test_rejects_interior_terminal(self):
        with pytest.raises(ValueError):
            ToyEnv(reward_table={(3, 0, 1): 1.0}, max_len=4, terminal_token=0)

    def test_completion_semantics(self):
        env = ToyEnv(reward_table={}, max_len=3, terminal_token=0)
        assert env.is_complete((1, 0))
        assert env.is_complete((1, 2, 1))
        assert not env.is_complete((1, 2))
        assert not env.is_complete((0, 1, 2))


class TestRollout:
    def test_deterministic(self):
        policy = ToyPolicy(vocab_size=3, horizon=4)
        env = small_env()
        a = rollout_group(policy, env, k=4, seed=123)
        b = rollout_group(policy, env, k=4, seed=123)
        assert a == b
        c = rollout_group(policy, env, k=4, seed=124)
        assert a != c

    def test_recorded_logps_match_policy(self):
        policy = ToyPolicy(vocab_size=3, horizon=4)
        policy.ensure_context(())[0] = 0.5
        group = rollout_group(policy, small_env(), k=3, seed=7)
        for traj in group.trajectories:
            assert traj.logp_new == tuple(policy.sequence_logps(traj.tokens))

    def test_terminal_token_stops(self):
        policy = ToyPolicy(vocab_size=3, horizon=8)
        env = ToyEnv(reward_table={}, max_len=8, terminal_token=1)
        group = rollout_group(policy, env, k=6, seed=5)
        for traj in group.trajectories:
            inner = traj.tokens[:-1]
            assert 1 not in inner
            assert len(traj) == 8 or traj.tokens[-1] == 1

    def test_near_greedy_policy_collapses_group(self):
        policy = ToyPolicy(vocab_size=4, horizon=4, temperature=0.02, context_order=0)
        policy.ensure_context(())[2] = 1.0
        env = ToyEnv(reward_table={}, max_len=4)
        group = rollout_group(policy, env, k=5, seed=11)
        assert all(t.tokens == (2, 2, 2, 2) for t in group.trajectories)
        tree = build_process_tree(group)
        assert tree.root.span_end == 4
        assignment = assign_tokens(tree)
        assert all(tree.nodes[n].size == 5 for path in assignment.paths for n in path)


class TestGradients:
    def test_zero_advantages_zero_gradient(self):
        policy = ToyPolicy(vocab_size=3, horizon=4)
        env = ToyEnv(reward_table={}, max_len=4)  # every rollout earns 0
        group = rollout_group(policy, env, k=4, seed=3)
        for objective in ("grpo", "lambda"):
            grad = analytic_gradient(policy, group, *gradient_inputs(group, objective))
            assert all(g == 0.0 for vec in grad.values() for g in vec)

    def test_finite_difference_small(self):
        policy = ToyPolicy(vocab_size=3, horizon=4)
        policy.ensure_context(())[1] = 0.3
        rolled = rollout_group(policy, small_env(), k=4, seed=21)
        # rollouts rarely hit the sparse table; give the group real spread
        group = Group(
            query_id="fd",
            trajectories=tuple(
                Trajectory(tokens=t.tokens, reward=float(i % 2), logp_new=t.logp_new)
                for i, t in enumerate(rolled.trajectories)
            ),
        )
        for objective, config in (("grpo", GRPO_CFG), ("lambda", LAMBDA_CFG)):
            err = finite_diff_check(policy, group, objective, config)
            assert 0.0 < err <= 1e-4

    def test_finite_difference_shared_structure(self):
        policy, _, group = exploitation_scenario()
        for objective, config in (("grpo", GRPO_CFG), ("lambda", LAMBDA_CFG)):
            err = finite_diff_check(policy, group, objective, config)
            assert 0.0 < err <= 1e-4

    def test_gradient_matches_probability_shift(self):
        # ascending the objective must increase the probability of the
        # positive-advantage completion
        policy = ToyPolicy(vocab_size=3, horizon=2, context_order=1)
        env = ToyEnv(reward_table={(0, 0): 1.0}, max_len=2)
        group = rollout_group(policy, env, k=6, seed=2)
        assert any(t.reward == 1.0 for t in group.trajectories)
        before = sequence_probability(policy, (0, 0))
        grad = analytic_gradient(policy, group, *gradient_inputs(group, "grpo"))
        policy.apply_gradient(grad, 0.5)
        assert sequence_probability(policy, (0, 0)) > before

    def test_surrogate_at_rollout_policy_equals_objective(self):
        from steptree import (
            ObjectiveConfig,
            objective_grpo,
            outcome_advantages,
            reward_stats,
            token_terms,
        )

        policy = ToyPolicy(vocab_size=3, horizon=4)
        group = rollout_group(policy, small_env(), k=4, seed=9)
        stats = reward_stats(group)
        adv = outcome_advantages(group, stats)
        report = objective_grpo(
            group, adv, token_terms(group, ObjectiveConfig(beta=0.0))
        )
        value = surrogate_value(policy, group, *gradient_inputs(group, "grpo"))
        assert value == pytest.approx(
            report.value, rel=1e-12, abs=1e-15
        )

    def test_node_restricted_scaling_exact(self):
        policy, _, group = exploitation_scenario()
        tree = build_process_tree(group)
        for node in tree.nodes:
            if node.span_len == 0:
                continue
            grpo = node_gradient(policy, group, node, "grpo", GRPO_CFG)
            lam = node_gradient(policy, group, node, "lambda", LAMBDA_CFG)
            assert set(grpo) == set(lam)
            for ctx in grpo:
                for a, b in zip(grpo[ctx], lam[ctx]):
                    assert b == a / node.size  # bitwise

    def test_node_gradients_compose_to_full(self):
        policy, _, group = exploitation_scenario()
        tree = build_process_tree(group)
        full = analytic_gradient(policy, group, *gradient_inputs(group, "lambda"))
        composed: dict = {}
        for node in tree.nodes:
            for ctx, vec in node_gradient(
                policy, group, node, "lambda", LAMBDA_CFG
            ).items():
                acc = composed.setdefault(ctx, [0.0] * policy.vocab_size)
                for v, g in enumerate(vec):
                    acc[v] += g
        assert set(composed) == set(full)
        for ctx in full:
            for a, b in zip(full[ctx], composed[ctx]):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-18)


class TestExploitation:
    def test_shared_prefix_identified(self):
        policy, _, group = exploitation_scenario()
        comparison = one_step_comparison(policy, group, ONE_STEP_CFG)
        assert comparison.shared_prefix == (7, 7, 7, 7)
        assert comparison.shared_members == (2, 3, 4)
        assert comparison.shared_size == 3

    def test_prefix_probability_decreases_under_both(self):
        policy, _, group = exploitation_scenario()
        comparison = one_step_comparison(policy, group, ONE_STEP_CFG)
        assert comparison.grpo.prefix_prob_delta < 0.0
        assert comparison.lam.prefix_prob_delta < 0.0
        # the uncorrected objective pushes harder
        assert abs(comparison.grpo.prefix_prob_delta) > abs(
            comparison.lam.prefix_prob_delta
        )

    def test_shared_gradient_ratio_is_member_count(self):
        policy, _, group = exploitation_scenario()
        comparison = one_step_comparison(policy, group, ONE_STEP_CFG)
        for ctx, vec in comparison.grpo.shared_gradient.items():
            lam_vec = comparison.lam.shared_gradient[ctx]
            for a, b in zip(vec, lam_vec):
                assert b == a / 3.0  # bitwise

    def test_inner_prefix_full_gradient_ratio(self):
        # contexts strictly inside the shared prefix are touched only by
        # the shared set's tokens, so even the full gradients differ by
        # exactly the member count there
        policy, _, group = exploitation_scenario()
        grpo = analytic_gradient(policy, group, *gradient_inputs(group, "grpo"))
        lam = analytic_gradient(policy, group, *gradient_inputs(group, "lambda"))
        for ctx in ((7,), (7, 7), (7, 7, 7)):
            for a, b in zip(grpo[ctx], lam[ctx]):
                assert a == pytest.approx(3.0 * b, rel=1e-12, abs=1e-300)

    def test_scenario_policy_is_rollout_consistent(self):
        policy, _, group = exploitation_scenario()
        for traj in group.trajectories:
            assert traj.logp_new == tuple(policy.sequence_logps(traj.tokens))


class TestExperiment:
    def test_deterministic_series(self):
        env = small_env()
        config = SimConfig(seed=5, k=4, steps=4, learn_rate=0.3, objective="grpo")
        rows_a = run_experiment(ToyPolicy(vocab_size=3, horizon=4), env, config)
        rows_b = run_experiment(ToyPolicy(vocab_size=3, horizon=4), env, config)
        assert rows_a == rows_b
        assert [r.step for r in rows_a] == [0, 1, 2, 3]

    def test_constant_reward_env_leaves_policy_unchanged(self):
        policy = ToyPolicy(vocab_size=3, horizon=3)
        env = ToyEnv(reward_table={}, max_len=3)
        config = SimConfig(seed=6, k=4, steps=3, learn_rate=0.5, objective="lambda")
        rows = run_experiment(policy, env, config)
        assert all(r.objective_value == 0.0 for r in rows)
        assert all(
            all(z == 0.0 for z in vec) for vec in policy.logits.values()
        )

    def test_learning_lifts_expected_reward(self):
        env = ToyEnv(reward_table={(0, 0): 1.0}, max_len=2)
        policy = ToyPolicy(vocab_size=3, horizon=2)
        config = SimConfig(seed=8, k=6, steps=25, learn_rate=0.8, objective="grpo")
        rows = run_experiment(policy, env, config)
        assert rows[-1].expected_reward > rows[0].expected_reward
        assert expected_reward(policy, env) > 0.3

    @pytest.mark.parametrize("token", [5, -1])
    def test_table_token_outside_vocabulary(self, token):
        env = ToyEnv(reward_table={(token,): 1.0}, max_len=2)
        config = SimConfig(seed=1, k=2, steps=1, objective="grpo")
        with pytest.raises(ValueError, match="vocabulary"):
            run_experiment(ToyPolicy(vocab_size=2, horizon=2), env, config)

    def test_expected_reward_exact(self):
        policy = ToyPolicy(vocab_size=2, horizon=2)
        env = ToyEnv(reward_table={(0, 0): 1.0, (1, 1): 2.0}, max_len=2)
        # uniform policy: every length-2 sequence has probability 1/4
        assert expected_reward(policy, env) == pytest.approx(0.25 * 1.0 + 0.25 * 2.0)
        assert best_sequence(env) == (1, 1)

    def test_objective_validated(self):
        with pytest.raises(ValueError):
            SimConfig(objective="ppo")


@pytest.fixture
def derivations(monkeypatch):
    """Calls of ``build_process_tree`` and ``reward_stats`` made by ``sim``,
    directly or through the group derivation in ``rewards``."""
    counts = {"build_process_tree": 0, "reward_stats": 0}
    for module in (steptree.sim, steptree.rewards):
        for name in counts:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


class TestWorkCounts:
    def test_experiment_derives_each_step_once(self, derivations):
        config = SimConfig(seed=3, k=6, steps=5, learn_rate=0.5, objective="lambda")
        run_experiment(ToyPolicy(vocab_size=3, horizon=4), small_env(), config)
        assert derivations == {"build_process_tree": 5, "reward_stats": 5}

    def test_finite_difference_derives_once(self, derivations):
        policy, _, group = exploitation_scenario()
        assert finite_diff_check(policy, group, "lambda", LAMBDA_CFG) <= 1e-4
        assert derivations == {"build_process_tree": 1, "reward_stats": 1}

    def test_one_step_comparison_builds_one_tree(self, derivations):
        policy, _, group = exploitation_scenario()
        one_step_comparison(policy, group, ONE_STEP_CFG)
        assert derivations["build_process_tree"] == 1


def separate_softmax(policy, ctx):
    """Probabilities and log-probabilities, each computed on its own."""
    vec = policy.logits.get(ctx, [0.0] * policy.vocab_size)
    scaled = [z / policy.temperature for z in vec]
    top = max(scaled)
    exps = [math.exp(z - top) for z in scaled]
    total = math.fsum(exps)
    log_norm = top + math.log(math.fsum(math.exp(z - top) for z in scaled))
    return [e / total for e in exps], [z - log_norm for z in scaled]


def test_softmax_halves_are_bitwise_the_separate_forms():
    rng = random.Random(17)
    for _ in range(200):
        vocab = rng.randint(2, 16)
        policy = ToyPolicy(vocab_size=vocab, temperature=rng.choice([0.05, 0.7, 1.0, 3.0]))
        ctx = (rng.randrange(vocab),)
        policy.ensure_context(ctx)[:] = [rng.uniform(-40.0, 40.0) for _ in range(vocab)]
        for c in (ctx, ()):
            probs, logps = policy.softmax(c)
            expected = separate_softmax(policy, c)
            last = [policy.sequence_logps(c + (t,))[-1] for t in range(vocab)]
            assert [x.hex() for x in last] == [x.hex() for x in logps]
            assert [x.hex() for x in probs] == [x.hex() for x in expected[0]]
            assert [x.hex() for x in logps] == [x.hex() for x in expected[1]]


@pytest.fixture
def softmax_calls(monkeypatch):
    """Contexts passed to ``ToyPolicy.softmax``, in call order."""
    calls = []
    original = ToyPolicy.softmax

    def counted(self, ctx):
        calls.append(ctx)
        return original(self, ctx)

    monkeypatch.setattr(ToyPolicy, "softmax", counted)
    return calls


def test_one_softmax_per_context_per_call(softmax_calls):
    policy = ToyPolicy(vocab_size=3, horizon=6, context_order=2)
    policy.ensure_context(())[1] = 0.4
    group = rollout_group(policy, small_env(max_len=6), k=12, seed=4)
    contexts = sorted(
        {policy.context(t.tokens[:n]) for t in group.trajectories for n in range(len(t))}
    )
    assert group.total_tokens > 2 * len(contexts)  # contexts do repeat
    assert sorted(softmax_calls) == contexts
    inputs = gradient_inputs(group, "lambda")
    for call in (analytic_gradient, surrogate_value, analytic_gradient):
        softmax_calls.clear()
        call(policy, group, *inputs)
        assert sorted(softmax_calls) == contexts, call.__name__


def loop_rollout(policy, env, k, seed):
    """Rollouts drawn with a running-sum loop and a softmax per token."""
    rng = random.Random(seed)
    groups = []
    for _ in range(k):
        tokens, logps = [], []
        while len(tokens) < min(policy.horizon, env.max_len):
            ctx = policy.context(tokens)
            u, cum, token = rng.random(), 0.0, policy.vocab_size - 1
            for v, pv in enumerate(separate_softmax(policy, ctx)[0]):
                cum += pv
                if u < cum:
                    token = v
                    break
            logps.append(separate_softmax(policy, ctx)[1][token])
            tokens.append(token)
            if token == env.terminal_token:
                break
        groups.append((tuple(tokens), tuple(logps)))
    return groups


def loop_gradient(policy, group, advantages, weights):
    """The score-function gradient accumulated coordinate by coordinate."""
    gradient = {}
    for i, traj in enumerate(group.trajectories):
        for t, token in enumerate(traj.tokens):
            coef = weights[i][t] * advantages[i] * (1.0 / policy.temperature)
            coef /= group.total_tokens
            ctx = policy.context(traj.tokens[:t])
            grad = gradient.setdefault(ctx, [0.0] * policy.vocab_size)
            for v, pv in enumerate(separate_softmax(policy, ctx)[0]):
                grad[v] -= coef * pv
            grad[token] += coef
    return gradient


@pytest.mark.parametrize("temperature", [0.02, 0.5, 1.0, 4.0])
def test_rollout_and_gradient_match_the_loop_forms(temperature):
    rng = random.Random(int(temperature * 100))
    policy = ToyPolicy(vocab_size=4, horizon=8, temperature=temperature, context_order=2)
    for ctx in ((), (0,), (1, 2), (3, 3)):
        policy.ensure_context(ctx)[:] = [rng.uniform(-2.0, 2.0) for _ in range(4)]
    env = ToyEnv(reward_table={(3,): 1.0, (0, 3): 0.5}, max_len=8, terminal_token=3)
    for seed in range(5):
        group = rollout_group(policy, env, k=16, seed=seed)
        drawn = [(t.tokens, t.logp_new) for t in group.trajectories]
        assert drawn == loop_rollout(policy, env, 16, seed)
        for objective in ("grpo", "lambda"):
            inputs = gradient_inputs(group, objective)
            gradient = analytic_gradient(policy, group, *inputs)
            # repr tells -0.0 from 0.0 and shows the context order
            assert repr(gradient) == repr(loop_gradient(policy, group, *inputs))


class TopDraw:
    """A generator whose every draw is the largest value random() returns."""

    def __init__(self, seed):
        pass

    def random(self):
        return 1.0 - 2.0**-53


def test_draw_past_the_last_running_sum_takes_the_last_token(monkeypatch):
    # ten probabilities of 0.1 sum to 1 - 2**-53, so the top draw passes them all
    monkeypatch.setattr(steptree.sim, "random", SimpleNamespace(Random=TopDraw))
    policy = ToyPolicy(vocab_size=10, horizon=2, context_order=0)
    assert list(accumulate(policy.softmax(())[0]))[-1] == TopDraw(0).random()
    group = rollout_group(policy, ToyEnv(reward_table={}, max_len=2), k=2, seed=0)
    assert [t.tokens for t in group.trajectories] == [(9, 9), (9, 9)]
