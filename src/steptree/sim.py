"""Deterministic tabular policy and environment for objective comparisons.

The policy is a softmax over per-context logit vectors, with contexts
truncated to the last few tokens so the table stays finite. Rollouts record
exact per-token log-probabilities, analytic score-function gradients are
available for both objectives, and central finite differences certify them.
The headline demonstration is a constructed group in which the
highest-reward completion shares a long prefix with low-reward completions:
one gradient step shrinks the shared-prefix probability under both
objectives, and the uncorrected objective pushes exactly |owning set| times
harder on the shared coordinates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .core import (
    DEFAULT_EPSILON,
    Group,
    SAMPLE,
    STD_MODES,
    Trajectory,
    outcome_advantages,
    reward_stats,
)
from .objectives import (
    GRPO,
    LAMBDA,
    ObjectiveConfig,
    lambda_weights,
    objective_grpo,
    objective_lambda,
    token_terms,
)
from .tree import ProcessNode, assign_tokens, build_process_tree

Context = tuple[int, ...]
GradientTable = dict[Context, list[float]]

OBJECTIVES = (GRPO, LAMBDA)


@dataclass
class ToyPolicy:
    """Tabular softmax policy over a small token vocabulary.

    ``logits`` maps a context (the last ``context_order`` tokens) to a
    logit vector; missing contexts are uniform. The next-token distribution
    is softmax(logits / temperature).
    """

    vocab_size: int
    horizon: int = 12
    temperature: float = 1.0
    context_order: int = 4
    logits: dict[Context, list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 2 <= self.vocab_size <= 16:
            raise ValueError("vocab_size must be in [2, 16]")
        if not 1 <= self.horizon <= 12:
            raise ValueError("horizon must be in [1, 12]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        if self.context_order < 0:
            raise ValueError("context_order must be >= 0")
        for ctx, vec in self.logits.items():
            if len(vec) != self.vocab_size:
                raise ValueError(f"logit vector for {ctx} has wrong length")

    def context(self, prefix: Sequence[int]) -> Context:
        if self.context_order == 0:
            return ()
        return tuple(prefix[-self.context_order :])

    def logits_at(self, ctx: Context) -> list[float]:
        vec = self.logits.get(ctx)
        return list(vec) if vec is not None else [0.0] * self.vocab_size

    def ensure_context(self, ctx: Context) -> list[float]:
        vec = self.logits.get(ctx)
        if vec is None:
            vec = [0.0] * self.vocab_size
            self.logits[ctx] = vec
        return vec

    def probs(self, ctx: Context) -> list[float]:
        scaled = [z / self.temperature for z in self.logits_at(ctx)]
        top = max(scaled)
        exps = [math.exp(z - top) for z in scaled]
        total = math.fsum(exps)
        return [e / total for e in exps]

    def logprobs(self, ctx: Context) -> list[float]:
        scaled = [z / self.temperature for z in self.logits_at(ctx)]
        top = max(scaled)
        log_norm = top + math.log(math.fsum(math.exp(z - top) for z in scaled))
        return [z - log_norm for z in scaled]

    def sequence_logps(self, tokens: Sequence[int]) -> list[float]:
        """Log-probability of each token given its context along the way."""
        out = []
        prefix: list[int] = []
        for tok in tokens:
            out.append(self.logprobs(self.context(prefix))[tok])
            prefix.append(tok)
        return out

    def copy(self) -> "ToyPolicy":
        return ToyPolicy(
            vocab_size=self.vocab_size,
            horizon=self.horizon,
            temperature=self.temperature,
            context_order=self.context_order,
            logits={ctx: list(vec) for ctx, vec in self.logits.items()},
        )

    def apply_gradient(self, gradient: GradientTable, learn_rate: float) -> None:
        """Ascend the objective: logits += learn_rate * gradient."""
        for ctx, grad in gradient.items():
            vec = self.ensure_context(ctx)
            for v, g in enumerate(grad):
                vec[v] += learn_rate * g


@dataclass
class ToyEnv:
    """Reward lookup over complete token sequences.

    Sequences not in the table earn the default reward 0. Rollouts stop
    when ``terminal_token`` is produced or ``max_len`` is reached, so every
    rollout terminates.
    """

    reward_table: dict[tuple[int, ...], float]
    max_len: int
    terminal_token: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        self.reward_table = {tuple(k): float(v) for k, v in self.reward_table.items()}
        for seq in self.reward_table:
            if len(seq) > self.max_len:
                raise ValueError(f"reward sequence {seq} longer than max_len")
            if self.terminal_token is not None and self.terminal_token in seq[:-1]:
                raise ValueError(f"terminal token inside reward sequence {seq}")

    def reward(self, tokens: Sequence[int]) -> float:
        return self.reward_table.get(tuple(tokens), 0.0)

    def is_complete(self, tokens: Sequence[int]) -> bool:
        """Whether a rollout could stop with exactly this sequence."""
        if len(tokens) > self.max_len:
            return False
        if self.terminal_token is not None:
            if self.terminal_token in tokens[:-1]:
                return False
            if tokens and tokens[-1] == self.terminal_token:
                return True
        return len(tokens) == self.max_len


@dataclass(frozen=True)
class SimConfig:
    """Experiment knobs: group size, steps, objective, normalization; no KL term."""

    seed: int = 0
    k: int = 6
    steps: int = 10
    learn_rate: float = 0.5
    objective: str = GRPO
    std_mode: str = SAMPLE
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.std_mode not in STD_MODES:
            raise ValueError(f"std_mode must be one of {STD_MODES}")


def rollout_group(
    policy: ToyPolicy,
    env: ToyEnv,
    k: int,
    seed,
    query_id: str = "sim",
) -> Group:
    """Sample k trajectories autoregressively, recording exact log-probs."""
    rng = random.Random(seed)
    limit = min(policy.horizon, env.max_len)
    trajectories = []
    for _ in range(k):
        tokens: list[int] = []
        logps: list[float] = []
        while len(tokens) < limit:
            ctx = policy.context(tokens)
            probs = policy.probs(ctx)
            u = rng.random()
            cum = 0.0
            token = policy.vocab_size - 1
            for v, pv in enumerate(probs):
                cum += pv
                if u < cum:
                    token = v
                    break
            logps.append(policy.logprobs(ctx)[token])
            tokens.append(token)
            if env.terminal_token is not None and token == env.terminal_token:
                break
        trajectories.append(
            Trajectory(
                tokens=tuple(tokens),
                reward=env.reward(tokens),
                logp_new=tuple(logps),
            )
        )
    return Group(query_id=query_id, trajectories=tuple(trajectories))


def _token_weights(group: Group, objective: str) -> list[list[float]]:
    if objective == GRPO:
        return [[1.0] * len(t) for t in group.trajectories]
    return lambda_weights(assign_tokens(build_process_tree(group)))


def _score_sum(
    policy: ToyPolicy,
    group: Group,
    spans: Iterable[tuple[int, int, int]],
    advantages: Sequence[float],
    weights: Sequence[Sequence[float]],
) -> GradientTable:
    """Sum of weight * advantage * grad(log pi(token | ctx)) / total_tokens.

    ``spans`` holds (completion, start, end) token ranges. For a softmax,
    grad(log pi) is (indicator - probs) / temperature.
    """
    total = group.total_tokens
    gradient: GradientTable = {}
    inv_temp = 1.0 / policy.temperature
    for i, start, end in spans:
        tokens = group.trajectories[i].tokens
        prefix = list(tokens[:start])
        for t in range(start, end):
            coef = weights[i][t] * advantages[i] * inv_temp / total
            ctx = policy.context(prefix)
            grad = gradient.get(ctx)
            if grad is None:
                grad = [0.0] * policy.vocab_size
                gradient[ctx] = grad
            for v, pv in enumerate(policy.probs(ctx)):
                grad[v] -= coef * pv
            grad[tokens[t]] += coef
            prefix.append(tokens[t])
    return gradient


def analytic_gradient(
    policy: ToyPolicy,
    group: Group,
    advantages: Sequence[float],
    weights: Sequence[Sequence[float]],
) -> GradientTable:
    """Exact gradient of the objective with respect to every touched logit.

    Score-function form: with the ratio evaluated at the current policy,
    each token contributes weight * advantage * grad(log pi) / total_tokens.
    ``advantages`` are the outcome advantages and ``weights`` the per-token
    weight rows (1 for GRPO, 1/|owning set| for the corrected objective).
    """
    spans = ((i, 0, len(t)) for i, t in enumerate(group.trajectories))
    return _score_sum(policy, group, spans, advantages, weights)


def node_gradient(
    policy: ToyPolicy,
    group: Group,
    node: ProcessNode,
    objective: str,
    config: SimConfig,
) -> GradientTable:
    """Gradient contribution of the tokens owned by one process set.

    The per-token weight is constant (1 or 1/|members|) across the node, so
    the set-size-corrected contribution is computed as the uncorrected sum
    divided once by the set size; the two objectives' restricted gradients
    therefore differ by exactly that factor, coordinate by coordinate.
    """
    stats = reward_stats(group, config.std_mode, config.epsilon)
    spans = ((i, node.span_start, node.span_end) for i in node.sorted_members())
    advantages = outcome_advantages(group, stats)
    units = _token_weights(group, GRPO)
    gradient = _score_sum(policy, group, spans, advantages, units)
    if objective == LAMBDA:
        size = node.size
        for grad in gradient.values():
            grad[:] = [g / size for g in grad]
    return gradient


def surrogate_value(
    policy: ToyPolicy,
    group: Group,
    advantages: Sequence[float],
    weights: Sequence[Sequence[float]],
) -> float:
    """Objective as a differentiable function of the policy logits.

    The ratio term is exp(logpi_current - logp_at_rollout) with the
    advantages and weights held fixed; at the rollout policy itself every
    ratio is 1 and the gradient reduces to the score-function form.
    """
    total = group.total_tokens
    if total == 0:
        return 0.0
    terms = []
    for i, traj in enumerate(group.trajectories):
        if traj.logp_new is None:
            raise ValueError("surrogate evaluation needs rollout logp_new")
        adv = advantages[i]
        prefix: list[int] = []
        for t, token in enumerate(traj.tokens):
            ctx = policy.context(prefix)
            ratio = math.exp(policy.logprobs(ctx)[token] - traj.logp_new[t])
            terms.append(weights[i][t] * ratio * adv)
            prefix.append(token)
    return math.fsum(terms) / total


def finite_diff_check(
    policy: ToyPolicy,
    group: Group,
    objective: str,
    config: SimConfig,
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Perturbs each touched logit coordinate by +-h; the relative error
    denominator is max(|analytic|, 1e-12). The advantages and weights are
    derived once and held fixed across every probe.

    Coordinates where both sides sit below the subtraction-noise bound
    (machine epsilon times the summed term magnitude, divided by 2h) are
    verified against that bound instead: the objective can be structurally
    constant along a coordinate (e.g. an unsampled token at a context
    where the weighted advantages cancel), and there a central difference
    returns amplified rounding noise rather than a derivative, so dividing
    it by the fixed floor would measure arithmetic noise, not gradient
    error. A wrong gradient of any consequential size still lands far
    above the bound and is reported through the relative formula.
    """
    if not 1e-6 <= h <= 1e-3:
        raise ValueError("h must be in [1e-6, 1e-3]")
    stats = reward_stats(group, config.std_mode, config.epsilon)
    advantages = outcome_advantages(group, stats)
    weights = _token_weights(group, objective)
    analytic = analytic_gradient(policy, group, advantages, weights)
    total = group.total_tokens
    mass = (
        math.fsum(
            abs(weights[i][t] * advantages[i])
            for i in range(group.k)
            for t in range(len(group.trajectories[i]))
        )
        / total
        if total
        else 0.0
    )
    noise_floor = 128.0 * 2.220446049250313e-16 * max(mass, 1.0) / (2.0 * h)
    probe = policy.copy()
    worst = 0.0
    for ctx in sorted(analytic):
        vec = probe.ensure_context(ctx)
        for v in range(probe.vocab_size):
            base = vec[v]
            vec[v] = base + h
            up = surrogate_value(probe, group, advantages, weights)
            vec[v] = base - h
            down = surrogate_value(probe, group, advantages, weights)
            vec[v] = base
            numeric = (up - down) / (2.0 * h)
            expected = analytic[ctx][v]
            if abs(expected) <= noise_floor and abs(numeric) <= noise_floor:
                continue
            err = abs(numeric - expected) / max(abs(expected), 1e-12)
            worst = max(worst, err)
    return worst


def sequence_probability(policy: ToyPolicy, tokens: Sequence[int]) -> float:
    """Probability of generating this exact token sequence."""
    prob = 1.0
    prefix: list[int] = []
    for tok in tokens:
        prob *= policy.probs(policy.context(prefix))[tok]
        prefix.append(tok)
    return prob


def expected_reward(policy: ToyPolicy, env: ToyEnv) -> float:
    """Exact expected rollout reward.

    Only sequences in the reward table contribute (everything else earns
    the default 0), and only if a rollout can actually stop there.
    """
    return math.fsum(
        sequence_probability(policy, seq) * r
        for seq, r in sorted(env.reward_table.items())
        if env.is_complete(seq) and r != 0.0
    )


def best_sequence(env: ToyEnv) -> Optional[tuple[int, ...]]:
    """Highest-reward table sequence; ties break to the smallest sequence."""
    if not env.reward_table:
        return None
    return min(sorted(env.reward_table), key=lambda s: -env.reward_table[s])


@dataclass(frozen=True)
class SimStepRecord:
    """One row of the experiment time series."""

    step: int
    expected_reward: float
    best_sequence_prob: float
    objective_value: float


def run_experiment(
    policy: ToyPolicy,
    env: ToyEnv,
    config: SimConfig,
) -> list[SimStepRecord]:
    """Alternate sampling and ascent steps, recording a deterministic series.

    Each row reports the policy used for that step's sampling (expected
    reward and the probability of the best table sequence) together with
    the sampled group's objective value; the policy is updated in place.
    Reward-table tokens outside the policy's vocabulary are rejected.
    """
    for seq in env.reward_table:
        if any(not 0 <= tok < policy.vocab_size for tok in seq):
            raise ValueError(
                f"reward sequence {seq} has a token outside the vocabulary "
                f"[0, {policy.vocab_size})"
            )
    best = best_sequence(env)
    obj_config = ObjectiveConfig(beta=0.0, assume_unit_ratio=True)
    records = []
    for step in range(config.steps):
        group = rollout_group(
            policy, env, config.k, seed=f"{config.seed}:{step}", query_id=f"sim-{step}"
        )
        stats = reward_stats(group, config.std_mode, config.epsilon)
        advantages = outcome_advantages(group, stats)
        terms = token_terms(group, obj_config)
        if config.objective == GRPO:
            weights = _token_weights(group, GRPO)
            value = objective_grpo(group, advantages, terms).value
        else:
            assignment = assign_tokens(build_process_tree(group))
            weights = lambda_weights(assignment)
            value = objective_lambda(group, assignment, advantages, terms).value
        records.append(
            SimStepRecord(
                step=step,
                expected_reward=expected_reward(policy, env),
                best_sequence_prob=sequence_probability(policy, best)
                if best is not None
                else 0.0,
                objective_value=value,
            )
        )
        gradient = analytic_gradient(policy, group, advantages, weights)
        policy.apply_gradient(gradient, config.learn_rate)
    return records


@dataclass(frozen=True)
class ObjectiveShift:
    """Effect of one ascent step under one objective."""

    objective: str
    prefix_prob_before: float
    prefix_prob_after: float
    shared_gradient: dict[Context, tuple[float, ...]]

    @property
    def prefix_prob_delta(self) -> float:
        return self.prefix_prob_after - self.prefix_prob_before


@dataclass(frozen=True)
class OneStepComparison:
    """Side-by-side one-step effect of the two objectives on a shared prefix."""

    shared_prefix: tuple[int, ...]
    shared_members: tuple[int, ...]
    shared_size: int
    grpo: ObjectiveShift
    lam: ObjectiveShift


def exploitation_scenario(
    concentration: float = 3.0,
) -> tuple[ToyPolicy, ToyEnv, Group]:
    """Construct the case where down-weighting a shared prefix hurts most.

    Six completions: the single reward-1 completion shares its first four
    tokens with the two reward-0 completions, so the mean reward of that
    shared step sits below the group mean even though the step leads to the
    best completion. The policy boosts every observed continuation by
    ``concentration`` so sampling concentrates on exactly this structure.
    """
    sequences = [
        (5, 5, 5, 1, 1, 1),
        (5, 5, 5, 2, 2),
        (7, 7, 7, 7, 3, 3),
        (7, 7, 7, 7, 4, 4, 8),
        (7, 7, 7, 7, 4, 4, 9, 9),
        (6, 6),
    ]
    rewards = [0.5, 0.5, 1.0, 0.0, 0.0, 0.5]
    policy = ToyPolicy(vocab_size=10, horizon=12, temperature=1.0, context_order=4)
    seen: set[tuple[Context, int]] = set()
    for seq in sequences:
        prefix: list[int] = []
        for tok in seq:
            seen.add((policy.context(prefix), tok))
            prefix.append(tok)
    for ctx, tok in sorted(seen):
        policy.ensure_context(ctx)[tok] += concentration
    env = ToyEnv(
        reward_table={seq: r for seq, r in zip(sequences, rewards)},
        max_len=8,
    )
    trajectories = tuple(
        Trajectory(
            tokens=seq,
            reward=r,
            logp_new=tuple(policy.sequence_logps(seq)),
        )
        for seq, r in zip(sequences, rewards)
    )
    group = Group(query_id="exploitation", trajectories=trajectories)
    return policy, env, group


def one_step_comparison(
    policy: ToyPolicy,
    group: Group,
    config: SimConfig,
) -> OneStepComparison:
    """Apply one ascent step per objective and measure the shared prefix.

    The shared prefix is the span of the process set owning the first token
    of the highest-reward trajectory. Both objectives start from copies of
    the same policy; the restricted gradients of the shared node are
    reported so their exact size-factor relation can be inspected. The
    step size is ``config.learn_rate``.
    """
    assignment = assign_tokens(build_process_tree(group))
    stats = reward_stats(group, config.std_mode, config.epsilon)
    advantages = outcome_advantages(group, stats)
    weights = {GRPO: _token_weights(group, GRPO), LAMBDA: lambda_weights(assignment)}
    best_i = max(
        range(group.k), key=lambda i: (group.trajectories[i].reward, -i)
    )
    node = assignment.owner(best_i, 0)
    prefix = group.trajectories[best_i].tokens[: node.span_end]

    shifts = {}
    for objective in OBJECTIVES:
        candidate = policy.copy()
        before = sequence_probability(candidate, prefix)
        gradient = analytic_gradient(candidate, group, advantages, weights[objective])
        candidate.apply_gradient(gradient, config.learn_rate)
        after = sequence_probability(candidate, prefix)
        restricted = node_gradient(policy, group, node, objective, config)
        shifts[objective] = ObjectiveShift(
            objective=objective,
            prefix_prob_before=before,
            prefix_prob_after=after,
            shared_gradient={ctx: tuple(vec) for ctx, vec in restricted.items()},
        )
    return OneStepComparison(
        shared_prefix=tuple(prefix),
        shared_members=tuple(node.sorted_members()),
        shared_size=node.size,
        grpo=shifts[GRPO],
        lam=shifts[LAMBDA],
    )
