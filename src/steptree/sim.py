"""Deterministic tabular policy and environment for objective comparisons.

The policy is a softmax over per-context logit vectors, with contexts
truncated to the last few tokens so the table stays finite. Rollouts record
exact per-token log-probabilities, analytic score-function gradients are
available for both objectives, and central finite differences certify them.
The headline demonstration is a constructed group in which the
highest-reward completion shares a long prefix with low-reward completions:
one gradient step shrinks the shared-prefix probability under both
objectives, and the uncorrected objective pushes exactly |owning set| times
harder on the shared coordinates. ``run_config`` runs the experiment that a
``steptree simulate`` config file sets up.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .core import DEFAULT_EPSILON, Group, SAMPLE, STD_MODES, Trajectory, check_nonnegative
from .objectives import GRPO, LAMBDA, ObjectiveConfig, lambda_weights
from .rewards import GroupDerivation
from .tree import ProcessNode

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
        if not 0.0 < self.temperature < math.inf:
            raise ValueError("temperature must be finite and > 0")
        if self.context_order < 0:
            raise ValueError("context_order must be >= 0")
        for ctx, vec in self.logits.items():
            if len(vec) != self.vocab_size:
                raise ValueError(f"logit vector for {ctx} has wrong length")

    def context(self, prefix: Sequence[int]) -> Context:
        if self.context_order == 0:
            return ()
        return tuple(prefix[-self.context_order :])

    def ensure_context(self, ctx: Context) -> list[float]:
        vec = self.logits.get(ctx)
        if vec is None:
            vec = [0.0] * self.vocab_size
            self.logits[ctx] = vec
        return vec

    def softmax(self, ctx: Context) -> tuple[list[float], list[float]]:
        """The next-token probabilities and log-probabilities, in one pass."""
        vec = self.logits.get(ctx, [0.0] * self.vocab_size)
        scaled = [z / self.temperature for z in vec]
        top = max(scaled)
        if not math.isfinite(top):
            raise ValueError(
                f"softmax at context {ctx} overflows: logits / temperature "
                f"is not finite (temperature = {self.temperature!r})"
            )
        exps = [math.exp(z - top) for z in scaled]
        total = math.fsum(exps)
        log_norm = top + math.log(total)
        return [e / total for e in exps], [z - log_norm for z in scaled]

    def sequence_logps(self, tokens: Sequence[int]) -> list[float]:
        """Log-probability of each token given its context along the way."""
        out = []
        prefix: list[int] = []
        for tok in tokens:
            out.append(self.softmax(self.context(prefix))[1][tok])
            prefix.append(tok)
        return out

    def copy(self) -> "ToyPolicy":
        return replace(self, logits={ctx: list(vec) for ctx, vec in self.logits.items()})

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
        for seq, reward in self.reward_table.items():
            if not seq:
                raise ValueError("reward[] is the empty sequence, which no rollout ends on")
            if not math.isfinite(reward):
                raise ValueError(f"reward[{','.join(map(str, seq))}] must be finite")
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
        check_nonnegative(self.learn_rate, "learn_rate")
        check_nonnegative(self.epsilon, "epsilon")
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
    last = policy.vocab_size - 1

    @cache  # the policy is fixed within one call, and only within it
    def table(ctx: Context) -> tuple[list[float], list[float]]:
        probs, logps = policy.softmax(ctx)
        return list(accumulate(probs)), logps

    trajectories = []
    for _ in range(k):
        tokens: list[int] = []
        logps: list[float] = []
        while len(tokens) < limit:
            cumulative, ctx_logps = table(policy.context(tokens))
            # the first token whose running probability sum exceeds the draw
            token = min(bisect_right(cumulative, rng.random()), last)
            logps.append(ctx_logps[token])
            tokens.append(token)
            if env.terminal_token is not None and token == env.terminal_token:
                break
        trajectories.append(Trajectory(tuple(tokens), env.reward(tokens), tuple(logps)))
    return Group(query_id=query_id, trajectories=tuple(trajectories))


def _token_weights(derived: GroupDerivation, objective: str) -> list[list[float]]:
    if objective == GRPO:
        return [[1.0] * len(t) for t in derived.group.trajectories]
    return lambda_weights(derived.assignment)


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
    softmax = cache(policy.softmax)  # one softmax per context in this call
    zeros = [0.0] * policy.vocab_size
    inv_temp = 1.0 / policy.temperature
    for i, start, end in spans:
        tokens = group.trajectories[i].tokens
        prefix = list(tokens[:start])
        for t in range(start, end):
            coef = weights[i][t] * advantages[i] * inv_temp / total
            ctx = policy.context(prefix)
            probs = softmax(ctx)[0]
            grad = [g - coef * pv for g, pv in zip(gradient.get(ctx, zeros), probs)]
            grad[tokens[t]] += coef
            gradient[ctx] = grad
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
    derived = GroupDerivation(group, (), config.std_mode, config.epsilon)
    spans = ((i, node.span_start, node.span_end) for i in node.members)
    units = _token_weights(derived, GRPO)
    gradient = _score_sum(policy, group, spans, derived.advantages, units)
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
    softmax = cache(policy.softmax)  # the probe changes logits between calls
    for i, traj in enumerate(group.trajectories):
        if traj.logp_new is None:
            raise ValueError("surrogate evaluation needs rollout logp_new")
        adv = advantages[i]
        prefix: list[int] = []
        for t, token in enumerate(traj.tokens):
            ratio = math.exp(softmax(policy.context(prefix))[1][token] - traj.logp_new[t])
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
    derived = GroupDerivation(group, (), config.std_mode, config.epsilon)
    advantages = derived.advantages
    weights = _token_weights(derived, objective)
    analytic = analytic_gradient(policy, group, advantages, weights)
    total = group.total_tokens
    magnitudes = [abs(w * a) for a, row in zip(advantages, weights) for w in row]
    mass = math.fsum(magnitudes) / total if total else 0.0
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
        prob *= policy.softmax(policy.context(prefix))[0][tok]
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
    Reward-table and terminal tokens outside the policy's vocabulary are
    rejected.
    """
    vocab = f"the vocabulary [0, {policy.vocab_size})"
    for seq in env.reward_table:
        if any(not 0 <= tok < policy.vocab_size for tok in seq):
            raise ValueError(f"reward sequence {seq} has a token outside {vocab}")
    if env.terminal_token is not None and not 0 <= env.terminal_token < policy.vocab_size:
        raise ValueError(f"terminal_token {env.terminal_token} is outside {vocab}")
    best = best_sequence(env)
    obj_config = ObjectiveConfig(beta=0.0, assume_unit_ratio=True)
    records = []
    for step in range(config.steps):
        group = rollout_group(
            policy, env, config.k, seed=f"{config.seed}:{step}", query_id=f"sim-{step}"
        )
        derived = GroupDerivation(group, [obj_config], config.std_mode, config.epsilon)
        weights = _token_weights(derived, config.objective)
        (report,) = derived.grpo if config.objective == GRPO else derived.lam
        best_prob = sequence_probability(policy, best) if best is not None else 0.0
        records.append(SimStepRecord(step, expected_reward(policy, env), best_prob, report.value))
        gradient = analytic_gradient(policy, group, derived.advantages, weights)
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
    if not math.isfinite(concentration):
        raise ValueError("concentration must be finite")
    sequences = [
        (5, 5, 5, 1, 1, 1),
        (5, 5, 5, 2, 2),
        (7, 7, 7, 7, 3, 3),
        (7, 7, 7, 7, 4, 4, 8),
        (7, 7, 7, 7, 4, 4, 9, 9),
        (6, 6),
    ]
    rewards = [0.5, 0.5, 1.0, 0.0, 0.0, 0.5]
    policy = ToyPolicy(vocab_size=10)
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
    derived = GroupDerivation(group, (), config.std_mode, config.epsilon)
    weights = {objective: _token_weights(derived, objective) for objective in OBJECTIVES}
    best_i = max(
        range(group.k), key=lambda i: (group.trajectories[i].reward, -i)
    )
    node = derived.assignment.owner(best_i, 0)
    prefix = group.trajectories[best_i].tokens[: node.span_end]

    shifts = {}
    for objective in OBJECTIVES:
        candidate = policy.copy()
        before = sequence_probability(candidate, prefix)
        gradient = analytic_gradient(candidate, group, derived.advantages, weights[objective])
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
        shared_members=node.members,
        shared_size=node.size,
        grpo=shifts[GRPO],
        lam=shifts[LAMBDA],
    )


def _config_int(text: str) -> int:
    """``int(text)`` in the ``str(int)`` form alone, spaces aside: not ``+1``, ``01``, ``1_0``."""
    if str(value := int(text)) != text.strip():
        raise ValueError(text)
    return value


def _load_config(path: str) -> tuple[ToyPolicy, ToyEnv, Optional[Group], SimConfig, str]:
    """The policy, environment, built-in group, config and mode of a config file.

    A flat ``key = value`` file; ``reward[1,2] = 0.5`` lines form the reward
    table. A key the file leaves out is not passed on, so it takes the
    default of the class or function it sets. Every key must be read by the
    chosen scenario and mode; any other key is an error naming it.
    """
    unread: dict = {}
    rewards: dict[tuple[int, ...], float] = {}
    first_lines: dict = {}  # each key -> its line, reward[...] keys by their sequence
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            name = key
            if key.startswith("reward[") and key.endswith("]"):
                inner = key[len("reward[") : -1]
                try:
                    name = tuple(map(_config_int, inner.split(","))) if inner.strip() else ()
                    rewards[name] = float(value)
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_no}: config key {key!r} = {value!r} does not parse"
                    ) from None
            else:
                unread[key] = value
            if name in first_lines:
                raise ValueError(
                    f"{path}:{line_no}: config key {key!r} repeats line {first_lines[name]}"
                )
            first_lines[name] = line_no
    if rewards:
        unread["reward[...]"] = rewards

    def given(**casts) -> dict:
        """Each key of ``casts`` that the file sets, cast, read in the order given."""
        found = {}
        for key in [key for key in casts if key in unread]:
            value = unread.pop(key)
            try:
                found[key] = casts[key](value)
            except ValueError:
                raise ValueError(f"config key {key!r} has an invalid value {value!r}") from None
        return found

    scenario = unread.pop("scenario", "none")
    if scenario == "exploitation":
        policy, env, group = exploitation_scenario(**given(concentration=float))
        mode = unread.pop("mode", "one_step")
    elif scenario == "none":
        knobs = given(
            vocab_size=_config_int,
            horizon=_config_int,
            temperature=float,
            context_order=_config_int,
        )
        # the command's own defaults: ToyPolicy's horizon is 12, and
        # vocab_size, max_len and the reward table have none
        policy = ToyPolicy(**{"vocab_size": 4, "horizon": 8, **knobs})
        knobs = given(
            max_len=_config_int,
            terminal_token=lambda v: None if v in ("none", "") else _config_int(v),
        )
        env = ToyEnv(unread.pop("reward[...]", {}), **{"max_len": 8, **knobs})
        group = None
        mode = unread.pop("mode", "series")
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    if mode == "series":
        series = given(seed=_config_int, k=_config_int, steps=_config_int, objective=str)
    elif mode == "one_step":
        if group is None:
            raise ValueError("one_step mode requires scenario = exploitation")
        series = {}  # one step of each objective on the built-in group
    else:
        raise ValueError(f"unknown mode {mode!r}")
    config = SimConfig(**given(learn_rate=float, std_mode=str, epsilon=float), **series)
    if unread:
        key = next(iter(unread))
        raise ValueError(
            f"config key {key!r} is not read by scenario {scenario!r} in {mode} mode"
        )
    return policy, env, group, config, mode


def run_config(path: str) -> tuple[tuple[str, ...], list[tuple]]:
    """The CSV header and rows of the run the config file at ``path`` sets up.

    Series mode gives one row per step of ``run_experiment``, one_step mode
    one row per objective of ``one_step_comparison``.
    """
    policy, env, group, config, mode = _load_config(path)
    if mode == "series":
        header = ("step", "expected_reward", "best_sequence_prob", "objective_value")
        return header, [attrgetter(*header)(row) for row in run_experiment(policy, env, config)]
    comparison = one_step_comparison(policy, group, config)
    prefix = ("prefix_prob_before", "prefix_prob_after", "prefix_prob_delta")
    rows = [
        (shift.objective, comparison.shared_size, *attrgetter(*prefix)(shift))
        for shift in (comparison.grpo, comparison.lam)
    ]
    return ("objective", "shared_size", *prefix), rows
