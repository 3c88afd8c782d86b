"""Numerical verification of the objective equivalence and its supporting
identities, driven by a seeded random-group generator.

The headline check compares two deliberately independent evaluations of the
same group: a trajectory-major token sum using outcome advantages (which
never looks at the tree) against a tree-node enumeration using step
advantages (which never looks at outcome advantages). The supporting
identities cover the per-node term sums, the position-partition regrouping
of each objective, and the per-token set-size scaling law.

Gaps above tolerance are recorded as failures rather than raised, so a full
suite always reports the worst case it saw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional, Sequence

from .core import (
    DEFAULT_EPSILON,
    Group,
    RewardStats,
    SAMPLE,
    Trajectory,
    check_nonnegative,
    group_from_sequences,
    normalized_advantage,
    outcome_advantages,
    reward_stats,
)
from .objectives import (
    DEFAULT_BETA,
    ObjectiveConfig,
    TokenTerms,
    objective_grpo,
    objective_lambda,
    objective_prm,
    token_terms,
)
from .rewards import step_advantages, step_rewards
from .tree import (
    ProcessNode,
    ProcessTree,
    assign_tokens,
    build_process_tree,
    is_trivial,
)

BERNOULLI = "bernoulli"
UNIFORM = "uniform"
REWARD_DISTS = (BERNOULLI, UNIFORM)

LOGP_ABSENT = "absent"
LOGP_RANDOM_CONSISTENT = "random_consistent"
LOGP_MODES = (LOGP_ABSENT, LOGP_RANDOM_CONSISTENT)

DEFAULT_TOL = 1e-9
IDENTITY_TOL = 1e-12

_REL_FLOOR = 1e-30
_DEGENERATE_DRAW = 0.05


@dataclass(frozen=True)
class GenParams:
    """Knobs for the deterministic random-group generator.

    ``fork_bias`` is the probability that a new trajectory copies a random
    prefix of an earlier one before diverging, which is what produces
    non-trivial prefix overlap. Independently of it, each trajectory after
    the first duplicates an earlier one, or truncates one to a strict
    prefix, with probability 0.05 each, so degenerate shapes are always in
    the mix. ``force_distinct_first`` instead pins distinct first tokens
    (and disables the degenerate draws), guaranteeing a trivial tree.
    """

    seed: int = 0
    k_range: tuple[int, int] = (2, 8)
    length_range: tuple[int, int] = (1, 16)
    vocab_size: int = 5
    fork_bias: float = 0.5
    reward_dist: str = BERNOULLI
    logp_mode: str = LOGP_ABSENT
    force_distinct_first: bool = False

    def __post_init__(self) -> None:
        if self.k_range[0] > self.k_range[1] or self.k_range[0] < 2:
            raise ValueError("k_range must be a nonempty interval with min >= 2")
        if self.length_range[0] > self.length_range[1] or self.length_range[0] < 0:
            raise ValueError("length_range must be a nonempty interval with min >= 0")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if not 0.0 <= self.fork_bias <= 1.0:
            raise ValueError("fork_bias must be in [0, 1]")
        if self.reward_dist not in REWARD_DISTS:
            raise ValueError(f"reward_dist must be one of {REWARD_DISTS}")
        if self.logp_mode not in LOGP_MODES:
            raise ValueError(f"logp_mode must be one of {LOGP_MODES}")
        if self.force_distinct_first and self.vocab_size < self.k_range[1]:
            raise ValueError("force_distinct_first needs vocab_size >= max k")


def _draw_reward(rng: random.Random, dist: str) -> float:
    if dist == BERNOULLI:
        return 1.0 if rng.random() < 0.5 else 0.0
    return rng.random()


def generate_random_group(params: GenParams, index: int) -> Group:
    """Deterministic group for (params.seed, index).

    Log-probabilities in ``random_consistent`` mode are drawn per
    (context, token) on a shared prefix trie, so trajectories that share a
    prefix carry identical log-probabilities along it, exactly as samples
    from one autoregressive policy would.
    """
    rng = random.Random(f"steptree:{params.seed}:{index}")
    k = rng.randint(*params.k_range)
    seqs: list[tuple[int, ...]] = []
    rewards: list[float] = []

    for j in range(k):
        target = rng.randint(*params.length_range)
        tokens: list[int] = []
        mode = "fresh"
        if j > 0 and not params.force_distinct_first:
            u = rng.random()
            if u < _DEGENERATE_DRAW:
                mode = "duplicate"
            elif u < 2 * _DEGENERATE_DRAW:
                mode = "prefix"
            elif rng.random() < params.fork_bias:
                mode = "fork"
        if mode == "duplicate":
            src = rng.randrange(j)
            tokens = list(seqs[src])
        elif mode == "prefix":
            src = rng.randrange(j)
            # at least one shared token whenever the source has any
            cut = rng.randint(1, len(seqs[src])) if seqs[src] else 0
            tokens = list(seqs[src][:cut])
        elif mode == "fork":
            src = rng.randrange(j)
            cut = rng.randint(1, len(seqs[src])) if seqs[src] else 0
            tokens = list(seqs[src][:cut])
            while len(tokens) < target:
                tokens.append(rng.randrange(params.vocab_size))
        else:
            if params.force_distinct_first and target > 0:
                tokens.append(j)
            while len(tokens) < target:
                tokens.append(rng.randrange(params.vocab_size))
        seqs.append(tuple(tokens))
        if mode == "duplicate":
            rewards.append(rewards[src])
        else:
            rewards.append(_draw_reward(rng, params.reward_dist))

    if params.logp_mode == LOGP_ABSENT:
        return group_from_sequences(f"rand-{params.seed}-{index}", seqs, rewards)

    # Assign log-probs along a shared trie: entry = (triple, children).
    trie: dict[int, tuple[tuple[float, float, float], dict]] = {}
    trajectories = []
    for seq, r in zip(seqs, rewards):
        new: list[float] = []
        old: list[float] = []
        ref: list[float] = []
        level = trie
        for tok in seq:
            entry = level.get(tok)
            if entry is None:
                entry = (
                    (
                        rng.uniform(-4.0, -1e-3),
                        rng.uniform(-4.0, -1e-3),
                        rng.uniform(-4.0, -1e-3),
                    ),
                    {},
                )
                level[tok] = entry
            (lp_new, lp_old, lp_ref), level = entry
            new.append(lp_new)
            old.append(lp_old)
            ref.append(lp_ref)
        trajectories.append(
            Trajectory(
                tokens=seq,
                reward=r,
                logp_new=tuple(new),
                logp_old=tuple(old),
                logp_ref=tuple(ref),
            )
        )
    return Group(
        query_id=f"rand-{params.seed}-{index}", trajectories=tuple(trajectories)
    )


def degenerate_groups(with_logps: bool) -> list[Group]:
    """Hand-built edge cases that every suite run must cover."""
    specs = [
        ("dup-pair", [(1, 2, 3), (1, 2, 3), (1, 5)], [1.0, 0.0, 1.0]),
        ("exact-prefix", [(4, 4, 4, 4), (4, 4)], [1.0, 0.0]),
        ("empty-suffix", [(2, 2), (2, 2, 7, 7)], [0.0, 1.0]),
        ("constant-rewards", [(1, 2), (1, 3), (2, 2)], [0.5, 0.5, 0.5]),
        ("zero-length", [(), (3, 3), (3,)], [1.0, 0.0, 1.0]),
        ("all-identical", [(6, 6, 6), (6, 6, 6), (6, 6, 6), (6, 6, 6)], [1.0, 1.0, 1.0, 1.0]),
    ]
    groups = []
    for name, seqs, rewards in specs:
        if with_logps:
            trajectories = tuple(
                Trajectory(
                    tokens=seq,
                    reward=r,
                    # depends only on (position, token), hence prefix-consistent
                    logp_new=tuple(-0.05 * (1 + (tok + 2 * t) % 7) for t, tok in enumerate(seq)),
                    logp_old=tuple(-0.04 * (1 + (2 * tok + t) % 5) for t, tok in enumerate(seq)),
                    logp_ref=tuple(-0.06 * (1 + (tok + 3 * t) % 6) for t, tok in enumerate(seq)),
                )
                for seq, r in zip(seqs, rewards)
            )
            groups.append(Group(query_id=f"degenerate-{name}", trajectories=trajectories))
        else:
            groups.append(group_from_sequences(f"degenerate-{name}", seqs, rewards))
    return groups


def _rel_gap(a: float, b: float, scale: float = 0.0) -> float:
    """Gap relative to the larger magnitude, floored by a data scale.

    ``scale`` should be the magnitude of the summed terms (e.g. the mean
    absolute per-token term). Without it the ratio is ill-conditioned for
    groups whose objective cancels to exactly zero: both evaluations land
    within ~1e-17 of zero and dividing one rounding residue by another
    reports an O(1) gap for an identity that holds to machine precision.
    """
    return abs(a - b) / max(abs(a), abs(b), scale, _REL_FLOOR)


def _term_scale(per_token_terms: Sequence[Sequence[float]], total: int) -> float:
    if not total:
        return 0.0
    return math.fsum(abs(x) for row in per_token_terms for x in row) / total


@dataclass(frozen=True)
class VerificationEntry:
    """Result of checking one group, named by its query id."""

    query_id: str
    value_a: float
    value_b: float
    abs_gap: float
    rel_gap: float
    trivial: bool


@dataclass
class VerificationReport:
    """Worst-case gaps over a suite of groups."""

    tol: float = DEFAULT_TOL
    groups_checked: int = 0
    max_abs_gap: float = 0.0
    max_rel_gap: float = 0.0
    trivial_count: int = 0
    failures: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_nonnegative(self.tol, "tol")

    def record(self, entry: VerificationEntry) -> None:
        """Count one group; a gap above tol is a (query_id, rel_gap) failure."""
        self.groups_checked += 1
        self.max_abs_gap = max(self.max_abs_gap, entry.abs_gap)
        self.max_rel_gap = max(self.max_rel_gap, entry.rel_gap)
        if entry.trivial:
            self.trivial_count += 1
        if entry.rel_gap > self.tol:
            self.failures.append((entry.query_id, entry.rel_gap))

    @property
    def passed(self) -> bool:
        return not self.failures


def _worst(
    group: Group, tree: ProcessTree, gaps: Sequence[tuple[float, float, float, float]]
) -> VerificationEntry:
    """Entry of the config with the largest relative gap, and the largest abs gap.

    ``gaps`` holds one (value_a, value_b, abs_gap, rel_gap) row per config.
    """
    value_a, value_b, _, rel_gap = max(gaps, key=lambda row: row[3])
    return VerificationEntry(
        query_id=group.query_id,
        value_a=value_a,
        value_b=value_b,
        abs_gap=max(row[2] for row in gaps),
        rel_gap=rel_gap,
        trivial=is_trivial(tree),
    )


def _prm_value_by_nodes(
    group: Group,
    tree: ProcessTree,
    rewards: Sequence[float],
    stats: RewardStats,
    terms: TokenTerms,
) -> float:
    """Step-advantage objective summed node by node over the tree.

    Independent evaluation order for the equivalence check: iterates
    process sets and their spans, never touching outcome advantages.
    ``rewards`` are the step rewards indexed by node id, and ``terms``
    holds the ratio and KL rows of the group.
    """
    p, d, beta = terms
    values = []
    for node in tree.nodes:
        if node.span_len == 0:
            continue
        ahat = normalized_advantage(rewards[node.node_id], stats)
        members = node.sorted_members()
        for t in range(node.span_start, node.span_end):
            for i in members:
                values.append(p[i][t] * ahat - beta * d[i][t])
    total = group.total_tokens
    return math.fsum(values) / total if total else 0.0


def verify_equivalence(
    group: Group,
    configs: Sequence[ObjectiveConfig],
    std_mode: str = SAMPLE,
    epsilon: float = DEFAULT_EPSILON,
) -> VerificationEntry:
    """Compare the outcome-advantage and step-advantage objective values.

    The first path is a trajectory-major token sum; the second enumerates
    tree nodes. Equality certifies that the outcome-level objective already
    optimizes the step-level rewards induced by the prefix structure.

    The group is checked under every config, sharing one tree, and the
    worst entry is returned. Gaps are returned, never raised; the tolerance
    takes effect when the entry is recorded into a VerificationReport.
    """
    stats = reward_stats(group, std_mode, epsilon)
    adv = outcome_advantages(group, stats)
    tree = build_process_tree(group)
    rewards = step_rewards(tree, group)
    gaps = []
    for config in configs:
        terms = token_terms(group, config)
        grpo_report = objective_grpo(group, adv, terms)
        value_grpo = grpo_report.value
        value_prm = _prm_value_by_nodes(group, tree, rewards, stats, terms)
        scale = _term_scale(grpo_report.per_token_terms, group.total_tokens)
        rel_gap = _rel_gap(value_grpo, value_prm, scale)
        gaps.append((value_grpo, value_prm, abs(value_grpo - value_prm), rel_gap))
    return _worst(group, tree, gaps)


def _partition_value(
    group: Group,
    partitions: Sequence[Sequence[ProcessNode]],
    rewards: Sequence[float],
    stats: RewardStats,
    adv: Sequence[float],
    terms: TokenTerms,
    kind: str,
) -> float:
    """Objective evaluated position-major over the span partitions.

    ``kind`` selects the per-term form: outcome advantages, step
    advantages, or the grouped set-size-corrected form where each process
    set contributes one term per position. ``partitions[t]`` is the span
    partition at position t, ``rewards`` are the step rewards indexed by
    node id, and ``terms`` holds the ratio and KL rows of the group.
    """
    p, d, beta = terms
    values = []
    for t, partition in enumerate(partitions):
        for node in partition:
            members = node.sorted_members()
            if kind == "grpo":
                values.extend(p[i][t] * adv[i] - beta * d[i][t] for i in members)
            elif kind == "prm":
                ahat = normalized_advantage(rewards[node.node_id], stats)
                values.extend(p[i][t] * ahat - beta * d[i][t] for i in members)
            else:  # grouped set-size-corrected form
                rep = members[0]
                ahat = normalized_advantage(rewards[node.node_id], stats)
                values.append(p[rep][t] * ahat - beta * d[rep][t])
    total = group.total_tokens
    return math.fsum(values) / total if total else 0.0


def _span_partitions(tree: ProcessTree) -> list[list[ProcessNode]]:
    """Entry t lists the nodes whose span contains position t, in node-id order.

    One sweep over the node spans fills every entry.
    """
    partitions: list[list[ProcessNode]] = [[] for _ in range(tree.max_len)]
    for node in tree.nodes:
        for t in range(node.span_start, node.span_end):
            partitions[t].append(node)
    return partitions


def verify_proof_identities(
    group: Group,
    configs: Sequence[ObjectiveConfig],
    std_mode: str = SAMPLE,
    epsilon: float = DEFAULT_EPSILON,
) -> VerificationEntry:
    """Check the three structural identities behind the equivalence.

    1. Per-node term sums: for every node and every position in its span,
       the summed step-advantage terms of its members equal
       |members| * (P_rep * A_node - beta * D_rep).
    2. Partition regrouping: position-major evaluation over the span
       partitions matches the trajectory-major token sum, for all three
       objectives.
    3. Scaling law: each token's outcome-advantage term equals its owning
       set size times its set-size-corrected term.

    The group is checked under every config, sharing one tree, and the
    entry of the config with the worst relative gap is returned.
    """
    stats = reward_stats(group, std_mode, epsilon)
    adv = outcome_advantages(group, stats)
    tree = build_process_tree(group)
    assignment = assign_tokens(tree)
    rewards = step_rewards(tree, group)
    steps = step_advantages(tree, assignment, group, stats)
    partitions = _span_partitions(tree)
    total = group.total_tokens
    gaps = []
    for config in configs:
        terms = token_terms(group, config)
        p, d, beta = terms
        worst = 0.0

        # 1. per-node sums
        for node in tree.nodes:
            if node.span_len == 0:
                continue
            ahat = normalized_advantage(rewards[node.node_id], stats)
            members = node.sorted_members()
            rep = members[0]
            for t in range(node.span_start, node.span_end):
                lhs = math.fsum(p[i][t] * ahat - beta * d[i][t] for i in members)
                rhs = node.size * (p[rep][t] * ahat - beta * d[rep][t])
                scale = math.fsum(
                    abs(p[i][t] * ahat) + beta * d[i][t] for i in members
                )
                worst = max(worst, _rel_gap(lhs, rhs, scale))

        # 2. partition regrouping of each objective
        grpo_report = objective_grpo(group, adv, terms)
        prm_report = objective_prm(group, steps, terms)
        lambda_report = objective_lambda(group, assignment, adv, terms)
        for kind, report in (
            ("grpo", grpo_report),
            ("prm", prm_report),
            ("lambda", lambda_report),
        ):
            position_major = _partition_value(
                group, partitions, rewards, stats, adv, terms, kind
            )
            scale = _term_scale(report.per_token_terms, total)
            worst = max(worst, _rel_gap(report.value, position_major, scale))

        # 3. per-token scaling law
        for i in range(group.k):
            grpo_row = grpo_report.per_token_terms[i]
            lambda_row = lambda_report.per_token_terms[i]
            owners = assignment.owners[i]
            for t in range(len(grpo_row)):
                worst = max(worst, _rel_gap(grpo_row[t], owners[t].size * lambda_row[t]))

        gaps.append((grpo_report.value, prm_report.value, worst, worst))
    return _worst(group, tree, gaps)


def verification_configs(beta: float = DEFAULT_BETA) -> list[ObjectiveConfig]:
    """The beta on/off, ratio on/off sweep used by the default suites."""
    betas = [0.0] if beta == 0.0 else [0.0, beta]
    return [
        ObjectiveConfig(beta=b, assume_unit_ratio=unit)
        for b in betas
        for unit in (True, False)
    ]


def run_verification(
    params: GenParams,
    n_groups: int,
    configs: Optional[Sequence[ObjectiveConfig]] = None,
    tol: float = DEFAULT_TOL,
    check_identities: bool = True,
    std_mode: str = SAMPLE,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple[VerificationReport, Optional[VerificationReport]]:
    """Run the full suite: generated groups plus the mandatory degenerates.

    Returns the equivalence report and, unless disabled, the identity
    report (at ``IDENTITY_TOL``). Every group is checked under every config.
    """
    if n_groups < 0:
        raise ValueError(f"the number of random groups must be >= 0, got {n_groups}")
    if configs is None:
        configs = verification_configs()
    needs_logps = any(
        not c.assume_unit_ratio or c.beta > 0.0 for c in configs
    )
    if needs_logps and params.logp_mode != LOGP_RANDOM_CONSISTENT:
        params = replace(params, logp_mode=LOGP_RANDOM_CONSISTENT)
    equivalence = VerificationReport(tol=tol)
    identities = VerificationReport(tol=IDENTITY_TOL) if check_identities else None
    groups = chain(
        degenerate_groups(needs_logps),
        (generate_random_group(params, index) for index in range(n_groups)),
    )
    for group in groups:
        equivalence.record(verify_equivalence(group, configs, std_mode, epsilon))
        if identities is not None:
            identities.record(
                verify_proof_identities(group, configs, std_mode, epsilon)
            )
    return equivalence, identities
