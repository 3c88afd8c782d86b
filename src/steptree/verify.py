"""Numerical verification of the objective equivalence and its supporting
identities, driven by a seeded random-group generator.

The headline check compares two deliberately independent evaluations of the
same group: a trajectory-major token sum using outcome advantages (which
never looks at the tree) against a tree-node enumeration using step
advantages (which never looks at outcome advantages). The supporting
identities cover the per-node term sums, the node-major regrouping of each
objective, and the per-token set-size scaling law.

Gaps above tolerance are recorded as failures rather than raised, so a full
suite always reports the worst case it saw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .core import DEFAULT_EPSILON, DEFAULT_TOL, Group, SAMPLE, Trajectory, check_nonnegative
from .core import group_from_sequences
from .objectives import DEFAULT_BETA, GRPO, LAMBDA, PRM, ObjectiveConfig, TokenTerms
from .objectives import objective_prm
from .rewards import GroupDerivation
from .tree import is_trivial

BERNOULLI = "bernoulli"
UNIFORM = "uniform"
REWARD_DISTS = (BERNOULLI, UNIFORM)

LOGP_ABSENT = "absent"
LOGP_RANDOM_CONSISTENT = "random_consistent"
LOGP_MODES = (LOGP_ABSENT, LOGP_RANDOM_CONSISTENT)

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
        elif mode in ("prefix", "fork"):
            src = rng.randrange(j)
            # at least one shared token whenever the source has any
            cut = rng.randint(1, len(seqs[src])) if seqs[src] else 0
            tokens = list(seqs[src][:cut])
        elif params.force_distinct_first and target > 0:
            tokens.append(j)
        if mode in ("fork", "fresh"):
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
                lp = (rng.uniform(-4.0, -1e-3), rng.uniform(-4.0, -1e-3), rng.uniform(-4.0, -1e-3))
                entry = level[tok] = (lp, {})
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


def _finite(derived: GroupDerivation, value: float) -> float:
    """``value``; an oracle value beyond the float range is an error."""
    if not math.isfinite(value):
        raise ValueError(f"group {derived.group.query_id!r}: verification sum overflows")
    return value


def _fsum(derived: GroupDerivation, values: Iterable[float]) -> float:
    """``math.fsum`` of oracle terms, checked by ``_finite``."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        total = math.inf
    return _finite(derived, total)


def _term_scale(derived: GroupDerivation, per_token_terms: Sequence[Sequence[float]]) -> float:
    total = derived.group.total_tokens
    if not total:
        return 0.0
    return _fsum(derived, map(abs, chain.from_iterable(per_token_terms))) / total


@dataclass(frozen=True)
class VerificationEntry:
    """Result of checking one group, named by its query id.

    ``check`` names the check with the largest relative gap (``equivalence``,
    ``node-sum``, ``partition:<objective>`` or ``scaling``) under ``config``,
    the config whose gap is reported.
    """

    query_id: str
    value_a: float
    value_b: float
    abs_gap: float
    rel_gap: float
    trivial: bool
    check: str
    config: ObjectiveConfig


@dataclass
class VerificationReport:
    """Worst-case gaps over a suite of groups."""

    tol: float = DEFAULT_TOL
    groups_checked: int = 0
    max_abs_gap: float = 0.0
    max_rel_gap: float = 0.0
    trivial_count: int = 0
    failures: list[VerificationEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_nonnegative(self.tol, "tol")

    def record(self, entry: VerificationEntry) -> None:
        """Count one group; an entry whose gap is above tol is a failure."""
        self.groups_checked += 1
        self.max_abs_gap = max(self.max_abs_gap, entry.abs_gap)
        self.max_rel_gap = max(self.max_rel_gap, entry.rel_gap)
        if entry.trivial:
            self.trivial_count += 1
        if entry.rel_gap > self.tol:
            self.failures.append(entry)

    @property
    def passed(self) -> bool:
        return not self.failures


def _worst(derived: GroupDerivation, gaps: Sequence[tuple]) -> VerificationEntry:
    """Entry of the config with the largest relative gap, and the largest abs gap.

    ``gaps`` holds one (value_a, value_b, abs_gap, rel_gap, check, config)
    row per config.
    """
    value_a, value_b, _, rel_gap, check, config = max(gaps, key=lambda row: row[3])
    return VerificationEntry(
        query_id=derived.group.query_id,
        value_a=value_a,
        value_b=value_b,
        abs_gap=max(row[2] for row in gaps),
        rel_gap=rel_gap,
        trivial=is_trivial(derived.tree),
        check=check,
        config=config,
    )


def _node_major_value(derived: GroupDerivation, terms: TokenTerms, kind: str) -> float:
    """Objective summed node by node over the tree, never by token row.

    Each node contributes ``P * a - beta * D`` at every position of its span,
    member by member. ``kind`` selects ``a``: the member's outcome advantage
    for GRPO, the node's step advantage for PRM (outcome advantages are never
    read), and for LAMBDA the step advantage of the first member only, the
    grouped set-size-corrected form with one term per process set. ``terms``
    holds the ratio and KL rows of the group.
    """
    p, d, beta = terms
    values: list[float] = []
    for node, ahat in zip(derived.tree.nodes, derived.node_advantages):
        span = range(node.span_start, node.span_end)
        for i in node.members[:1] if kind == LAMBDA else node.members:
            a = derived.advantages[i] if kind == GRPO else ahat
            p_i, d_i = p[i], d[i]
            values += [p_i[t] * a - beta * d_i[t] for t in span]
    total = derived.group.total_tokens
    return _fsum(derived, values) / total if total else 0.0


def verify_equivalence(derived: GroupDerivation) -> VerificationEntry:
    """Compare the outcome-advantage and step-advantage objective values.

    The first path is a trajectory-major token sum; the second enumerates
    tree nodes. Equality certifies that the outcome-level objective already
    optimizes the step-level rewards induced by the prefix structure.

    The group is checked under every config of the derivation, and the
    worst entry is returned. Gaps are returned, never raised; the tolerance
    takes effect when the entry is recorded into a VerificationReport.
    """
    gaps = []
    for config, terms, grpo_report in zip(derived.configs, derived.terms, derived.grpo):
        value_grpo = grpo_report.value
        value_prm = _node_major_value(derived, terms, PRM)
        scale = _term_scale(derived, grpo_report.per_token_terms)
        rel_gap = _rel_gap(value_grpo, value_prm, scale)
        abs_gap = abs(value_grpo - value_prm)
        gaps.append((value_grpo, value_prm, abs_gap, rel_gap, "equivalence", config))
    return _worst(derived, gaps)


def verify_proof_identities(derived: GroupDerivation) -> VerificationEntry:
    """Check the three structural identities behind the equivalence.

    1. Per-node term sums: for every node and every position in its span,
       the summed step-advantage terms of its members equal
       |members| * (P_rep * A_node - beta * D_rep). A single-member node
       is skipped: both sides are then the same term. So is a span where
       every member's P and D slices equal the representative's: ``fsum``
       of n equal terms and ``n * term`` both round n * term once.
    2. Node-major regrouping: each objective summed node by node over the
       spans matches its trajectory-major token sum, for all three
       objectives.
    3. Scaling law: each token's outcome-advantage term equals its owning
       set size times its set-size-corrected term.

    The group is checked under every config of the derivation, and the
    entry of the config with the worst relative gap is returned, naming
    the check that gap came from.
    """
    group, tree, assignment = derived.group, derived.tree, derived.assignment
    steps = assignment.rows(derived.node_advantages)
    shared = [
        (n.members, ahat, n.span_start, n.span_end)
        for n, ahat in zip(tree.nodes, derived.node_advantages)
        if n.span_len and len(n.members) > 1
    ]
    # each token's owning set size, counted from the members
    size_rows = assignment.rows([len(n.members) for n in tree.nodes])
    gaps = []
    reports = zip(derived.configs, derived.terms, derived.grpo, derived.lam)
    for config, terms, grpo_report, lambda_report in reports:
        p, d, beta = terms

        # 1. per-node sums; where both sides are equal the gap is 0
        node_gap = 0.0
        for members, ahat, s, e in shared:
            rep = members[0]
            p_rep, d_rep = p[rep][s:e], d[rep][s:e]
            if all(p[i][s:e] == p_rep and d[i][s:e] == d_rep for i in members[1:]):
                continue
            for t in range(s, e):
                lhs = _fsum(derived, [p[i][t] * ahat - beta * d[i][t] for i in members])
                rhs = len(members) * (p[rep][t] * ahat - beta * d[rep][t])
                if lhs != rhs:
                    _finite(derived, rhs)
                    scale = _fsum(
                        derived, [abs(p[i][t] * ahat) + beta * d[i][t] for i in members]
                    )
                    node_gap = max(node_gap, _rel_gap(lhs, rhs, scale))
        found = [("node-sum", node_gap)]

        # 2. node-major regrouping of each objective
        prm_report = objective_prm(group, steps, terms)
        for kind, report in zip((GRPO, PRM, LAMBDA), (grpo_report, prm_report, lambda_report)):
            node_major = _node_major_value(derived, terms, kind)
            scale = _term_scale(derived, report.per_token_terms)
            found.append((f"partition:{kind}", _rel_gap(report.value, node_major, scale)))

        # 3. per-token scaling law; a token whose sides are equal has gap 0
        scaling_gap = 0.0
        for grpo_row, lambda_row, size_row in zip(
            grpo_report.per_token_terms, lambda_report.per_token_terms, size_rows
        ):
            scaled = tuple([size * lam for size, lam in zip(size_row, lambda_row)])
            if scaled != grpo_row:
                scaling_gap = max(
                    scaling_gap,
                    *[_rel_gap(g, b) for g, b in zip(grpo_row, scaled) if g != b],
                )
        found.append(("scaling", scaling_gap))

        # the first of the checks sharing the largest gap names it
        check, worst = max(found, key=lambda item: item[1])
        gaps.append((grpo_report.value, prm_report.value, worst, worst, check, config))
    return _worst(derived, gaps)


def verification_configs(beta: float = DEFAULT_BETA) -> list[ObjectiveConfig]:
    """The beta on/off, ratio on/off sweep used by the default suites."""
    betas = [0.0] if beta == 0.0 else [0.0, beta]
    return [
        ObjectiveConfig(beta=b, assume_unit_ratio=unit)
        for b in betas
        for unit in (True, False)
    ]


def check_group(
    group: Group,
    configs: Sequence[ObjectiveConfig],
    std_mode: str = SAMPLE,
    epsilon: float = DEFAULT_EPSILON,
    check_identities: bool = True,
) -> tuple[VerificationEntry, Optional[VerificationEntry]]:
    """The equivalence entry of one group and, unless disabled, its identity entry."""
    derived = GroupDerivation(group, configs, std_mode, epsilon)
    identities = verify_proof_identities(derived) if check_identities else None
    return verify_equivalence(derived), identities


def record_checks(
    checks: Iterable[tuple], tol: float = DEFAULT_TOL, check_identities: bool = True
) -> tuple[VerificationReport, Optional[VerificationReport]]:
    """The equivalence report and, unless disabled, the identity report (at
    ``IDENTITY_TOL``) of ``check_group`` results, recorded in order."""
    equivalence = VerificationReport(tol=tol)
    identities = VerificationReport(tol=IDENTITY_TOL) if check_identities else None
    for equivalence_entry, identity_entry in checks:
        equivalence.record(equivalence_entry)
        if identities is not None:
            identities.record(identity_entry)
    return equivalence, identities


def run_verification(
    params: GenParams,
    n_groups: int,
    configs: Optional[Sequence[ObjectiveConfig]] = None,
    tol: float = DEFAULT_TOL,
    check_identities: bool = True,
    std_mode: str = SAMPLE,
    epsilon: float = DEFAULT_EPSILON,
    mapper: Callable = map,
) -> tuple[VerificationReport, Optional[VerificationReport]]:
    """Run the full suite: generated groups plus the mandatory degenerates.

    Returns the equivalence report and, unless disabled, the identity
    report (at ``IDENTITY_TOL``). Every group is checked under every config.
    ``mapper(check, sources)`` must yield ``check(source)`` for each source
    in order; the sources are the degenerate groups, then the indices of
    the generated groups, which ``check`` generates itself.
    """
    if n_groups < 0:
        raise ValueError(f"the number of random groups must be >= 0, got {n_groups}")
    if configs is None:
        configs = verification_configs()
    needs_logps = any(not c.assume_unit_ratio or c.beta > 0.0 for c in configs)
    if needs_logps and params.logp_mode != LOGP_RANDOM_CONSISTENT:
        params = replace(params, logp_mode=LOGP_RANDOM_CONSISTENT)

    def check(source):
        if not isinstance(source, Group):
            source = generate_random_group(params, source)
        return check_group(source, configs, std_mode, epsilon, check_identities)

    sources = chain(degenerate_groups(needs_logps), range(n_groups))
    return record_checks(mapper(check, sources), tol, check_identities)
