"""Token-level objective evaluation: ratio terms, KL terms, and the three
surrogate objectives.

All three are one token sum with the per-token term
``(P[i][t] * A[i][t] - beta * D[i][t]) / s[i][t]``. They differ only in the
advantage ``A`` (the outcome advantage a_i for GRPO and the set-size
corrected form, the step advantage for the PRM form) and the divisor ``s``
(1, or |owning set| for the set-size corrected form). The P and D rows are
built once per (group, config) by ``token_terms`` and passed to every
objective evaluated on that pair. Reported values are
token means of these terms and are objectives to *maximize*;
``ObjectiveReport.loss`` is the negation for trainers that minimize.

All accumulation uses ``math.fsum`` (exact compensated summation), which
keeps the cross-check identities tight at 1e-12 even for large groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence

from .core import Group, check_nonnegative
from .tree import TokenAssignment

GRPO = "grpo"
PRM = "prm"
LAMBDA = "lambda"

DEFAULT_BETA = 0.04


class ConfigurationError(ValueError):
    """An objective was evaluated without the log-probabilities it needs."""


@dataclass(frozen=True)
class ObjectiveConfig:
    """Evaluation knobs shared by all objectives.

    ``assume_unit_ratio`` fixes every ratio term to 1.0, matching the
    single-update-per-batch regime where the rollout policy equals the
    current one; with it off, ``logp_new`` and ``logp_old`` must be present
    on every trajectory. ``beta`` scales the KL term; ``beta=0`` disables it
    and drops the ``logp_ref`` requirement.
    """

    beta: float = DEFAULT_BETA
    assume_unit_ratio: bool = True

    def __post_init__(self) -> None:
        check_nonnegative(self.beta, "beta")


@dataclass(frozen=True)
class ObjectiveReport:
    """Scalar objective value plus its per-token term breakdown."""

    objective: str
    value: float
    per_token_terms: tuple[tuple[float, ...], ...]
    total_tokens: int

    @property
    def loss(self) -> float:
        """Negated value, for minimizing trainers."""
        return -self.value


def ratio_terms(group: Group, config: ObjectiveConfig) -> list[list[float]]:
    """Importance ratios P[i][t], or all ones under assume_unit_ratio."""
    if config.assume_unit_ratio:
        return [[1.0] * len(t) for t in group.trajectories]
    rows = []
    for i, traj in enumerate(group.trajectories):
        if traj.logp_new is None or traj.logp_old is None:
            raise ConfigurationError(
                f"trajectory {i}: ratio terms need logp_new and logp_old "
                "(or assume_unit_ratio=True)"
            )
        rows.append(
            [math.exp(n - o) for n, o in zip(traj.logp_new, traj.logp_old)]
        )
    return rows


def kl_terms(group: Group, config: ObjectiveConfig) -> list[list[float]]:
    """KL estimator D[i][t] = x - ln x - 1 with x the ref/current ratio.

    Always >= 0, and exactly 0 where the policies agree. Returns zeros when
    beta is 0 so reference log-probabilities are only required when the KL
    term actually contributes.
    """
    if config.beta == 0.0:
        return [[0.0] * len(t) for t in group.trajectories]
    rows = []
    for i, traj in enumerate(group.trajectories):
        if traj.logp_new is None or traj.logp_ref is None:
            raise ConfigurationError(
                f"trajectory {i}: KL terms with beta > 0 need logp_new and logp_ref"
            )
        row = []
        for new, ref in zip(traj.logp_new, traj.logp_ref):
            delta = ref - new
            row.append(math.exp(delta) - delta - 1.0)
        rows.append(row)
    return rows


class TokenTerms(NamedTuple):
    """Ratio rows P, KL rows D and the KL coefficient of one (group, config)."""

    ratio: list[list[float]]
    kl: list[list[float]]
    beta: float


def token_terms(group: Group, config: ObjectiveConfig) -> TokenTerms:
    """The ratio and KL rows of the group under the config."""
    return TokenTerms(ratio_terms(group, config), kl_terms(group, config), config.beta)


def lambda_weights(assignment: TokenAssignment) -> list[list[float]]:
    """Per-token weights 1/|owning process set|, each in (0, 1]."""
    return [[1.0 / node.size for node in row] for row in assignment.owners]


def _token_sum(
    objective: str,
    group: Group,
    advantage_rows: Iterable[Iterable[float]],
    divisor_rows: Iterable[Iterable[float]],
    terms: TokenTerms,
) -> ObjectiveReport:
    """Token mean of (P * A - beta * D) / s over the whole group.

    Rows are per completion; advantage and divisor rows may be endless
    (``itertools.repeat``), since each is cut to its completion's length.
    """
    p, d, beta = terms
    term_rows = tuple(
        tuple(
            (p_t * a_t - beta * d_t) / s_t
            for p_t, a_t, d_t, s_t in zip(p_row, a_row, d_row, s_row)
        )
        for p_row, a_row, d_row, s_row in zip(
            p, advantage_rows, d, divisor_rows, strict=True
        )
    )
    total_tokens = group.total_tokens
    value = (
        math.fsum(term for row in term_rows for term in row) / total_tokens
        if total_tokens
        else 0.0
    )
    return ObjectiveReport(
        objective=objective,
        value=value,
        per_token_terms=term_rows,
        total_tokens=total_tokens,
    )


def objective_grpo(
    group: Group,
    advantages: Sequence[float],
    terms: TokenTerms,
) -> ObjectiveReport:
    """Token-mean of P * a_i - beta * D with outcome advantages a_i."""
    return _token_sum(
        GRPO, group, [repeat(a) for a in advantages], [repeat(1)] * group.k, terms
    )


def objective_prm(
    group: Group,
    step_advantage_rows: Sequence[Sequence[float]],
    terms: TokenTerms,
) -> ObjectiveReport:
    """Token-mean of P * A[i][t] - beta * D with step advantages A[i][t].

    Equals ``objective_grpo`` on the same group: replacing each outcome
    advantage by the owning set's mean advantage redistributes the same
    total within every shared span.
    """
    return _token_sum(PRM, group, step_advantage_rows, [repeat(1)] * group.k, terms)


def objective_lambda(
    group: Group,
    assignment: TokenAssignment,
    advantages: Sequence[float],
    terms: TokenTerms,
) -> ObjectiveReport:
    """GRPO with every token's term divided by its owning set size.

    The division applies to the whole per-token term, so each per-token
    value here is exactly the corresponding GRPO term divided by
    |owning set|: process sets contribute equally at every position instead
    of in proportion to their size.
    """
    sizes = ([node.size for node in row] for row in assignment.owners)
    return _token_sum(LAMBDA, group, [repeat(a) for a in advantages], sizes, terms)
