"""Trajectory groups, reward statistics, and outcome-level advantages.

A group is the set of k completions sampled for a single query. Each
completion carries its outcome reward and, optionally, per-token
log-probabilities under the current, rollout, and reference policies.
Advantages are rewards normalized by the group's own mean and standard
deviation, which is what makes the optimization "group-relative".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

SAMPLE = "sample"
POPULATION = "population"
STD_MODES = (SAMPLE, POPULATION)

DEFAULT_EPSILON = 1e-8

_LOGP_FIELDS = ("logp_new", "logp_old", "logp_ref")


@dataclass(frozen=True)
class Trajectory:
    """One sampled completion.

    ``logp_new``, ``logp_old``, and ``logp_ref`` are natural-log
    probabilities per token under the current, rollout, and reference
    policies. When present they must match the token count and be <= 0.
    """

    tokens: tuple[int, ...]
    reward: float
    logp_new: Optional[tuple[float, ...]] = None
    logp_old: Optional[tuple[float, ...]] = None
    logp_ref: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        for t in tokens:
            if isinstance(t, bool) or not isinstance(t, int):
                raise ValueError(f"token ids must be integers, got {t!r}")
            if t < 0:
                raise ValueError(f"token ids must be non-negative, got {t}")
        reward = float(self.reward)
        object.__setattr__(self, "reward", reward)
        if not math.isfinite(reward):
            raise ValueError("reward must be finite")
        for name in _LOGP_FIELDS:
            logps = getattr(self, name)
            if logps is None:
                continue
            logps = tuple(float(x) for x in logps)
            object.__setattr__(self, name, logps)
            if len(logps) != len(tokens):
                raise ValueError(
                    f"{name} has {len(logps)} entries for {len(tokens)} tokens"
                )
            if any(not math.isfinite(x) or x > 0.0 for x in logps):
                raise ValueError(f"{name} entries must be finite and <= 0")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Group:
    """The k >= 2 completions sampled for one query.

    ``step`` is an optional training-step id carried through from dumps so
    aggregated diagnostics can be bucketed per step.
    """

    query_id: str
    trajectories: tuple[Trajectory, ...]
    step: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        if len(self.trajectories) < 2:
            raise ValueError("a group needs at least two trajectories")

    @property
    def k(self) -> int:
        return len(self.trajectories)

    @property
    def rewards(self) -> tuple[float, ...]:
        return tuple(t.reward for t in self.trajectories)

    @property
    def total_tokens(self) -> int:
        return sum(len(t) for t in self.trajectories)

    @property
    def max_len(self) -> int:
        return max(len(t) for t in self.trajectories)


@dataclass(frozen=True)
class RewardStats:
    """Group mean and standard deviation of outcome rewards.

    ``std_mode`` selects the divisor: ``sample`` uses k-1, ``population``
    uses k. When ``std < epsilon`` the group is treated as degenerate and
    advantages collapse to zero instead of dividing by a noise-inflated
    denominator.
    """

    mean: float
    std: float
    std_mode: str
    epsilon: float

    @property
    def degenerate(self) -> bool:
        return self.std < self.epsilon


def reward_stats(
    group: Group,
    std_mode: str = SAMPLE,
    epsilon: float = DEFAULT_EPSILON,
) -> RewardStats:
    """Mean and std of the group's outcome rewards."""
    if std_mode not in STD_MODES:
        raise ValueError(f"std_mode must be one of {STD_MODES}, got {std_mode!r}")
    rewards = group.rewards
    k = len(rewards)
    mean = math.fsum(rewards) / k
    divisor = k - 1 if std_mode == SAMPLE else k
    variance = math.fsum((r - mean) ** 2 for r in rewards) / divisor
    return RewardStats(
        mean=mean, std=math.sqrt(variance), std_mode=std_mode, epsilon=float(epsilon)
    )


def outcome_advantages(group: Group, stats: RewardStats) -> list[float]:
    """Per-trajectory advantages (r_i - mean) / std, zeros when degenerate."""
    if stats.degenerate:
        return [0.0] * group.k
    return [(r - stats.mean) / stats.std for r in group.rewards]


def normalized_advantage(reward: float, stats: RewardStats) -> float:
    """Normalize a single (possibly step-level) reward by the group stats."""
    if stats.degenerate:
        return 0.0
    return (reward - stats.mean) / stats.std


def group_from_sequences(
    query_id: str,
    sequences: Sequence[Sequence[int]],
    rewards: Sequence[float],
    step: Optional[int] = None,
) -> Group:
    """Convenience constructor for groups without log-probabilities."""
    if len(sequences) != len(rewards):
        raise ValueError("sequences and rewards must have equal length")
    return Group(
        query_id=query_id,
        trajectories=tuple(
            Trajectory(tokens=tuple(s), reward=r) for s, r in zip(sequences, rewards)
        ),
        step=step,
    )
