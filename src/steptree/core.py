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
_NEG_INF = -math.inf


def check_nonnegative(value: float, name: str) -> None:
    """Reject a value that is not finite and >= 0, naming it in the message."""
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0")


def _as_float(value, what: str) -> float:
    """An int or float as a float; bools, strings and other types are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return math.inf if value > 0 else -math.inf


def _logp(name: str, value) -> float:
    x = _as_float(value, f"{name} entry")
    if not _NEG_INF < x <= 0.0:
        raise ValueError(f"{name} entries must be finite and <= 0")
    return x


def _logp_row(name: str, values, n_tokens: int) -> tuple[float, ...]:
    """Check a log-prob array in one pass; only non-float entries are converted."""
    row = tuple(values)
    if len(row) != n_tokens:
        raise ValueError(f"{name} has {len(row)} entries for {n_tokens} tokens")
    for i, x in enumerate(row):
        if type(x) is not float or not _NEG_INF < x <= 0.0:
            # the rest goes through the full check, which converts or rejects
            return row[:i] + tuple(_logp(name, v) for v in row[i:])
    return row


@dataclass(frozen=True)
class Trajectory:
    """One sampled completion; the only place its values are checked.

    Token ids are non-negative ints; ``reward`` is a finite int or float.
    ``logp_new``, ``logp_old``, and ``logp_ref`` are natural-log
    probabilities per token under the current, rollout, and reference
    policies; when present they must match the token count and be <= 0.
    Numbers are stored as floats; bools and strings are not numbers here.
    """

    tokens: tuple[int, ...]
    reward: float
    logp_new: Optional[tuple[float, ...]] = None
    logp_old: Optional[tuple[float, ...]] = None
    logp_ref: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        for t in tokens:
            if type(t) is not int or t < 0:
                if isinstance(t, bool) or not isinstance(t, int):
                    raise ValueError(f"token ids must be integers, got {t!r}")
                if t < 0:
                    raise ValueError(f"token ids must be non-negative, got {t}")
        object.__setattr__(self, "tokens", tokens)
        reward = self.reward
        if type(reward) is not float:
            reward = _as_float(reward, "reward")
            object.__setattr__(self, "reward", reward)
        if not math.isfinite(reward):
            raise ValueError("reward must be finite")
        for name in _LOGP_FIELDS:
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, _logp_row(name, values, len(tokens)))

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Group:
    """The k >= 2 completions sampled for one query.

    ``query_id`` is a string. ``step`` is an optional integer training-step
    id carried through from dumps so aggregated diagnostics can be bucketed
    per step.
    """

    query_id: str
    trajectories: tuple[Trajectory, ...]
    step: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.query_id, str):
            raise ValueError("query_id must be a string")
        step = self.step
        if step is not None and (isinstance(step, bool) or not isinstance(step, int)):
            raise ValueError("step must be an integer when present")
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
    check_nonnegative(epsilon, "epsilon")
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
