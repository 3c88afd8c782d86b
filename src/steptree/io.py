"""JSONL wire formats: group dumps in, weight records and summaries out.

One JSON object per line. Floats are rendered with Python's shortest
round-trip repr, so serialize/parse is lossless at full 64-bit precision.
Parsing is streaming: memory use is bounded by the largest single group.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, Optional, TextIO

from .core import DEFAULT_EPSILON, Group, SAMPLE, Trajectory, outcome_advantages, reward_stats
from .objectives import (
    GRPO,
    LAMBDA,
    ObjectiveConfig,
    lambda_weights,
    objective_grpo,
    objective_lambda,
)
from .rewards import step_advantages
from .tree import assign_tokens, build_process_tree

CSV_COLUMNS = (
    "query_id",
    "step",
    "k",
    "trivial",
    "mean_depth",
    "max_depth",
    "mean_p",
    "objective_grpo",
    "objective_lambda",
)

_COMPLETION_KEYS = {"tokens", "reward", "logp", "logp_old", "logp_ref"}


class RecordError(ValueError):
    """A malformed JSONL line, with its 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token!r} not allowed")


def _check_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{what} must be finite")
    return out


def _check_tokens(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError("tokens must be an array")
    # Trajectory validates the token ids themselves
    return tuple(value)


def _check_logps(value, n_tokens: int, name: str) -> Optional[tuple[float, ...]]:
    if value is None:
        return None
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array")
    if len(value) != n_tokens:
        raise ValueError(f"{name} has {len(value)} entries for {n_tokens} tokens")
    return tuple(_check_number(x, f"{name} entry") for x in value)


def parse_group_record(obj: dict) -> Group:
    """Validate one decoded record and build the Group."""
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    query_id = obj.get("query_id")
    if not isinstance(query_id, str):
        raise ValueError("query_id must be a string")
    step = obj.get("step")
    if step is not None and (isinstance(step, bool) or not isinstance(step, int)):
        raise ValueError("step must be an integer when present")
    completions = obj.get("completions")
    if not isinstance(completions, list) or len(completions) < 2:
        raise ValueError("completions must be an array of at least two entries")
    trajectories = []
    for idx, completion in enumerate(completions):
        if not isinstance(completion, dict):
            raise ValueError(f"completion {idx} must be an object")
        unknown = set(completion) - _COMPLETION_KEYS
        if unknown:
            raise ValueError(f"completion {idx} has unknown keys {sorted(unknown)}")
        tokens = _check_tokens(completion.get("tokens"))
        reward = _check_number(completion.get("reward"), f"completion {idx} reward")
        try:
            trajectories.append(
                Trajectory(
                    tokens=tokens,
                    reward=reward,
                    logp_new=_check_logps(completion.get("logp"), len(tokens), "logp"),
                    logp_old=_check_logps(
                        completion.get("logp_old"), len(tokens), "logp_old"
                    ),
                    logp_ref=_check_logps(
                        completion.get("logp_ref"), len(tokens), "logp_ref"
                    ),
                )
            )
        except ValueError as exc:
            raise ValueError(f"completion {idx}: {exc}") from None
    return Group(query_id=query_id, trajectories=tuple(trajectories), step=step)


def iter_groups(
    lines: Iterable[str],
    strict: bool = True,
    errors: Optional[list[RecordError]] = None,
) -> Iterator[Group]:
    """Stream groups from JSONL lines.

    Blank lines are skipped. In strict mode the first malformed line raises
    RecordError; in lenient mode malformed lines are collected in ``errors``
    (when given) and skipped.
    """
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line, parse_constant=_reject_constant)
            group = parse_group_record(obj)
        except (ValueError, TypeError) as exc:
            err = RecordError(line_no, str(exc))
            if strict:
                raise err from None
            if errors is not None:
                errors.append(err)
            continue
        yield group


def group_to_record(group: Group) -> dict:
    """Wire-format dict for one group."""
    record: dict = {"query_id": group.query_id}
    if group.step is not None:
        record["step"] = group.step
    completions = []
    for traj in group.trajectories:
        completion: dict = {"tokens": list(traj.tokens), "reward": traj.reward}
        if traj.logp_new is not None:
            completion["logp"] = list(traj.logp_new)
        if traj.logp_old is not None:
            completion["logp_old"] = list(traj.logp_old)
        if traj.logp_ref is not None:
            completion["logp_ref"] = list(traj.logp_ref)
        completions.append(completion)
    record["completions"] = completions
    return record


def serialize_group(group: Group) -> str:
    """One JSONL line; floats keep full 64-bit precision."""
    return json.dumps(group_to_record(group), separators=(",", ":"))


def effective_config(group: Group, beta: float, assume_unit_ratio: bool = True) -> ObjectiveConfig:
    """Downgrade the requested config to what the group's data supports.

    Ratio terms are only computed when every completion carries both logp
    and logp_old; the KL term is dropped when any completion lacks logp or
    logp_ref. This keeps file-level commands usable on bare token/reward
    dumps while the library-level evaluators stay strict.
    """
    have_ratio = all(
        t.logp_new is not None and t.logp_old is not None for t in group.trajectories
    )
    have_ref = all(
        t.logp_new is not None and t.logp_ref is not None for t in group.trajectories
    )
    return ObjectiveConfig(
        beta=beta if have_ref else 0.0,
        assume_unit_ratio=assume_unit_ratio or not have_ratio,
    )


def weight_record(
    group: Group,
    objective: str,
    beta: float = 0.0,
    std_mode: str = SAMPLE,
    epsilon: float = DEFAULT_EPSILON,
) -> dict:
    """Per-token advantages and weights for an external trainer.

    Emits, per completion: the outcome advantage, the token-level step
    advantages, the 1/|owning set| weights, and both the objective value
    and its negated loss under the requested objective tag.
    """
    if objective not in (GRPO, LAMBDA):
        raise ValueError(f"objective must be '{GRPO}' or '{LAMBDA}'")
    stats = reward_stats(group, std_mode, epsilon)
    advantages = outcome_advantages(group, stats)
    tree = build_process_tree(group)
    assignment = assign_tokens(tree)
    steps = step_advantages(tree, assignment, group, stats)
    weights = lambda_weights(tree, assignment)
    config = effective_config(group, beta)
    if objective == GRPO:
        report = objective_grpo(group, advantages, config)
    else:
        report = objective_lambda(group, tree, assignment, advantages, config)
    record: dict = {"query_id": group.query_id, "objective": objective}
    if group.step is not None:
        record["step"] = group.step
    record["objective_value"] = report.value
    record["loss"] = report.loss
    record["completions"] = [
        {
            "advantage": advantages[i],
            "token_advantage": list(steps.token_advantage[i]),
            "lambda_weight": list(weights[i]),
        }
        for i in range(group.k)
    ]
    return record


def write_jsonl(records: Iterable[dict], stream: TextIO) -> int:
    """Write records one per line; returns the number written."""
    count = 0
    for record in records:
        stream.write(json.dumps(record, separators=(",", ":")) + "\n")
        count += 1
    return count
