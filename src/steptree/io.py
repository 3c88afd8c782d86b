"""JSONL wire formats: group dumps in, weight records and summaries out.

One JSON object per line. Floats are rendered with Python's shortest
round-trip repr, so serialize/parse is lossless at full 64-bit precision.
Parsing is streaming: memory use is bounded by the largest single group.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Iterable, Iterator, TextIO

from .core import DEFAULT_EPSILON, Group, SAMPLE, Trajectory
from .objectives import GRPO, LAMBDA, ObjectiveConfig
from .rewards import GroupDerivation

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

# wire key -> Trajectory field; ``logp`` is read into ``logp_new``
_LOGP_KEYS = (("logp", "logp_new"), ("logp_old", "logp_old"), ("logp_ref", "logp_ref"))
_COMPLETION_KEYS = {"tokens", "reward", *(key for key, _ in _LOGP_KEYS)}


class RecordError(ValueError):
    """A malformed JSONL line, with its 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token!r} not allowed")


def unique_keys(pairs: list) -> dict:
    """A JSON object's dict, for ``object_pairs_hook``; a repeated key is an error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set = set()  # set.add returns None, so the first key seen twice is next's
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"repeated key {repeated!r}")
    return obj


def parse_group_record(obj: dict) -> Group:
    """Map one decoded record onto a Group, checking only the wire format.

    Values go through as they are: ``Trajectory`` and ``Group`` check them,
    and ``completion I:`` is put in front of their messages.
    """
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    completions = obj.get("completions")
    if not isinstance(completions, list):
        raise ValueError("completions must be an array")
    trajectories = []
    for idx, completion in enumerate(completions):
        if not isinstance(completion, dict):
            raise ValueError(f"completion {idx} must be an object")
        unknown = completion.keys() - _COMPLETION_KEYS
        if unknown:
            raise ValueError(f"completion {idx} has unknown keys {sorted(unknown)}")
        try:
            if not isinstance(completion.get("tokens"), list):
                raise ValueError("tokens must be an array")
            logps = {}
            for key, name in _LOGP_KEYS:
                logps[name] = value = completion.get(key)
                if value is not None and not isinstance(value, list):
                    raise ValueError(f"{name} must be an array")
            trajectories.append(
                Trajectory(completion["tokens"], completion.get("reward"), **logps)
            )
        except ValueError as exc:
            raise ValueError(f"completion {idx}: {exc}") from None
    return Group(
        query_id=obj.get("query_id"), trajectories=trajectories, step=obj.get("step")
    )


def iter_groups(lines: Iterable[str]) -> Iterator[Group]:
    """Stream groups from JSONL lines.

    Blank lines are skipped; the first malformed line raises RecordError.
    """
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line, parse_constant=_reject_constant, object_pairs_hook=unique_keys)
            group = parse_group_record(obj)
        except (ValueError, TypeError, RecursionError) as exc:
            raise RecordError(line_no, str(exc)) from None
        yield group


def group_to_record(group: Group) -> dict:
    """Wire-format dict for one group."""
    record: dict = {"query_id": group.query_id}
    if group.step is not None:
        record["step"] = group.step
    completions = []
    for traj in group.trajectories:
        completion: dict = {"tokens": list(traj.tokens), "reward": traj.reward}
        for key, name in _LOGP_KEYS:
            if getattr(traj, name) is not None:
                completion[key] = list(getattr(traj, name))
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
    dumps while the library-level evaluators stay strict. The requested
    beta is checked even where it is dropped.
    """
    have_ratio = all(
        t.logp_new is not None and t.logp_old is not None for t in group.trajectories
    )
    have_ref = all(
        t.logp_new is not None and t.logp_ref is not None for t in group.trajectories
    )
    config = ObjectiveConfig(
        beta=beta, assume_unit_ratio=assume_unit_ratio or not have_ratio
    )
    return config if have_ref else replace(config, beta=0.0)


def _weight_parts(
    group: Group, objective: str, beta: float, std_mode: str, epsilon: float
) -> tuple:
    """A weight record's head fields, outcome advantages, per-node step
    advantages and 1/size weights, and token assignment; both formats read it."""
    if objective not in (GRPO, LAMBDA):
        raise ValueError(f"objective must be '{GRPO}' or '{LAMBDA}'")
    derived = GroupDerivation(group, [effective_config(group, beta)], std_mode, epsilon)
    (report,) = derived.grpo if objective == GRPO else derived.lam
    head: dict = {"query_id": group.query_id, "objective": objective}
    if group.step is not None:
        head["step"] = group.step
    head["objective_value"] = report.value
    head["loss"] = report.loss
    node_weights = [1.0 / node.size for node in derived.tree.nodes]
    return head, derived.advantages, derived.node_advantages, node_weights, derived.assignment


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
    record, advantages, node_adv, node_weights, assignment = _weight_parts(
        group, objective, beta, std_mode, epsilon
    )
    record["completions"] = [
        {"advantage": a, "token_advantage": adv_row, "lambda_weight": weight_row}
        for a, adv_row, weight_row in zip(
            advantages, assignment.rows(node_adv), assignment.rows(node_weights)
        )
    ]
    return record


def weight_line(
    group: Group,
    objective: str,
    beta: float = 0.0,
    std_mode: str = SAMPLE,
    epsilon: float = DEFAULT_EPSILON,
) -> str:
    """``json.dumps(weight_record(...), separators=(",", ":"))``, built per node.

    Each node's run of step advantages and of weights is rendered once, and
    every token row joins the runs along its completion's path.
    """
    head, advantages, node_adv, node_weights, assignment = _weight_parts(
        group, objective, beta, std_mode, epsilon
    )
    dumps = json.dumps
    lengths = [node.span_len for node in assignment.nodes]
    adv_runs = [",".join([dumps(a)] * n) for a, n in zip(node_adv, lengths)]
    weight_runs = [",".join([dumps(w)] * n) for w, n in zip(node_weights, lengths)]
    completions = ",".join(
        [
            f'{{"advantage":{dumps(a)},'
            f'"token_advantage":[{",".join([adv_runs[n] for n in path])}],'
            f'"lambda_weight":[{",".join([weight_runs[n] for n in path])}]}}'
            for a, path in zip(advantages, assignment.paths)
        ]
    )
    # the head's closing brace gives way to the completions
    return dumps(head, separators=(",", ":"))[:-1] + f',"completions":[{completions}]}}'


def write_jsonl(lines: Iterable[str], stream: TextIO) -> None:
    """Write rendered lines one per line."""
    for line in lines:
        stream.write(line + "\n")
