"""Structural diagnostics of process trees and mergeable aggregation.

Per group: whether the tree is trivial, the number of intermediate nodes
between the root and each terminal (path depth), and the fraction of each
trajectory's tokens owned by non-terminal process sets (intermediate
proportion). Aggregation is an associative merge of counts, sums, and
histograms, so partial summaries computed in parallel combine exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional

from .core import Group
from .tree import ProcessTree, is_trivial

# Proportions are histogrammed on [0, 1] with this many buckets; quantiles
# read off bucket midpoints, so their error is bounded by half a bucket
# width (0.05% of the range, well under the documented 1%). Depth
# histograms are exact integer counts, so depth quantiles are exact.
P_BUCKETS = 1000


@dataclass(frozen=True)
class GroupMetrics:
    """Per-group diagnostics, one entry per trajectory where applicable."""

    query_id: str
    step: Optional[int]
    k: int
    trivial: bool
    path_depth: tuple[int, ...]
    n_term: tuple[int, ...]
    intermediate_proportion: tuple[float, ...]
    zero_length: tuple[bool, ...]

    @property
    def mean_depth(self) -> float:
        return math.fsum(self.path_depth) / self.k

    @property
    def max_depth(self) -> int:
        return max(self.path_depth)

    @property
    def mean_proportion(self) -> float:
        return math.fsum(self.intermediate_proportion) / self.k


def group_metrics(tree: ProcessTree, group: Group) -> GroupMetrics:
    """Compute the structural diagnostics for one built tree.

    Path depth counts strictly intermediate nodes, excluding both the root
    and the terminal singleton. A zero-length trajectory has proportion 0
    by convention and is flagged.
    """
    depth_of: dict[int, int] = {tree.root.node_id: 0}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for child in node.children:
            depth_of[child.node_id] = depth_of[node.node_id] + 1
            stack.append(child)

    depths = []
    n_terms = []
    proportions = []
    zero_length = []
    for i, traj in enumerate(group.trajectories):
        leaf = tree.leaves[i]
        depths.append(max(depth_of[leaf.node_id] - 1, 0))
        n_term = leaf.span_len
        n_terms.append(n_term)
        length = len(traj)
        zero_length.append(length == 0)
        proportions.append((length - n_term) / length if length else 0.0)

    return GroupMetrics(
        query_id=group.query_id,
        step=group.step,
        k=group.k,
        trivial=is_trivial(tree),
        path_depth=tuple(depths),
        n_term=tuple(n_terms),
        intermediate_proportion=tuple(proportions),
        zero_length=tuple(zero_length),
    )


@dataclass
class StepSeriesEntry:
    """Per-training-step slice of the aggregate.

    Proportion sums accumulate as exact rationals (floats are binary
    rationals), so partial summaries merge to the full-stream summary
    exactly, independent of the split.
    """

    group_count: int = 0
    trajectory_count: int = 0
    trivial_count: int = 0
    depth_sum: int = 0
    proportion_sum: Fraction = Fraction(0)

    def merge(self, other: "StepSeriesEntry") -> "StepSeriesEntry":
        return StepSeriesEntry(
            group_count=self.group_count + other.group_count,
            trajectory_count=self.trajectory_count + other.trajectory_count,
            trivial_count=self.trivial_count + other.trivial_count,
            depth_sum=self.depth_sum + other.depth_sum,
            proportion_sum=self.proportion_sum + other.proportion_sum,
        )

    def to_dict(self) -> dict:
        return {
            "group_count": self.group_count,
            "trajectory_count": self.trajectory_count,
            "trivial_count": self.trivial_count,
            "trivial_fraction": self.trivial_count / self.group_count
            if self.group_count
            else None,
            "mean_depth": self.depth_sum / self.trajectory_count
            if self.trajectory_count
            else None,
            "mean_proportion": float(self.proportion_sum / self.trajectory_count)
            if self.trajectory_count
            else None,
        }


@dataclass
class MetricsSummary:
    """Mergeable aggregate over a stream of per-group diagnostics."""

    group_count: int = 0
    trajectory_count: int = 0
    trivial_count: int = 0
    zero_length_count: int = 0
    depth_sum: int = 0
    proportion_sum: Fraction = Fraction(0)
    depth_hist: dict[int, int] = field(default_factory=dict)
    proportion_hist: dict[int, int] = field(default_factory=dict)
    per_step: dict[int, StepSeriesEntry] = field(default_factory=dict)

    def add(self, metrics: GroupMetrics) -> None:
        self.group_count += 1
        self.trajectory_count += metrics.k
        if metrics.trivial:
            self.trivial_count += 1
        self.zero_length_count += sum(metrics.zero_length)
        for depth in metrics.path_depth:
            self.depth_sum += depth
            self.depth_hist[depth] = self.depth_hist.get(depth, 0) + 1
        group_p = Fraction(0)
        for p in metrics.intermediate_proportion:
            group_p += Fraction(p)
            bucket = min(int(p * P_BUCKETS), P_BUCKETS - 1)
            self.proportion_hist[bucket] = self.proportion_hist.get(bucket, 0) + 1
        self.proportion_sum += group_p
        if metrics.step is not None:
            entry = self.per_step.setdefault(metrics.step, StepSeriesEntry())
            entry.group_count += 1
            entry.trajectory_count += metrics.k
            if metrics.trivial:
                entry.trivial_count += 1
            entry.depth_sum += sum(metrics.path_depth)
            entry.proportion_sum += group_p

    def merge(self, other: "MetricsSummary") -> "MetricsSummary":
        merged = MetricsSummary(
            group_count=self.group_count + other.group_count,
            trajectory_count=self.trajectory_count + other.trajectory_count,
            trivial_count=self.trivial_count + other.trivial_count,
            zero_length_count=self.zero_length_count + other.zero_length_count,
            depth_sum=self.depth_sum + other.depth_sum,
            proportion_sum=self.proportion_sum + other.proportion_sum,
            depth_hist=dict(self.depth_hist),
            proportion_hist=dict(self.proportion_hist),
            per_step={step: replace(e) for step, e in self.per_step.items()},
        )
        for depth, count in other.depth_hist.items():
            merged.depth_hist[depth] = merged.depth_hist.get(depth, 0) + count
        for bucket, count in other.proportion_hist.items():
            merged.proportion_hist[bucket] = (
                merged.proportion_hist.get(bucket, 0) + count
            )
        for step, entry in other.per_step.items():
            mine = merged.per_step.get(step)
            merged.per_step[step] = replace(entry) if mine is None else mine.merge(entry)
        return merged

    @property
    def trivial_fraction(self) -> Optional[float]:
        return self.trivial_count / self.group_count if self.group_count else None

    @property
    def mean_depth(self) -> Optional[float]:
        return (
            self.depth_sum / self.trajectory_count if self.trajectory_count else None
        )

    @property
    def mean_proportion(self) -> Optional[float]:
        return (
            float(self.proportion_sum / self.trajectory_count)
            if self.trajectory_count
            else None
        )

    def depth_quantile(self, q: float) -> Optional[int]:
        """Exact q-quantile of per-trajectory path depth."""
        rank = _quantile_rank(q, self.trajectory_count)
        if rank is None:
            return None
        seen = 0
        for depth in sorted(self.depth_hist):
            seen += self.depth_hist[depth]
            if seen >= rank:
                return depth
        return None

    def proportion_quantile(self, q: float) -> Optional[float]:
        """q-quantile of intermediate proportion, to within half a bucket."""
        rank = _quantile_rank(q, self.trajectory_count)
        if rank is None:
            return None
        seen = 0
        for bucket in sorted(self.proportion_hist):
            seen += self.proportion_hist[bucket]
            if seen >= rank:
                return (bucket + 0.5) / P_BUCKETS
        return None

    def to_dict(self) -> dict:
        return {
            "group_count": self.group_count,
            "trajectory_count": self.trajectory_count,
            "trivial_count": self.trivial_count,
            "trivial_fraction": self.trivial_fraction,
            "zero_length_count": self.zero_length_count,
            "mean_depth": self.mean_depth,
            "mean_proportion": self.mean_proportion,
            "depth_quantiles": {
                "p50": self.depth_quantile(0.5),
                "p90": self.depth_quantile(0.9),
                "p99": self.depth_quantile(0.99),
            },
            "proportion_quantiles": {
                "p50": self.proportion_quantile(0.5),
                "p90": self.proportion_quantile(0.9),
                "p99": self.proportion_quantile(0.99),
            },
            "depth_hist": {str(k): v for k, v in sorted(self.depth_hist.items())},
            "proportion_hist": {
                str(k): v for k, v in sorted(self.proportion_hist.items())
            },
            "per_step": {
                str(step): self.per_step[step].to_dict()
                for step in sorted(self.per_step)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSummary":
        """Rebuild a summary from ``to_mergeable_dict`` output.

        Raises ValueError naming the first missing or wrongly typed field.
        """
        if not isinstance(data, dict):
            raise ValueError("summary must be a JSON object")
        try:
            summary = cls(
                **_entry(data, _COUNT_FIELDS),
                depth_hist=_hist(data, "depth_hist"),
                proportion_hist=_hist(data, "proportion_hist"),
            )
            per_step = _typed(data.get("per_step_raw", {}), dict, "per_step_raw")
            for step, entry in per_step.items():
                label = f"per_step_raw.{step}"
                summary.per_step[_int_key(step, "per_step_raw")] = StepSeriesEntry(
                    **_entry(_typed(entry, dict, label), _STEP_COUNT_FIELDS, label + ".")
                )
        except KeyError as exc:
            raise ValueError(f"summary is missing field {exc.args[0]!r}") from None
        return summary

    def to_mergeable_dict(self) -> dict:
        """Full state, including raw sums, so summaries can be re-merged.

        Exact rational sums are rendered as fraction strings so the merge
        stays exact across serialization.
        """
        doc = self.to_dict()
        doc["depth_sum"] = self.depth_sum
        doc["proportion_sum"] = str(self.proportion_sum)
        doc["per_step_raw"] = {
            str(step): {
                "group_count": e.group_count,
                "trajectory_count": e.trajectory_count,
                "trivial_count": e.trivial_count,
                "depth_sum": e.depth_sum,
                "proportion_sum": str(e.proportion_sum),
            }
            for step, e in sorted(self.per_step.items())
        }
        return doc


_STEP_COUNT_FIELDS = ("group_count", "trajectory_count", "trivial_count", "depth_sum")
_COUNT_FIELDS = (*_STEP_COUNT_FIELDS, "zero_length_count")


def _typed(value, kind: type, label: str):
    """``value`` if it is a ``kind`` and not a bool, else a ValueError naming ``label``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = {int: "an integer", str: "a fraction string"}.get(kind, "an object")
        raise ValueError(f"summary field {label!r} must be {what}, got {value!r}")
    return value


def _int_key(key: str, label: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ValueError(f"summary field {label!r} has a non-integer key {key!r}") from None


def _entry(data: dict, counts: tuple[str, ...], prefix: str = "") -> dict:
    """The counts and exact proportion sum of a summary or a per-step entry."""
    fields = {name: _typed(data[name], int, prefix + name) for name in counts}
    label = prefix + "proportion_sum"
    text = _typed(data["proportion_sum"], str, label)
    try:
        fields["proportion_sum"] = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"summary field {label!r} is not a fraction: {text!r}") from None
    return fields


def _hist(data: dict, name: str) -> dict[int, int]:
    hist = _typed(data[name], dict, name)
    return {_int_key(k, name): _typed(v, int, f"{name}.{k}") for k, v in hist.items()}


def _quantile_rank(q: float, n: int) -> Optional[int]:
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if n == 0:
        return None
    return max(1, math.ceil(q * n))


def aggregate_metrics(stream: Iterable[GroupMetrics]) -> MetricsSummary:
    """Fold a stream of per-group diagnostics into one summary."""
    summary = MetricsSummary()
    for metrics in stream:
        summary.add(metrics)
    return summary
