"""Structural diagnostics of process trees and mergeable aggregation.

Per group: whether the tree is trivial, the number of intermediate nodes
between the root and each terminal (path depth), and the fraction of each
trajectory's tokens owned by non-terminal process sets (intermediate
proportion). Aggregation is an associative merge of counts, sums, and
histograms, so partial summaries computed in parallel combine exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

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
    for traj, leaf in zip(group.trajectories, tree.leaves):
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
    """Counts and exact sums of a stream of groups: one training step's
    slice of the aggregate, or, as ``MetricsSummary``, the whole run.

    Proportion sums accumulate as exact rationals (floats are binary
    rationals), so partial summaries merge to the full-stream summary
    exactly, independent of the split.
    """

    group_count: int = 0
    trajectory_count: int = 0
    trivial_count: int = 0
    depth_sum: int = 0
    proportion_sum: Fraction = Fraction(0)

    def _absorb(self, other: "StepSeriesEntry") -> None:
        self.group_count += other.group_count
        self.trajectory_count += other.trajectory_count
        self.trivial_count += other.trivial_count
        self.depth_sum += other.depth_sum
        self.proportion_sum += other.proportion_sum

    def merge(self, other):
        """A new aggregate of the same type holding both operands' counts;
        neither operand changes."""
        merged = type(self)()
        merged._absorb(self)
        merged._absorb(other)
        return merged

    @property
    def trivial_fraction(self) -> Optional[float]:
        return self.trivial_count / self.group_count if self.group_count else None

    @property
    def mean_depth(self) -> Optional[float]:
        return self.depth_sum / self.trajectory_count if self.trajectory_count else None

    @property
    def mean_proportion(self) -> Optional[float]:
        if not self.trajectory_count:
            return None
        return float(self.proportion_sum / self.trajectory_count)

    def to_dict(self) -> dict:
        return {
            "group_count": self.group_count,
            "trajectory_count": self.trajectory_count,
            "trivial_count": self.trivial_count,
            "trivial_fraction": self.trivial_fraction,
            "mean_depth": self.mean_depth,
            "mean_proportion": self.mean_proportion,
        }

    def to_raw_dict(self) -> dict:
        """The counts and the exact proportion sum, as a fraction string."""
        return {
            "group_count": self.group_count,
            "trajectory_count": self.trajectory_count,
            "trivial_count": self.trivial_count,
            "depth_sum": self.depth_sum,
            "proportion_sum": str(self.proportion_sum),
        }


@dataclass
class MetricsSummary(StepSeriesEntry):
    """Mergeable aggregate over a stream of per-group diagnostics."""

    zero_length_count: int = 0
    depth_hist: Counter[int] = field(default_factory=Counter)
    proportion_hist: Counter[int] = field(default_factory=Counter)
    per_step: dict[int, StepSeriesEntry] = field(default_factory=dict)

    def add(self, metrics: GroupMetrics) -> None:
        proportions = metrics.intermediate_proportion
        self.zero_length_count += sum(metrics.zero_length)
        self.depth_hist.update(metrics.path_depth)
        buckets = (min(int(p * P_BUCKETS), P_BUCKETS - 1) for p in proportions)
        self.proportion_hist.update(buckets)
        group_p = sum(map(Fraction, proportions), Fraction(0))
        group = StepSeriesEntry(
            1, metrics.k, int(metrics.trivial), sum(metrics.path_depth), group_p
        )
        super()._absorb(group)  # totals only: a group has no histograms or steps
        if metrics.step is not None:
            self.per_step.setdefault(metrics.step, StepSeriesEntry())._absorb(group)

    def _absorb(self, other: "MetricsSummary") -> None:
        super()._absorb(other)
        self.zero_length_count += other.zero_length_count
        self.depth_hist.update(other.depth_hist)
        self.proportion_hist.update(other.proportion_hist)
        for step, entry in other.per_step.items():
            self.per_step.setdefault(step, StepSeriesEntry())._absorb(entry)

    def depth_quantile(self, q: float) -> Optional[int]:
        """Exact q-quantile of per-trajectory path depth."""
        return _hist_quantile(self.depth_hist, q, self.trajectory_count)

    def proportion_quantile(self, q: float) -> Optional[float]:
        """q-quantile of intermediate proportion, to within half a bucket."""
        bucket = _hist_quantile(self.proportion_hist, q, self.trajectory_count)
        return None if bucket is None else (bucket + 0.5) / P_BUCKETS

    def to_dict(self) -> dict:
        doc = super().to_dict()
        doc["zero_length_count"] = self.zero_length_count
        for key in ("mean_depth", "mean_proportion"):
            doc[key] = doc.pop(key)  # published order: after zero_length_count
        quantiles = {"p50": 0.5, "p90": 0.9, "p99": 0.99}
        doc["depth_quantiles"] = {p: self.depth_quantile(q) for p, q in quantiles.items()}
        doc["proportion_quantiles"] = {
            p: self.proportion_quantile(q) for p, q in quantiles.items()
        }
        for name in ("depth_hist", "proportion_hist"):
            doc[name] = {str(k): v for k, v in sorted(getattr(self, name).items())}
        doc["per_step"] = {
            str(step): entry.to_dict() for step, entry in sorted(self.per_step.items())
        }
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSummary":
        """Rebuild a summary from ``to_mergeable_dict`` output.

        Raises ValueError naming the first field that is missing, wrongly
        typed, or holds a value that ``analyze`` cannot produce.
        """
        if not isinstance(data, dict):
            raise ValueError("summary must be a JSON object")
        try:
            summary = cls(
                **_entry(data, _COUNT_FIELDS),
                depth_hist=_hist(data, "depth_hist", math.inf),
                proportion_hist=_hist(data, "proportion_hist", P_BUCKETS),
            )
            per_step = _typed(data.get("per_step_raw", {}), dict, "per_step_raw")
            for step, entry in per_step.items():
                label = f"per_step_raw.{step}"
                summary.per_step[_int_key(step, "per_step_raw")] = StepSeriesEntry(
                    **_entry(_typed(entry, dict, label), _STEP_COUNT_FIELDS, label + ".")
                )
        except KeyError as exc:
            raise ValueError(f"summary is missing field {exc.args[0]!r}") from None
        n = summary.trajectory_count
        _require(summary.zero_length_count <= n, "zero_length_count", "exceeds trajectory_count")
        for name in ("depth_hist", "proportion_hist"):
            total = sum(getattr(summary, name).values())
            _require(total == n, name, f"totals {total}, not trajectory_count")
        depths = sum(depth * count for depth, count in summary.depth_hist.items())
        _require(summary.depth_sum == depths, "depth_sum", f"is not the depth_hist total {depths}")
        for name in (*_STEP_COUNT_FIELDS, "proportion_sum"):
            steps = sum(getattr(entry, name) for entry in summary.per_step.values())
            _require(steps <= getattr(summary, name), "per_step_raw", f"sums exceed {name}")
        return summary

    def to_mergeable_dict(self) -> dict:
        """Full state, including raw sums, so summaries can be re-merged.

        Exact rational sums are rendered as fraction strings so the merge
        stays exact across serialization.
        """
        doc = self.to_dict()
        # the counts are already in place, so this appends the two raw sums
        doc.update(self.to_raw_dict())
        doc["per_step_raw"] = {
            str(step): entry.to_raw_dict() for step, entry in sorted(self.per_step.items())
        }
        return doc


_STEP_COUNT_FIELDS = ("group_count", "trajectory_count", "trivial_count", "depth_sum")
_COUNT_FIELDS = (*_STEP_COUNT_FIELDS, "zero_length_count")


def _shown(value) -> str:
    """``repr(value)`` cut to a bounded length, for an error message."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _require(ok: bool, label: str, problem: str) -> None:
    if not ok:
        raise ValueError(f"summary field {_shown(label)} {problem}")


def _typed(value, kind: type, label: str):
    """``value`` if it is a ``kind`` (not a bool; an int not negative), else an error."""
    what = {int: "a non-negative integer", str: "a fraction string"}.get(kind, "an object")
    ok = isinstance(value, kind) and not isinstance(value, bool)
    _require(ok and (kind is not int or value >= 0), label, f"must be {what}, got {_shown(value)}")
    return value


def _int_key(key: str, label: str) -> int:
    """``int(key)`` for a key in the ``str(int)`` form ``analyze`` writes, else an error."""
    try:
        value = int(key)
    except ValueError:
        value = None
    ok = value is not None and str(value) == key  # int() also takes "01", "+1", " 1", "1_0"
    _require(ok, label, f"has a key that is not a canonical integer: {_shown(key)}")
    return value


def _entry(data: dict, counts: tuple[str, ...], prefix: str = "") -> dict:
    """The counts and exact proportion sum of a summary or a per-step entry."""
    fields = {name: _typed(data[name], int, prefix + name) for name in counts}
    label = prefix + "proportion_sum"
    text = _typed(data["proportion_sum"], str, label)
    try:
        fields["proportion_sum"] = Fraction(text)
    except (ValueError, ZeroDivisionError):
        _require(False, label, f"is not a fraction: {_shown(text)}")
    trivial_ok = fields["trivial_count"] <= fields["group_count"]
    _require(trivial_ok, prefix + "trivial_count", "exceeds group_count")
    # every group has at least two completions
    enough = fields["trajectory_count"] >= 2 * fields["group_count"]
    _require(enough, prefix + "trajectory_count", "is below twice group_count")
    in_range = 0 <= fields["proportion_sum"] <= fields["trajectory_count"]
    _require(in_range, label, "is outside [0, trajectory_count]")
    return fields


def _hist(data: dict, name: str, limit: float) -> Counter[int]:
    hist = _typed(data[name], dict, name)
    counts = Counter({_int_key(k, name): _typed(v, int, f"{name}.{k}") for k, v in hist.items()})
    _require(all(0 <= key < limit for key in counts), name, f"has a key outside [0, {limit})")
    return counts


def _hist_quantile(hist: Counter[int], q: float, n: int) -> Optional[int]:
    """The smallest key of ``hist`` (``n`` counts in all) whose cumulative
    count reaches rank ceil(q * n)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    seen = 0
    for key in sorted(hist):
        seen += hist[key]
        if seen >= rank:
            return key
    return None
