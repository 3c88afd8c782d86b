import json
import math

import pytest

from steptree import build_process_tree, group_from_sequences, group_metrics
from steptree.metrics import MetricsSummary
from steptree.verify import GenParams, generate_random_group

from conftest import make_overlap_group, make_trivial_group

OVERLAP_DEPTHS = (1, 1, 1, 2, 2, 0)
OVERLAP_N_TERM = (3, 2, 2, 1, 2, 2)
OVERLAP_P = (0.5, 0.6, 2.0 / 3.0, 6.0 / 7.0, 0.75, 0.0)
OVERLAP_MEAN_P = 0.5623015873015873  # fsum of the above over 6


def metrics_of(group):
    return group_metrics(build_process_tree(group), group)


def summarize(stream) -> MetricsSummary:
    """Fold per-group diagnostics into one summary, one ``add`` at a time."""
    summary = MetricsSummary()
    for metrics in stream:
        summary.add(metrics)
    return summary


class TestGroupMetrics:
    def test_overlap_depths(self, overlap_group):
        m = metrics_of(overlap_group)
        assert m.path_depth == OVERLAP_DEPTHS
        assert m.path_depth[3] == 2  # through two nested shared sets
        assert m.path_depth[5] == 0  # the isolated completion

    def test_overlap_proportions(self, overlap_group):
        m = metrics_of(overlap_group)
        assert m.n_term == OVERLAP_N_TERM
        assert m.intermediate_proportion == OVERLAP_P
        assert m.intermediate_proportion[3] == 6.0 / 7.0

    def test_overlap_not_trivial(self, overlap_group):
        m = metrics_of(overlap_group)
        assert not m.trivial
        assert m.mean_proportion == pytest.approx(OVERLAP_MEAN_P, abs=1e-15)

    def test_trivial_group_all_zero(self, trivial_group):
        m = metrics_of(trivial_group)
        assert m.trivial
        assert all(d == 0 for d in m.path_depth)
        assert all(p == 0.0 for p in m.intermediate_proportion)

    def test_duplicate_members_have_unit_proportion(self, duplicate_group):
        m = metrics_of(duplicate_group)
        assert m.intermediate_proportion[0] == 1.0
        assert m.intermediate_proportion[1] == 1.0
        assert m.intermediate_proportion[2] == 0.5

    def test_zero_length_flagged(self):
        group = group_from_sequences("z", [(), (1, 2)], [0.0, 1.0])
        m = metrics_of(group)
        assert m.zero_length == (True, False)
        assert m.intermediate_proportion[0] == 0.0

    def test_proportion_bounds(self):
        params = GenParams(seed=41, fork_bias=0.6, length_range=(0, 10))
        for index in range(40):
            group = generate_random_group(params, index)
            m = metrics_of(group)
            for i, p in enumerate(m.intermediate_proportion):
                assert 0.0 <= p <= 1.0
                length = len(group.trajectories[i])
                if p == 0.0:
                    assert length == 0 or m.n_term[i] == length
                if length and m.n_term[i] == 0:
                    assert p == 1.0

    def test_step_carried_through(self):
        group = make_overlap_group(step=17)
        assert metrics_of(group).step == 17


class TestAggregate:
    def test_all_trivial_stream(self):
        stream = [metrics_of(make_trivial_group(k=3)) for _ in range(10)]
        summary = summarize(stream)
        assert summary.group_count == 10
        assert summary.trivial_fraction == 1.0
        assert summary.mean_depth == 0.0

    def test_singleton_stream(self, overlap_group):
        summary = summarize([metrics_of(overlap_group)])
        assert summary.trivial_fraction == 0.0
        assert summary.mean_proportion == pytest.approx(OVERLAP_MEAN_P, abs=1e-15)
        assert summary.mean_depth == pytest.approx(7.0 / 6.0, abs=1e-15)

    def test_empty_stream(self):
        summary = summarize([])
        assert summary.group_count == 0
        assert summary.trivial_fraction is None
        assert summary.depth_quantile(0.5) is None
        assert summary.proportion_quantile(0.9) is None
        doc = summary.to_dict()
        assert doc["depth_quantiles"]["p50"] is None
        # nulls survive JSON round-tripping
        assert json.loads(json.dumps(doc))["mean_depth"] is None

    def test_mixed_stream_fraction(self, overlap_group):
        stream = [metrics_of(make_trivial_group()) for _ in range(3)]
        stream.append(metrics_of(overlap_group))
        summary = summarize(stream)
        assert summary.trivial_fraction == 0.75

    def test_depth_quantiles_exact(self):
        groups = [
            group_from_sequences("a", [(1, 2, 3), (1, 2, 4), (9,)], [1.0, 0.0, 1.0]),
            make_trivial_group(k=3),
        ]
        summary = summarize(metrics_of(g) for g in groups)
        # depths: (1, 1, 0) and (0, 0, 0)
        assert summary.depth_quantile(0.5) == 0
        assert summary.depth_quantile(0.9) == 1
        assert summary.depth_quantile(1.0) == 1

    def test_proportion_quantile_error_bound(self):
        summary = summarize([metrics_of(make_overlap_group())])
        exact = sorted(OVERLAP_P)
        for q in (0.25, 0.5, 0.75, 1.0):
            rank = max(1, math.ceil(q * len(exact)))
            approx = summary.proportion_quantile(q)
            assert abs(approx - exact[rank - 1]) <= 0.01

    def test_merge_equals_full_stream(self):
        params = GenParams(seed=42, fork_bias=0.5, reward_dist="uniform")
        stream = []
        for index in range(30):
            group = generate_random_group(params, index)
            group = group_from_sequences(
                group.query_id,
                [t.tokens for t in group.trajectories],
                list(group.rewards),
                step=index % 4,
            )
            stream.append(metrics_of(group))
        full = summarize(stream)
        left = summarize(stream[:11])
        right = summarize(stream[11:])
        merged = left.merge(right)
        assert merged.group_count == full.group_count
        assert merged.trajectory_count == full.trajectory_count
        assert merged.trivial_count == full.trivial_count
        assert merged.depth_sum == full.depth_sum
        assert merged.proportion_sum == full.proportion_sum  # exact rational sum
        assert merged.depth_hist == full.depth_hist
        assert merged.proportion_hist == full.proportion_hist
        assert merged.depth_quantile(0.9) == full.depth_quantile(0.9)
        for step in full.per_step:
            assert merged.per_step[step].to_dict() == full.per_step[step].to_dict()

    def test_merge_is_order_independent(self, overlap_group):
        a = summarize([metrics_of(overlap_group)])
        b = summarize([metrics_of(make_trivial_group())])
        ab = a.merge(b)
        ba = b.merge(a)
        assert ab.to_mergeable_dict() == ba.to_mergeable_dict()

    def test_merge_shares_no_state_with_its_inputs(self):
        a = summarize([metrics_of(make_overlap_group(step=1))])
        b = summarize(
            [metrics_of(make_overlap_group(step=2)), metrics_of(make_trivial_group())]
        )
        before = (a.to_mergeable_dict(), b.to_mergeable_dict())
        for merged in (a.merge(b), MetricsSummary().merge(a).merge(b)):
            for step in (1, 2, None):
                merged.add(metrics_of(make_overlap_group(step=step)))
            merged.add(metrics_of(make_trivial_group()))
        assert (a.to_mergeable_dict(), b.to_mergeable_dict()) == before

    def test_serialization_round_trip(self, overlap_group):
        summary = summarize(
            [metrics_of(make_overlap_group(step=3)), metrics_of(make_trivial_group())]
        )
        doc = json.loads(json.dumps(summary.to_mergeable_dict()))
        back = MetricsSummary.from_dict(doc)
        assert back.to_mergeable_dict() == summary.to_mergeable_dict()

    def test_zero_length_counted(self):
        group = group_from_sequences("z", [(), (1,)], [0.0, 1.0])
        summary = summarize([metrics_of(group)])
        assert summary.zero_length_count == 1

    def test_per_step_series(self):
        stream = [
            metrics_of(make_overlap_group(step=1)),
            metrics_of(make_overlap_group(step=1)),
            metrics_of(make_overlap_group(step=2)),
        ]
        summary = summarize(stream)
        assert set(summary.per_step) == {1, 2}
        assert summary.per_step[1].group_count == 2
        assert summary.per_step[2].to_dict()["mean_proportion"] == pytest.approx(
            OVERLAP_MEAN_P, abs=1e-15
        )
