import dataclasses
import itertools
import json

import pytest

from steptree import (
    Group,
    assign_tokens,
    build_process_tree,
    export_tree,
    group_from_sequences,
    is_trivial,
    step_rewards,
)
from steptree.verify import GenParams, generate_random_group

from conftest import OVERLAP_SEQS, make_trivial_group
from oracles import enumerate_process_sets, lcp_len, owner_of, partition_at

# brute-force enumeration of the overlap fixture: members -> (start, end)
OVERLAP_NODES = {
    (0, 1, 2, 3, 4, 5): (0, 0),
    (0, 1): (0, 3),
    (2, 3, 4): (0, 4),
    (3, 4): (4, 6),
    (0,): (3, 6),
    (1,): (3, 5),
    (2,): (4, 6),
    (3,): (6, 7),
    (4,): (6, 8),
    (5,): (0, 2),
}


def node_map(tree):
    return {n.members: (n.span_start, n.span_end) for n in tree.nodes}


class TestBuild:
    def test_overlap_structure(self, overlap_group):
        tree = build_process_tree(overlap_group)
        assert node_map(tree) == OVERLAP_NODES
        assert tree.root.members == tuple(range(6))
        assert len(tree.nodes) == 10

    def test_distinct_first_tokens(self, trivial_group):
        tree = build_process_tree(trivial_group)
        assert tree.root.span_end == 0
        assert len(tree.nodes) == trivial_group.k + 1
        assert all(n.size == 1 for n in tree.nodes if n is not tree.root)

    def test_identical_pair(self):
        group = group_from_sequences("dup2", [(4, 4, 4), (4, 4, 4)], [1.0, 0.0])
        tree = build_process_tree(group)
        assert node_map(tree) == {
            (0, 1): (0, 3),
            (0,): (3, 3),
            (1,): (3, 3),
        }

    def test_duplicate_pair_within_larger_group(self, duplicate_group):
        tree = build_process_tree(duplicate_group)
        spans = node_map(tree)
        assert spans[(0, 1)] == (1, 3)
        assert spans[(0,)] == (3, 3)
        assert spans[(2,)] == (1, 2)

    def test_exact_prefix_leaf_is_empty(self):
        group = group_from_sequences("pfx", [(1, 2), (1, 2, 9, 9)], [0.0, 1.0])
        tree = build_process_tree(group)
        spans = node_map(tree)
        assert spans[(0, 1)] == (0, 2)
        assert spans[(0,)] == (2, 2)
        assert spans[(1,)] == (2, 4)

    def test_zero_length_trajectory(self):
        group = group_from_sequences("z", [(), (1, 1), (1,)], [0.0, 1.0, 0.5])
        tree = build_process_tree(group)
        spans = node_map(tree)
        assert spans[(0,)] == (0, 0)
        assert spans[(1, 2)] == (0, 1)

    def test_every_trajectory_has_a_leaf(self, overlap_group):
        tree = build_process_tree(overlap_group)
        assert len(tree.leaves) == overlap_group.k
        for i, leaf in enumerate(tree.leaves):
            assert leaf.members == (i,)
            assert leaf.span_end == len(overlap_group.trajectories[i])

    def test_children_partition_parent(self, overlap_group):
        tree = build_process_tree(overlap_group)
        for node in tree.nodes:
            if node.children:
                union = tuple(sorted(i for c in node.children for i in c.members))
                assert union == node.members
                sizes = sum(c.size for c in node.children)
                assert sizes == node.size

    def test_child_spans_start_at_parent_end(self, overlap_group):
        tree = build_process_tree(overlap_group)
        for node in tree.nodes:
            for child in node.children:
                assert child.span_start == node.span_end

    def test_path_spans_tile_each_trajectory(self):
        params = GenParams(seed=5, k_range=(2, 6), length_range=(0, 8), fork_bias=0.7)
        for index in range(40):
            group = generate_random_group(params, index)
            tree = build_process_tree(group)
            parent = {}
            for node in tree.nodes:
                for child in node.children:
                    parent[child.node_id] = node
            for i, leaf in enumerate(tree.leaves):
                spans = []
                node = leaf
                while True:
                    spans.append((node.span_start, node.span_end))
                    if node.node_id not in parent:
                        break
                    node = parent[node.node_id]
                spans.reverse()
                expect = 0
                for start, end in spans:
                    assert start == expect
                    expect = end
                assert expect == len(group.trajectories[i])

    def test_maximality(self):
        params = GenParams(seed=6, k_range=(2, 6), length_range=(1, 8), fork_bias=0.7)
        for index in range(30):
            group = generate_random_group(params, index)
            seqs = [t.tokens for t in group.trajectories]
            tree = build_process_tree(group)
            for node in tree.nodes:
                members = sorted(node.members)
                assert lcp_len([seqs[i] for i in members]) == node.span_end
                if node is tree.root:
                    continue
                for outsider in set(range(group.k)) - set(node.members):
                    extended = [seqs[i] for i in members] + [seqs[outsider]]
                    assert lcp_len(extended) < node.span_start + 1

    def test_brute_force_equivalence(self):
        params = GenParams(
            seed=13, k_range=(2, 6), length_range=(0, 8), vocab_size=3, fork_bias=0.6
        )
        for index in range(60):
            group = generate_random_group(params, index)
            tree = build_process_tree(group)
            expected = enumerate_process_sets([t.tokens for t in group.trajectories])
            assert node_map(tree) == expected

    def test_permutation_invariance(self, overlap_group):
        base = {
            frozenset(m): span for m, span in node_map(build_process_tree(overlap_group)).items()
        }
        for order in itertools.islice(itertools.permutations(range(6)), 0, 24, 5):
            permuted = Group(
                query_id="perm",
                trajectories=tuple(overlap_group.trajectories[i] for i in order),
            )
            relabel = {new: old for new, old in enumerate(order)}
            got = {
                frozenset(relabel[i] for i in m): span
                for m, span in node_map(build_process_tree(permuted)).items()
            }
            assert got == base


class TestRepresentation:
    @pytest.mark.parametrize("fork_bias", [0.0, 0.5, 1.0])
    def test_members_are_increasing_tuples(self, fork_bias):
        params = GenParams(seed=31, k_range=(2, 10), length_range=(0, 8), fork_bias=fork_bias)
        for index in range(40):
            group = generate_random_group(params, index)
            tree = build_process_tree(group)
            for node in tree.nodes:
                assert type(node.members) is tuple
                assert all(a < b for a, b in zip(node.members, node.members[1:]))
            assert type(tree.leaves) is tuple
            assert [leaf.members for leaf in tree.leaves] == [(i,) for i in range(group.k)]

    def test_assignment_holds_only_paths(self, overlap_group):
        assignment = assign_tokens(build_process_tree(overlap_group))
        assert [f.name for f in dataclasses.fields(assignment)] == ["nodes", "paths"]
        assert not hasattr(assignment, "sizes")
        assert not hasattr(assignment, "owner_ids")


class TestAssignment:
    def test_overlap_sample_owners(self, overlap_group):
        assignment = assign_tokens(build_process_tree(overlap_group))
        assert assignment.owner(0, 0).members == (0, 1)
        assert assignment.owner(0, 3).members == (0,)
        assert assignment.owner(4, 5).members == (3, 4)

    def test_total_and_unique(self, overlap_group):
        tree = build_process_tree(overlap_group)
        assignment = assign_tokens(tree)
        seqs = [t.tokens for t in overlap_group.trajectories]
        spans = enumerate_process_sets(seqs)
        for i, t in ((-1, 0), (len(seqs), 0)):
            with pytest.raises(IndexError):
                assignment.owner(i, t)
        for i, seq in enumerate(seqs):
            for t in (-1, len(seq)):
                with pytest.raises(IndexError):
                    assignment.owner(i, t)
            for t in range(len(seq)):
                node = assignment.owner(i, t)
                assert i in node.members
                assert node.span_start <= t < node.span_end
                assert node.members == owner_of(spans, i, t)

    @pytest.mark.parametrize("fork_bias", [0.0, 0.5, 1.0])
    def test_paths_list_the_oracle_owners_in_order(self, fork_bias):
        # empty completions, duplicates and exact prefixes included
        params = GenParams(seed=37, k_range=(2, 8), length_range=(0, 8), fork_bias=fork_bias)
        for index in range(30):
            group = generate_random_group(params, index)
            tree = build_process_tree(group)
            paths = assign_tokens(tree).paths
            seqs = [t.tokens for t in group.trajectories]
            spans = enumerate_process_sets(seqs)
            for i, seq in enumerate(seqs):
                owners = [owner_of(spans, i, t) for t in range(len(seq))]
                assert [tree.nodes[n].members for n in paths[i]] == [
                    members for members, _ in itertools.groupby(owners)
                ]

    def test_trivial_tree_owners_are_singletons(self, trivial_group):
        assignment = assign_tokens(build_process_tree(trivial_group))
        for i, traj in enumerate(trivial_group.trajectories):
            for t in range(len(traj)):
                assert assignment.owner(i, t).members == (i,)


class TestPartition:
    def test_overlap_partitions(self, overlap_group):
        tree = build_process_tree(overlap_group)
        assert {n.members for n in partition_at(tree, 0)} == {
            (0, 1),
            (2, 3, 4),
            (5,),
        }
        assert {n.members for n in partition_at(tree, 5)} == {
            (0,),
            (2,),
            (3, 4),
        }
        assert {n.members for n in partition_at(tree, 7)} == {(4,)}

    def test_disjoint_union_property(self):
        params = GenParams(seed=14, k_range=(2, 6), length_range=(0, 8), fork_bias=0.6)
        for index in range(30):
            group = generate_random_group(params, index)
            tree = build_process_tree(group)
            for t in range(max(map(len, group.trajectories))):
                nodes = partition_at(tree, t)
                seen: set[int] = set()
                for node in nodes:
                    assert seen.isdisjoint(node.members)
                    seen.update(node.members)
                alive = {
                    i
                    for i, traj in enumerate(group.trajectories)
                    if len(traj) > t
                }
                assert seen == alive

    def test_out_of_range(self, overlap_group):
        tree = build_process_tree(overlap_group)
        with pytest.raises(IndexError):
            partition_at(tree, 8)
        with pytest.raises(IndexError):
            partition_at(tree, -1)


class TestTriviality:
    def test_overlap_not_trivial(self, overlap_group):
        assert not is_trivial(build_process_tree(overlap_group))

    def test_distinct_first_tokens_trivial(self, trivial_group):
        assert is_trivial(build_process_tree(trivial_group))

    def test_duplicate_pair_not_trivial(self, duplicate_group):
        assert not is_trivial(build_process_tree(duplicate_group))

    def test_identical_pair_is_literally_trivial(self):
        # k=2 identical: the pair node is the root itself, so the node set
        # is exactly {root} plus singletons even though the root span is
        # the whole sequence.
        group = group_from_sequences("dup2", [(4, 4), (4, 4)], [1.0, 0.0])
        assert is_trivial(build_process_tree(group))


class TestExport:
    def test_dot_counts(self, overlap_group):
        tree = build_process_tree(overlap_group)
        doc = "".join(export_tree(tree, overlap_group, "dot", step_rewards(tree, overlap_group)))
        nodes = [line for line in doc.splitlines() if " [label=" in line]
        edges = [line for line in doc.splitlines() if " -> " in line]
        assert len(nodes) == 10
        assert len(edges) == 9
        assert doc.startswith("digraph process_tree {")
        assert "#f8cecc" in doc  # root
        assert "#fff2cc" in doc  # terminals

    def test_dot_trivial_counts(self):
        group = make_trivial_group(k=6)
        tree = build_process_tree(group)
        doc = "".join(export_tree(tree, group, "dot", step_rewards(tree, group)))
        nodes = [line for line in doc.splitlines() if " [label=" in line]
        edges = [line for line in doc.splitlines() if " -> " in line]
        assert len(nodes) == 7
        assert len(edges) == 6

    def test_long_span_truncated(self):
        group = group_from_sequences(
            "long", [tuple([3] * 12), tuple([3] * 11 + [4])], [1.0, 0.0]
        )
        tree = build_process_tree(group)
        doc = "".join(export_tree(tree, group, "dot", step_rewards(tree, group)))
        assert "..." in doc

    def test_json_round_trip(self, overlap_group):
        tree = build_process_tree(overlap_group)
        rewards = step_rewards(tree, overlap_group)
        doc = json.loads("".join(export_tree(tree, overlap_group, "json", rewards)))
        assert doc["node_count"] == 10

        flat = {}

        def walk(node):
            flat[tuple(node["members"])] = (node["span_start"], node["span_end"])
            for child in node["children"]:
                walk(child)

        walk(doc["root"])
        assert flat == OVERLAP_NODES

    def test_json_tokens_match_spans(self, overlap_group):
        tree = build_process_tree(overlap_group)
        rewards = step_rewards(tree, overlap_group)
        doc = json.loads("".join(export_tree(tree, overlap_group, "json", rewards)))

        def walk(node):
            lead = min(node["members"])
            seq = OVERLAP_SEQS[lead]
            assert tuple(node["tokens"]) == seq[node["span_start"] : node["span_end"]]
            for child in node["children"]:
                walk(child)

        walk(doc["root"])

    def test_unknown_format_rejected(self, overlap_group):
        tree = build_process_tree(overlap_group)
        with pytest.raises(ValueError):
            export_tree(tree, overlap_group, "svg", step_rewards(tree, overlap_group))
