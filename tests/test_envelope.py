"""Extreme group shapes through ``analyze``, ``weights`` and ``verify``.

Each shape is one group in a dump: a chain deeper than the recursion limit,
thousands of short completions (distinct, all identical, or all empty), and
a few completions of 10^5 tokens that carry all three log-prob arrays, with
mixed or constant rewards. ``verify`` checks each against the
node-major and position-major oracles of ``steptree.verify`` (the
brute-force oracles of ``tests/oracles.py`` are far too slow at these
sizes), and cheap structural invariants are checked on the built tree.
"""

import json
import random
from bisect import bisect_left

import pytest

from steptree import Group, Trajectory, assign_tokens, build_process_tree, group_from_sequences
from steptree.cli import main
from steptree.io import serialize_group


def chain_group():
    # completion j is a strict prefix of completion j + 1, so the tree is k
    # levels deep, deeper than the default recursion limit
    k = 1200
    return group_from_sequences(
        "chain", [[1] * (j + 1) for j in range(k)], [float(j % 2) for j in range(k)]
    )


def wide_group():
    # k = 4000 completions of 32 tokens over 4 token ids share prefixes
    # about 6 tokens deep
    rng = random.Random(4000)
    seqs = [[rng.randrange(4) for _ in range(32)] for _ in range(4000)]
    return group_from_sequences("wide", seqs, [float(rng.random() < 0.5) for _ in seqs])


def identical_group():
    # k = 4000 copies of one 32-token completion: one shared span, and 4000
    # leaves with empty spans
    seq = [j % 4 for j in range(32)]
    return group_from_sequences("identical", [seq] * 4000, [float(j % 2) for j in range(4000)])


def empty_group():
    # k = 4000 zero-length completions: no token at all
    return group_from_sequences("empty", [[]] * 4000, [float(j % 3) for j in range(4000)])


def long_group(name="long", rewards=(1.0, 0.0, 0.5, 0.0)):
    # four completions of 10^5 tokens: two share 60000 tokens, two are
    # duplicates, and all four share the first 20000
    rng = random.Random(100_000)
    n = 100_000
    base = [rng.randrange(8) for _ in range(n)]
    seqs = [
        base,
        base[:60_000] + [rng.randrange(8) for _ in range(n - 60_000)],
        base[:20_000] + [8] + base[20_001:],
        base[:20_000] + [8] + base[20_001:],
    ]
    trajectories = [
        # functions of (position, token) only, hence prefix-consistent
        Trajectory(
            tokens=seq,
            reward=reward,
            logp_new=[-0.05 * (1 + (tok + 2 * t) % 7) for t, tok in enumerate(seq)],
            logp_old=[-0.04 * (1 + (2 * tok + t) % 5) for t, tok in enumerate(seq)],
            logp_ref=[-0.06 * (1 + (tok + 3 * t) % 6) for t, tok in enumerate(seq)],
        )
        for seq, reward in zip(seqs, rewards)
    ]
    return Group(name, trajectories)


def long_constant_group():
    # constant rewards: every advantage is zero
    return long_group("long-constant", (0.5, 0.5, 0.5, 0.5))


SHAPES = {
    "chain": chain_group,
    "wide": wide_group,
    "identical": identical_group,
    "empty": empty_group,
    "long": long_group,
    "long-constant": long_constant_group,
}


def check_structure(group):
    """Sorted members, spans that tile every completion, owners that hold it."""
    tree = build_process_tree(group)
    parent = {}
    for node in tree.nodes:
        members = node.members
        assert type(members) is tuple
        assert all(a < b for a, b in zip(members, members[1:]))
        for child in node.children:
            parent[child.node_id] = node
    for i, traj in enumerate(group.trajectories):
        # the spans along the root path, read from the leaf up
        end, node = len(traj), tree.leaves[i]
        while True:
            assert node.span_end == end
            end = node.span_start
            if node is tree.root:
                break
            node = parent[node.node_id]
        assert end == 0
    for i, path in enumerate(assign_tokens(tree).paths):
        # contiguous non-empty spans from 0 to the completion's length
        end = 0
        for node_id in path:
            node = tree.nodes[node_id]
            assert node.span_start == end < node.span_end
            assert node.members[bisect_left(node.members, i)] == i
            end = node.span_end
        assert end == len(group.trajectories[i])


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_extreme_shape(tmp_path, capsys, shape):
    group = SHAPES[shape]()
    check_structure(group)
    path = tmp_path / f"{shape}.jsonl"
    path.write_text(serialize_group(group) + "\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 and rows[1].startswith(f"{shape},")
    assert main(["weights", str(path), "--objective", "lambda"]) == 0
    record = json.loads(capsys.readouterr().out)
    lengths = [len(c["lambda_weight"]) for c in record["completions"]]
    assert lengths == [len(t) for t in group.trajectories]
    assert main(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["equivalence", "identities"]
    assert all(" 1 group(s), " in line and line.endswith("... ok") for line in lines)
