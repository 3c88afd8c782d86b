"""Prefix-sharing process trees over trajectory groups.

Every subset of a group whose members start with the same tokens defines a
process set; the maximal such sets form a tree under set inclusion. Each
node owns the token span [span_start, span_end) that its members share
beyond the parent's span, so the spans along any root-to-leaf path tile the
trajectory exactly. Duplicate trajectories and exact prefixes of longer
trajectories produce leaves with empty spans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Group

DOT = "dot"
JSON = "json"
EXPORT_FORMATS = (DOT, JSON)

_LABEL_TOKEN_LIMIT = 8


@dataclass(frozen=True, eq=False)
class ProcessNode:
    """A process set and the token span its members share."""

    node_id: int
    members: frozenset[int]
    span_start: int
    span_end: int
    children: tuple["ProcessNode", ...] = ()

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def span_len(self) -> int:
        return self.span_end - self.span_start

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


@dataclass(frozen=True, eq=False)
class ProcessTree:
    """Tree of all maximal process sets of one group.

    ``nodes`` lists every node in construction order (depth-first), so
    ``nodes[i].node_id == i`` and exports are deterministic. ``leaves`` maps
    each trajectory index to its terminal singleton node.
    """

    root: ProcessNode
    nodes: tuple[ProcessNode, ...]
    leaves: dict[int, ProcessNode]
    max_len: int

    @property
    def k(self) -> int:
        return self.root.size


@dataclass(eq=False)
class TokenAssignment:
    """Unique owning node for every token of every trajectory."""

    owners: tuple[tuple[ProcessNode, ...], ...]

    def owner(self, i: int, t: int) -> ProcessNode:
        return self.owners[i][t]

    def items(self) -> Iterator[tuple[int, int, ProcessNode]]:
        for i, row in enumerate(self.owners):
            for t, node in enumerate(row):
                yield i, t, node


def build_process_tree(group: Group) -> ProcessTree:
    """Build the process tree by radix grouping, without recursion.

    Runs in time linear in the total token count: each node extends the
    shared span as far as all members agree, then splits the members by the
    first disagreeing token. Members whose sequence ends at the split
    position are grouped separately; when every member ends there (all
    duplicates of one sequence), they split directly into terminal
    singletons.

    The first pass walks the members depth-first with an explicit stack,
    so node ids follow pre-order and tree depth is not bounded by the
    interpreter's recursion limit. Every child's id exceeds its parent's,
    so the second pass creates the immutable nodes from the last id down.
    """
    seqs = [t.tokens for t in group.trajectories]
    spans: list[tuple[list[int], int, int]] = []
    child_ids: list[list[int]] = []
    leaf_ids: dict[int, int] = {}
    stack = [(sorted(range(group.k)), 0, -1)]
    while stack:
        members, start, parent = stack.pop()
        node_id = len(spans)
        if parent >= 0:
            child_ids[parent].append(node_id)
        child_ids.append([])
        if len(members) == 1:
            # a lone member shares its whole remaining sequence with itself
            spans.append((members, start, len(seqs[members[0]])))
            leaf_ids[members[0]] = node_id
            continue
        stop = min(len(seqs[i]) for i in members)
        lead = seqs[members[0]]
        rest = members[1:]
        end = start
        while end < stop:
            v = lead[end]
            if any(seqs[i][end] != v for i in rest):
                break
            end += 1
        spans.append((members, start, end))
        ended = [i for i in members if len(seqs[i]) == end]
        if len(ended) == len(members):
            parts = [[i] for i in members]
        else:
            branches: dict[int, list[int]] = {}
            for i in members:
                if len(seqs[i]) > end:
                    branches.setdefault(seqs[i][end], []).append(i)
            parts = [ended] if ended else []
            parts.extend(branches[token] for token in sorted(branches))
        # pushed in reverse, so the first child is popped and numbered first
        for part in reversed(parts):
            stack.append((part, end, node_id))

    built: list = [None] * len(spans)
    for node_id in reversed(range(len(spans))):
        members, start, end = spans[node_id]
        ids = child_ids[node_id]
        children = tuple([built[c] for c in ids]) if ids else ()
        # positional: keyword arguments make small-tree builds ~10% slower
        built[node_id] = ProcessNode(node_id, frozenset(members), start, end, children)
    nodes = tuple(built)
    return ProcessTree(
        root=nodes[0],
        nodes=nodes,
        leaves={i: nodes[n] for i, n in leaf_ids.items()},
        max_len=group.max_len,
    )


def assign_tokens(tree: ProcessTree) -> TokenAssignment:
    """Map every (trajectory, position) to its unique owning node.

    The spans along each root-to-leaf path are contiguous and disjoint, so
    filling positions node by node yields a total assignment.
    """
    # leaf.span_end equals the trajectory length, so each row is sized to
    # its trajectory
    rows = {i: [None] * leaf.span_end for i, leaf in tree.leaves.items()}
    for node in tree.nodes:
        if node.span_len == 0:
            continue
        span = range(node.span_start, node.span_end)
        for i in node.members:
            row = rows[i]
            for t in span:
                row[t] = node
    for i, row in rows.items():
        if None in row:
            raise RuntimeError(f"trajectory {i} has tokens outside every span")
    return TokenAssignment(
        owners=tuple(tuple(rows[i]) for i in sorted(rows))
    )


def partition_at(tree: ProcessTree, t: int) -> list[ProcessNode]:
    """All nodes whose span contains position t, in node-id order.

    Their member sets are pairwise disjoint and cover exactly the
    trajectories longer than t.
    """
    if not 0 <= t < tree.max_len:
        raise IndexError(f"position {t} outside [0, {tree.max_len})")
    return [n for n in tree.nodes if n.span_start <= t < n.span_end]


def is_trivial(tree: ProcessTree) -> bool:
    """True when the node set is just the root plus singletons."""
    return all(n.size == 1 for n in tree.nodes if n is not tree.root)


def export_tree(
    tree: ProcessTree,
    group: Group,
    format: str,
    step_rewards: Sequence[float],
) -> str:
    """Render the tree as a Graphviz DOT document or nested JSON.

    ``step_rewards`` (indexed by node id, as from ``rewards.step_rewards``)
    labels each node with its step reward.
    """
    if format == DOT:
        return _export_dot(tree, group, step_rewards)
    if format == JSON:
        return _export_json(tree, group, step_rewards)
    raise ValueError(f"format must be one of {EXPORT_FORMATS}, got {format!r}")


def _span_tokens(node: ProcessNode, group: Group) -> list[int]:
    lead = min(node.members)
    return list(group.trajectories[lead].tokens[node.span_start : node.span_end])


def _token_label(tokens: list[int]) -> str:
    if len(tokens) > _LABEL_TOKEN_LIMIT:
        shown = " ".join(str(t) for t in tokens[:_LABEL_TOKEN_LIMIT])
        return shown + " ..."
    return " ".join(str(t) for t in tokens)


def _export_dot(
    tree: ProcessTree, group: Group, step_rewards: Sequence[float]
) -> str:
    lines = [
        "digraph process_tree {",
        '  node [shape=box, style=filled, fillcolor="#ffffff"];',
    ]
    for node in tree.nodes:
        members = ",".join(f"g{i}" for i in node.sorted_members())
        label = f"{{{members}}}\\n[{node.span_start},{node.span_end})"
        token_text = _token_label(_span_tokens(node, group))
        if token_text:
            label += f"\\n{token_text}"
        label += f"\\nR={step_rewards[node.node_id]:.4f}"
        attrs = [f'label="{label}"']
        if node is tree.root:
            attrs.append('fillcolor="#f8cecc"')
        elif node.is_leaf:
            attrs.append('fillcolor="#fff2cc"')
        lines.append(f"  n{node.node_id} [{', '.join(attrs)}];")
    for node in tree.nodes:
        for child in node.children:
            lines.append(f"  n{node.node_id} -> n{child.node_id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _export_json(
    tree: ProcessTree, group: Group, step_rewards: Sequence[float]
) -> str:
    """The nested document as ``json.dumps(doc, indent=2)`` renders it.

    Each node is rendered on its own with empty ``children`` and indented
    to its depth; an explicit stack splices the children in, so tree depth
    is not bounded by the interpreter's recursion limit.
    """
    head = json.dumps(
        {"query_id": group.query_id, "k": group.k, "node_count": len(tree.nodes)},
        indent=2,
    )
    parts = [head[:-2], ',\n  "root": ']
    stack: list = [(tree.root, "  ")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, pad = item
        fields = {
            "id": node.node_id,
            "members": node.sorted_members(),
            "span_start": node.span_start,
            "span_end": node.span_end,
            "tokens": _span_tokens(node, group),
            "step_reward": step_rewards[node.node_id],
            "children": [],
        }
        text = json.dumps(fields, indent=2).replace("\n", "\n" + pad)
        if not node.children:
            parts.append(text)
            continue
        inner = pad + "    "
        # drop the closing "[]" and "}", which follow the children
        parts.append(text[: -len(pad) - 4] + "[\n" + inner)
        stack.append(f"\n{pad}  ]\n{pad}}}")
        for n, child in enumerate(reversed(node.children)):
            if n:
                stack.append(",\n" + inner)
            stack.append((child, inner))
    parts.append("\n}\n")
    return "".join(parts)
