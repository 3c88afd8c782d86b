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
    """A process set and the token span its members share.

    ``members`` holds the completion indices of the set in increasing order.
    """

    node_id: int
    members: tuple[int, ...]
    span_start: int
    span_end: int
    children: tuple["ProcessNode", ...] = ()

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def span_len(self) -> int:
        return self.span_end - self.span_start


@dataclass(frozen=True, eq=False)
class ProcessTree:
    """Tree of all maximal process sets of one group.

    ``nodes`` lists every node in construction order (depth-first), so
    ``nodes[i].node_id == i`` and exports are deterministic. ``leaves[i]``
    is completion i's terminal singleton node.
    """

    root: ProcessNode
    nodes: tuple[ProcessNode, ...]
    leaves: tuple[ProcessNode, ...]


@dataclass(eq=False)
class TokenAssignment:
    """The nodes that own every trajectory's tokens, as paths of spans.

    ``paths[i]`` lists the ids (indexes into ``nodes``, the tree's nodes in id
    order) of the nodes whose non-empty spans tile completion i, root to leaf.
    A token's set size, step advantage and weight are read from its node.
    """

    nodes: tuple[ProcessNode, ...]
    paths: tuple[tuple[int, ...], ...]

    def owner(self, i: int, t: int) -> ProcessNode:
        """The node whose span holds token t of completion i."""
        for n in self.paths[i] if i >= 0 else ():
            node = self.nodes[n]
            if node.span_start <= t < node.span_end:
                return node
        raise IndexError(f"token {t} is outside completion {i}")

    def rows(self, node_values: Sequence) -> list[list]:
        """``node_values`` (indexed by node id) expanded to per-token rows."""
        runs = [[v] * node.span_len for v, node in zip(node_values, self.nodes)]
        rows: list[list] = [[] for _ in self.paths]
        for row, path in zip(rows, self.paths):
            for n in path:
                row += runs[n]
        return rows


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
    leaf_ids = [0] * group.k
    # members lists stay in increasing index order: every split below keeps
    # the order of its parent's list
    stack = [(list(range(group.k)), 0, -1)]
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
        built[node_id] = ProcessNode(node_id, tuple(members), start, end, children)
    nodes = tuple(built)
    return ProcessTree(root=nodes[0], nodes=nodes, leaves=tuple([nodes[n] for n in leaf_ids]))


def assign_tokens(tree: ProcessTree) -> TokenAssignment:
    """The path of owning node ids of every trajectory.

    The nodes come in pre-order, so appending each node to its members'
    paths lists every path root to leaf. Each path's spans must tile its
    trajectory, ``[0, leaf.span_end)``.
    """
    nodes = tree.nodes
    paths: list[list[int]] = [[] for _ in tree.leaves]
    for node in nodes:
        if node.span_end > node.span_start:
            for i in node.members:
                paths[i].append(node.node_id)
    for i, (path, leaf) in enumerate(zip(paths, tree.leaves)):
        end = 0  # -1 from the first span that does not start where the last ended
        for n in path:
            end = nodes[n].span_end if nodes[n].span_start == end else -1
        if end != leaf.span_end:
            raise RuntimeError(f"the spans of trajectory {i} do not tile its tokens")
    return TokenAssignment(nodes=nodes, paths=tuple([tuple(path) for path in paths]))


def is_trivial(tree: ProcessTree) -> bool:
    """True when the node set is just the root plus singletons."""
    return all(n.size == 1 for n in tree.nodes if n is not tree.root)


def export_tree(
    tree: ProcessTree,
    group: Group,
    format: str,
    step_rewards: Sequence[float],
) -> Iterator[str]:
    """Render the tree as a Graphviz DOT document or nested JSON.

    The document comes as consecutive text parts, so a caller can write it
    out while it is rendered: the indented JSON of a deep tree grows with
    the cube of its depth. ``step_rewards`` (indexed by node id, as from
    ``rewards.step_rewards``) labels each node with its step reward.
    """
    if format == DOT:
        return _export_dot(tree, group, step_rewards)
    if format == JSON:
        return _export_json(tree, group, step_rewards)
    raise ValueError(f"format must be one of {EXPORT_FORMATS}, got {format!r}")


def _span_tokens(node: ProcessNode, group: Group) -> list[int]:
    lead = node.members[0]
    return list(group.trajectories[lead].tokens[node.span_start : node.span_end])


def _token_label(tokens: list[int]) -> str:
    if len(tokens) > _LABEL_TOKEN_LIMIT:
        shown = " ".join(str(t) for t in tokens[:_LABEL_TOKEN_LIMIT])
        return shown + " ..."
    return " ".join(str(t) for t in tokens)


def _export_dot(
    tree: ProcessTree, group: Group, step_rewards: Sequence[float]
) -> Iterator[str]:
    yield "digraph process_tree {\n"
    yield '  node [shape=box, style=filled, fillcolor="#ffffff"];\n'
    for node in tree.nodes:
        members = ",".join(f"g{i}" for i in node.members)
        label = f"{{{members}}}\\n[{node.span_start},{node.span_end})"
        token_text = _token_label(_span_tokens(node, group))
        if token_text:
            label += f"\\n{token_text}"
        label += f"\\nR={step_rewards[node.node_id]:.4f}"
        attrs = [f'label="{label}"']
        if node is tree.root:
            attrs.append('fillcolor="#f8cecc"')
        elif not node.children:
            attrs.append('fillcolor="#fff2cc"')
        yield f"  n{node.node_id} [{', '.join(attrs)}];\n"
    for node in tree.nodes:
        for child in node.children:
            yield f"  n{node.node_id} -> n{child.node_id};\n"
    yield "}\n"


def _export_json(
    tree: ProcessTree, group: Group, step_rewards: Sequence[float]
) -> Iterator[str]:
    """The nested document as ``json.dumps(doc, indent=2)`` renders it.

    Each node is rendered on its own with empty ``children`` and indented
    to its depth; an explicit stack splices the children in, so tree depth
    is not bounded by the interpreter's recursion limit.
    """
    head = json.dumps(
        {"query_id": group.query_id, "k": group.k, "node_count": len(tree.nodes)},
        indent=2,
    )
    yield head[:-2] + ',\n  "root": '
    stack: list = [(tree.root, "  ")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
            continue
        node, pad = item
        fields = {
            "id": node.node_id,
            "members": node.members,
            "span_start": node.span_start,
            "span_end": node.span_end,
            "tokens": _span_tokens(node, group),
            "step_reward": step_rewards[node.node_id],
            "children": [],
        }
        text = json.dumps(fields, indent=2).replace("\n", "\n" + pad)
        if not node.children:
            yield text
            continue
        inner = pad + "    "
        # drop the closing "[]" and "}", which follow the children
        yield text[: -len(pad) - 4] + "[\n" + inner
        stack.append(f"\n{pad}  ]\n{pad}}}")
        for n, child in enumerate(reversed(node.children)):
            if n:
                stack.append(",\n" + inner)
            stack.append((child, inner))
    yield "\n}\n"
