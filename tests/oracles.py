"""Brute-force oracles, independent of the package internals.

Everything here enumerates explicitly, mostly on plain token/reward
lists, so the tests can compare the package's radix construction and
single-pass evaluations against definitions computed the slow way.
"""

from __future__ import annotations

import math


def lcp_len(seqs):
    """Longest common prefix length, capped at the shortest sequence."""
    shortest = min(len(s) for s in seqs)
    out = 0
    for t in range(shortest):
        v = seqs[0][t]
        if all(s[t] == v for s in seqs):
            out += 1
        else:
            return out
    return out


def enumerate_process_sets(seqs):
    """All maximal prefix-sharing classes plus every singleton, with spans.

    For every prefix length n, trajectories are grouped by their first n
    tokens; each such class is a process set. Singletons are always
    included (duplicates never separate by prefix alone). The span of a set
    is [e(parent), e(set)] with e the capped common-prefix length and the
    parent the smallest strict superset. Each set is keyed by its members
    as a sorted tuple.
    """
    max_len = max(len(s) for s in seqs)
    classes = set()
    for n in range(max_len + 2):
        by_prefix = {}
        for i, s in enumerate(seqs):
            by_prefix.setdefault(tuple(s[:n]), set()).add(i)
        for members in by_prefix.values():
            classes.add(frozenset(members))
    for i in range(len(seqs)):
        classes.add(frozenset([i]))

    spans = {}
    for members in classes:
        end = lcp_len([seqs[i] for i in members])
        supersets = [c for c in classes if c > members]
        if supersets:
            parent = min(supersets, key=len)
            start = lcp_len([seqs[i] for i in parent])
        else:
            start = 0
        spans[tuple(sorted(members))] = (start, end)
    return spans


def owner_of(spans, i, t):
    """The unique process set whose span contains token t of trajectory i."""
    hits = [m for m, (s, e) in spans.items() if i in m and s <= t < e]
    assert len(hits) == 1, f"token ({i},{t}) owned by {len(hits)} sets"
    return hits[0]


def partition_at(tree, t):
    """All nodes of a built tree whose span contains position t, in node-id order.

    Their member sets are pairwise disjoint and cover exactly the
    trajectories longer than t.
    """
    # each leaf's span ends where its completion does
    max_len = max(leaf.span_end for leaf in tree.leaves)
    if not 0 <= t < max_len:
        raise IndexError(f"position {t} outside [0, {max_len})")
    return [n for n in tree.nodes if n.span_start <= t < n.span_end]


def step_reward(node, group):
    """Mean outcome reward of a tree node's members."""
    return math.fsum(group.trajectories[i].reward for i in node.members) / node.size


def mean_std(rewards, std_mode="sample"):
    k = len(rewards)
    mean = sum(rewards) / k
    divisor = k - 1 if std_mode == "sample" else k
    return mean, math.sqrt(sum((r - mean) ** 2 for r in rewards) / divisor)


def advantages(rewards, std_mode="sample", epsilon=1e-8):
    mean, std = mean_std(rewards, std_mode)
    if std < epsilon:
        return [0.0] * len(rewards)
    return [(r - mean) / std for r in rewards]


def unit_rows(seqs):
    return [[1.0] * len(s) for s in seqs]


def zero_rows(seqs):
    return [[0.0] * len(s) for s in seqs]


def token_sum_grpo(seqs, rewards, p=None, d=None, beta=0.0, std_mode="sample"):
    """Trajectory-major token sum with outcome advantages."""
    p = p if p is not None else unit_rows(seqs)
    d = d if d is not None else zero_rows(seqs)
    adv = advantages(rewards, std_mode)
    total = sum(len(s) for s in seqs)
    acc = 0.0
    for i, s in enumerate(seqs):
        for t in range(len(s)):
            acc += p[i][t] * adv[i] - beta * d[i][t]
    return acc / total if total else 0.0


def node_sum_prm(seqs, rewards, p=None, d=None, beta=0.0, std_mode="sample"):
    """Process-set enumeration with per-set mean-reward advantages."""
    p = p if p is not None else unit_rows(seqs)
    d = d if d is not None else zero_rows(seqs)
    mean, std = mean_std(rewards, std_mode)
    spans = enumerate_process_sets(seqs)
    total = sum(len(s) for s in seqs)
    acc = 0.0
    for members, (start, end) in spans.items():
        rhat = sum(rewards[i] for i in members) / len(members)
        ahat = (rhat - mean) / std if std >= 1e-8 else 0.0
        for t in range(start, end):
            for i in members:
                acc += p[i][t] * ahat - beta * d[i][t]
    return acc / total if total else 0.0


def token_sum_lambda(seqs, rewards, p=None, d=None, beta=0.0, std_mode="sample"):
    """Token sum with each term divided by its owning set size."""
    p = p if p is not None else unit_rows(seqs)
    d = d if d is not None else zero_rows(seqs)
    adv = advantages(rewards, std_mode)
    spans = enumerate_process_sets(seqs)
    total = sum(len(s) for s in seqs)
    acc = 0.0
    for i, s in enumerate(seqs):
        for t in range(len(s)):
            size = len(owner_of(spans, i, t))
            acc += (p[i][t] * adv[i] - beta * d[i][t]) / size
    return acc / total if total else 0.0


def token_sum_terms(seqs, advantages, p, d, beta, set_size=False):
    """Objective value and per-token terms ``(p * a - beta * d) / s``.

    The evaluator's expression applied token by token: ``a`` is the
    completion's advantage and ``s`` is 1, or the size of the set owning the
    token when ``set_size`` is set. The value is the ``math.fsum`` of the
    terms over the token count.
    """
    spans = enumerate_process_sets(seqs) if set_size else {}
    rows = tuple(
        tuple(
            (p[i][t] * advantages[i] - beta * d[i][t])
            / (len(owner_of(spans, i, t)) if set_size else 1)
            for t in range(len(seq))
        )
        for i, seq in enumerate(seqs)
    )
    total = sum(len(seq) for seq in seqs)
    value = math.fsum(term for row in rows for term in row)
    return (value / total if total else 0.0), rows


def node_sum_lambda(seqs, rewards, p=None, d=None, beta=0.0, std_mode="sample"):
    """Set-size-corrected objective summed as one term per (set, position)."""
    p = p if p is not None else unit_rows(seqs)
    d = d if d is not None else zero_rows(seqs)
    mean, std = mean_std(rewards, std_mode)
    spans = enumerate_process_sets(seqs)
    total = sum(len(s) for s in seqs)
    acc = 0.0
    for members, (start, end) in spans.items():
        rhat = sum(rewards[i] for i in members) / len(members)
        ahat = (rhat - mean) / std if std >= 1e-8 else 0.0
        rep = min(members)
        for t in range(start, end):
            acc += p[rep][t] * ahat - beta * d[rep][t]
    return acc / total if total else 0.0
