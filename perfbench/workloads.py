"""The benchmark's workloads and the seeded inputs each one runs.

Every workload runs the same seven steptree commands at its own shape:
``analyze`` on an empty file (set-up), ``analyze``, ``weights --objective
lambda``, ``verify`` with and without identities on the workload's group
dump, the randomized ``verify --random`` suite at the release-gate shape, and
a series-mode ``simulate``; the last two are the same on every workload.
Input sizes are chosen so that each command runs for roughly 0.3 s to 2 s
on a 2-vCPU host (about half of it interpreter start-up for the lighter
ones), so a run of 40 s times each command six or seven times.

Inputs depend only on (workload, seed) and the steptree sources; they are
generated before any timing and cached under ``.perfbench-cache/`` at the
root of the checkout, keyed by both.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field

from steptree.io import serialize_group
from steptree.verify import GenParams, generate_random_group


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # GenParams fields for verify.generate_random_group.
    gen: dict
    groups: int
    # In-process weight_record latency: the first ``latency_groups`` groups
    # (the dump, then more from the same source), timed in order, in blocks
    # of ``latency_block`` calls. The block size keeps a run's sample count
    # (five to seven rounds of six blocks) inside one band of the tail rule,
    # so the tail percentile does not change from run to run: 360-840
    # samples give p95, 3750-5250 give p99.
    latency_groups: int
    latency_block: int


# verify --random at the release-gate shape, the same on every workload.
# Group sizes at this shape vary widely, so the suite's work moves with the
# seed: over 40 seeds its token count spread (IQR over median) by 0.17 at
# 20 groups and 0.06 at 100.
SUITE_GROUPS = 100
SUITE_FLAGS = ("--k-max", "16", "--max-len", "64")

# simulate in series mode, the same on every workload. The terminal token
# keeps short sequences reachable, and the reward table mixes them so
# groups rarely have constant rewards.
SIM = {
    "vocab_size": 4,
    "horizon": 12,
    "max_len": 12,
    "temperature": 1.0,
    "context_order": 4,
    "terminal_token": 3,
    "k": 64,
    "steps": 45,
    "learn_rate": 0.5,
    "objective": "lambda",
    "rewards": {(3,): 1.0, (0, 3): 0.5, (1, 1, 3): 0.25, (2, 0, 1, 3): 0.75},
}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="overlap-long",
            why="k=16, 256-512 tokens, deep shared prefixes, all three logp arrays: per-token parse, tree, ratio/KL and serialization dominate",
            gen=dict(
                k_range=(16, 16),
                length_range=(256, 512),
                vocab_size=8,
                fork_bias=0.7,
                logp_mode="random_consistent",
            ),
            groups=12,
            latency_groups=12,
            latency_block=12,
        ),
        Workload(
            name="trivial-bare",
            why="same k and lengths, bare token/reward dump with trivial trees: float validation and ratio/KL do no work, so changes there should not move it",
            gen=dict(
                k_range=(16, 16),
                length_range=(256, 512),
                vocab_size=16,
                fork_bias=0.0,
                logp_mode="absent",
                force_distinct_first=True,
            ),
            groups=20,
            latency_groups=20,
            latency_block=20,
        ),
        Workload(
            name="small-groups",
            why="acceptance shape k=2-16, 1-64 tokens with duplicate, prefix and empty draws: fixed per-group costs dominate; the release-gate suite draws groups of this shape",
            gen=dict(
                k_range=(2, 16),
                length_range=(1, 64),
                fork_bias=0.5,
                logp_mode="random_consistent",
            ),
            groups=125,
            latency_groups=1000,
            latency_block=125,
        ),
    )
}


@dataclass
class Inputs:
    """Paths and facts of one workload's generated inputs."""

    workload: Workload
    seed: int
    directory: str
    tokens: int = 0
    digests: dict = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)


def source_digest(src_dir: str) -> str:
    """SHA-256 over the steptree package sources, in name order."""
    h = hashlib.sha256()
    package = os.path.join(src_dir, "steptree")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def sim_config_text(sim: dict, seed: int) -> str:
    lines = [f"seed = {seed}"]
    for key, value in sim.items():
        if key == "rewards":
            for seq, reward in value.items():
                lines.append(f"reward[{','.join(map(str, seq))}] = {reward!r}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _groups(workload: Workload, seed: int, indices: range):
    params = GenParams(seed=seed, **workload.gen)
    for index in indices:
        yield generate_random_group(params, index)


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def prepare(workload: Workload, seed: int, cache_dir: str, src_digest: str) -> Inputs:
    """Generate (or reuse) the workload's inputs for ``seed``."""
    spec = json.dumps(
        [workload.gen, workload.groups, workload.latency_groups, repr(SIM), seed, src_digest],
        sort_keys=True,
    )
    key = hashlib.sha256(spec.encode()).hexdigest()[:16]
    directory = os.path.join(cache_dir, "inputs", f"{workload.name}-s{seed}-{key}")
    meta_path = os.path.join(directory, "meta.json")
    if not os.path.exists(meta_path):
        staging = f"{directory}.tmp{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        tokens = 0
        with open(os.path.join(staging, "groups.jsonl"), "w", encoding="utf-8") as out:
            for group in _groups(workload, seed, range(workload.groups)):
                out.write(serialize_group(group) + "\n")
                tokens += group.total_tokens
        with open(os.path.join(staging, "latency.jsonl"), "w", encoding="utf-8") as out:
            for group in _groups(workload, seed, range(workload.groups, workload.latency_groups)):
                out.write(serialize_group(group) + "\n")
        open(os.path.join(staging, "empty.jsonl"), "w").close()
        with open(os.path.join(staging, "sim.cfg"), "w", encoding="utf-8") as out:
            out.write(sim_config_text(SIM, seed))
        digests = {
            name: _file_digest(os.path.join(staging, name))
            for name in ("groups.jsonl", "latency.jsonl", "sim.cfg")
        }
        with open(os.path.join(staging, "meta.json"), "w", encoding="utf-8") as out:
            json.dump({"tokens": tokens, "digests": digests}, out)
        try:
            os.rename(staging, directory)
        except OSError:  # another run finished the same inputs first
            shutil.rmtree(staging, ignore_errors=True)
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    return Inputs(workload, seed, directory, meta["tokens"], meta["digests"])
