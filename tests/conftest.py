import os
import subprocess
import sys
from pathlib import Path

import pytest

import steptree
from steptree import Group, Trajectory, group_from_sequences

SRC = Path(steptree.__file__).parent.parent


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """``python ARGS`` in a child that imports this package's source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )

# Six completions with nested prefix overlap: one three-way shared prefix
# containing the single best completion and both worst ones, a two-way
# shared prefix, and one isolated completion. The worked examples and
# goldens throughout the tests use this fixture.
OVERLAP_SEQS = [
    (5, 5, 5, 1, 1, 1),
    (5, 5, 5, 2, 2),
    (7, 7, 7, 7, 3, 3),
    (7, 7, 7, 7, 4, 4, 8),
    (7, 7, 7, 7, 4, 4, 9, 9),
    (6, 6),
]
OVERLAP_REWARDS = [0.5, 0.5, 1.0, 0.0, 0.0, 0.5]


def make_overlap_group(with_logps: bool = False, step: int | None = None) -> Group:
    if not with_logps:
        return group_from_sequences("overlap", OVERLAP_SEQS, OVERLAP_REWARDS, step=step)
    trajectories = []
    for seq, reward in zip(OVERLAP_SEQS, OVERLAP_REWARDS):
        # functions of (position, token) only, hence prefix-consistent
        trajectories.append(
            Trajectory(
                tokens=seq,
                reward=reward,
                logp_new=tuple(-0.05 * (1 + (tok + 2 * t) % 7) for t, tok in enumerate(seq)),
                logp_old=tuple(-0.04 * (1 + (2 * tok + t) % 5) for t, tok in enumerate(seq)),
                logp_ref=tuple(-0.06 * (1 + (tok + 3 * t) % 6) for t, tok in enumerate(seq)),
            )
        )
    return Group(query_id="overlap", trajectories=tuple(trajectories), step=step)


def make_trivial_group(k: int = 4, length: int = 3) -> Group:
    seqs = [tuple([i] + [0] * (length - 1)) for i in range(k)]
    rewards = [float(i % 2) for i in range(k)]
    return group_from_sequences("trivial", seqs, rewards)


def make_duplicate_group() -> Group:
    # two identical completions next to a diverging third
    return group_from_sequences(
        "dup", [(1, 2, 3), (1, 2, 3), (1, 9)], [1.0, 1.0, 0.0]
    )


@pytest.fixture
def overlap_group() -> Group:
    return make_overlap_group()


@pytest.fixture
def overlap_group_logps() -> Group:
    return make_overlap_group(with_logps=True)


@pytest.fixture
def trivial_group() -> Group:
    return make_trivial_group()


@pytest.fixture
def duplicate_group() -> Group:
    return make_duplicate_group()
