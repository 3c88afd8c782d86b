import pytest

import steptree
from steptree import Group, ToyPolicy
from steptree.io import serialize_group

from conftest import make_overlap_group, make_trivial_group, run_python

PUBLIC_NAMES = """
ConfigurationError DEFAULT_BETA DEFAULT_EPSILON DEFAULT_TOL GRPO GenParams Group
GroupMetrics IDENTITY_TOL LAMBDA MetricsSummary ObjectiveConfig ObjectiveReport
POPULATION PRM ProcessNode ProcessTree RewardStats SAMPLE SimConfig
TokenAssignment TokenTerms ToyEnv ToyPolicy Trajectory VerificationReport
GroupDerivation analytic_gradient assign_tokens build_process_tree
exploitation_scenario export_tree finite_diff_check generate_random_group
group_from_sequences group_metrics is_trivial lambda_weights node_gradient
objective_grpo objective_lambda objective_prm one_step_comparison
outcome_advantages reward_stats rollout_group run_experiment run_verification
step_advantages step_rewards token_terms verify_equivalence verify_proof_identities
""".split()


def test_public_names_are_unchanged_and_resolve():
    assert len(PUBLIC_NAMES) == 53
    assert steptree.__all__ == sorted(PUBLIC_NAMES)
    namespace: dict = {}
    exec("from steptree import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(steptree, name), name
    assert set(PUBLIC_NAMES) <= set(dir(steptree))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        steptree.nonexistent


def test_classes_resolve_to_their_defining_module():
    assert Group.__module__ == "steptree.core"
    assert ToyPolicy.__module__ == "steptree.sim"
    assert steptree.DEFAULT_TOL == 1e-9
    assert steptree.IDENTITY_TOL == 1e-12


# runs ``python -m steptree ARGS`` and reports the steptree modules it loaded
LOADED = """
import atexit, runpy, sys
atexit.register(lambda: print(
    "loaded:", *sorted(m for m in sys.modules if m.startswith("steptree.")),
    file=sys.stderr,
))
sys.argv[0] = "steptree"
runpy.run_module("steptree", run_name="__main__", alter_sys=True)
"""


def loaded_modules(args: list[str]) -> set[str]:
    result = run_python(["-c", LOADED, *args])
    assert result.returncode == 0, result.stderr
    return set(result.stderr.splitlines()[-1].split()[1:])


@pytest.fixture
def dump(tmp_path):
    path = tmp_path / "dump.jsonl"
    groups = [make_overlap_group(step=1), make_trivial_group()]
    path.write_text("".join(serialize_group(g) + "\n" for g in groups), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, absent",
    [
        ("analyze", {"steptree.sim", "steptree.verify"}),
        ("weights", {"steptree.sim", "steptree.verify"}),
        ("simulate", {"steptree.verify", "steptree.metrics"}),
        ("verify", {"steptree.sim", "steptree.metrics"}),
        ("tree", {"steptree.sim", "steptree.verify", "steptree.metrics"}),
    ],
)
def test_each_command_loads_only_its_modules(tmp_path, dump, command, absent):
    out = str(tmp_path / "out")
    if command == "simulate":
        config = tmp_path / "sim.cfg"
        config.write_text(
            "steps = 3\nterminal_token = 3\nreward[3] = 1\nreward[0,3] = 0.5\n",
            encoding="utf-8",
        )
        args = ["simulate", str(config), "-o", out]
    elif command == "analyze":
        args = ["analyze", str(dump), "--csv", out, "--summary", out + ".json"]
    elif command == "verify":
        args = ["verify", str(dump)]
    elif command == "tree":
        args = ["tree", str(dump), "--group-id", "overlap", "-o", out]
    else:
        args = ["weights", str(dump), "--objective", "lambda", "-o", out]
    loaded = loaded_modules(args)
    assert f"steptree.{'sim' if command == 'simulate' else 'io'}" in loaded
    assert not loaded & absent
