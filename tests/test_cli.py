import csv
import importlib
import inspect
import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from steptree import (
    Group,
    GroupDerivation,
    ToyEnv,
    ToyPolicy,
    Trajectory,
    assign_tokens,
    build_process_tree,
    group_from_sequences,
    lambda_weights,
    rewards,
    rollout_group,
    verify,
)
from steptree.cli import main
from steptree.io import serialize_group
from steptree.verify import (
    GenParams,
    LOGP_RANDOM_CONSISTENT,
    degenerate_groups,
    generate_random_group,
    run_verification,
    verification_configs,
)

from conftest import make_overlap_group, make_trivial_group, run_python

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).parent.parent / "perfbench"
README = Path(__file__).parent.parent / "README.md"


def write_dump(path, groups):
    path.write_text("".join(serialize_group(g) + "\n" for g in groups), encoding="utf-8")


@pytest.fixture
def dump(tmp_path):
    path = tmp_path / "dump.jsonl"
    write_dump(path, [make_overlap_group(step=1), make_trivial_group()])
    return path


class TestAnalyze:
    def test_csv_and_summary(self, dump, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        code = main(["analyze", str(dump), "--summary", str(summary_path)])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["query_id"] for r in rows] == ["overlap", "trivial"]
        assert rows[0]["trivial"] == "false"
        assert rows[1]["trivial"] == "true"
        assert float(rows[0]["objective_grpo"]) == pytest.approx(
            -0.13023748316766112, abs=1e-12
        )
        assert float(rows[0]["objective_lambda"]) == pytest.approx(
            -0.032559370791915315, abs=1e-12
        )
        assert rows[0]["step"] == "1"
        assert rows[1]["step"] == ""
        summary = json.loads(summary_path.read_text())
        assert summary["group_count"] == 2
        assert summary["trivial_fraction"] == 0.5

    def test_all_trivial_summary_fraction(self, tmp_path):
        dump = tmp_path / "trivial.jsonl"
        write_dump(dump, [make_trivial_group() for _ in range(4)])
        summary_path = tmp_path / "summary.json"
        csv_path = tmp_path / "metrics.csv"
        code = main(
            ["analyze", str(dump), "--csv", str(csv_path), "--summary", str(summary_path)]
        )
        assert code == 0
        assert json.loads(summary_path.read_text())["trivial_fraction"] == 1.0

    def test_strict_mode_aborts(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            serialize_group(make_overlap_group()) + "\nnot json\n", encoding="utf-8"
        )
        code = main(["analyze", str(path), "--strict"])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_lenient_mode_skips(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            serialize_group(make_overlap_group()) + "\nnot json\n", encoding="utf-8"
        )
        code = main(["analyze", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert len(rows) == 1
        assert "skipped 1 malformed line" in captured.err

    def test_byte_identical_across_runs(self, dump, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["analyze", str(dump), "--csv", str(out_a)]) == 0
        assert main(["analyze", str(dump), "--csv", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


GOOD_COMPLETION = {"tokens": [1, 2], "reward": 0.5, "logp": [-0.1, -0.2]}


def _bad_completion(**fields) -> str:
    completion = {"tokens": [3], "reward": 0.0, **fields}
    return json.dumps({"query_id": "bad", "completions": [GOOD_COMPLETION, completion]})


def _bad_record(**fields) -> str:
    record = {"query_id": "bad", "completions": [GOOD_COMPLETION, GOOD_COMPLETION]}
    return json.dumps({**record, **fields})


# (line 2 of a dump, the text its error must carry after "line 2: ")
MALFORMED_LINES = {
    "bool-reward": (_bad_completion(reward=True), "completion 1: reward must be a number"),
    "str-reward": (_bad_completion(reward="0.5"), "completion 1: reward must be a number"),
    "missing-reward": (_bad_completion(reward=None), "completion 1: reward must be a number"),
    "inf-reward": (
        _bad_completion().replace('"reward": 0.0', '"reward": 1e999'),
        "completion 1: reward must be finite",
    ),
    "huge-int-reward": (
        _bad_completion().replace('"reward": 0.0', '"reward": 1' + "0" * 400),
        "completion 1: reward must be finite",
    ),
    "str-logp": (_bad_completion(logp=["-0.5"]), "completion 1: logp_new entry must be a number"),
    "logp-length": (
        _bad_completion(logp_old=[-0.1, -0.2]),
        "completion 1: logp_old has 2 entries for 1 tokens",
    ),
    "positive-logp": (
        _bad_completion(logp_ref=[0.5]),
        "completion 1: logp_ref entries must be finite and <= 0",
    ),
    "non-array-logp": (_bad_completion(logp="x"), "completion 1: logp_new must be an array"),
    "float-token": (_bad_completion(tokens=[1.5]), "completion 1: token ids must be integers"),
    "negative-token": (_bad_completion(tokens=[-1]), "completion 1: token ids must be non-negative"),
    "non-array-tokens": (_bad_completion(tokens="3"), "completion 1: tokens must be an array"),
    "int-query-id": (_bad_record(query_id=5), "query_id must be a string"),
    "bool-step": (_bad_record(step=True), "step must be an integer"),
    "one-completion": (
        _bad_record(completions=[GOOD_COMPLETION]),
        "a group needs at least two trajectories",
    ),
    "deep-nesting": ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
    # json.loads alone keeps the last of the two, so the completion reads reward 0.0
    "repeated-key": (
        _bad_completion().replace('"reward": 0.0', '"reward": 1.0, "reward": 0.0'),
        "repeated key 'reward'",
    ),
}


class TestMalformedLines:
    @pytest.fixture(params=MALFORMED_LINES)
    def bad_dump(self, request, tmp_path):
        line, expected = MALFORMED_LINES[request.param]
        good = serialize_group(make_overlap_group())
        path = tmp_path / "bad.jsonl"
        path.write_text(f"{good}\n{line}\n{good}\n", encoding="utf-8")
        return path, expected

    def test_strict_names_line_completion_and_field(self, bad_dump, capsys):
        path, expected = bad_dump
        assert main(["analyze", str(path), "--strict"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 2: {expected}")

    def test_lenient_skips_only_the_bad_line(self, bad_dump, capsys):
        path, expected = bad_dump
        assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert [r["query_id"] for r in rows] == ["overlap", "overlap"]
        assert "skipped 1 malformed line(s)" in captured.err
        assert f"line 2: {expected}" in captured.err


class TestTree:
    def test_dot_export(self, dump, capsys):
        code = main(["tree", str(dump), "--group-id", "overlap", "--format", "dot"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph process_tree {")
        assert sum(" [label=" in line for line in out.splitlines()) == 10
        assert sum(" -> " in line for line in out.splitlines()) == 9

    def test_json_export(self, dump, capsys):
        code = main(["tree", str(dump), "--group-id", "overlap", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["node_count"] == 10
        assert doc["root"]["step_reward"] == pytest.approx(2.5 / 6.0)

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_golden_bytes(self, dump, tmp_path, fmt):
        out = tmp_path / f"tree.{fmt}"
        args = ["tree", str(dump), "--group-id", "overlap", "--format", fmt]
        assert main(args + ["-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"overlap_tree.{fmt}").read_bytes()

    def test_skip_notice_when_group_found(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            serialize_group(make_trivial_group())
            + "\nnot json\n"
            + serialize_group(make_overlap_group())
            + "\n",
            encoding="utf-8",
        )
        assert main(["tree", str(path), "--group-id", "overlap"]) == 0
        assert "skipped 1 malformed line(s)" in capsys.readouterr().err

    def test_missing_group(self, dump, capsys):
        code = main(["tree", str(dump), "--group-id", "nope"])
        assert code == 1
        assert "nope" in capsys.readouterr().err


class TestVerify:
    def test_random_suite_passes(self, capsys):
        code = main(["verify", "--random", "60", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "equivalence" in out
        assert "identities" in out
        assert "ok" in out

    def test_file_suite_passes(self, tmp_path, capsys):
        params = GenParams(seed=52, fork_bias=0.7, logp_mode=LOGP_RANDOM_CONSISTENT)
        path = tmp_path / "groups.jsonl"
        write_dump(path, [generate_random_group(params, i) for i in range(20)])
        code = main(["verify", str(path)])
        assert code == 0

    def test_inconsistent_logps_fail(self, tmp_path, capsys):
        # log-probabilities that no single policy could have produced
        line = json.dumps(
            {
                "query_id": "bad",
                "completions": [
                    {"tokens": [1, 2], "reward": 1.0, "logp": [-0.5, -0.5], "logp_old": [-1.5, -0.5]},
                    {"tokens": [1, 3], "reward": 0.0, "logp": [-2.5, -0.5], "logp_old": [-0.2, -0.5]},
                ],
            }
        )
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        code = main(["verify", str(path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "  failure: query_id=bad rel_gap=" in out

    def failure_line(self, tmp_path, capsys, group):
        path = tmp_path / "group.jsonl"
        write_dump(path, [group])
        assert main(["verify", str(path)]) == 1
        lines = [line for line in capsys.readouterr().out.splitlines() if "failure:" in line]
        assert len(lines) == 1
        return lines[0]

    def test_scaling_failure_is_named(self, tmp_path, capsys, monkeypatch):
        # one singleton-owned lambda term no longer equals its GRPO term
        original = rewards.objective_lambda

        def perturbed(group, assignment, advantages, terms):
            report = original(group, assignment, advantages, terms)
            rows = [list(row) for row in report.per_token_terms]
            i, t = next(
                (i, t)
                for i, row in enumerate(rows)
                for t in range(len(row))
                if assignment.owner(i, t).size == 1
            )
            rows[i][t] += 0.5
            return replace(report, per_token_terms=tuple(map(tuple, rows)))

        monkeypatch.setattr(rewards, "objective_lambda", perturbed)
        line = self.failure_line(tmp_path, capsys, make_overlap_group())
        assert line.startswith("  failure: query_id=overlap rel_gap=")
        assert line.endswith(" check=scaling config=beta=0.0,unit_ratio=1")

    def test_partition_failure_is_named(self, tmp_path, capsys, monkeypatch):
        # one step advantage of a shared span no longer matches its node
        original = verify.objective_prm

        def perturbed(group, step_advantage_rows, terms):
            assignment = assign_tokens(build_process_tree(group))
            rows = [list(row) for row in step_advantage_rows]
            i, t = next(
                (i, t)
                for i, row in enumerate(rows)
                for t in range(len(row))
                if assignment.owner(i, t).size > 1
            )
            rows[i][t] += 0.5
            return original(group, rows, terms)

        monkeypatch.setattr(verify, "objective_prm", perturbed)
        line = self.failure_line(tmp_path, capsys, make_overlap_group())
        assert line.endswith(" check=partition:prm config=beta=0.0,unit_ratio=1")

    def test_node_sum_failure_is_named(self, tmp_path, capsys):
        # completions 0 and 1 share token 1 with a nonzero step advantage
        # but disagree on its ratio, which no single policy could produce
        group = Group(
            query_id="bad",
            trajectories=(
                Trajectory((1, 2), 1.0, logp_new=(-0.5, -0.5), logp_old=(-1.5, -0.5)),
                Trajectory((1, 3), 1.0, logp_new=(-2.5, -0.5), logp_old=(-0.2, -0.5)),
                Trajectory((4,), 0.0, logp_new=(-0.5,), logp_old=(-0.5,)),
            ),
        )
        line = self.failure_line(tmp_path, capsys, group)
        assert line.endswith(" check=node-sum config=beta=0.0,unit_ratio=0")

    def test_ratio_terms_only_in_verify(self, tmp_path, capsys):
        # logp_old far from logp: ratio terms would change every objective
        with_old = [
            {"tokens": [1, 2], "reward": 1.0, "logp": [-0.5, -0.5], "logp_old": [-1.5, -0.5]},
            {"tokens": [1, 3], "reward": 0.0, "logp": [-2.5, -0.5], "logp_old": [-0.2, -0.5]},
        ]
        without_old = [{k: v for k, v in c.items() if k != "logp_old"} for c in with_old]
        outputs = {}
        for name, completions in (("with", with_old), ("without", without_old)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text(
                json.dumps({"query_id": "q", "completions": completions}) + "\n",
                encoding="utf-8",
            )
            assert main(["analyze", str(path)]) == 0
            assert main(["weights", str(path), "--objective", "lambda"]) == 0
            outputs[name] = capsys.readouterr().out
            outputs[name + "-verify"] = main(["verify", str(path)])
            capsys.readouterr()
        # analyze and weights use unit ratios; verify applies the ratio terms
        assert outputs["with"] == outputs["without"]
        assert outputs["with-verify"] == 1
        assert outputs["without-verify"] == 0

    def test_needs_input_or_random(self, tmp_path, capsys):
        # neither a file nor --random N, or both; the file is never opened
        for args in ([], [str(tmp_path / "missing.jsonl"), "--random", "2"]):
            assert main(["verify", *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1

    def test_negative_random_count_is_an_error(self, capsys):
        assert main(["verify", "--random", "-5", "--skip-identities"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "-5" in captured.err

    def test_zero_random_count_checks_the_edge_cases(self, capsys):
        assert main(["verify", "--random", "0", "--skip-identities"]) == 0
        out = capsys.readouterr().out
        assert f"equivalence: {len(degenerate_groups(True))} group(s)" in out


@pytest.mark.parametrize(
    "args, named",
    [
        pytest.param(["verify", "--random", "2", "--tol", "nan"], "tol", id="verify-tol-nan"),
        pytest.param(["verify", "--random", "2", "--tol=-1e-9"], "tol", id="verify-tol-neg"),
        pytest.param(["verify", "BARE", "--tol", "nan"], "tol", id="verify-file-tol-nan"),
        pytest.param(["verify", "--random", "2", "--eps", "nan"], "epsilon", id="verify-eps-nan"),
        pytest.param(["analyze", "BARE", "--eps", "nan"], "epsilon", id="analyze-eps-nan"),
        pytest.param(["analyze", "BARE", "--eps", "-1"], "epsilon", id="analyze-eps-neg"),
        pytest.param(["analyze", "BARE", "--beta", "nan"], "beta", id="analyze-beta-nan"),
        pytest.param(["weights", "BARE", "--beta", "inf"], "beta", id="weights-beta-inf"),
        pytest.param(["analyze", "EMPTY", "--eps", "nan"], "epsilon", id="analyze-empty-eps"),
        pytest.param(["weights", "EMPTY", "--beta", "nan"], "beta", id="weights-empty-beta"),
    ],
)
def test_invalid_numeric_option_is_an_error(dump, tmp_path, capsys, args, named):
    # ``dump`` holds no log-probabilities, so the KL term is dropped there
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    files = {"BARE": str(dump), "EMPTY": str(empty)}
    assert main([files.get(a, a) for a in args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert named in captured.err


SHARED_FLAGS = {
    "--std": ["population"],
    "--beta": ["0.1"],
    "--eps": ["0.1"],
    "--tol": ["0.1"],
    "--strict": [],
}
UNREAD_FLAGS = [
    (["analyze", "dump.jsonl"], "--tol"),
    (["weights", "dump.jsonl"], "--tol"),
    *((["tree", "dump.jsonl", "--group-id", "q"], f) for f in SHARED_FLAGS if f != "--strict"),
    *((["simulate", "sim.cfg"], f) for f in SHARED_FLAGS),
    *((["report", "summary.json"], f) for f in SHARED_FLAGS),
]


@pytest.mark.parametrize(
    "command, flag", UNREAD_FLAGS, ids=[f"{c[0]}{f}" for c, f in UNREAD_FLAGS]
)
def test_flag_the_command_never_reads_is_a_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, flag, *SHARED_FLAGS[flag]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


class TestWeights:
    def test_emits_records(self, dump, capsys):
        code = main(["weights", str(dump), "--objective", "lambda"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["objective"] == "lambda"
        assert record["completions"][2]["lambda_weight"][0] == pytest.approx(1 / 3)

    def test_deterministic(self, dump, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["weights", str(dump), "-o", str(a)]) == 0
        assert main(["weights", str(dump), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("objective", ["lambda", "grpo"])
    def test_golden_bytes(self, tmp_path, objective):
        out = tmp_path / "weights.jsonl"
        dump = GOLDEN / "summary_dump.jsonl"
        assert main(["weights", str(dump), "--objective", objective, "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"weights_{objective}.jsonl").read_bytes()


# rewards, the logps of completion 0 (the others carry zeros, or the same
# logps in a SHARED_LOGPS case), the message part and the extra flags
OVERFLOWS = {
    "variance": ([1e200, -1e200], {}, "group 'wide': reward variance", ()),
    "variance-3": (
        [1.7e308, -1.7e308, -1.7e308],
        {},
        "group 'wide': reward variance",
        (),
    ),
    "ratio": (
        [1.0, 0.0],
        {"logp_new": (0.0,), "logp_old": (-800.0,)},
        "group 'wide', trajectory 0: importance ratio",
        (),
    ),
    "kl": (
        [1.0, 0.0],
        {"logp_new": (-800.0,), "logp_ref": (0.0,)},
        "group 'wide', trajectory 0: KL term",
        (),
    ),
    # each KL term is finite, beta times it is not
    "kl-beta": (
        [1.0, 0.0],
        {"logp_new": (-709.0, -709.0), "logp_ref": (0.0, 0.0)},
        "group 'wide': objective term overflows",
        ("--beta", "100"),
    ),
    # every term is finite and the objective cancels to 0, but the sum of
    # the term magnitudes that scales the gaps does not fit a float
    "ratio-sum": (
        [1.0, 0.0],
        {"logp_new": (0.0,) * 3, "logp_old": (-709.0,) * 3},
        "group 'wide': verification sum overflows",
        (),
    ),
    # identity 1's right-hand side, four times the shared first token's term,
    # overflows while the four terms' sum does not
    "node-sum": (
        [1.0, 1.0, 1.0, 1.0, 0.0],
        {"logp_new": (0.0, 0.0), "logp_old": (-709.7, 0.0)},
        "group 'wide': verification sum overflows",
        (),
    ),
}
SHARED_LOGPS = {"ratio-sum"}
# the token rows of a case whose completions share a prefix
CASE_TOKENS = {"node-sum": [(1, 0), (1, 1), (1, 2), (1, 3), (2, 4)]}


def overflow_group(case: str) -> Group:
    rewards, logps, _, _ = OVERFLOWS[case]
    length = max((len(row) for row in logps.values()), default=1)
    others = logps if case in SHARED_LOGPS else {key: (0.0,) * length for key in logps}
    tokens = CASE_TOKENS.get(case) or [(i,) * length for i in range(len(rewards))]
    return Group(
        "wide",
        [
            Trajectory(row, r, **(logps if i == 0 else others))
            for i, (row, r) in enumerate(zip(tokens, rewards))
        ],
    )


@pytest.mark.parametrize(
    "command, case",
    [
        *(
            (command, case)
            for case in ("variance", "variance-3")
            for command in ("analyze", "weights", "verify")
        ),
        ("verify", "ratio"),
        ("analyze", "kl"),
        ("weights", "kl"),
        *(
            (command, "kl-beta")
            for command in ("analyze", "weights", "verify")
        ),
        ("verify", "ratio-sum"),
        ("verify --skip-identities", "ratio-sum"),
        ("verify", "node-sum"),
    ],
)
def test_overflow_is_an_error(tmp_path, capsys, command, case):
    _, _, named, flags = OVERFLOWS[case]
    path = tmp_path / "wide.jsonl"
    write_dump(path, [overflow_group(case)])
    assert main([*command.split(), str(path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, out_flag",
    [("analyze", None), ("analyze", "--csv"), ("weights", None), ("weights", "-o")],
)
def test_error_follows_the_output_of_earlier_groups(tmp_path, capsys, command, out_flag):
    logps = {"logp_new": (-0.5, -0.5), "logp_ref": (-0.5, -0.5)}
    ok = Group("ok", [Trajectory((1, 2), 1.0, **logps), Trajectory((1, 3), 0.0, **logps)])
    # beta times its first completion's KL terms overflows
    overflow = Trajectory((1, 2), 1.0, logp_new=(-709.0, -709.0), logp_ref=(0.0, 0.0))
    kl = Group("kl", [overflow, Trajectory((1, 3), 0.0, **logps)])
    write_dump(tmp_path / "ok.jsonl", [ok])
    assert main([command, str(tmp_path / "ok.jsonl"), "--beta", "100"]) == 0
    expected = capsys.readouterr().out
    assert len(expected.splitlines()) == (2 if command == "analyze" else 1)

    write_dump(tmp_path / "both.jsonl", [ok, kl])
    out = tmp_path / "out"
    flags = [out_flag, str(out)] if out_flag else []
    assert main([command, str(tmp_path / "both.jsonl"), "--beta", "100", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: group 'kl': objective term overflows\n"
    if out_flag:
        assert captured.out == ""
        assert out.read_text(encoding="utf-8") == expected
    else:
        assert captured.out == expected


# a free-form config under each objective, whose rollouts never sample a
# rewarded sequence, and the README's free-form config, which samples them
# from its first step
FREE_FORM = """vocab_size = 3
horizon = 6
max_len = 6
temperature = 1.0
context_order = 4
terminal_token = none
seed = 11
k = 6
steps = 40
learn_rate = 0.5
objective = {objective}
reward[0,0,1,2,1,0] = 1.0
reward[1,1,1,1,1,1] = 0.25
"""
LEARNING = """vocab_size = 4
horizon = 12
max_len = 12
terminal_token = 3
seed = 5
k = 16
steps = 20
objective = lambda
reward[3] = 1.0
reward[0,3] = 0.5
reward[1,1,3] = 0.25
reward[2,0,1,3] = 0.75
"""
SIMULATE_GOLDENS = {
    "simulate_one_step": "scenario = exploitation\nlearn_rate = 0.5\n",
    "simulate_series_lambda": FREE_FORM.format(objective="lambda"),
    "simulate_series_grpo": FREE_FORM.format(objective="grpo"),
    "simulate_series_learning": LEARNING,
}


# simulate configs that are config errors, and the key each error names;
# SIM_UNUSABLE's test prefixes each with "steps = 2"
SIM_UNUSABLE = [
    ("temperature = nan\n", "temperature"),
    ("temperature = inf\n", "temperature"),
    ("learn_rate = nan\n", "learn_rate"),
    ("terminal_token = 99\n", "terminal_token"),
    ("reward[] = 1\n", "reward[]"),
    # never sampled without a terminal token, so only the table check sees them
    ("reward[3] = inf\n", "reward[3]"),
    ("reward[3] = nan\n", "reward[3]"),
]
SIM_NON_FINITE = [
    ("scenario = exploitation\nconcentration = nan\n", "concentration"),
    ("scenario = exploitation\nconcentration = inf\n", "concentration"),
    ("steps = 0\nepsilon = nan\n", "epsilon"),
]
SIM_UNREAD = [
    ("steps = 2\nlerning_rate = 9\n", "lerning_rate"),
    ("steps = 2\nbeta = 0\n", "beta"),
    ("steps = 2\nconcentration = 2\n", "concentration"),
    ("scenario = exploitation\nvocab_size = 3\n", "vocab_size"),
    ("scenario = exploitation\nreward[1,2] = 1\n", "reward[...]"),
    ("scenario = exploitation\nobjective = lambda\n", "objective"),
]
SIM_UNPARSABLE = [
    ("seed = 1.5\n", "seed"),
    ("steps = x\n", "steps"),
    ("terminal_token = end\n", "terminal_token"),
    ("scenario = exploitation\nconcentration = big\n", "concentration"),
    ("reward[1,x] = 1\n", "reward[1,x]"),
    ("reward[1] = abc\n", "reward[1]"),
    ("reward[1,,2] = 1\n", "reward[1,,2]"),
    ("reward[1,2,] = 1\n", "reward[1,2,]"),
    # int() takes these too: steps = 1_0 would run 10 steps, reward[0_3] reward (3,)
    ("steps = 1_0\n", "steps"),
    ("steps = +1\n", "steps"),
    ("seed = 05\n", "seed"),
    ("terminal_token = +3\n", "terminal_token"),
    ("reward[0_3] = 1\n", "reward[0_3]"),
    ("reward[+3] = 1\n", "reward[+3]"),
]
# a key given a second time on line 2, and that line's spelling of it;
# reward[...] keys are compared by their token sequence
SIM_REPEATED = [
    ("steps = 2\nsteps = 3\n", "steps"),
    ("reward[3] = 1\nreward[3] = 0\n", "reward[3]"),
    ("reward[1,2] = 1\nreward[ 1, 2 ] = 1\n", "reward[ 1, 2 ]"),
    ("reward[] = 1\nreward[ ] = 1\n", "reward[ ]"),
]


class TestSimulate:
    @pytest.mark.parametrize("name", sorted(SIMULATE_GOLDENS))
    def test_golden_bytes(self, tmp_path, name):
        config = tmp_path / "sim.cfg"
        config.write_text(SIMULATE_GOLDENS[name], encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["simulate", str(config), "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()

    def test_softmax_overflow_names_temperature(self, tmp_path, capsys):
        # the first update makes logits / temperature overflow
        config = tmp_path / "sim.cfg"
        config.write_text(
            "seed = 1\nk = 8\nsteps = 3\ntemperature = 1e-300\n"
            "reward[3] = 1\nterminal_token = 3\n",
            encoding="utf-8",
        )
        assert main(["simulate", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: softmax at context () overflows: logits / temperature "
            "is not finite (temperature = 1e-300)\n"
        )

    def test_exploitation_one_step(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text(
            "scenario = exploitation\nlearn_rate = 0.5\n", encoding="utf-8"
        )
        code = main(["simulate", str(config)])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["objective"] for r in rows] == ["grpo", "lambda"]
        grpo_delta = float(rows[0]["prefix_prob_delta"])
        lam_delta = float(rows[1]["prefix_prob_delta"])
        assert grpo_delta < 0.0
        assert lam_delta < 0.0
        assert abs(grpo_delta) > abs(lam_delta)

    def test_series_mode(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text(
            "\n".join(
                [
                    "vocab_size = 3",
                    "horizon = 4",
                    "max_len = 4",
                    "seed = 5",
                    "k = 4",
                    "steps = 3",
                    "learn_rate = 0.4",
                    "objective = lambda",
                    "reward[0,0,1,2] = 1.0",
                    "reward[1,1,1,1] = 0.5",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        code = main(["simulate", str(config)])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["step"] for r in rows] == ["0", "1", "2"]
        assert set(rows[0]) == {
            "step",
            "expected_reward",
            "best_sequence_prob",
            "objective_value",
        }

    def test_series_deterministic_bytes(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text(
            "vocab_size = 3\nmax_len = 3\nsteps = 4\nreward[0,0,0] = 1.0\n",
            encoding="utf-8",
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["simulate", str(config), "-o", str(a)]) == 0
        assert main(["simulate", str(config), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spaces_in_a_reward_key_still_parse(self, tmp_path):
        outputs = []
        for key in ("reward[0,0,1]", "reward[ 0, 0 ,1 ]"):
            config = tmp_path / "sim.cfg"
            text = f"vocab_size = 3\nmax_len = 3\nsteps = 2\n{key} = 1\n"
            config.write_text(text, encoding="utf-8")
            out = tmp_path / "out.csv"
            assert main(["simulate", str(config), "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("token", ["5", "-1"])
    def test_reward_token_outside_vocabulary(self, tmp_path, capsys, token):
        config = tmp_path / "sim.cfg"
        config.write_text(
            f"vocab_size = 2\nmax_len = 2\nsteps = 2\nreward[{token}] = 1\n",
            encoding="utf-8",
        )
        assert main(["simulate", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "outside the vocabulary" in err

    @pytest.mark.parametrize("text, key", SIM_UNUSABLE)
    def test_unusable_value_names_its_key(self, tmp_path, capsys, text, key):
        config = tmp_path / "sim.cfg"
        config.write_text("steps = 2\n" + text, encoding="utf-8")
        assert main(["simulate", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert key in captured.err

    @pytest.mark.parametrize("text, key", SIM_NON_FINITE)
    def test_non_finite_value_names_its_key(self, tmp_path, capsys, text, key):
        config = tmp_path / "sim.cfg"
        config.write_text(text, encoding="utf-8")
        assert main(["simulate", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} must be finite")

    def test_bad_config_key(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("scenario = warp\n", encoding="utf-8")
        assert main(["simulate", str(config)]) == 1
        assert "scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", SIM_UNREAD)
    def test_key_the_run_never_reads(self, tmp_path, capsys, text, key):
        config = tmp_path / "sim.cfg"
        config.write_text(text, encoding="utf-8")
        assert main(["simulate", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config key {key!r} is not read")

    @pytest.mark.parametrize("text, key", SIM_UNPARSABLE)
    def test_unparsable_value_names_its_key(self, tmp_path, capsys, text, key):
        config = tmp_path / "sim.cfg"
        config.write_text(text, encoding="utf-8")
        assert main(["simulate", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert f"config key {key!r}" in captured.err

    @pytest.mark.parametrize("text, key", SIM_REPEATED)
    def test_repeated_key_names_both_lines(self, tmp_path, capsys, text, key):
        config = tmp_path / "sim.cfg"
        config.write_text(text, encoding="utf-8")
        assert main(["simulate", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}:2: config key {key!r} repeats line 1\n"

    def test_one_step_without_exploitation_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("mode = one_step\n", encoding="utf-8")
        assert main(["simulate", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: one_step mode requires scenario = exploitation\n"

    def test_readme_configs_run(self, tmp_path, capsys):
        blocks = README.read_text(encoding="utf-8").split("```ini\n")[1:]
        assert len(blocks) == 2
        for n, block in enumerate(blocks):
            config = tmp_path / f"readme{n}.cfg"
            config.write_text(block.split("```")[0], encoding="utf-8")
            assert main(["simulate", str(config), "-o", str(tmp_path / "out.csv")]) == 0

    def test_readme_free_form_config_is_the_learning_one(self):
        # its series is pinned by the simulate_series_learning golden
        blocks = README.read_text(encoding="utf-8").split("```ini\n")[1:]
        assert blocks[1].split("```")[0] == LEARNING

    def test_readme_defaults_are_the_defaults(self, tmp_path):
        # each default of the README's key table, given explicitly, changes no byte
        readme = README.read_text(encoding="utf-8")
        table = readme.split("| key | default | read by |\n|---|---|---|\n")[1].split("\n\n")[0]
        rows = [[cell.strip() for cell in row.strip("|").split("|")] for row in table.splitlines()]
        assert {key.strip("`") for key, _, _ in rows} == {
            "scenario", "mode", "concentration", "vocab_size", "horizon", "temperature",
            "context_order", "max_len", "terminal_token", "reward[...]", "seed", "k",
            "steps", "objective", "learn_rate", "std_mode", "epsilon",
        }  # fmt: skip
        free_form = LEARNING.replace("steps = 20", "steps = 3")
        checked = 0
        for key, default, read_by in rows:
            if not default.startswith("`"):  # no entries: reward[...] has no spelling
                continue
            key, default = key.strip("`"), default.strip("`")
            if "exploitation" in read_by:
                base = "scenario = exploitation\n"
            else:
                base = "".join(
                    line for line in free_form.splitlines(True) if line.split(" =")[0] != key
                )
            outputs = []
            for text in (base, base + f"{key} = {default}\n"):
                config, out = tmp_path / "sim.cfg", tmp_path / "out.csv"
                config.write_text(text, encoding="utf-8")
                assert main(["simulate", str(config), "-o", str(out)]) == 0, text
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], key
            checked += 1
        assert checked == len(rows) - 1

    def test_readme_size_correction_sweep(self, tmp_path):
        # the README's table: the LEARNING config for 40 steps, seeds 0-11
        readme = README.read_text(encoding="utf-8")
        config, out = tmp_path / "sim.cfg", tmp_path / "out.csv"
        sweep = (("grpo", 0.5), ("lambda", 0.5), ("grpo", 1.0), ("lambda", 2.0), ("lambda", 4.0))
        for objective, learn_rate in sweep:
            firsts, finals = [], []
            for seed in range(12):
                text = LEARNING.replace("seed = 5", f"seed = {seed}")
                text = text.replace("steps = 20", "steps = 40")
                text = text.replace("objective = lambda", f"objective = {objective}")
                config.write_text(text + f"learn_rate = {learn_rate}\n", encoding="utf-8")
                assert main(["simulate", str(config), "-o", str(out)]) == 0
                with out.open(encoding="utf-8") as handle:
                    rewards = [float(row["expected_reward"]) for row in csv.DictReader(handle)]
                firsts.append(next((t for t, r in enumerate(rewards) if r >= 0.6), None))
                finals.append(rewards[-1])
            if None in firsts:
                assert set(firsts) == {None}
                step = "not reached"
            else:
                step = f"{statistics.median(firsts):g} ({min(firsts)}–{max(firsts)})"
            final = statistics.median(finals)
            assert f"| `{objective}` | {learn_rate} | {step} | {final:.3f} |" in readme
        # and its reading: at step 0 the mean weight per token is 0.74 (median
        # over seeds), and the first tokens' weights average exactly 1/4
        policy = ToyPolicy(vocab_size=4, horizon=12)
        table = {(3,): 1.0, (0, 3): 0.5, (1, 1, 3): 0.25, (2, 0, 1, 3): 0.75}
        env = ToyEnv(reward_table=table, max_len=12, terminal_token=3)
        means = []
        for seed in range(12):
            group = rollout_group(policy, env, 16, seed=f"{seed}:0")  # run_experiment's step 0
            weights = lambda_weights(GroupDerivation(group, ()).assignment)
            assert {t.tokens[0] for t in group.trajectories} == {0, 1, 2, 3}
            assert sum(row[0] for row in weights) / 16 == pytest.approx(0.25, abs=1e-12)
            means.append(statistics.mean(w for row in weights for w in row))
        assert round(statistics.median(means), 2) == 0.74


def test_readme_quick_tour_runs():
    # every name the tour uses must still exist in the package
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), namespace)
    assert namespace["stepwise"].value == pytest.approx(namespace["plain"].value)


def _summary_text(**fields) -> str:
    """An empty mergeable summary, with ``fields`` overridden."""
    summary = {
        "group_count": 0,
        "trajectory_count": 0,
        "trivial_count": 0,
        "zero_length_count": 0,
        "depth_sum": 0,
        "proportion_sum": "0",
        "depth_hist": {},
        "proportion_hist": {},
    }
    return json.dumps({**summary, **fields})


def _step_raw(**fields) -> dict:
    """An empty per-step entry of a mergeable summary, with ``fields`` overridden."""
    entry = {"group_count": 0, "trajectory_count": 0, "trivial_count": 0, "depth_sum": 0}
    return {**entry, "proportion_sum": "0", **fields}


# summaries that analyze cannot produce, and the quoted field each error names
IMPOSSIBLE_SUMMARIES = {
    "negative-count": (_summary_text(group_count=-5), "'group_count'"),
    "trivial-above-groups": (_summary_text(group_count=1, trivial_count=2), "'trivial_count'"),
    "zero-length-above-count": (_summary_text(zero_length_count=1), "'zero_length_count'"),
    "negative-proportion-sum": (_summary_text(proportion_sum="-7/3"), "'proportion_sum'"),
    "proportion-sum-above-count": (_summary_text(proportion_sum="1/2"), "'proportion_sum'"),
    "proportion-key-out-of-range": (
        _summary_text(trajectory_count=1, depth_hist={"0": 1}, proportion_hist={"5000": 1}),
        "'proportion_hist'",
    ),
    "negative-depth-key": (
        _summary_text(trajectory_count=3, depth_hist={"-5": 3}, proportion_hist={"0": 3}),
        "'depth_hist'",
    ),
    "negative-hist-count": (_summary_text(depth_hist={"0": -3}), "'depth_hist.0'"),
    "hist-total": (
        _summary_text(trajectory_count=2, depth_hist={"0": 1}, proportion_hist={"0": 2}),
        "'depth_hist'",
    ),
    "depth-sum": (
        _summary_text(
            trajectory_count=2, depth_sum=3, depth_hist={"1": 2}, proportion_hist={"0": 2}
        ),
        "'depth_sum'",
    ),
    "per-step-above-total": (
        _summary_text(per_step_raw={"1": _step_raw(group_count=1, trajectory_count=2)}),
        "'per_step_raw'",
    ),
    "per-step-trivial": (
        _summary_text(
            group_count=1,
            trajectory_count=2,
            depth_hist={"0": 2},
            proportion_hist={"0": 2},
            per_step_raw={"1": _step_raw(trivial_count=1)},
        ),
        "'per_step_raw.1.trivial_count'",
    ),
    "trajectories-below-groups": (_summary_text(group_count=5), "'trajectory_count'"),
    "per-step-trajectories-below-groups": (
        _summary_text(
            group_count=1,
            trajectory_count=3,
            depth_hist={"0": 3},
            proportion_hist={"0": 3},
            per_step_raw={"1": _step_raw(group_count=1, trajectory_count=1)},
        ),
        "'per_step_raw.1.trajectory_count'",
    ),
    # int() reads "01" as 1, so step 1 would take the second entry's counts
    "repeated-step": (
        _summary_text(
            group_count=2,
            trajectory_count=4,
            depth_hist={"0": 4},
            proportion_hist={"0": 4},
            per_step_raw={
                "1": _step_raw(group_count=1, trajectory_count=2),
                "01": _step_raw(group_count=1, trajectory_count=2),
            },
        ),
        "'per_step_raw'",
    ),
    "non-canonical-histogram-key": (
        _summary_text(
            trajectory_count=2, depth_sum=2, depth_hist={"+1": 2}, proportion_hist={"0": 2}
        ),
        "'depth_hist'",
    ),
    "underscored-histogram-key": (
        _summary_text(trajectory_count=2, depth_hist={"0": 2}, proportion_hist={"1_0": 2}),
        "'proportion_hist'",
    ),
    # json.load alone keeps the last of the two, so step 1 loses its first entry
    "repeated-step-key": (
        _summary_text(
            group_count=2,
            trajectory_count=4,
            depth_hist={"0": 4},
            proportion_hist={"0": 4},
            per_step_raw={
                "1": _step_raw(group_count=1, trajectory_count=2),
                "01": _step_raw(group_count=1, trajectory_count=2),
            },
        ).replace('"01"', '"1"'),
        "repeated key '1'",
    ),
    "repeated-field": (
        _summary_text().replace('"group_count": 0', '"group_count": 0, "group_count": 0'),
        "repeated key 'group_count'",
    ),
}


class TestReport:
    def test_merge_matches_single_pass(self, tmp_path):
        groups = [make_overlap_group(step=1), make_trivial_group(), make_trivial_group(k=3)]
        full = tmp_path / "full.jsonl"
        write_dump(full, groups)
        part_a = tmp_path / "a.jsonl"
        part_b = tmp_path / "b.jsonl"
        write_dump(part_a, groups[:1])
        write_dump(part_b, groups[1:])

        paths = {}
        for name, dump_path in (("full", full), ("a", part_a), ("b", part_b)):
            out = tmp_path / f"{name}.json"
            csv_out = tmp_path / f"{name}.csv"
            assert (
                main(
                    [
                        "analyze",
                        str(dump_path),
                        "--csv",
                        str(csv_out),
                        "--summary",
                        str(out),
                    ]
                )
                == 0
            )
            paths[name] = out
        merged = tmp_path / "merged.json"
        assert (
            main(["report", str(paths["a"]), str(paths["b"]), "-o", str(merged)]) == 0
        )
        assert json.loads(merged.read_text()) == json.loads(paths["full"].read_text())

    def test_summary_golden_bytes(self, tmp_path):
        # the dump holds per-step groups, groups without a step, trivial
        # groups and a zero-length completion
        out = tmp_path / "summary.json"
        dump = GOLDEN / "summary_dump.jsonl"
        assert main(["analyze", str(dump), "--csv", str(tmp_path / "m.csv"), "--summary", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "summary.json").read_bytes()

    def test_report_golden_bytes(self, tmp_path):
        lines = (GOLDEN / "summary_dump.jsonl").read_text(encoding="utf-8").splitlines(True)
        parts = []
        for n, half in enumerate((lines[:15], lines[15:])):
            dump = tmp_path / f"half{n}.jsonl"
            dump.write_text("".join(half), encoding="utf-8")
            parts.append(str(tmp_path / f"half{n}.json"))
            csv_out = str(tmp_path / "m.csv")
            assert main(["analyze", str(dump), "--csv", csv_out, "--summary", parts[-1]]) == 0
        out = tmp_path / "report.json"
        assert main(["report", *parts, "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "report.json").read_bytes()

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"group_count": 1}', "trajectory_count"),
            ("[]", "JSON object"),
            pytest.param(_summary_text(group_count="x"), "group_count", id="str-count"),
            pytest.param(_summary_text(trivial_count=True), "trivial_count", id="bool-count"),
            pytest.param(_summary_text(depth_hist=[]), "depth_hist", id="array-hist"),
            pytest.param(
                _summary_text(proportion_hist={"3": "1"}), "proportion_hist", id="str-hist-count"
            ),
            pytest.param(_summary_text(depth_hist={"x": 1}), "depth_hist", id="str-hist-key"),
            pytest.param(_summary_text(proportion_sum="1/0"), "proportion_sum", id="bad-fraction"),
            pytest.param(_summary_text(per_step_raw={"1": []}), "per_step_raw", id="array-step"),
            *(pytest.param(*case, id=name) for name, case in IMPOSSIBLE_SUMMARIES.items()),
        ],
    )
    def test_malformed_summary_is_an_error(self, tmp_path, capsys, text, named):
        path = tmp_path / "summary.json"
        path.write_text(text + "\n", encoding="utf-8")
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err

    def test_repeated_key_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_text(IMPOSSIBLE_SUMMARIES["repeated-step-key"][0] + "\n", encoding="utf-8")
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: repeated key '1'\n"

    @pytest.mark.parametrize(
        "fields",
        [
            {"proportion_sum": "1/" + "3" * 5000},
            {"group_count": "9" * 5000},
            {"depth_hist": {"x" * 5000: 1}},
        ],
        ids=["fraction", "count", "hist-key"],
    )
    def test_bad_value_is_echoed_cut(self, tmp_path, capsys, fields):
        path = tmp_path / "summary.json"
        path.write_text(_summary_text(**fields) + "\n", encoding="utf-8")
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: summary field ")
        assert len(err) < 200


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self, dump):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(dump), "--wat"])
        assert excinfo.value.code == 2

    def test_missing_file_reports_error(self, capsys):
        assert main(["analyze", "/does/not/exist.jsonl"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args", [["analyze", "--csv"], ["weights", "-o"], ["tree", "--group-id", "q", "-o"]]
    )
    @pytest.mark.parametrize("missing", ["file", "directory"])
    def test_input_that_cannot_be_opened_leaves_the_output_alone(
        self, tmp_path, capsys, args, missing
    ):
        source = tmp_path / "missing.jsonl" if missing == "file" else tmp_path
        out = tmp_path / "previous.out"
        out.write_text("previous\n", encoding="utf-8")
        command, *flags = args
        assert main([command, str(source), *flags, str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno ")
        assert out.read_text(encoding="utf-8") == "previous\n"


def test_tree_json_export_deeper_than_recursion_limit(tmp_path):
    # the indented JSON text grows with the cube of the depth (1.2 GB for a
    # k = 1200 chain), so the chain stays small and the recursion limit is
    # lowered below its depth instead
    k = 200
    chain = group_from_sequences(
        "chain", [[1] * (j + 1) for j in range(k)], [float(j % 2) for j in range(k)]
    )
    path = tmp_path / "chain.jsonl"
    write_dump(path, [chain])
    out = tmp_path / "chain.json"
    args = ["tree", str(path), "--group-id", "chain", "--format", "json", "-o", str(out)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        code = main(args)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert doc["node_count"] == 2 * k - 1
    assert json.dumps(doc, indent=2) + "\n" == text


COUNTED_CALLS = (
    ("tree", "build_process_tree"),
    ("objectives", "ratio_terms"),
    ("objectives", "kl_terms"),
    ("core", "reward_stats"),
)


@pytest.fixture
def work(monkeypatch):
    """Calls of the per-group derivations, counted in every module holding them."""
    counts = {name: 0 for _, name in COUNTED_CALLS}
    modules = [m for n, m in sys.modules.items() if n.startswith("steptree.")]
    for home, name in COUNTED_CALLS:
        original = getattr(importlib.import_module(f"steptree.{home}"), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestWorkCounts:
    def test_suite_builds_each_tree_once_per_check(self, work):
        params = GenParams(seed=21, k_range=(2, 16), length_range=(1, 64))
        equivalence, _ = run_verification(params, 20, configs=verification_configs(0.04))
        groups = equivalence.groups_checked
        assert groups == 20 + len(degenerate_groups(True))
        assert work == {
            "build_process_tree": groups,
            "ratio_terms": 4 * groups,
            "kl_terms": 4 * groups,
            "reward_stats": groups,
        }

    def test_file_commands_derive_rows_once_per_config(self, tmp_path, work, capsys):
        params = GenParams(seed=22, fork_bias=0.7, logp_mode=LOGP_RANDOM_CONSISTENT)
        path = tmp_path / "groups.jsonl"
        write_dump(path, [generate_random_group(params, i) for i in range(6)])
        assert main(["analyze", str(path)]) == 0
        assert work["ratio_terms"] == work["kl_terms"] == 6
        assert main(["verify", str(path)]) == 0
        assert work["ratio_terms"] == work["kl_terms"] == 6 + 6


def test_traced_layers_resolve(monkeypatch):
    # the benchmark's traced mode wraps these by name; a rename must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced_cli = importlib.import_module("traced_cli")
    for home, attr, _ in traced_cli.LAYER_CALLS:
        target = importlib.import_module(f"steptree.{home}")
        for name in attr.split("."):
            target = getattr(target, name)
        assert callable(target), (home, attr)


def traced_calls(tmp_path, args: list[str]) -> dict[str, int]:
    """Per-span call counts of one command under the benchmark's traced mode."""
    spans = tmp_path / "spans.json"
    result = run_python([str(PERFBENCH / "traced_cli.py"), str(spans), "--", *args])
    assert result.returncode == 0, result.stderr
    layers = json.loads(spans.read_text(encoding="utf-8"))["layers"]
    return {name: entry["calls"] for name, entry in layers.items()}


# spans of the step advantages and the three objectives, which a command
# computes only if it reads them
OBJECTIVE_SPANS = (
    "rewards.step_advantages",
    "objectives.objective_grpo",
    "objectives.objective_prm",
    "objectives.objective_lambda",
)


@pytest.mark.parametrize(
    "args, reads",
    [
        (["analyze"], {"objectives.objective_grpo", "objectives.objective_lambda"}),
        (["weights", "--objective", "lambda"], {"objectives.objective_lambda"}),
        (["weights", "--objective", "grpo"], {"objectives.objective_grpo"}),
        # the identities read the step advantages from the derivation's node table
        (["verify"], set(OBJECTIVE_SPANS) - {"rewards.step_advantages"}),
    ],
)
def test_each_command_computes_only_what_it_reads(tmp_path, args, reads):
    n = 4
    params = GenParams(seed=22, fork_bias=0.7, logp_mode=LOGP_RANDOM_CONSISTENT)
    path = tmp_path / "groups.jsonl"
    write_dump(path, [generate_random_group(params, i) for i in range(n)])
    command, *options = args
    calls = traced_calls(tmp_path, [command, str(path), *options])
    expected = {
        "core.reward_stats": n,
        "core.outcome_advantages": n,
        "tree.build_process_tree": n,
        "tree.assign_tokens": n,
        "objectives.ratio_kl": 2 * n,
        **{span: n if span in reads else 0 for span in OBJECTIVE_SPANS},
    }
    assert {span: calls.get(span, 0) for span in expected} == expected


def test_traced_mode_sees_calls_bound_at_call_time(tmp_path, dump):
    # commands import their modules when they run, after the tracer has
    # wrapped the layer functions, so the wrappers must still be the ones called
    config = tmp_path / "sim.cfg"
    config.write_text("steps = 2\nterminal_token = 3\nreward[3] = 1\n", encoding="utf-8")
    out = str(tmp_path / "out")
    calls = traced_calls(tmp_path, ["simulate", str(config), "-o", out])
    assert calls.get("sim.rollout_group") == 2
    assert calls.get("sim.analytic_gradient") == 2
    calls = traced_calls(tmp_path, ["analyze", str(dump), "--csv", out])
    assert calls.get("metrics.summary_add") == 2
    calls = traced_calls(tmp_path, ["verify", "--random", "2"])
    assert calls.get("verify.run_verification") == 1
    assert calls.get("verify.verify_proof_identities", 0) > 0


def malformed_probes(command: str) -> dict[str, tuple[list[str], object]]:
    """Probe name -> (extra arguments, input text or bytes) for one command.

    The dump commands read each malformed line alone (strict and lenient)
    and each overflowing group; ``report`` reads summaries ``analyze`` cannot
    write; ``simulate`` reads the configs of the simulate error tests.
    """
    if command == "simulate":
        texts = {
            "softmax": "seed = 1\nk = 8\nsteps = 3\ntemperature = 1e-300\nreward[3] = 1\n"
            "terminal_token = 3\n",
            "scenario": "scenario = warp\n",
            "one-step": "mode = one_step\n",
            "token": "vocab_size = 2\nmax_len = 2\nsteps = 2\nreward[5] = 1\n",
            "no-equals": "steps\n",
        }
        for n, (text, key) in enumerate(SIM_UNUSABLE):
            texts[f"unusable-{n}-{key}"] = "steps = 2\n" + text
        for n, (text, key) in enumerate(
            SIM_NON_FINITE + SIM_UNREAD + SIM_UNPARSABLE + SIM_REPEATED
        ):
            texts[f"{n}-{key}"] = text
    elif command == "report":
        texts = {
            "deep": "[" * 200_000,
            "not-json": "{",
            "array": "[]",
            "missing-field": '{"group_count": 1}',
            "long-fraction": _summary_text(proportion_sum="1/" + "3" * 5000),
            **{name: text for name, (text, _) in IMPOSSIBLE_SUMMARIES.items()},
        }
    else:
        texts = {"empty": "", "not-json": "not json\n"}
        for name, (line, _) in MALFORMED_LINES.items():
            texts[name] = line + "\n"
    probes = {name: ([], text) for name, text in texts.items()}
    probes["not-utf8"] = ([], b"\xff\xfe\n")
    if command in ("analyze", "weights", "verify", "tree"):
        for name, text in texts.items():
            probes[name + "-strict"] = (["--strict"], text)
        for case, (_, _, _, flags) in OVERFLOWS.items():
            text = serialize_group(overflow_group(case)) + "\n"
            probes["overflow-" + case] = ([] if command == "tree" else list(flags), text)
    return probes


def _valid_output(command: str, out: str) -> bool:
    if command in ("analyze", "simulate"):
        return bool(next(csv.reader(out.splitlines()), None))
    if command == "weights":
        return all(json.loads(line) for line in out.splitlines())
    if command == "verify":
        return all(line.startswith(("equivalence: ", "identities: ")) for line in out.splitlines())
    if command == "tree":
        return out.startswith("digraph process_tree {")
    return bool(json.loads(out))


@pytest.mark.parametrize("command", ["analyze", "weights", "verify", "tree", "report", "simulate"])
def test_malformed_input_never_ends_in_a_traceback(tmp_path, capsys, command):
    # each input either fails with one error line or runs to valid output
    cases = {"missing-file": ([], None), "directory": ([], tmp_path), **malformed_probes(command)}
    extra = ["--group-id", "wide"] if command == "tree" else []
    wrong = []
    for n, (name, (flags, content)) in enumerate(cases.items()):
        # a new file per input: rewriting one costs tens of ms on some file systems
        path = tmp_path / f"input-{n}"
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path = content or path
        code = main([command, str(path), *extra, *flags])
        out, err = capsys.readouterr()
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if code == 1:
            ok = len(errors) == 1 and err.endswith(errors[0] + "\n")
        else:
            ok = code == 0 and not errors and _valid_output(command, out)
        if not ok or "Traceback" in out + err:
            wrong.append((name, code, err[-200:]))
    assert wrong == []
