import csv
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

from steptree import group_from_sequences
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

from conftest import make_overlap_group, make_trivial_group

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

    def test_needs_input_or_random(self, capsys):
        assert main(["verify"]) == 2


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


class TestSimulate:
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

    def test_bad_config_key(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("scenario = warp\n", encoding="utf-8")
        assert main(["simulate", str(config)]) == 1
        assert "scenario" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("steps = 2\nlerning_rate = 9\n", "lerning_rate"),
            ("steps = 2\nbeta = 0\n", "beta"),
            ("steps = 2\nconcentration = 2\n", "concentration"),
            ("scenario = exploitation\nvocab_size = 3\n", "vocab_size"),
            ("scenario = exploitation\nreward[1,2] = 1\n", "reward[...]"),
            ("scenario = exploitation\nobjective = lambda\n", "objective"),
        ],
    )
    def test_key_the_run_never_reads(self, tmp_path, capsys, text, key):
        config = tmp_path / "sim.cfg"
        config.write_text(text, encoding="utf-8")
        assert main(["simulate", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config key {key!r} is not read")

    def test_readme_configs_run(self, tmp_path, capsys):
        blocks = README.read_text(encoding="utf-8").split("```ini\n")[1:]
        assert len(blocks) == 2
        for n, block in enumerate(blocks):
            config = tmp_path / f"readme{n}.cfg"
            config.write_text(block.split("```")[0], encoding="utf-8")
            assert main(["simulate", str(config), "-o", str(tmp_path / "out.csv")]) == 0


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
        ],
    )
    def test_malformed_summary_is_an_error(self, tmp_path, capsys, text, named):
        path = tmp_path / "summary.json"
        path.write_text(text + "\n", encoding="utf-8")
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err


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


def test_chain_deeper_than_recursion_limit(tmp_path, capsys):
    # completion j is a strict prefix of completion j + 1, so the tree is k
    # levels deep, deeper than the default recursion limit
    k = 1200
    chain = group_from_sequences(
        "chain", [[1] * (j + 1) for j in range(k)], [float(j % 2) for j in range(k)]
    )
    path = tmp_path / "chain.jsonl"
    write_dump(path, [chain])
    assert main(["analyze", str(path)]) == 0
    assert main(["weights", str(path), "--objective", "lambda"]) == 0
    assert main(["verify", str(path), "--skip-identities"]) == 0
    out = capsys.readouterr().out
    assert "equivalence: 1 group(s)" in out
    assert out.rstrip().endswith("... ok")


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
            "build_process_tree": 2 * groups,
            "ratio_terms": 8 * groups,
            "kl_terms": 8 * groups,
            "reward_stats": 2 * groups,
        }

    def test_file_commands_derive_rows_once_per_config(self, tmp_path, work, capsys):
        params = GenParams(seed=22, fork_bias=0.7, logp_mode=LOGP_RANDOM_CONSISTENT)
        path = tmp_path / "groups.jsonl"
        write_dump(path, [generate_random_group(params, i) for i in range(6)])
        assert main(["analyze", str(path)]) == 0
        assert work["ratio_terms"] == work["kl_terms"] == 6
        assert main(["verify", str(path)]) == 0
        assert work["ratio_terms"] == work["kl_terms"] == 6 + 2 * 6


def test_traced_layers_resolve(monkeypatch):
    # the benchmark's traced mode wraps these by name; a rename must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced_cli = importlib.import_module("traced_cli")
    for home, attr, _ in traced_cli.LAYER_CALLS:
        target = importlib.import_module(f"steptree.{home}")
        for name in attr.split("."):
            target = getattr(target, name)
        assert callable(target), (home, attr)
