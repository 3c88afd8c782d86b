import csv
import importlib
import json
from pathlib import Path

import pytest

from steptree import group_from_sequences
from steptree.cli import main
from steptree.io import serialize_group
from steptree.verify import GenParams, LOGP_RANDOM_CONSISTENT, generate_random_group

from conftest import make_overlap_group, make_trivial_group

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


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
        assert "FAILED" in capsys.readouterr().out

    def test_needs_input_or_random(self, capsys):
        assert main(["verify"]) == 2


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

    def test_bad_config_key(self, tmp_path, capsys):
        config = tmp_path / "sim.cfg"
        config.write_text("scenario = warp\n", encoding="utf-8")
        assert main(["simulate", str(config)]) == 1
        assert "scenario" in capsys.readouterr().err


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
        [('{"group_count": 1}', "trajectory_count"), ("[]", "JSON object")],
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


def test_traced_layers_resolve(monkeypatch):
    # the benchmark's traced mode wraps these by name; a rename must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced_cli = importlib.import_module("traced_cli")
    for home, attr, _ in traced_cli.LAYER_CALLS:
        target = importlib.import_module(f"steptree.{home}")
        for name in attr.split("."):
            target = getattr(target, name)
        assert callable(target), (home, attr)
