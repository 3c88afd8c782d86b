import json
from dataclasses import replace

import pytest

from steptree import DEFAULT_BETA, GRPO, LAMBDA, group_from_sequences
from steptree.io import (
    RecordError,
    effective_config,
    group_to_record,
    iter_groups,
    parse_group_record,
    serialize_group,
    weight_line,
    weight_record,
)
from steptree.verify import (
    GenParams,
    LOGP_ABSENT,
    LOGP_RANDOM_CONSISTENT,
    degenerate_groups,
    generate_random_group,
)

from conftest import make_overlap_group


class TestRoundTrip:
    def test_overlap_with_logps(self):
        group = make_overlap_group(with_logps=True, step=12)
        line = serialize_group(group)
        assert "\n" not in line
        back = next(iter(iter_groups([line])))
        assert back == group

    def test_random_groups_lossless(self):
        params = GenParams(
            seed=51, fork_bias=0.6, reward_dist="uniform", logp_mode=LOGP_RANDOM_CONSISTENT
        )
        for index in range(200):
            group = generate_random_group(params, index)
            assert next(iter(iter_groups([serialize_group(group)]))) == group

    def test_serialization_deterministic(self):
        group = make_overlap_group(with_logps=True)
        assert serialize_group(group) == serialize_group(group)

    def test_full_precision_floats(self):
        group = make_overlap_group(with_logps=True)
        record = json.loads(serialize_group(group))
        assert record["completions"][0]["logp"][0] == group.trajectories[0].logp_new[0]


class TestParsing:
    def test_line_numbers_in_errors(self):
        lines = [
            serialize_group(make_overlap_group()),
            '{"query_id": "bad", "completions": [{"tokens": [1], "reward": 0.0, "logp": [-0.1, -0.2]}, {"tokens": [2], "reward": 1.0}]}',
        ]
        with pytest.raises(RecordError, match="line 2"):
            list(iter_groups(lines))

    def test_malformed_json(self):
        with pytest.raises(RecordError, match="line 1"):
            list(iter_groups(["{not json"]))

    def test_nan_rejected(self):
        line = '{"query_id": "x", "completions": [{"tokens": [1], "reward": NaN}, {"tokens": [2], "reward": 0.0}]}'
        with pytest.raises(RecordError, match="line 1"):
            list(iter_groups([line]))

    def test_infinity_rejected(self):
        line = '{"query_id": "x", "completions": [{"tokens": [1], "reward": Infinity}, {"tokens": [2], "reward": 0.0}]}'
        with pytest.raises(RecordError):
            list(iter_groups([line]))

    def test_empty_input(self):
        assert list(iter_groups([])) == []
        assert list(iter_groups(["", "   ", "\n"])) == []

    def test_single_completion_rejected(self):
        line = '{"query_id": "x", "completions": [{"tokens": [1], "reward": 0.0}]}'
        with pytest.raises(RecordError, match="two"):
            list(iter_groups([line]))

    def test_missing_query_id(self):
        with pytest.raises(ValueError, match="query_id"):
            parse_group_record({"completions": []})

    def test_unknown_completion_key(self):
        record = {
            "query_id": "x",
            "completions": [
                {"tokens": [1], "reward": 0.0, "logprobs": [-0.1]},
                {"tokens": [2], "reward": 1.0},
            ],
        }
        with pytest.raises(ValueError, match="unknown keys"):
            parse_group_record(record)

    def test_boolean_reward_rejected(self):
        record = {
            "query_id": "x",
            "completions": [
                {"tokens": [1], "reward": True},
                {"tokens": [2], "reward": 1.0},
            ],
        }
        with pytest.raises(ValueError, match="number"):
            parse_group_record(record)

    def test_float_token_rejected(self):
        record = {
            "query_id": "x",
            "completions": [
                {"tokens": [1.5], "reward": 0.0},
                {"tokens": [2], "reward": 1.0},
            ],
        }
        with pytest.raises(ValueError, match="integers"):
            parse_group_record(record)

    def test_step_round_trips(self):
        group = make_overlap_group(step=44)
        assert group_to_record(group)["step"] == 44
        back = next(iter(iter_groups([serialize_group(group)])))
        assert back.step == 44


class TestWeightRecords:
    def test_structure(self):
        group = make_overlap_group()
        record = weight_record(group, LAMBDA)
        assert record["query_id"] == "overlap"
        assert record["objective"] == LAMBDA
        assert len(record["completions"]) == group.k
        for i, completion in enumerate(record["completions"]):
            n = len(group.trajectories[i])
            assert len(completion["token_advantage"]) == n
            assert len(completion["lambda_weight"]) == n

    def test_values(self):
        group = make_overlap_group()
        record = weight_record(group, GRPO)
        assert record["completions"][2]["lambda_weight"][0] == pytest.approx(1.0 / 3.0)
        assert record["completions"][0]["lambda_weight"][3] == 1.0
        assert record["completions"][2]["advantage"] == pytest.approx(
            1.5498260496951666, abs=1e-15
        )
        assert record["objective_value"] == pytest.approx(-0.13023748316766112, abs=1e-12)
        assert record["loss"] == -record["objective_value"]

    def test_lambda_objective_value(self):
        record = weight_record(make_overlap_group(), LAMBDA)
        assert record["objective_value"] == pytest.approx(-0.032559370791915315, abs=1e-12)

    def test_token_advantage_matches_step_structure(self):
        group = make_overlap_group()
        record = weight_record(group, GRPO)
        shared = record["completions"][2]["token_advantage"][0]
        assert shared == pytest.approx(-0.22140372138502393, abs=1e-15)
        assert record["completions"][3]["token_advantage"][0] == shared

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            weight_record(make_overlap_group(), "prm")
        with pytest.raises(ValueError):
            weight_line(make_overlap_group(), "prm")


def _weight_line_groups() -> list:
    groups = []
    for seed, bias in enumerate((0.0, 0.5, 1.0)):
        for logp_mode, dist in ((LOGP_ABSENT, "bernoulli"), (LOGP_RANDOM_CONSISTENT, "uniform")):
            params = GenParams(
                seed=70 + seed,
                k_range=(2, 12),
                length_range=(0, 24),
                fork_bias=bias,
                reward_dist=dist,
                logp_mode=logp_mode,
            )
            for index in range(35):
                group = generate_random_group(params, index)
                groups.append(replace(group, step=index) if index % 2 else group)
    groups += degenerate_groups(True) + degenerate_groups(False)
    # -0.0 outcome advantages next to 0.0 step advantages in one record
    sequences = [(1, 1), (1, 1), (2,), (3,)]
    groups.append(group_from_sequences("zero", sequences, [-0.0, -0.0, 1.0, -1.0]))
    groups.append(group_from_sequences('q"\\\u00e9\u4e2d', sequences, [0.25, 0.0, 1.0, 0.5], step=-7))
    return groups


class TestWeightLine:
    @pytest.mark.parametrize("objective", [GRPO, LAMBDA])
    def test_equals_the_dumped_record(self, objective):
        groups = _weight_line_groups()
        assert len(groups) >= 200
        for group in groups:
            for beta in (0.0, DEFAULT_BETA):
                record = weight_record(group, objective, beta=beta)
                line = weight_line(group, objective, beta=beta)
                assert line == json.dumps(record, separators=(",", ":")), group.query_id

    def test_signed_zeros_stay_apart(self):
        sequences = [(1, 1), (1, 1), (2,), (3,)]
        group = group_from_sequences("zero", sequences, [-0.0, -0.0, 1.0, -1.0])
        line = weight_line(group, LAMBDA)
        assert '{"advantage":-0.0,"token_advantage":[0.0,0.0],' in line


class TestEffectiveConfig:
    def test_bare_dump_downgrades(self):
        config = effective_config(make_overlap_group(), beta=0.04)
        assert config.beta == 0.0
        assert config.assume_unit_ratio

    def test_full_dump_keeps_beta(self):
        config = effective_config(make_overlap_group(with_logps=True), beta=0.04)
        assert config.beta == 0.04
        assert config.assume_unit_ratio

    def test_ratio_enabled_when_requested_and_present(self):
        config = effective_config(
            make_overlap_group(with_logps=True), beta=0.04, assume_unit_ratio=False
        )
        assert not config.assume_unit_ratio
