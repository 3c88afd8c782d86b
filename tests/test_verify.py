from dataclasses import replace

import pytest

from steptree import (
    ObjectiveConfig,
    build_process_tree,
    is_trivial,
    verify_proof_identities,
    verify_equivalence,
)
from steptree.verify import (
    GenParams,
    LOGP_RANDOM_CONSISTENT,
    VerificationReport,
    degenerate_groups,
    generate_random_group,
    run_verification,
    verification_configs,
)

UNIT = ObjectiveConfig(beta=0.0, assume_unit_ratio=True)
FULL = ObjectiveConfig(beta=0.04, assume_unit_ratio=False)


class TestGenerator:
    def test_deterministic(self):
        params = GenParams(seed=9, logp_mode=LOGP_RANDOM_CONSISTENT)
        for index in (0, 3, 17):
            assert generate_random_group(params, index) == generate_random_group(
                params, index
            )

    def test_different_indices_differ(self):
        params = GenParams(seed=9)
        assert generate_random_group(params, 0) != generate_random_group(params, 1)

    def test_k_and_lengths_in_range(self):
        params = GenParams(seed=10, k_range=(3, 5), length_range=(2, 6), fork_bias=0.0)
        for index in range(30):
            group = generate_random_group(params, index)
            assert 3 <= group.k <= 5
            # degenerate prefix draws may shorten below the range floor
            assert all(len(t) <= 6 for t in group.trajectories)

    def test_forced_distinct_first_tokens_trivial(self):
        params = GenParams(
            seed=11,
            k_range=(2, 5),
            vocab_size=8,
            fork_bias=0.0,
            force_distinct_first=True,
        )
        for index in range(30):
            tree = build_process_tree(generate_random_group(params, index))
            assert is_trivial(tree)

    def test_full_fork_bias_always_shares(self):
        # every trajectory after the first copies at least one token of an
        # earlier one, so some process set of size >= 2 owns a real span;
        # with k=2 that set can be the root itself, which the literal
        # triviality definition still counts as trivial
        params = GenParams(seed=12, k_range=(2, 6), length_range=(2, 8), fork_bias=1.0)
        nontrivial = 0
        for index in range(50):
            tree = build_process_tree(generate_random_group(params, index))
            assert any(n.size >= 2 and n.span_len >= 1 for n in tree.nodes)
            nontrivial += not is_trivial(tree)
        assert nontrivial >= 30

    def test_degenerate_draws_occur(self):
        params = GenParams(seed=13, k_range=(4, 8), length_range=(2, 6), fork_bias=0.3)
        saw_duplicate = False
        saw_strict_prefix = False
        for index in range(300):
            seqs = [t.tokens for t in generate_random_group(params, index).trajectories]
            for a in range(len(seqs)):
                for b in range(len(seqs)):
                    if a == b:
                        continue
                    if seqs[a] == seqs[b]:
                        saw_duplicate = True
                    elif seqs[a] == seqs[b][: len(seqs[a])]:
                        saw_strict_prefix = True
        assert saw_duplicate
        assert saw_strict_prefix

    def test_consistent_logps_on_shared_prefixes(self):
        params = GenParams(seed=14, fork_bias=0.9, logp_mode=LOGP_RANDOM_CONSISTENT)
        for index in range(30):
            group = generate_random_group(params, index)
            for a in group.trajectories:
                for b in group.trajectories:
                    shared = 0
                    for x, y in zip(a.tokens, b.tokens):
                        if x != y:
                            break
                        shared += 1
                    assert a.logp_new[:shared] == b.logp_new[:shared]
                    assert a.logp_old[:shared] == b.logp_old[:shared]
                    assert a.logp_ref[:shared] == b.logp_ref[:shared]

    def test_logps_absent_by_default(self):
        group = generate_random_group(GenParams(seed=15), 0)
        assert all(t.logp_new is None for t in group.trajectories)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GenParams(k_range=(1, 4))
        with pytest.raises(ValueError):
            GenParams(vocab_size=1)
        with pytest.raises(ValueError):
            GenParams(fork_bias=1.5)
        with pytest.raises(ValueError):
            GenParams(reward_dist="poisson")
        with pytest.raises(ValueError):
            GenParams(force_distinct_first=True, vocab_size=4, k_range=(2, 8))


class TestEquivalence:
    def test_overlap_gap_within_tolerance(self, overlap_group):
        entry = verify_equivalence(overlap_group, [UNIT])
        assert entry.abs_gap < 1e-12
        assert entry.rel_gap < 1e-12
        assert not entry.trivial

    def test_trivial_group_gap_exactly_zero(self, trivial_group):
        # identical term multisets on both paths, and fsum is exact
        entry = verify_equivalence(trivial_group, [UNIT])
        assert entry.abs_gap == 0.0
        assert entry.trivial

    def test_random_suite(self):
        params = GenParams(seed=16, k_range=(2, 10), length_range=(1, 32), fork_bias=0.5)
        equivalence, identities = run_verification(
            params, 150, configs=verification_configs(0.04)
        )
        assert equivalence.passed
        assert equivalence.max_rel_gap <= 1e-9
        assert identities.passed
        assert identities.max_rel_gap <= 1e-12
        assert equivalence.groups_checked == 150 + len(degenerate_groups(True))

    def test_large_group_keeps_identity_tolerance(self):
        # beyond 4096 total tokens the exact compensated accumulation has
        # to carry the 1e-12 identity budget
        params = GenParams(
            seed=19,
            k_range=(8, 8),
            length_range=(500, 700),
            fork_bias=0.8,
            reward_dist="uniform",
            logp_mode=LOGP_RANDOM_CONSISTENT,
        )
        group = generate_random_group(params, 0)
        assert group.total_tokens > 4096
        assert verify_equivalence(group, [FULL]).rel_gap <= 1e-12
        assert verify_proof_identities(group, [FULL]).rel_gap <= 1e-12

    def test_inconsistent_logps_break_equivalence(self):
        # two completions share their first token but disagree on its
        # log-probability, which no single policy could produce; the
        # objective equivalence genuinely fails on such data
        from steptree import Group, Trajectory

        group = Group(
            query_id="bad",
            trajectories=(
                Trajectory(tokens=(1, 2), reward=1.0, logp_new=(-0.5, -0.5), logp_old=(-1.5, -0.5)),
                Trajectory(tokens=(1, 3), reward=0.0, logp_new=(-2.5, -0.5), logp_old=(-0.2, -0.5)),
            ),
        )
        entry = verify_equivalence(group, [ObjectiveConfig(beta=0.0, assume_unit_ratio=False)])
        assert entry.rel_gap > 1e-6


class TestConfigSweep:
    @pytest.mark.parametrize("check", [verify_equivalence, verify_proof_identities])
    def test_sweep_returns_worst_entry(self, check):
        configs = verification_configs(0.04)
        params = GenParams(seed=20, fork_bias=0.8, logp_mode=LOGP_RANDOM_CONSISTENT)
        for index in range(10):
            group = generate_random_group(params, index)
            singles = [check(group, [config]) for config in configs]
            swept = check(group, configs)
            assert swept.query_id == group.query_id
            assert swept.rel_gap == max(e.rel_gap for e in singles)
            assert swept.abs_gap == max(e.abs_gap for e in singles)
            assert swept in [
                replace(e, abs_gap=swept.abs_gap) for e in singles
            ]


class TestIdentities:
    def test_overlap(self, overlap_group):
        entry = verify_proof_identities(overlap_group, [UNIT])
        assert entry.rel_gap < 1e-12

    def test_overlap_with_ratio_and_kl(self, overlap_group_logps):
        entry = verify_proof_identities(overlap_group_logps, [FULL])
        assert entry.rel_gap < 1e-12

    def test_degenerate_cases(self):
        for group in degenerate_groups(with_logps=True):
            for config in (UNIT, FULL):
                entry = verify_proof_identities(group, [config])
                assert entry.rel_gap < 1e-12, group.query_id

    def test_constant_rewards_kl_side_still_checked(self):
        group = [g for g in degenerate_groups(True) if "constant" in g.query_id][0]
        entry = verify_proof_identities(group, [FULL])
        assert entry.rel_gap < 1e-12
        # advantage side is all zero; the value reduces to the KL part
        assert entry.value_a < 0.0


class TestReport:
    def test_merge(self):
        a = VerificationReport(tol=1e-9)
        b = VerificationReport(tol=1e-9)
        params = GenParams(seed=17)
        for index in range(10):
            entry = verify_equivalence(generate_random_group(params, index), [UNIT])
            (a if index % 2 else b).record(entry)
        merged = a.merge(b)
        assert merged.groups_checked == 10
        assert merged.max_rel_gap == max(a.max_rel_gap, b.max_rel_gap)
        assert merged.trivial_count == a.trivial_count + b.trivial_count

    def test_merge_requires_same_tol(self):
        with pytest.raises(ValueError):
            VerificationReport(tol=1e-9).merge(VerificationReport(tol=1e-12))

    def test_failures_recorded_not_raised(self):
        report = VerificationReport(tol=1e-30)
        params = GenParams(seed=18, fork_bias=0.9, logp_mode=LOGP_RANDOM_CONSISTENT)
        for index in range(5):
            entry = verify_equivalence(generate_random_group(params, index), [FULL])
            report.record(entry)
        assert not report.passed
        assert all(gap > 1e-30 for _, gap in report.failures)
        checked = {f"rand-18-{index}" for index in range(5)}
        assert {query_id for query_id, _ in report.failures} <= checked
