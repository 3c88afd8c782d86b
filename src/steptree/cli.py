"""Command-line surface: analyze, tree, verify, weights, simulate, report.

Exit status: 0 on success, 1 on verification failure or a strict-mode data
error, 2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO

from .core import (
    DEFAULT_EPSILON,
    Group,
    POPULATION,
    SAMPLE,
    outcome_advantages,
    reward_stats,
)
from .io import (
    CSV_COLUMNS,
    RecordError,
    effective_config,
    iter_groups,
    weight_record,
    write_jsonl,
)
from .metrics import MetricsSummary, group_metrics
from .objectives import (
    DEFAULT_BETA,
    GRPO,
    LAMBDA,
    objective_grpo,
    objective_lambda,
)
from .rewards import step_rewards
from .sim import (
    SimConfig,
    ToyEnv,
    ToyPolicy,
    exploitation_scenario,
    one_step_comparison,
    run_experiment,
)
from .tree import DOT, EXPORT_FORMATS, assign_tokens, build_process_tree, export_tree
from .verify import (
    DEFAULT_TOL,
    GenParams,
    IDENTITY_TOL,
    VerificationReport,
    run_verification,
    verification_configs,
    verify_proof_identities,
    verify_equivalence,
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--std",
        choices=(SAMPLE, POPULATION),
        default=SAMPLE,
        help="standard-deviation divisor convention (default: sample, i.e. k-1)",
    )
    common.add_argument(
        "--beta",
        type=float,
        default=DEFAULT_BETA,
        help=f"KL coefficient (default: {DEFAULT_BETA}; 0 disables the KL term)",
    )
    common.add_argument(
        "--eps",
        type=float,
        default=DEFAULT_EPSILON,
        help="std threshold below which advantages collapse to zero",
    )
    common.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="relative tolerance for equivalence verification",
    )
    common.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first malformed input line instead of skipping it",
    )

    parser = argparse.ArgumentParser(
        prog="steptree",
        description=(
            "Process-set trees, step-level rewards, and objective "
            "cross-checks for group-relative policy optimization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze",
        parents=[common],
        help="per-group metrics CSV plus an aggregate summary",
    )
    analyze.add_argument("input", help="JSONL group dump")
    analyze.add_argument("--csv", default="-", help="CSV output path (default stdout)")
    analyze.add_argument("--summary", help="write the mergeable summary JSON here")

    tree = sub.add_parser(
        "tree", parents=[common], help="export one group's process tree"
    )
    tree.add_argument("input", help="JSONL group dump")
    tree.add_argument("--group-id", required=True, help="query_id to export")
    tree.add_argument("--format", choices=EXPORT_FORMATS, default=DOT)
    tree.add_argument("-o", "--output", default="-")

    verify = sub.add_parser(
        "verify",
        parents=[common],
        help="equivalence and identity suites over a file or random groups",
    )
    verify.add_argument("input", nargs="?", help="JSONL group dump")
    verify.add_argument("--random", type=int, metavar="N", help="verify N generated groups")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--fork-bias", type=float, default=0.5)
    verify.add_argument("--k-max", type=int, default=16)
    verify.add_argument("--max-len", type=int, default=64)
    verify.add_argument(
        "--skip-identities",
        action="store_true",
        help="only check objective equivalence, not the per-node identities",
    )

    weights = sub.add_parser(
        "weights", parents=[common], help="emit per-token weight records"
    )
    weights.add_argument("input", help="JSONL group dump")
    weights.add_argument("--objective", choices=(GRPO, LAMBDA), default=GRPO)
    weights.add_argument("-o", "--output", default="-")

    simulate = sub.add_parser(
        "simulate", parents=[common], help="run a toy policy experiment"
    )
    simulate.add_argument("config", help="flat key = value config file")
    simulate.add_argument("-o", "--output", default="-")

    report = sub.add_parser(
        "report", parents=[common], help="merge aggregate summaries"
    )
    report.add_argument("summaries", nargs="+", help="summary JSON files to merge")
    report.add_argument("-o", "--output", default="-")

    return parser


@contextmanager
def _open_out(path: str) -> Iterator[TextIO]:
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _read_groups(path: str, strict: bool) -> Iterator[Group]:
    errors: list[RecordError] = []
    # the notice also covers lines skipped before a caller stops reading early
    try:
        with open(path, "r", encoding="utf-8") as handle:
            yield from iter_groups(handle, strict=strict, errors=errors)
    finally:
        if errors:
            print(f"skipped {len(errors)} malformed line(s)", file=sys.stderr)
            for err in errors[:5]:
                print(f"  {err}", file=sys.stderr)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_analyze(args: argparse.Namespace) -> int:
    summary = MetricsSummary()
    with _open_out(args.csv) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for group in _read_groups(args.input, args.strict):
            tree = build_process_tree(group)
            metrics = group_metrics(tree, group)
            summary.add(metrics)
            stats = reward_stats(group, args.std, args.eps)
            advantages = outcome_advantages(group, stats)
            config = effective_config(group, args.beta)
            assignment = assign_tokens(tree)
            value_grpo = objective_grpo(group, advantages, config).value
            value_lambda = objective_lambda(
                group, tree, assignment, advantages, config
            ).value
            writer.writerow(
                _csv_cell(v)
                for v in (
                    group.query_id,
                    group.step,
                    group.k,
                    metrics.trivial,
                    metrics.mean_depth,
                    metrics.max_depth,
                    metrics.mean_proportion,
                    value_grpo,
                    value_lambda,
                )
            )
    if args.summary:
        with _open_out(args.summary) as out:
            json.dump(summary.to_mergeable_dict(), out, indent=2)
            out.write("\n")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    for group in _read_groups(args.input, args.strict):
        if group.query_id == args.group_id:
            tree = build_process_tree(group)
            with _open_out(args.output) as out:
                out.write(
                    export_tree(tree, group, args.format, step_rewards(tree, group))
                )
            return 0
    print(f"no group with query_id {args.group_id!r}", file=sys.stderr)
    return 1


def _print_report(name: str, report: Optional[VerificationReport]) -> None:
    if report is None:
        return
    status = "ok" if report.passed else "FAILED"
    print(
        f"{name}: {report.groups_checked} group(s), {report.trivial_count} trivial, "
        f"max rel gap {report.max_rel_gap:.3e} (tol {report.tol:.1e}) ... {status}"
    )
    for seed, index, gap in report.failures[:5]:
        print(f"  failure: seed={seed} index={index} rel_gap={gap:.3e}")


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.random is None and args.input is None:
        print("verify needs an input file or --random N", file=sys.stderr)
        return 2
    if args.random is not None:
        params = GenParams(
            seed=args.seed,
            k_range=(2, args.k_max),
            length_range=(1, args.max_len),
            fork_bias=args.fork_bias,
        )
        equivalence, identities = run_verification(
            params,
            args.random,
            configs=verification_configs(args.beta),
            tol=args.tol,
            check_identities=not args.skip_identities,
            std_mode=args.std,
            epsilon=args.eps,
        )
    else:
        equivalence = VerificationReport(tol=args.tol)
        identities = (
            None if args.skip_identities else VerificationReport(tol=IDENTITY_TOL)
        )
        for index, group in enumerate(_read_groups(args.input, args.strict)):
            config = effective_config(group, args.beta, assume_unit_ratio=False)
            equivalence.record(
                args.seed,
                index,
                verify_equivalence(group, config, args.tol, args.std, args.eps),
            )
            if identities is not None:
                identities.record(
                    args.seed,
                    index,
                    verify_proof_identities(
                        group, config, IDENTITY_TOL, args.std, args.eps
                    ),
                )
    _print_report("equivalence", equivalence)
    _print_report("identities", identities)
    failed = bool(equivalence.failures) or bool(identities and identities.failures)
    return 1 if failed else 0


def _cmd_weights(args: argparse.Namespace) -> int:
    with _open_out(args.output) as out:
        write_jsonl(
            (
                weight_record(
                    group,
                    args.objective,
                    beta=args.beta,
                    std_mode=args.std,
                    epsilon=args.eps,
                )
                for group in _read_groups(args.input, args.strict)
            ),
            out,
        )
    return 0


def _parse_sim_config(path: str) -> dict:
    """Flat ``key = value`` file; reward entries use ``reward[1,2,3] = 0.5``."""
    values: dict = {}
    rewards: dict[tuple[int, ...], float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key.startswith("reward[") and key.endswith("]"):
                inner = key[len("reward[") : -1]
                seq = tuple(int(x) for x in inner.split(",") if x.strip() != "")
                rewards[seq] = float(value)
            else:
                values[key] = value
    values["rewards"] = rewards
    return values


def _sim_from_config(raw: dict) -> tuple[ToyPolicy, ToyEnv, SimConfig, str]:
    def get(key: str, default, cast):
        if key not in raw:
            return default
        return cast(raw[key])

    scenario = raw.get("scenario", "none")
    config = SimConfig(
        seed=get("seed", 0, int),
        k=get("k", 6, int),
        steps=get("steps", 10, int),
        learn_rate=get("learn_rate", 0.5, float),
        objective=raw.get("objective", GRPO),
        std_mode=raw.get("std_mode", SAMPLE),
        beta=get("beta", 0.0, float),
        epsilon=get("epsilon", DEFAULT_EPSILON, float),
    )
    if scenario == "exploitation":
        policy, env, _ = exploitation_scenario(
            concentration=get("concentration", 3.0, float)
        )
        mode = raw.get("mode", "one_step")
    elif scenario == "none":
        terminal = raw.get("terminal_token", "none")
        policy = ToyPolicy(
            vocab_size=get("vocab_size", 4, int),
            horizon=get("horizon", 8, int),
            temperature=get("temperature", 1.0, float),
            context_order=get("context_order", 4, int),
        )
        env = ToyEnv(
            reward_table=raw.get("rewards", {}),
            max_len=get("max_len", 8, int),
            terminal_token=None if terminal in ("none", "") else int(terminal),
        )
        mode = raw.get("mode", "series")
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    if mode not in ("series", "one_step"):
        raise ValueError(f"unknown mode {mode!r}")
    return policy, env, config, mode


def _cmd_simulate(args: argparse.Namespace) -> int:
    raw = _parse_sim_config(args.config)
    policy, env, config, mode = _sim_from_config(raw)
    with _open_out(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        if mode == "series":
            writer.writerow(
                ("step", "expected_reward", "best_sequence_prob", "objective_value")
            )
            for row in run_experiment(policy, env, config):
                writer.writerow(
                    _csv_cell(v)
                    for v in (
                        row.step,
                        row.expected_reward,
                        row.best_sequence_prob,
                        row.objective_value,
                    )
                )
        else:
            scenario = raw.get("scenario", "none")
            if scenario != "exploitation":
                print("one_step mode requires scenario = exploitation", file=sys.stderr)
                return 2
            _, _, group = exploitation_scenario(
                concentration=float(raw.get("concentration", 3.0))
            )
            comparison = one_step_comparison(
                policy, group, config, learn_rate=config.learn_rate
            )
            writer.writerow(
                (
                    "objective",
                    "shared_size",
                    "prefix_prob_before",
                    "prefix_prob_after",
                    "prefix_prob_delta",
                )
            )
            for shift in (comparison.grpo, comparison.lam):
                writer.writerow(
                    _csv_cell(v)
                    for v in (
                        shift.objective,
                        comparison.shared_size,
                        shift.prefix_prob_before,
                        shift.prefix_prob_after,
                        shift.prefix_prob_delta,
                    )
                )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    merged = MetricsSummary()
    for path in args.summaries:
        with open(path, "r", encoding="utf-8") as handle:
            merged = merged.merge(MetricsSummary.from_dict(json.load(handle)))
    with _open_out(args.output) as out:
        json.dump(merged.to_mergeable_dict(), out, indent=2)
        out.write("\n")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "tree": _cmd_tree,
    "verify": _cmd_verify,
    "weights": _cmd_weights,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
