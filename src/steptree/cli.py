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
    check_nonnegative,
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
    token_terms,
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
    # each subcommand takes only the shared flags it reads
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first malformed input line instead of skipping it",
    )
    data = argparse.ArgumentParser(add_help=False, parents=[strict])
    data.add_argument(
        "--std",
        choices=(SAMPLE, POPULATION),
        default=SAMPLE,
        help="standard-deviation divisor convention (default: sample, i.e. k-1)",
    )
    data.add_argument(
        "--beta",
        type=float,
        default=DEFAULT_BETA,
        help=f"KL coefficient (default: {DEFAULT_BETA}; 0 disables the KL term)",
    )
    data.add_argument(
        "--eps",
        type=float,
        default=DEFAULT_EPSILON,
        help="std threshold below which advantages collapse to zero",
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
        parents=[data],
        help="per-group metrics CSV plus an aggregate summary",
    )
    analyze.add_argument("input", help="JSONL group dump")
    analyze.add_argument("--csv", default="-", help="CSV output path (default stdout)")
    analyze.add_argument("--summary", help="write the mergeable summary JSON here")

    tree = sub.add_parser(
        "tree", parents=[strict], help="export one group's process tree"
    )
    tree.add_argument("input", help="JSONL group dump")
    tree.add_argument("--group-id", required=True, help="query_id to export")
    tree.add_argument("--format", choices=EXPORT_FORMATS, default=DOT)
    tree.add_argument("-o", "--output", default="-")

    verify = sub.add_parser(
        "verify",
        parents=[data],
        help="equivalence and identity suites over a file or random groups",
    )
    verify.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="relative tolerance for equivalence verification",
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
        "weights", parents=[data], help="emit per-token weight records"
    )
    weights.add_argument("input", help="JSONL group dump")
    weights.add_argument("--objective", choices=(GRPO, LAMBDA), default=GRPO)
    weights.add_argument("-o", "--output", default="-")

    simulate = sub.add_parser("simulate", help="run a toy policy experiment")
    simulate.add_argument("config", help="flat key = value config file")
    simulate.add_argument("-o", "--output", default="-")

    report = sub.add_parser("report", help="merge aggregate summaries")
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
            terms = token_terms(group, effective_config(group, args.beta))
            assignment = assign_tokens(tree)
            value_grpo = objective_grpo(group, advantages, terms).value
            value_lambda = objective_lambda(group, assignment, advantages, terms).value
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
    for query_id, gap in report.failures[:5]:
        print(f"  failure: query_id={query_id} rel_gap={gap:.3e}")


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
        for group in _read_groups(args.input, args.strict):
            configs = [effective_config(group, args.beta, assume_unit_ratio=False)]
            equivalence.record(verify_equivalence(group, configs, args.std, args.eps))
            if identities is not None:
                identities.record(
                    verify_proof_identities(group, configs, args.std, args.eps)
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
    """Flat ``key = value`` file; ``reward[1,2] = 0.5`` lines form ``reward[...]``."""
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
    if rewards:
        values["reward[...]"] = rewards
    return values


def _sim_from_config(
    raw: dict,
) -> tuple[ToyPolicy, ToyEnv, Optional[Group], SimConfig, str]:
    """The policy, environment, built-in group, config and mode of a run.

    Every key must be read by the chosen scenario and mode; any other key
    is an error naming it.
    """
    unread = dict(raw)

    def get(key: str, default, cast=str):
        return cast(unread.pop(key)) if key in unread else default

    scenario = get("scenario", "none")
    if scenario == "exploitation":
        policy, env, group = exploitation_scenario(get("concentration", 3.0, float))
        mode = get("mode", "one_step")
    elif scenario == "none":
        terminal = get("terminal_token", "none")
        policy = ToyPolicy(
            vocab_size=get("vocab_size", 4, int),
            horizon=get("horizon", 8, int),
            temperature=get("temperature", 1.0, float),
            context_order=get("context_order", 4, int),
        )
        env = ToyEnv(
            reward_table=get("reward[...]", {}, dict),
            max_len=get("max_len", 8, int),
            terminal_token=None if terminal in ("none", "") else int(terminal),
        )
        group = None
        mode = get("mode", "series")
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    if mode == "series":
        series = dict(
            seed=get("seed", 0, int),
            k=get("k", 6, int),
            steps=get("steps", 10, int),
            objective=get("objective", GRPO),
        )
    elif mode == "one_step":
        series = {}  # one step of each objective on the built-in group
    else:
        raise ValueError(f"unknown mode {mode!r}")
    config = SimConfig(
        learn_rate=get("learn_rate", 0.5, float),
        std_mode=get("std_mode", SAMPLE),
        epsilon=get("epsilon", DEFAULT_EPSILON, float),
        **series,
    )
    if unread:
        key = next(iter(unread))
        raise ValueError(
            f"config key {key!r} is not read by scenario {scenario!r} in {mode} mode"
        )
    return policy, env, group, config, mode


def _cmd_simulate(args: argparse.Namespace) -> int:
    policy, env, group, config, mode = _sim_from_config(_parse_sim_config(args.config))
    if mode == "one_step" and group is None:
        print("one_step mode requires scenario = exploitation", file=sys.stderr)
        return 2
    if mode == "series":
        header = ("step", "expected_reward", "best_sequence_prob", "objective_value")
        rows = [
            (row.step, row.expected_reward, row.best_sequence_prob, row.objective_value)
            for row in run_experiment(policy, env, config)
        ]
    else:
        comparison = one_step_comparison(policy, group, config)
        header = (
            "objective",
            "shared_size",
            "prefix_prob_before",
            "prefix_prob_after",
            "prefix_prob_delta",
        )
        rows = [
            (
                shift.objective,
                comparison.shared_size,
                shift.prefix_prob_before,
                shift.prefix_prob_after,
                shift.prefix_prob_delta,
            )
            for shift in (comparison.grpo, comparison.lam)
        ]
    with _open_out(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)
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
        # option values are checked before a command writes any output
        for flag, name in (("beta", "beta"), ("eps", "epsilon"), ("tol", "tol")):
            if flag in args:
                check_nonnegative(getattr(args, flag), name)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
