"""Command-line surface: analyze, tree, verify, weights, simulate, report.

Exit status: 0 on success, 1 on verification failure or an input, option
or config error (an ``error:`` line), 2 on usage errors (argparse's
convention). Each command imports the modules it runs when it is called,
so no command loads another's.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
from contextlib import closing, contextmanager, suppress
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, TextIO

from .core import DEFAULT_EPSILON, DEFAULT_TOL, Group, POPULATION, SAMPLE, check_nonnegative
from .objectives import DEFAULT_BETA, GRPO, LAMBDA, objective_grpo, objective_lambda
from .tree import DOT, EXPORT_FORMATS, build_process_tree, export_tree

if TYPE_CHECKING:
    from .verify import VerificationReport


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


# the fork pays from 24-64 KiB of bare dump and 128-384 KiB with log-probs (BENCH_21.json)
_FAN_OUT_MIN_BYTES = 1 << 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mapper(path: Optional[str] = None) -> Callable:
    """``_fan_out`` when a forked child can take half the work, else ``map``.

    That needs ``os.fork``, a single-threaded process, two usable CPUs and,
    for a file, a regular one of at least ``_FAN_OUT_MIN_BYTES`` (64 KiB).
    """
    if path is not None:
        try:
            info = os.stat(path)
        except OSError:  # the reader reports it
            return map
        if not stat.S_ISREG(info.st_mode) or info.st_size < _FAN_OUT_MIN_BYTES:
            return map
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1 or _usable_cpus() < 2:
        return map
    return _fan_out


def _start_on(cpus: list[int], index: int) -> None:
    """Move to ``cpus[index]``, then allow all of ``cpus`` again at once."""
    # a forked child tends to stay on its parent's CPU for hundreds of ms, even
    # with the other one idle; moved once, it stays put until the kernel has cause
    if len(cpus) > 1:
        with suppress(AttributeError, OSError):  # no such call, or not allowed
            os.sched_setaffinity(0, (cpus[index],))
            os.sched_setaffinity(0, cpus)


def _fan_out(func: Callable, items: Iterable) -> Iterator:
    """``map(func, items)``, with every second item mapped in a forked child.

    Both processes iterate ``items`` themselves, so it must yield the same
    items in each and share no open file between them. The child pipes its
    pickled results, or the exception it raised, and the parent yields
    them in item order between its own: what the caller sees, including the
    first exception and where it falls, is what ``map`` gives. A child that
    dies early is an OSError; where no child can be forked, the parent maps
    every item. The two start on two different CPUs (``_start_on``).
    """
    import _pickle as pickle  # the C pickler alone: pickle.py is not loaded
    import signal

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: map them all here
        os.close(read_fd)
        os.close(write_fd)
        yield from map(func, items)
        return
    if pid == 0:
        # the child leaves only through os._exit: no inherited buffer is
        # flushed and none of the caller's exit code runs
        try:
            _start_on(cpus, 1)
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                try:
                    for index, item in enumerate(items):
                        if index % 2:
                            pipe.write(pickle.dumps((True, func(item))))
                            pipe.flush()
                except Exception as exc:
                    pipe.write(pickle.dumps((False, exc)))
        finally:
            os._exit(0)
    _start_on(cpus, 0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            for index, item in enumerate(items):
                if index % 2 == 0:
                    yield func(item)
                    continue
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise OSError("the worker process ended before its results came") from None
                if not ok:
                    raise value
                yield value
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _dump_lines(path: str) -> Iterator[tuple[int, str]]:
    """The numbered non-blank lines of a dump, from a handle of their own."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if line.strip():
                yield line_no, line


def _read_groups(
    path: str, strict: bool, work: Callable = lambda group: group, mapper: Callable = map
) -> Iterator:
    """``work(group)`` for each group of the dump at ``path``, in file order.

    A dump that cannot be opened is an error here, before the caller opens
    any output; a FIFO is not tried, as that would take its writer's data.
    The reading opens the dump again, in each process that reads it. Each
    line is parsed where ``mapper`` runs ``work``, so a forked child of
    ``_fan_out`` parses its own share. A malformed line is an error under
    ``strict``, else skipped and named on stderr once the reading ends.
    """
    from .io import RecordError, iter_groups

    if not stat.S_ISFIFO(os.stat(path).st_mode):
        open(path, "rb").close()

    def parse(numbered: tuple[int, str]) -> tuple:
        line_no, line = numbered
        try:
            group = next(iter_groups([line]))
        except RecordError as err:
            # its number and message: pickle cannot rebuild a RecordError
            return (line_no, err.message), None
        return None, work(group)

    def read() -> Iterator:
        skipped: list[RecordError] = []
        try:
            for malformed, result in mapper(parse, _dump_lines(path)):
                if malformed is None:
                    yield result
                elif strict:
                    raise RecordError(*malformed)
                else:
                    skipped.append(RecordError(*malformed))
        finally:
            if skipped:
                print(f"skipped {len(skipped)} malformed line(s)", file=sys.stderr)
                for err in skipped[:5]:
                    print(f"  {err}", file=sys.stderr)

    return read()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .io import CSV_COLUMNS, effective_config
    from .metrics import MetricsSummary, group_metrics
    from .rewards import GroupDerivation

    summary = MetricsSummary()
    # closed here on an error, so the skip notice comes before the error line
    with closing(_read_groups(args.input, args.strict)) as groups, _open_out(args.csv) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for group in groups:
            derived = GroupDerivation(
                group, [effective_config(group, args.beta)], args.std, args.eps
            )
            metrics = group_metrics(derived.tree, group)
            summary.add(metrics)
            # each report is dropped once its value is read, so the two
            # per-token term tables are never held at once
            (terms,) = derived.terms
            value_grpo = objective_grpo(group, derived.advantages, terms).value
            value_lambda = objective_lambda(
                group, derived.assignment, derived.advantages, terms
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
    from .rewards import step_rewards

    for group in _read_groups(args.input, args.strict):
        if group.query_id == args.group_id:
            tree = build_process_tree(group)
            parts = export_tree(tree, group, args.format, step_rewards(tree, group))
            with _open_out(args.output) as out:
                out.writelines(parts)
            return 0
    raise ValueError(f"no group with query_id {args.group_id!r}")


def _print_report(name: str, report: Optional[VerificationReport]) -> None:
    if report is None:
        return
    status = "ok" if report.passed else "FAILED"
    print(
        f"{name}: {report.groups_checked} group(s), {report.trivial_count} trivial, "
        f"max rel gap {report.max_rel_gap:.3e} (tol {report.tol:.1e}) ... {status}"
    )
    for entry in report.failures[:5]:
        config = entry.config
        print(
            f"  failure: query_id={entry.query_id} rel_gap={entry.rel_gap:.3e} "
            f"check={entry.check} "
            f"config=beta={config.beta!r},unit_ratio={int(config.assume_unit_ratio)}"
        )


def _cmd_verify(args: argparse.Namespace) -> int:
    if (args.random is None) == (args.input is None):
        print("verify needs exactly one of an input file and --random N", file=sys.stderr)
        return 2
    from .io import effective_config
    from .verify import GenParams, check_group, record_checks, run_verification
    from .verify import verification_configs

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
            mapper=_mapper(),
        )
    else:

        def check(group: Group) -> tuple:
            configs = [effective_config(group, args.beta, assume_unit_ratio=False)]
            return check_group(group, configs, args.std, args.eps, not args.skip_identities)

        checks = _read_groups(args.input, args.strict, check, _mapper(args.input))
        equivalence, identities = record_checks(checks, args.tol, not args.skip_identities)
    _print_report("equivalence", equivalence)
    _print_report("identities", identities)
    failed = bool(equivalence.failures) or bool(identities and identities.failures)
    return 1 if failed else 0


def _cmd_weights(args: argparse.Namespace) -> int:
    from .io import weight_line, write_jsonl

    settings = (args.objective, args.beta, args.std, args.eps)
    # rendered inside the reader, so a failing group's error follows the skip notice
    lines = _read_groups(args.input, args.strict, lambda group: weight_line(group, *settings))
    with _open_out(args.output) as out:
        write_jsonl(lines, out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import run_config

    header, rows = run_config(args.config)
    with _open_out(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .io import unique_keys
    from .metrics import MetricsSummary

    merged = MetricsSummary()
    for path in args.summaries:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                summary = json.load(handle, object_pairs_hook=unique_keys)
            except (ValueError, RecursionError) as exc:  # not JSON, too deep, or a key twice
                raise ValueError(f"{path}: {exc}") from None
        merged = merged.merge(MetricsSummary.from_dict(summary))
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
