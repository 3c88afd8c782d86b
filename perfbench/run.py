"""steptree benchmark: CLI commands timed end to end, layers timed by tracing.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` each of the workload's commands runs as one child process
at a time, round after round, for about S seconds (at least three rounds),
and each command's end-to-end metric is its total work over its total wall
time in the run (set-up time is a median). With ``--trace 1`` each round runs every command once
untraced and once under ``traced_cli.py``, and the per-layer metrics are
self times per round.

Every child's output is checked: its exit status, its digest against the one
recorded in ``reference.json`` for the same (workload, seed, command) when
there is one and otherwise against the first run of the same command in this
run, the verification gaps in ``verify`` output, and, when traced, that the
traced output equals the untraced one. The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds provenance and the sample counts behind each metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench-cache")

sys.path.insert(0, HERE)
from measure import (  # noqa: E402
    Spawner,
    calibrate,
    digest_bytes,
    digest_files,
    tail_percentile,
)

MIN_ROUNDS = 3
# No new round starts this long after the benchmark began, whatever --seconds says.
ROUND_CUTOFF_S = 120.0
# Set-up is timed three times a round, since its metric is a median.
ROUND = ("setup", "analyze", "weights", "setup", "verify", "verify_equiv", "setup", "suite", "simulate")
TRACED = ("analyze", "weights", "verify", "verify_equiv", "suite", "simulate")
LATENCY_BETA = 0.04
EQUIV_TOL = 1e-9
IDENTITY_TOL = 1e-12

END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_tok_s": "tokens/s",
    "weights_tok_s": "tokens/s",
    "verify_tok_s": "tokens/s",
    "verify_equiv_tok_s": "tokens/s",
    "suite_groups_s": "groups/s",
    "sim_steps_s": "steps/s",
    "group_ms_p50": "ms",
    "group_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

_GAP_LINE = re.compile(r"^(equivalence|identities): .* max rel gap (\S+) \(tol")


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...] = ()


def build_commands(inputs, out_dir: str) -> dict[str, Command]:
    from workloads import SUITE_FLAGS, SUITE_GROUPS

    data = inputs.path("groups.jsonl")

    def out(name: str) -> str:
        return os.path.join(out_dir, name)

    commands = (
        Command("setup", ("analyze", inputs.path("empty.jsonl"), "--summary", out("setup.json")), (out("setup.json"),)),
        Command("analyze", ("analyze", data, "--summary", out("summary.json")), (out("summary.json"),)),
        Command("weights", ("weights", data, "--objective", "lambda", "-o", out("weights.jsonl")), (out("weights.jsonl"),)),
        Command("verify", ("verify", data)),
        Command("verify_equiv", ("verify", data, "--skip-identities")),
        Command(
            "suite",
            ("verify", "--random", str(SUITE_GROUPS), "--seed", str(inputs.seed)) + SUITE_FLAGS,
        ),
        Command("simulate", ("simulate", inputs.path("sim.cfg"), "-o", out("simulate.csv")), (out("simulate.csv"),)),
    )
    return {c.name: c for c in commands}


class Ledger:
    """Attempted and failed operations, with the checks that decide failure."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.gaps = {"equivalence": 0.0, "identities": 0.0}

    def record(self, name: str, problems: list[str]) -> None:
        """One attempted operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")

    def digest_problems(self, name: str, digest: str) -> list[str]:
        """Checks ``digest`` against the reference, else the first run of ``name``."""
        expected = self.reference.get(name) or self.first.setdefault(name, digest)
        if digest != expected:
            return [f"output digest {digest[:12]} differs from {expected[:12]}"]
        return []

    def gap_problems(self, stdout: str, want_identities: bool) -> list[str]:
        """Checks the max relative gaps that ``verify`` printed against tolerance."""
        found = {}
        for line in stdout.splitlines():
            match = _GAP_LINE.match(line)
            if match:
                found[match.group(1)] = float(match.group(2))
        problems = []
        for kind in ("equivalence", "identities") if want_identities else ("equivalence",):
            tol = EQUIV_TOL if kind == "equivalence" else IDENTITY_TOL
            if kind not in found:
                problems.append(f"no {kind} line in output")
            elif not found[kind] <= tol:
                problems.append(f"{kind} gap {found[kind]:.3e} above {tol:.0e}")
            else:
                self.gaps[kind] = max(self.gaps[kind], found[kind])
        return problems

    @property
    def failed(self) -> int:
        return len(self.failures)


def child_env() -> dict:
    """The environment of every child: this one, with ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def input_digest(inputs) -> str:
    """One digest over the generated input files."""
    return digest_bytes([inputs.digests[name].encode() for name in sorted(inputs.digests)])


class Runner:
    """Runs commands as child processes and checks their outputs."""

    def __init__(self, spawner: Spawner, commands: dict[str, Command], out_dir: str, ledger: Ledger):
        self.spawner = spawner
        self.commands = commands
        self.out_dir = out_dir
        self.ledger = ledger
        self.maxrss_kb = 0

    def stdout_path(self, name: str) -> str:
        return os.path.join(self.out_dir, f"{name}.out")

    def _spawn(self, name: str, argv: list[str]):
        command = self.commands[name]
        run = self.spawner.run(argv, self.stdout_path(name), os.path.join(self.out_dir, f"{name}.err"))
        digest = digest_files((self.stdout_path(name),) + command.outputs)
        if run.exit_code != 0:
            with open(os.path.join(self.out_dir, f"{name}.err"), encoding="utf-8", errors="replace") as handle:
                sys.stderr.write(f"{name} exited {run.exit_code}: {handle.read()[-2000:]}\n")
        return run, digest

    def run(self, name: str):
        """One untraced run of ``name``; returns the ProcessRun and output digest."""
        argv = [sys.executable, "-m", "steptree", *self.commands[name].args]
        run, digest = self._spawn(name, argv)
        self.maxrss_kb = max(self.maxrss_kb, run.maxrss_kb)
        if run.exit_code != 0:
            problems = [f"exit status {run.exit_code}"]
        else:
            problems = self.ledger.digest_problems(name, digest)
            if name in ("verify", "verify_equiv", "suite"):
                with open(self.stdout_path(name), encoding="utf-8") as handle:
                    problems += self.ledger.gap_problems(handle.read(), name != "verify_equiv")
        self.ledger.record(name, problems)
        return run, digest

    def run_traced(self, name: str, untraced_digest: str):
        """One traced run; its output must equal the untraced run's."""
        spans_path = os.path.join(self.out_dir, f"{name}.spans.json")
        argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, "--", *self.commands[name].args]
        run, digest = self._spawn(name, argv)
        if run.exit_code != 0:
            self.ledger.record(f"{name} traced", [f"exit status {run.exit_code}"])
            return run, None
        differs = digest != untraced_digest
        self.ledger.record(f"{name} traced", ["output differs from the untraced run"] if differs else [])
        with open(spans_path, encoding="utf-8") as handle:
            return run, json.load(handle)


class LatencyProbe:
    """In-process ``weight_record`` latency over already-parsed groups.

    A short block of calls follows each CLI command of a round, so the
    samples are spread over the run like the CLI timings. The calls cycle
    through the groups in order, so blocks time the same mix of group sizes;
    each block starts with one untimed call so the first sample does not pay
    for caches the child process evicted. Each completed pass over the
    groups is serialized as ``weights`` writes it and checked against the
    CLI's output, so the trainer path and the CLI agree.
    """

    def __init__(self, inputs, ledger: Ledger):
        from steptree.io import iter_groups, weight_record

        self.groups = []
        for name in ("groups.jsonl", "latency.jsonl"):
            with open(inputs.path(name), encoding="utf-8") as handle:
                self.groups.extend(iter_groups(handle))
        # The parsed groups are the benchmark's fixture: keep the cyclic
        # collector from rescanning them during the timed calls.
        gc.freeze()
        self.dump_groups = inputs.workload.groups
        self.weight_record = weight_record
        self.block_calls = inputs.workload.latency_block
        self.ledger = ledger
        self.samples: list[float] = []
        self.block_medians: list[float] = []
        self._lines: list[str] = []

    def block(self) -> None:
        """Times the next ``block_calls`` groups, one call at a time."""
        groups = self.groups
        self.weight_record(groups[len(self._lines)], "lambda", beta=LATENCY_BETA)
        clock = time.perf_counter
        times = []
        for _ in range(self.block_calls):
            group = groups[len(self._lines)]
            start = clock()
            record = self.weight_record(group, "lambda", beta=LATENCY_BETA)
            times.append(clock() - start)
            # Kept as text, which the collector does not track, not as records.
            self._lines.append(json.dumps(record, separators=(",", ":")) + "\n")
            if len(self._lines) == len(groups):
                self._check(self._lines)
                self._lines = []
        self.samples.extend(times)
        self.block_medians.append(statistics.median(times))

    def _check(self, lines: list[str]) -> None:
        """The dump's records must equal the ``weights`` output; all must repeat."""
        dump = digest_bytes((b"", "".join(lines[: self.dump_groups]).encode()))
        problems = self.ledger.digest_problems("weights", dump)
        problems += self.ledger.digest_problems("weight_record", digest_bytes([l.encode() for l in lines]))
        self.ledger.record("weight_record", problems)


def _next_round_fits(start: float, seconds: float, rounds: int, began: float) -> bool:
    """Whether a round as long as the average so far still ends within ``seconds``."""
    now = time.perf_counter()
    if now - began > ROUND_CUTOFF_S:
        return False
    return (now - start) * (rounds + 1) / rounds <= seconds


def timed_run(inputs, runner: Runner, seconds: float, began: float, sentinel: list) -> tuple[dict, dict]:
    from workloads import SIM, SUITE_GROUPS

    runner.run("setup")  # warm-up: bytecode compiled, inputs in the page cache
    probe = LatencyProbe(inputs, runner.ledger)
    walls: dict[str, list[float]] = {name: [] for name in runner.commands}
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or _next_round_fits(start, seconds, rounds, began):
        for name in ROUND:
            walls[name].append(runner.run(name)[0].wall_s)
            if name != "setup":
                probe.block()
        sentinel.append(calibrate(1))
        rounds += 1
    # Mean wall time, i.e. total work over total time: on a host whose speed
    # drifts over seconds it varied less from run to run than the median.
    wall = {name: statistics.fmean(values) for name, values in walls.items()}
    wall["setup"] = statistics.median(walls["setup"])
    latency = probe.samples
    tail_pct, tail_value = tail_percentile(latency)
    metrics = {
        "setup_s": wall["setup"],
        "analyze_tok_s": inputs.tokens / wall["analyze"],
        "weights_tok_s": inputs.tokens / wall["weights"],
        "verify_tok_s": inputs.tokens / wall["verify"],
        "verify_equiv_tok_s": inputs.tokens / wall["verify_equiv"],
        "suite_groups_s": SUITE_GROUPS / wall["suite"],
        "sim_steps_s": SIM["steps"] / wall["simulate"],
        # A block sits mostly in one of the host's fast and slow states, and
        # the median of all samples jumps between them from run to run.
        "group_ms_p50": statistics.fmean(probe.block_medians) * 1e3,
        "group_ms_tail": tail_value * 1e3,
        "peak_rss_mb": runner.maxrss_kb / 1024.0,
    }
    details = {
        "rounds": rounds,
        "wall_samples_s": walls,
        "group_ms_samples": len(latency),
        "group_ms_block_medians": probe.block_medians,
        "group_ms_tail_percentile": tail_pct,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, details


def traced_run(inputs, runner: Runner, seconds: float, began: float, sentinel: list) -> tuple[dict, dict]:
    from traced_cli import SPAN_NAMES

    runner.run("setup")  # warm-up
    start = time.perf_counter()
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    traced_wall = untraced_wall = 0.0
    counts: dict[str, float] = {}
    rounds = 0
    while rounds < 1 or _next_round_fits(start, seconds, rounds, began):
        for name in TRACED:
            plain, digest = runner.run(name)
            traced, spans = runner.run_traced(name, digest)
            untraced_wall += plain.wall_s
            traced_wall += traced.wall_s
            if spans is None:
                continue
            for span, entry in spans["layers"].items():
                self_ns[span] += entry["self_ns"]
            if name == "analyze":
                counters = spans["counters"]
                counts["io.groups"] = counters["groups"]
                counts["tree.nodes"] = counters["nodes"]
                counts["tree.trivial_groups"] = counters["trivial_groups"]
                counts["core.degenerate_groups"] = counters["degenerate_groups"]
                counts["io.lines_skipped"] = _lines_skipped(runner, name)
            elif name == "weights":
                counts["io.output_bytes"] = os.path.getsize(runner.commands[name].outputs[0])
        sentinel.append(calibrate(1))
        rounds += 1
    metrics: dict[str, tuple[float, str]] = {}
    for span in SPAN_NAMES:
        per_round = self_ns[span] / 1e9 / rounds
        metrics[f"{span}_s"] = (per_round, "s")
        # Against the workload's tokens: the rate at which this layer alone would get through them.
        metrics[f"{span}_mtok_s"] = (inputs.tokens / per_round / 1e6 if per_round else 0.0, "Mtok/s")
    layer_total = sum(self_ns.values()) / 1e9
    metrics["cli.other_s"] = ((traced_wall - layer_total) / rounds, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    for name in ("io.groups", "io.lines_skipped", "io.output_bytes", "tree.nodes",
                 "tree.trivial_groups", "core.degenerate_groups"):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["verify.max_rel_gap_equiv"] = (runner.ledger.gaps["equivalence"], "ratio")
    metrics["verify.max_rel_gap_ident"] = (runner.ledger.gaps["identities"], "ratio")
    details = {"rounds": rounds, "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
               "layer_self_s": layer_total}
    return metrics, details


def _lines_skipped(runner: Runner, name: str) -> int:
    with open(os.path.join(runner.out_dir, f"{name}.err"), encoding="utf-8", errors="replace") as handle:
        match = re.search(r"skipped (\d+) malformed line", handle.read())
    return int(match.group(1)) if match else 0


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    began = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "steptree", "__init__.py")):
        print(f"perfbench: no steptree sources under {SRC}", file=sys.stderr)
        return 2
    spawner = Spawner(child_env())  # before steptree and the inputs are loaded
    try:
        return _main(argv, began, spawner)
    finally:
        spawner.close()


def _main(argv, began: float, spawner: Spawner) -> int:
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, prepare, source_digest

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    sentinel = [calibrate()]
    src_digest = source_digest(SRC)
    inputs = prepare(workload, args.seed, CACHE, src_digest)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle).get(workload.name, {}).get(str(args.seed), {})
    ledger = Ledger(reference)
    ledger.record("input", ledger.digest_problems("input", input_digest(inputs)))

    out_dir = os.path.join(CACHE, f"run-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        runner = Runner(spawner, build_commands(inputs, out_dir), out_dir, ledger)
        run = traced_run if args.trace else timed_run
        metrics, details = run(inputs, runner, args.seconds, began, sentinel)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    sentinel.append(calibrate())
    host_calib_s = statistics.fmean(sentinel)
    if args.trace:
        metrics["host.calib_s"] = (host_calib_s, "s")
        metrics["fail_ratio"] = (ledger.failed / ledger.attempted, "ratio")

    details.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        tokens=inputs.tokens,
        groups=workload.groups,
        fail_ratio=f"{ledger.failed}/{ledger.attempted}",
        failures=ledger.failures[:10],
        reference_checked=bool(reference),
        host_calib_s={"mean": host_calib_s, "samples": sentinel},
        provenance={
            "commit": _commit(),
            "source_sha256": src_digest,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "input_sha256": inputs.digests,
            "seconds": args.seconds,
        },
        elapsed_s=time.perf_counter() - began,
    )
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:14s} {name:40s} {value:14.6g} {unit}")
    record = json.dumps({"perfbench": details}, sort_keys=True)
    results_dir = os.path.join(CACHE, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload.name}-s{args.seed}-t{args.trace}.json"), "a") as handle:
        handle.write(json.dumps({"details": details, "result": result}, sort_keys=True) + "\n")
    print(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
