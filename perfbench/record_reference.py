"""Record the output digests the benchmark checks runs against.

Usage (from the root of the repository):

    python3 perfbench/record_reference.py --seeds 0-99 [--workload NAME ...] [--command NAME ...]

For each (workload, seed) this generates the inputs, runs every command
(or only those named) once, checks the verification gaps, and stores the
digest of each command's output, and of the inputs, in
``perfbench/reference.json``. A command whose arguments are the same on
every workload, as the ``verify --random`` suite's are, runs once per seed.
Run it only at a commit whose outputs are known to be right; a run of
``run.py`` at a later commit then fails any operation whose output differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from measure import Spawner
from run import CACHE, HERE, SRC, Ledger, Runner, build_commands, child_env, input_digest

REFERENCE = os.path.join(HERE, "reference.json")


def record(spawner: Spawner, workload, seed: int, src_digest: str, names, shared: dict) -> dict[str, str]:
    """Digests of ``names`` for (workload, seed); ``shared`` reuses those of identical commands."""
    from workloads import prepare

    inputs = prepare(workload, seed, CACHE, src_digest)
    ledger = Ledger({})
    ledger.record("input", ledger.digest_problems("input", input_digest(inputs)))
    out_dir = os.path.join(CACHE, f"record-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        runner = Runner(spawner, build_commands(inputs, out_dir), out_dir, ledger)
        for name in names or runner.commands:
            args = runner.commands[name].args
            if args in shared:
                ledger.first[name] = shared[args]
            else:
                runner.run(name)
                shared[args] = ledger.first[name]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if ledger.failures:
        raise SystemExit(f"{workload.name} seed {seed}: {ledger.failures}")
    return dict(sorted(ledger.first.items()))


def main(argv=None) -> int:
    spawner = Spawner(child_env())  # before steptree is loaded
    try:
        return _main(argv, spawner)
    finally:
        spawner.close()


def _main(argv, spawner: Spawner) -> int:
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, source_digest

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, as in 0-63")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--command", action="append", help="record only this command (repeatable)")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    src_digest = source_digest(SRC)
    recorded: dict[str, dict[str, dict[str, str]]] = {}
    shared: dict[tuple, str] = {}
    for name in args.workload or sorted(WORKLOADS):
        for seed in seeds:
            recorded.setdefault(name, {})[str(seed)] = record(
                spawner, WORKLOADS[name], seed, src_digest, args.command, shared
            )
            print(f"{name} seed {seed} recorded", flush=True)
    with open(REFERENCE, encoding="utf-8") as handle:
        table = json.load(handle)
    for name, by_seed in recorded.items():
        for seed, digests in by_seed.items():
            table.setdefault(name, {}).setdefault(seed, {}).update(digests)
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda item: int(item[0])))
    with open(REFERENCE + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(table.items())), handle, indent=1)
        handle.write("\n")
    os.replace(REFERENCE + ".tmp", REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
