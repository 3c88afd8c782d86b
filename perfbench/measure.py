"""Process timing, output digests, percentiles and the host drift sentinel.

Standard library only; nothing here imports steptree.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Sequence

CHILD_TIMEOUT_S = 120.0

# Percentiles offered for a latency tail, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class ProcessRun:
    """One child process: wall time from spawn to reaped exit, and its own peak RSS."""

    wall_s: float
    maxrss_kb: int
    exit_code: int


def spawn(argv: Sequence[str], stdout_path: str, stderr_path: str, env: dict) -> ProcessRun:
    """Run ``argv`` to completion with stdout and stderr sent to files.

    The child is reaped with ``os.wait4`` so its peak RSS is its own, not the
    running maximum over every child that ``RUSAGE_CHILDREN`` reports. A
    child still running after ``CHILD_TIMEOUT_S`` is killed.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], list(argv), env, file_actions=actions)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    killer.join()
    return ProcessRun(wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status))


class Spawner:
    """A small helper process that starts each child and reaps it.

    A child started by fork or vfork inherits its parent's resident-set high
    water mark, and ``ru_maxrss`` keeps it across exec. Children started from
    this helper, forked before the benchmark loads steptree or any input,
    therefore report their own peak rather than the benchmark's. Requests
    and results travel as JSON lines over two pipes.
    """

    def __init__(self, env: dict):
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(request_w)
            os.close(result_r)
            code = 0
            try:
                with os.fdopen(request_r) as requests, os.fdopen(result_w, "w") as results:
                    for line in requests:
                        argv, stdout_path, stderr_path = json.loads(line)
                        run = spawn(argv, stdout_path, stderr_path, env)
                        results.write(json.dumps([run.wall_s, run.maxrss_kb, run.exit_code]) + "\n")
                        results.flush()
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        os.close(request_r)
        os.close(result_w)
        self.pid = pid
        self._requests = os.fdopen(request_w, "w")
        self._results = os.fdopen(result_r)

    def run(self, argv: Sequence[str], stdout_path: str, stderr_path: str) -> ProcessRun:
        self._requests.write(json.dumps([list(argv), stdout_path, stderr_path]) + "\n")
        self._requests.flush()
        line = self._results.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        return ProcessRun(*json.loads(line))

    def close(self) -> None:
        """Ends the helper and waits for it."""
        self._requests.close()
        self._results.close()
        os.waitpid(self.pid, 0)


def digest_files(paths: Sequence[str]) -> str:
    """SHA-256 over the files' bytes, each prefixed by its length."""
    chunks = []
    for path in paths:
        with open(path, "rb") as handle:
            chunks.append(handle.read())
    return digest_bytes(chunks)


def digest_bytes(chunks: Sequence[bytes]) -> str:
    """SHA-256 over the chunks, each prefixed by its length; 16 hex digits."""
    h = hashlib.sha256()
    for data in chunks:
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()[:16]


def tail_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """The highest offered percentile with at least ten samples beyond it.

    Returns (percentile, nearest-rank value). With fewer than
    ``TAIL_MIN_BEYOND`` + 1 samples no percentile qualifies and the maximum
    is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def _calibration_work() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(150_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc + len(table)


def calibrate(repeats: int = 3) -> float:
    """Median wall time of a fixed stdlib-only loop (the host drift sentinel).

    One sample takes about 25 ms on the development host; the benchmark
    takes one at the start, one after each round and one at the end of a
    run, so their mean follows the host's speed over the whole run.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
