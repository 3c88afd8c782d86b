"""``verify`` with its per-group checks split between two processes.

Every run here goes through ``cli.main`` twice, once serial and once with
the CPU probe at 2 and the size gate at 0, and the two must agree byte for
byte on stdout, on stderr and in the exit code. No child may be left behind.
The CPU probe is patched, so the placement tests also pass where the
process may run on one CPU only (say, under ``taskset -c 0``).
"""

import errno
import json
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from steptree import cli, verify
from steptree.io import RecordError, serialize_group
from steptree.verify import (
    LOGP_ABSENT,
    LOGP_RANDOM_CONSISTENT,
    GenParams,
    generate_random_group,
    run_verification,
)

from conftest import make_overlap_group
from test_cli import MALFORMED_LINES, OVERFLOWS, overflow_group

GOLDEN_DUMP = Path(__file__).parent / "golden" / "summary_dump.jsonl"
MODES = ([], ["--skip-identities"], ["--strict"])


@pytest.fixture
def forks(monkeypatch):
    """The number of forks so far; every run may fan out."""
    calls = []
    real_fork = os.fork

    def counted_fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(cli, "_FAN_OUT_MIN_BYTES", 0)
    return calls


def run(monkeypatch, capsys, args, cpus):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_usable_cpus", lambda: cpus)
        code = cli.main(args)
    out, err = capsys.readouterr()
    with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)
    return code, out, err


def assert_same_as_serial(monkeypatch, capsys, forks, args):
    serial = run(monkeypatch, capsys, args, cpus=1)
    before = len(forks)
    assert run(monkeypatch, capsys, args, cpus=2) == serial
    assert len(forks) == before + 1  # the second run fanned out
    return serial


def group_lines(count: int, seed: int = 61) -> list[str]:
    params = GenParams(
        seed=seed, k_range=(2, 6), length_range=(0, 8), logp_mode=LOGP_RANDOM_CONSISTENT
    )
    return [serialize_group(generate_random_group(params, i)) for i in range(count)]


def inconsistent_line(query_id: str) -> str:
    # log-probabilities that no single policy could have produced: a failure
    completions = [
        {"tokens": [1, 2], "reward": 1.0, "logp": [-0.5, -0.5], "logp_old": [-1.5, -0.5]},
        {"tokens": [1, 3], "reward": 0.0, "logp": [-2.5, -0.5], "logp_old": [-0.2, -0.5]},
    ]
    return json.dumps({"query_id": query_id, "completions": completions})


def dump_with(tmp_path, name: str, middle: list[str], at: int) -> Path:
    """Five good lines with ``middle`` after the first ``at`` of them."""
    lines = group_lines(5)
    path = tmp_path / f"{name}-{at}.jsonl"
    path.write_text("\n".join(lines[:at] + middle + lines[at:]) + "\n", encoding="utf-8")
    return path


# the bad line is item 2 (the parent's share) or item 3 (the child's)
@pytest.mark.parametrize("at", [2, 3])
@pytest.mark.parametrize(
    "case",
    [f"malformed-{name}" for name in MALFORMED_LINES] + [f"overflow-{name}" for name in OVERFLOWS],
)
def test_bad_line_mid_file(tmp_path, monkeypatch, capsys, forks, case, at):
    kind, name = case.split("-", 1)
    if kind == "malformed":
        bad, flags = MALFORMED_LINES[name][0], ()
    else:
        bad, flags = serialize_group(overflow_group(name)), OVERFLOWS[name][3]
    lines = group_lines(5)
    lines.insert(at, bad)
    # a malformed line on the other share, whose notice comes before any error
    lines[at - 1] = MALFORMED_LINES["bool-step"][0]
    lines.insert(1, "")
    path = tmp_path / f"{case}-{at}.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for mode in MODES:
        code, _, err = assert_same_as_serial(
            monkeypatch, capsys, forks, ["verify", str(path), *flags, *mode]
        )
        if kind == "malformed":
            assert code == (1 if mode == ["--strict"] else 0)
            assert err.startswith("error: line" if code else "skipped 2 malformed line(s)")


@pytest.mark.parametrize("mode", MODES, ids=["plain", "skip-identities", "strict"])
def test_dumps_and_the_golden(tmp_path, monkeypatch, capsys, forks, mode):
    failing = [inconsistent_line(f"bad-{n}") for n in range(7)]
    lines = group_lines(40)
    # failures on both shares, more of them than the report lists
    mixed = [line for pair in zip(lines, failing + lines[7:]) for line in pair]
    blanks = ["", "   ", *group_lines(3, seed=62), "\t", "", MALFORMED_LINES["str-logp"][0]]
    dumps = {"mixed": mixed, "blanks": blanks + group_lines(4, seed=63)}
    for name, lines in dumps.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = ["verify", str(path), *mode]
        code, out, _ = assert_same_as_serial(monkeypatch, capsys, forks, args)
        if name == "mixed":  # each report lists the first five failures, in file order
            assert code == 1 and "query_id=bad-4 " in out and "query_id=bad-5 " not in out
    code, out, _ = assert_same_as_serial(
        monkeypatch, capsys, forks, ["verify", str(GOLDEN_DUMP), *mode]
    )
    assert code == 0 and "... ok" in out


@pytest.mark.parametrize("bad_at", [3, 4])
def test_non_utf8_bytes_after_the_first_read(tmp_path, monkeypatch, capsys, forks, bad_at):
    # the decode error comes with the 8 KiB chunk that holds the bad byte,
    # after the groups of every earlier chunk were checked
    lines = group_lines(80)
    lines[bad_at] = MALFORMED_LINES["float-token"][0]
    data = ("\n".join(lines) + "\n").encode()
    path = tmp_path / "bytes.jsonl"
    path.write_bytes(data[: len(data) // 2] + b"\xff\xfe" + data[len(data) // 2 :])
    for mode in MODES:
        code, out, err = assert_same_as_serial(
            monkeypatch, capsys, forks, ["verify", str(path), *mode]
        )
        assert code == 1 and out == ""
        if mode == ["--strict"]:
            assert err.startswith(f"error: line {bad_at + 1}: ")
        else:
            assert err.startswith("skipped 1 malformed line(s)")
            assert err.splitlines()[-1].startswith("error: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    "args",
    [
        ["--random", "30", "--seed", "3"],
        ["--random", "25", "--seed", "4", "--skip-identities", "--beta", "0"],
        ["--random", "1", "--seed", "5", "--fork-bias", "1", "--max-len", "8"],
        ["--random", "0"],
        ["--random", "20", "--seed", "6", "--tol", "0"],
    ],
)
def test_random_suite(monkeypatch, capsys, forks, args):
    assert_same_as_serial(monkeypatch, capsys, forks, ["verify", *args])


def test_record_error_is_sent_as_number_and_message(tmp_path, monkeypatch, capsys, forks):
    # pickle rebuilds an exception from its args, one message for two parameters
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(RecordError(2, "bad")))
    path = dump_with(tmp_path, "strict", [MALFORMED_LINES["int-query-id"][0]], 3)
    code, _, err = assert_same_as_serial(
        monkeypatch, capsys, forks, ["verify", str(path), "--strict"]
    )
    assert (code, err) == (1, "error: line 4: query_id must be a string\n")


@pytest.mark.parametrize("source", ["file", "random"])
def test_child_killed_mid_run(tmp_path, monkeypatch, capsys, forks, source):
    parent = os.getpid()
    real_check = verify.check_group

    def dies_in_the_child(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_check(*args, **kwargs)

    monkeypatch.setattr(verify, "check_group", dies_in_the_child)
    path = tmp_path / "groups.jsonl"
    path.write_text("\n".join(group_lines(6)) + "\n", encoding="utf-8")
    args = ["verify", str(path)] if source == "file" else ["verify", "--random", "8"]
    code, out, err = run(monkeypatch, capsys, args, cpus=2)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_failed_fork_maps_every_item_in_the_parent(monkeypatch, capsys, forks):
    def no_process():
        raise BlockingIOError("fork: resource temporarily unavailable")

    args = ["verify", "--random", "12", "--seed", "9"]
    expected = run(monkeypatch, capsys, args, cpus=1)
    monkeypatch.setattr(os, "fork", no_process)
    assert run(monkeypatch, capsys, args, cpus=2) == expected


def test_fifo_runs_serially(tmp_path, monkeypatch, capsys, forks):
    path = dump_with(tmp_path, "fifo", [MALFORMED_LINES["bool-reward"][0]], 2)
    expected = run(monkeypatch, capsys, ["verify", str(path)], cpus=1)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
    writer = subprocess.Popen([sys.executable, "-c", copy, str(path), str(fifo)])
    try:
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_usable_cpus", lambda: 2)
            code = cli.main(["verify", str(fifo)])
    finally:
        writer.wait(timeout=60)
    out, err = capsys.readouterr()
    assert (code, out, err) == expected
    assert forks == []


def test_small_files_and_one_cpu_stay_serial(tmp_path, monkeypatch, forks):
    path = tmp_path / "small.jsonl"
    path.write_text(serialize_group(make_overlap_group()) + "\n", encoding="utf-8")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert cli._mapper(str(path)) is cli._fan_out
    assert cli._mapper(str(tmp_path / "missing")) is map
    assert cli._mapper(str(tmp_path)) is map
    monkeypatch.setattr(cli, "_FAN_OUT_MIN_BYTES", path.stat().st_size + 1)
    assert cli._mapper(str(path)) is map
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli._mapper() is map


def dump_of_size(path: Path, logp_mode: str, size: int) -> Path:
    """Whole groups of one shape, padded with blank lines to exactly ``size`` bytes."""
    params = GenParams(seed=64, logp_mode=logp_mode)
    text, index = "", 0
    while len(text) + len(line := serialize_group(generate_random_group(params, index))) < size:
        text += line + "\n"
        index += 1
    path.write_text(text + "\n" * (size - len(text)), encoding="utf-8")
    assert index >= 2 and path.stat().st_size == size
    return path


@pytest.mark.parametrize("logp_mode", [LOGP_ABSENT, LOGP_RANDOM_CONSISTENT])
def test_the_gate_as_chosen(tmp_path, monkeypatch, logp_mode):
    # the value in the code, unpatched: 64 KiB, from the break-even sweep in BENCH_21.json
    assert cli._FAN_OUT_MIN_BYTES == 64 * 1024
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    gate = cli._FAN_OUT_MIN_BYTES
    for size, mapper in ((gate - 1, map), (gate, cli._fan_out)):
        path = dump_of_size(tmp_path / f"{size}.jsonl", logp_mode, size)
        assert cli._mapper(str(path)) is mapper


def test_library_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("a library function forked")

    monkeypatch.setattr(os, "fork", no_fork)
    equivalence, identities = run_verification(GenParams(seed=8), 10)
    assert equivalence.passed and identities.passed


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls"
)
SUITE = ["verify", "--random", "12", "--seed", "9"]


def record_affinity(monkeypatch, log: Path, forward):
    """Log each ``os.sched_setaffinity`` call as ``pid cpu,cpu``, then ``forward`` it.

    The log is reopened per call, so a forked child's lines are on disk
    before it leaves through ``os._exit``.
    """

    def recorded(pid, cpus):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {','.join(map(str, sorted(cpus)))}\n")
        forward(pid, cpus)

    log.touch()
    monkeypatch.setattr(os, "sched_setaffinity", recorded)


def calls_by_process(log: Path) -> dict:
    calls = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, cpus = line.split()
        calls.setdefault(int(pid), []).append(cpus)
    return calls


def test_parent_and_child_start_on_two_cpus(tmp_path, monkeypatch, capsys, forks):
    log = tmp_path / "affinity.log"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7, 2, 5}, raising=False)
    record_affinity(monkeypatch, log, lambda pid, cpus: None)
    assert_same_as_serial(monkeypatch, capsys, forks, SUITE)
    calls = calls_by_process(log)
    parent = calls.pop(os.getpid())
    # each moves to a CPU of its own, then frees its whole mask again
    assert parent == ["2", "2,5,7"]
    assert list(calls.values()) == [["5", "2,5,7"]]


@needs_affinity
def test_the_parent_mask_is_put_back(tmp_path, monkeypatch, capsys, forks):
    # the real calls: on one usable CPU there are none, on two the parent moves
    log = tmp_path / "affinity.log"
    mask = os.sched_getaffinity(0)
    record_affinity(monkeypatch, log, os.sched_setaffinity)
    assert_same_as_serial(monkeypatch, capsys, forks, SUITE)
    assert os.sched_getaffinity(0) == mask
    parent = calls_by_process(log).get(os.getpid(), [])
    assert parent == ([] if len(mask) < 2 else [str(min(mask)), ",".join(map(str, sorted(mask)))])


def refuse(pid, cpus):
    raise OSError(errno.EINVAL, "Invalid argument")


@needs_affinity
@pytest.mark.parametrize("case", ["one-cpu", "no-call", "refused"])
def test_no_placement_changes_nothing(tmp_path, monkeypatch, capsys, forks, case):
    log = tmp_path / "affinity.log"
    mask = os.sched_getaffinity(0)
    real_set = os.sched_setaffinity
    if case == "no-call":
        monkeypatch.delattr(os, "sched_setaffinity")
    else:
        record_affinity(monkeypatch, log, refuse if case == "refused" else real_set)
    if case == "one-cpu":
        real_set(0, {min(mask)})
    try:
        for args in (SUITE, ["verify", str(GOLDEN_DUMP), "--skip-identities"]):
            assert_same_as_serial(monkeypatch, capsys, forks, args)
        one_cpu_mask = os.sched_getaffinity(0)
    finally:
        real_set(0, mask)
    if case == "one-cpu":
        assert one_cpu_mask == {min(mask)} and log.read_text(encoding="utf-8") == ""
    elif case == "refused" and len(mask) > 1:  # each process tried once a run
        calls = calls_by_process(log)
        assert calls.pop(os.getpid()) == [str(min(mask))] * 2
        assert sorted(calls.values()) == [[str(sorted(mask)[1])]] * 2
    assert os.sched_getaffinity(0) == mask
