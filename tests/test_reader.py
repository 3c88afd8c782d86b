"""One dump reader: every command that reads a group dump treats a blank
line, a malformed line and ``--strict`` the same way, byte for byte.

``verify`` runs both serially and fanned out (the CPU probe at 2 and the
size gate at 0), where the forked child parses its own share of the lines.
"""

import os

import pytest

from steptree import cli
from steptree.io import serialize_group
from steptree.verify import LOGP_RANDOM_CONSISTENT, GenParams, generate_random_group

from test_cli import MALFORMED_LINES, overflow_group

GROUPS = [
    generate_random_group(GenParams(seed=71, logp_mode=LOGP_RANDOM_CONSISTENT), index)
    for index in range(4)
]
LAST_ID = GROUPS[-1].query_id
# non-blank items 1 and 4 are malformed: one in each share of a fanned-out run
LINES = [
    serialize_group(GROUPS[0]),
    "",
    MALFORMED_LINES["str-logp"][0],
    serialize_group(GROUPS[1]),
    serialize_group(GROUPS[2]),
    "not json",
    serialize_group(GROUPS[3]),
]
FIRST_MESSAGE = "line 3: completion 1: logp_new entry must be a number, got '-0.5'"
NOTICE = (
    f"skipped 2 malformed line(s)\n  {FIRST_MESSAGE}\n"
    "  line 6: Expecting value: line 1 column 1 (char 0)\n"
)

# (the command and its options, usable CPUs)
COMMANDS = {
    "analyze": (["analyze"], 1),
    "weights": (["weights"], 1),
    "tree": (["tree", "--group-id", LAST_ID], 1),
    "verify-serial": (["verify"], 1),
    "verify-fanned-out": (["verify"], 2),
}


def write(tmp_path, lines):
    path = tmp_path / "dump.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def dump(tmp_path):
    return write(tmp_path, LINES)


def run(monkeypatch, capsys, name, dump, flags):
    (command, *options), cpus = COMMANDS[name]
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", counted_fork)
        patch.setattr(cli, "_FAN_OUT_MIN_BYTES", 0)
        patch.setattr(cli, "_usable_cpus", lambda: cpus)
        code = cli.main([command, str(dump), *options, *flags])
    with pytest.raises(ChildProcessError):  # no child is left
        os.waitpid(-1, os.WNOHANG)
    assert len(forks) == (name == "verify-fanned-out")
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", COMMANDS)
def test_lenient_reading_skips_with_one_notice(monkeypatch, capsys, dump, name):
    assert run(monkeypatch, capsys, name, dump, []) == (0, NOTICE)


@pytest.mark.parametrize("name", COMMANDS)
def test_strict_reading_stops_at_the_first_bad_line(monkeypatch, capsys, dump, name):
    assert run(monkeypatch, capsys, name, dump, ["--strict"]) == (1, f"error: {FIRST_MESSAGE}\n")


@pytest.mark.parametrize("name", [name for name in COMMANDS if name != "tree"])
def test_a_failing_group_follows_the_notice(tmp_path, monkeypatch, capsys, name):
    # the notice is printed before the error line of a group that fails later
    path = write(tmp_path, LINES + [serialize_group(overflow_group("variance"))])
    error = "error: group 'wide': reward variance overflows\n"
    assert run(monkeypatch, capsys, name, path, []) == (1, NOTICE + error)
