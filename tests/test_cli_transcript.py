"""Every command of ``tests/data/cli_transcript.json`` prints the same bytes.

The transcript is rewritten by ``tests/cli_transcript.py``; a change that
moves output on purpose rewrites it and names each changed line.  Some
lines print roundoff to 17 digits, so the failure message names the
Python and numpy versions that wrote the transcript beside the ones that
replay it, with the SIMD targets that numpy dispatches to.

The bytes depend neither on the order of the commands nor on the process:
every command replays in seeded shuffled orders from empty caches, and
one command of each kind and exit code in a fresh ``python -m rmsphase.cli``
process, so no state leaks between commands through a cache or a memo.
"""

import difflib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rmsphase import berry, cli

from cli_transcript import COMMANDS, TRANSCRIPT, run

SHUFFLE_SEEDS = (2026, 9173, 31)


def transcript_entries() -> list[dict]:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))["commands"]


def first_of_each_outcome() -> list[dict]:
    """The first command of each (kind, exit code) pair, in transcript order."""
    first = {}
    for entry in transcript_entries():
        first.setdefault((entry["argv"][0], entry["exit"]), entry)
    return list(first.values())


def differences(expected: dict, got: dict) -> list[str]:
    """Each line of stdout or stderr, and the exit code, that differs."""
    argv = " ".join(expected["argv"])
    lines = []
    if got["exit"] != expected["exit"]:
        lines.append(f"{argv}: exit {got['exit']}, transcript {expected['exit']}")
    for stream in ("stdout", "stderr"):
        diff = difflib.unified_diff(expected[stream].splitlines(), got[stream].splitlines(),
                                    "transcript", "replay", n=0, lineterm="")
        lines += [f"{argv} ({stream}): {line}" for line in diff
                  if line[:1] in "+-" and line[:3] not in ("---", "+++")]
    return lines


def test_transcript_holds_every_command():
    transcript = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in transcript["commands"]] == COMMANDS


def test_every_command_replays_byte_for_byte(monkeypatch, replayed_with):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    transcript = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    lines = [line for expected in transcript["commands"]
             for line in differences(expected, run(expected["argv"]))]
    assert not lines, "\n".join([
        f"written with Python {transcript['python']} and numpy {transcript['numpy']}, "
        f"replayed with {replayed_with}",
        *lines])


def test_replay_does_not_depend_on_order(monkeypatch, fresh_tables):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    berry._loop_samples.cache_clear()
    lines = []
    for seed in SHUFFLE_SEEDS:
        entries = transcript_entries()
        random.Random(seed).shuffle(entries)
        lines += [f"order {seed}: {line}" for expected in entries
                  for line in differences(expected, run(expected["argv"]))]
    assert not lines, "\n".join(lines)


@pytest.mark.parametrize("expected", first_of_each_outcome(),
                         ids=lambda entry: f"{entry['argv'][0]}-exit{entry['exit']}")
def test_cold_process_replays_byte_for_byte(expected):
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != cli.CONFIG_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rmsphase.cli", *expected["argv"]],
                          capture_output=True, env=env, timeout=120)
    got = {"argv": expected["argv"], "stdout": proc.stdout.decode(),
           "stderr": proc.stderr.decode(), "exit": proc.returncode}
    lines = differences(expected, got)
    assert not lines, "\n".join(lines)
