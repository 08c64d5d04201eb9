"""Every command of ``tests/data/cli_transcript.json`` prints the same bytes.

The transcript is rewritten by ``tests/cli_transcript.py``; a change that
moves output on purpose rewrites it and names each changed line.  Some
lines print roundoff to 17 digits, so the failure message names the numpy
version that wrote the transcript beside the one that replays it.
"""

import difflib
import json

import numpy as np

from rmsphase import cli

from cli_transcript import COMMANDS, TRANSCRIPT, run


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


def test_every_command_replays_byte_for_byte(monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    transcript = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    lines = [line for expected in transcript["commands"]
             for line in differences(expected, run(expected["argv"]))]
    assert not lines, "\n".join([f"written with numpy {transcript['numpy']}, "
                                 f"replayed with numpy {np.__version__}", *lines])
