"""Every CLI command's bytes, for ``tests/data/cli_transcript.json``.

``COMMANDS`` lists the argv of each command the transcript holds: ``table``
in three formats and ``validate`` at several node counts, ``phase`` on
every catalogue state by every method, ``oracle`` on the live states, and
the documented error exits 2 and 3.  ``run`` runs one command through
``cli.main`` in this process and returns its argv, stdout, stderr and exit
code.  Run this file to rewrite the transcript:

    PYTHONPATH=src python -W error::RuntimeWarning tests/cli_transcript.py

``tests/test_cli_transcript.py`` replays it.
"""

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from rmsphase import cli

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.json"

LIVE = (1, 2, 5, 6, 8, 9, 10, 13, 14, 16)

COMMANDS = [
    *(["table", "--format", fmt, "--nodes", str(n)]
      for n in (16, 32, 128, 1024) for fmt in ("csv", "json", "pretty")),
    *(["validate", "--nodes", str(n)] for n in (16, 32, 48, 128, 1024)),
    *(["phase", "--state", str(j), "--method", method, *units]
      for j in range(1, 17)
      for method in ("closed", "loop-connection", "loop-overlap")
      for units in ((), ("--dimensionless",))),
    *(["oracle", "--state", str(j)] for j in LIVE),
    # exit 2: a format oracle does not print, a node count below 16, a
    # radius below the overlap floor, a null state, radii that overflow
    # each loop route, and an empty output or config path
    ["oracle", "--state", "1", "--format", "json"],
    ["table", "--nodes", "8"],
    ["oracle", "--state", "1", "--radius", "1e-150", "--nodes", "16"],
    ["oracle", "--state", "3", "--nodes", "16"],
    ["phase", "--state", "8", "--radius", "1e153", "--method", "loop-connection"],
    ["oracle", "--state", "1", "--radius", "1e100", "--nodes", "16"],
    ["table", "--out", ""],
    ["table", "--config", ""],
    # exit 3: a loop too coarse for its radius
    ["oracle", "--state", "9", "--steps", "8", "--radius", "1e4", "--nodes", "16"],
]


def run(argv: list[str]) -> dict:
    """One command through ``cli.main``: its argv, stdout, stderr and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def main() -> None:
    # a config file named by the environment would change the defaults
    os.environ.pop(cli.CONFIG_ENV_VAR, None)
    transcript = {"numpy": np.__version__, "python": platform.python_version(),
                  "commands": [run(argv) for argv in COMMANDS]}
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(COMMANDS)} commands to {TRANSCRIPT}", file=sys.stderr)


if __name__ == "__main__":
    main()
