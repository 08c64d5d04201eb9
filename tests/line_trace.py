"""The statements of ``src/rmsphase`` that never run, per module.

Runs, under one ``sys.settrace`` line trace that starts before the package
is imported:

* every command of ``tests/data/cli_transcript.json`` through ``cli.main``
  (``tests/cli_transcript.py``'s ``run``);
* ``perfbench/run.py``'s ``OracleOps`` (``ORACLE_OPS`` operations) and
  ``SweepOps`` (``SWEEP_OPS``) on draws seeded with ``SEED``, set up, drawn,
  run and checked as the benchmark does it; the benchmark is imported and
  read, never changed.

A statement ran when a line event reached one of its lines; a compound
statement also ran when a statement of its body did.  Docstrings and
``from __future__`` imports make no code and are not counted.  The report
gives per module the statements that never ran, by line number with the
first line of their source, and then the totals; it exits 1 when a
benchmark operation fails its check, and 0 otherwise.  Run from the
repository root:

    PYTHONPATH=src python tests/line_trace.py

Pytest does not collect it.  Refusals, the CLI branches that only tests
take, and public paths that only tests call are what it is expected to
list.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rmsphase"
PERFBENCH = ROOT / "perfbench"
SEED = 2026
ORACLE_OPS = 300
SWEEP_OPS = 60


def statements(path: Path) -> list[tuple[ast.stmt, range]]:
    """Every statement of the module that makes code, with the lines a
    line event of its own may land on: all of a simple statement, and the
    header of a compound one, decorators included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):     # a docstring
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = [child for field in ("body", "handlers", "orelse", "finalbody", "cases")
                for child in getattr(node, field, ()) if isinstance(child, ast.AST)]
        last = min((child.lineno for child in body), default=node.end_lineno + 1) - 1
        found.append((node, range(first, max(first, last) + 1)))
    return found


def never_run(path: Path, lines: set[int]) -> tuple[int, list[int]]:
    """(number of statements, first line of each that never ran)."""
    spans = statements(path)
    ran = set()
    # ast.walk yields a statement before its body, so reversed, a body comes
    # first: a compound statement ran when its body did
    for node, span in reversed(spans):
        if not lines.isdisjoint(span) or any(id(child) in ran
                                             for child in ast.iter_child_nodes(node)):
            ran.add(id(node))
    return len(spans), sorted(node.lineno for node, _ in spans if id(node) not in ran)


class LineTrace:
    """Line events of the package's frames, as {file: {line}}."""

    def __init__(self):
        self.lines: dict[str, set[int]] = {}
        self.prefix = str(PACKAGE) + os.sep

    def global_trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        hits = self.lines.setdefault(filename, set())

        def local_trace(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local_trace

        hits.add(frame.f_lineno)
        return local_trace


def load_benchmark():
    """``perfbench/run.py`` as a module, with its siblings importable."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_workloads() -> dict:
    """The transcript's commands and the benchmark's operations; returns the
    count of commands and of operations run, and of checks that failed."""
    bench = load_benchmark()       # before numpy loads: it pins BLAS to one thread
    import rmsphase
    from cli_transcript import COMMANDS, run
    from rmsphase import cli

    os.environ.pop(cli.CONFIG_ENV_VAR, None)
    failed = 0
    for argv in COMMANDS:
        run(argv)
    rng = random.Random(SEED)
    for ops_class, count in ((bench.OracleOps, ORACLE_OPS), (bench.SweepOps, SWEEP_OPS)):
        ops = ops_class(rmsphase)
        ops.setup()
        for _ in range(count):
            op = ops.draw(rng)
            failed += ops.check(op, ops.run(op)) is not None
    return {"commands": len(COMMANDS), "operations": ORACLE_OPS + SWEEP_OPS,
            "failed checks": failed}


def main() -> int:
    trace = LineTrace()
    sys.settrace(trace.global_trace)
    try:
        counts = run_workloads()
    finally:
        sys.settrace(None)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        size, lines = never_run(path, trace.lines.get(str(path), set()))
        total, missed = total + size, missed + len(lines)
        print(f"{path.name}: {len(lines)} of {size} statements never run")
        source = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"total: {missed} of {total} statements never run; "
          + ", ".join(f"{value} {key}" for key, value in counts.items()))
    return 1 if counts["failed checks"] else 0


if __name__ == "__main__":
    sys.exit(main())
