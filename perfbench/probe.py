"""Child-process entry points of the benchmark.

    python3 perfbench/probe.py import            cold `import rmsphase`
    python3 perfbench/probe.py oracle-setup      import plus the 128-node tables
    python3 perfbench/probe.py cli OUT -- ARGS   `rmsphase ARGS`, traced into OUT

The first two print the seconds they measured as JSON.  ``cli`` runs
``rmsphase.cli.main`` with every public function wrapped by the tracer,
exits with its code, and writes the tracer's totals and spans to OUT.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE_NODES = 128


def load_package():
    """Import rmsphase from this checkout's sources; returns (package, seconds)."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import rmsphase
    seconds = time.perf_counter() - start
    if not Path(rmsphase.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rmsphase was imported from {rmsphase.__file__}, not {SRC}")
    return rmsphase, seconds


def build_oracle_tables(rms):
    """Coefficient tables of every live state and the Gram matrix at 128 nodes."""
    nodes = rms.oscillator.NodeCounts.uniform(ORACLE_NODES)
    for j in rms.oscillator.live_indices():
        rms.perturbation.correction_coefficients(j, nodes=nodes)
    rms.oscillator.gram_matrix(nodes)
    return nodes


def traced_cli(out: str, argv: list[str]) -> int:
    rms, _ = load_package()
    import rmsphase.cli  # noqa: F401  (not imported by the package itself)
    import tracer

    trace = tracer.Tracer()
    trace.install(rms)
    trace.enabled = True
    try:
        code = rms.cli.main(argv)
    finally:
        trace.enabled = False
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({**trace.snapshot(), "span_list": trace.spans}, handle,
                      separators=(",", ":"))
    return code


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "import":
        _, seconds = load_package()
    elif mode == "oracle-setup":
        rms, seconds = load_package()
        start = time.perf_counter()
        build_oracle_tables(rms)
        seconds += time.perf_counter() - start
    elif mode == "cli" and len(argv) >= 3 and argv[2] == "--":
        return traced_cli(argv[1], argv[3:])
    else:
        sys.stderr.write(__doc__)
        return 2
    print(json.dumps({"seconds": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
