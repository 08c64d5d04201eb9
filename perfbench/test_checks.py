"""The benchmark's own tests: injected faults must raise failed_frac.

Kept out of the package's test run (pyproject's testpaths is ``tests``):

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

RMS, _ = probe.load_package()

PHASE_OUTPUT = """state 5: quantum numbers (n_a, l, n, m) = (2, 3, 2, 2)
eigenvalue: 15/2 in units of hbar*omega
method: loop-overlap
gamma/r^2 = {si} (r in J/m^2)
  = dimensionless {value} x prefactor 3.6084504203762383e+26
steps: 720
"""


def tally_of(*reasons) -> run.Tally:
    tally = run.Tally()
    for reason in reasons:
        tally.record("op", reason)
    return tally


def run_ops(ops_class, count: int, seed: int = 7) -> run.Tally:
    ops = ops_class(RMS)
    ops.setup()
    rng = random.Random(seed)
    tally = run.Tally()
    for _ in range(count):
        op = ops.draw(rng)
        tally.record("op", ops.check(op, ops.run(op)))
    return tally


def fake_coefficients(j, constants=None, nodes=None):
    other = next(i for i in checks.LIVE_STATES if i != j)
    return RMS.perturbation.CorrectionCoefficients(
        j, {other: 0.3 + 0.4j}, {other: 0.5 - 0.2j})


# ---------------------------------------------------------------------------
# the checks accept right answers as printed, roundoff included

def test_roundoff_is_not_rounded_away():
    assert checks.check_phase(0, PHASE_OUTPUT.format(si="-4.9e+13", value="-1.37e-13"),
                              5, "loop-overlap") is None
    assert checks.check_phase(0, PHASE_OUTPUT.format(si="7.2e+19", value="2e-07"),
                              5, "loop-overlap") is not None


def test_unfaulted_operations_pass():
    assert run_ops(run.OracleOps, 3).failed_frac == 0.0
    assert run_ops(run.SweepOps, 1).failed_frac == 0.0


def test_reference_csv_is_the_table_at_this_commit():
    reference = run.REFERENCE_CSV.read_text(encoding="utf-8")
    assert checks.check_table_csv(0, reference, None) is None
    assert checks.check_table_csv(0, reference.replace("-0,", "0,", 1),
                                  reference) is not None


# ---------------------------------------------------------------------------
# injected faults

def test_nonzero_phase_in_cli_output_fails():
    text = PHASE_OUTPUT.format(si="3.6e+23", value="0.001")
    assert tally_of(checks.check_phase(0, text, 5, "loop-overlap")).failed_frac == 1.0


def test_nonzero_phase_in_package_fails(monkeypatch):
    monkeypatch.setattr(RMS.perturbation, "correction_coefficients", fake_coefficients)
    assert run_ops(run.SweepOps, 1).failed_frac == 1.0
    assert run_ops(run.OracleOps, 2).failed_frac == 1.0


def test_wrong_exit_code_fails():
    code, out, _ = run.run_child(run.cli_command(["phase", "--state", "17"]), "bad state")
    assert code == 2
    tally = tally_of(run.check_cli("phase", (17, "closed"), code, out, ""),
                     checks.check_validate(1, "9/9 checks passed\n"))
    assert tally.failed == 2


def test_flipped_synthetic_sign_fails(monkeypatch):
    monkeypatch.setattr(RMS.berry, "_PHASE_ORIENTATION", 1.0)
    assert run_ops(run.OracleOps, 2).failed_frac == 1.0


def test_flipped_loop_route_fails():
    steps = 256
    assert checks.check_synthetic(1.85, 1.85, 1.85, 1.85 * 1.0001, steps) is None
    assert checks.check_synthetic(1.85, 1.85, -1.85, 1.85, steps) is not None
    assert checks.check_synthetic(1.85, 1.85, 1.85, -1.85, steps) is not None


# ---------------------------------------------------------------------------
# measurement plumbing

def test_importtime_parsing():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      2000 |       2000 |     numpy.core\n"
            "import time:      1000 |       3000 |   numpy\n"
            "import time:       500 |        500 |     scipy.special\n"
            "import time:       100 |       3600 | rmsphase\n")
    assert run.parse_importtime(text) == {"import.rmsphase_ms": 3.6,
                                          "import.scipy_ms": 0.5,
                                          "import.numpy_ms": 3.0}


def test_traced_counts_repeat_for_the_same_inputs():
    run.RESULTS.mkdir(exist_ok=True)
    out = run.RESULTS / "test-trace.json"
    counts = []
    for _ in range(2):
        code, _, _ = run.run_child(run.traced_cli_command(
            ["phase", "--state", "5", "--method", "loop-connection"], out), "traced")
        assert code == 0
        layer = tracer.layer_metrics(json.loads(out.read_text(encoding="utf-8")))
        out.unlink()
        counts.append({k: v for k, v in layer.items() if not k.endswith("_ms")})
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.integrate_calls"] > 0
    assert counts[0]["berry.connection_calls"] == run.CLI_STEPS
