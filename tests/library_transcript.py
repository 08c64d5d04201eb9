"""The loop routes' values bit for bit, for ``tests/data/library_transcript.json``.

The CLI transcript runs only the package's records, each on one Gram
matrix.  This one holds what it never runs:

* 40 seeded synthetic coefficient sets, drawn as ``perfbench/run.py``'s
  ``oracle-loops`` draws them (2 to 4 other live states, entries of
  Gaussian real and imaginary parts, |Im sum conj(a) b| >= 0.05), at steps
  in 64..2048, stored as ``float.hex`` values.  Each runs under the 16-,
  48- and then again the 16-node Gram matrix, so the overlap chain's
  reduced-metric memo switches matrices; under each,
  ``overlap_loop_phase`` at r and then r/2, with r = 1e-2 / max|coefficient|
  as the benchmark takes it, ``connection_loop_integral`` and
  ``closed_form_phase``;
* every live state's package record at 16, 48 and 128 nodes through
  ``berry._route_values``, at the default loop and at 64 steps, each
  entry named by the loop's step count and radius;
* the message of each floor and overflow refusal: the overlap route
  below its floor and the overflow of each loop route, on synthetic sets
  and on package records.

Every value is kept as ``float.hex``, a refusal as its type and message.
``entries`` computes them from the stored sets in a fixed order.  Run this
file to draw the sets again and rewrite the transcript:

    PYTHONPATH=src python -W error::RuntimeWarning tests/library_transcript.py

``tests/test_library_transcript.py`` replays it.
"""

import json
import platform
import random
import sys
from pathlib import Path

import numpy as np

from rmsphase import NodeCounts, berry, gram_matrix, live_indices
from rmsphase.errors import RmsPhaseError
from rmsphase.perturbation import CorrectionCoefficients, correction_coefficients

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "library_transcript.json"

SEED = 2026
SETS = 40
STEPS_RANGE = (64, 2048)
# the Gram matrices each synthetic set runs under, in turn
GRAM_NODES = (16, 48, 16)
RECORD_NODES = (16, 48, 128)
RECORD_LOOPS = (berry.LoopParams(), berry.LoopParams(steps=64))
# radii at which a route refuses: 1e-150 is below the overlap floor of every
# set here, 1e100 overflows the overlap chain and 1e153 the connection loop
# of a set with sum|a|^2 above ~1.8
REFUSAL_RADII = (1e-150, 1e100, 1e153)
METHODS = ("closed", "loop-connection", "loop-overlap")


def draw_sets(seed: int = SEED) -> list[dict]:
    """``SETS`` synthetic sets as ``oracle-loops`` draws them, their entries
    as ``float.hex`` pairs keyed by state index."""
    rng, live = random.Random(seed), live_indices()
    sets = []
    while len(sets) < SETS:
        j = rng.choice(live)
        steps = rng.randint(*STEPS_RANGE)
        others = [i for i in live if i != j]
        members = rng.sample(others, rng.randint(2, 4))
        a = {i: complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for i in members}
        b = {i: complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for i in members}
        if abs(sum(a[i].conjugate() * b[i] for i in members).imag) >= 0.05:
            sets.append({"state": j, "steps": steps,
                         **{name: {str(i): [v.real.hex(), v.imag.hex()] for i, v in c.items()}
                            for name, c in (("a", a), ("b", b))}})
    return sets


def build(entry: dict) -> CorrectionCoefficients:
    """The coefficient set a stored entry holds, built from mappings."""
    a, b = ({int(i): complex(float.fromhex(re), float.fromhex(im))
             for i, (re, im) in entry[name].items()} for name in ("a", "b"))
    return CorrectionCoefficients(entry["state"], a, b)


def hexed(value) -> str | list:
    """A float, or a tuple or list of them, as ``float.hex`` strings."""
    if isinstance(value, (tuple, list)):
        return [hexed(v) for v in value]
    return float(value).hex()


def outcome(call) -> list | str:
    """``call()``'s value, hexed, as a list, or its refusal as one string of
    type and message."""
    try:
        value = call()
    except RmsPhaseError as err:
        return f"{type(err).__name__}: {err}"
    return hexed(value if isinstance(value, (tuple, list)) else [value])


def route_outcome(values: list[tuple[float, dict]]) -> list:
    """``_route_values``' one value with the numbers of its metadata."""
    (gamma, metadata), = values
    return [gamma, *(metadata[k] for k in ("radius", "imag_residual", "raw_values")
                     if k in metadata)]


def entries(sets: list[dict]) -> dict:
    """Every transcript entry, by name, computed in a fixed order."""
    grams = {n: gram_matrix(NodeCounts.uniform(n)) for n in GRAM_NODES}
    out = {}
    for k, entry in enumerate(sets):
        coeffs = build(entry)
        r = 1e-2 / coeffs.max_magnitude()
        loop = berry.LoopParams(radius=r, steps=entry["steps"])
        for turn, n in enumerate(GRAM_NODES):
            name = f"set {k} gram{n}#{turn}"
            out[f"{name} overlap r"] = outcome(
                lambda: berry.overlap_loop_phase(coeffs, grams[n], loop, r))
            out[f"{name} overlap r/2"] = outcome(
                lambda: berry.overlap_loop_phase(coeffs, grams[n], loop, 0.5 * r))
            out[f"{name} connection"] = outcome(
                lambda: berry.connection_loop_integral(coeffs, loop))
            out[f"{name} closed"] = outcome(lambda: berry.closed_form_phase(coeffs))
        for radius in REFUSAL_RADII:
            loop = berry.LoopParams(radius=radius, steps=entry["steps"])
            out[f"set {k} radius {radius!r} overlap"] = outcome(
                lambda: berry.overlap_loop_phase(coeffs, grams[16], loop, radius))
            out[f"set {k} radius {radius!r} connection"] = outcome(
                lambda: berry.connection_loop_integral(coeffs, loop))
    for n in RECORD_NODES:
        nodes = NodeCounts.uniform(n)
        for j in live_indices():
            coeffs = correction_coefficients(j, nodes)
            loops = [*RECORD_LOOPS, *(berry.LoopParams(radius=radius) for radius in
                                      (REFUSAL_RADII if n == 16 else ()))]
            for loop in loops:
                name = f"record {j} nodes {n} steps {loop.steps} radius {loop.radius!r}"
                for method in METHODS:
                    out[f"{name} {method}"] = outcome(
                        lambda: route_outcome(berry._route_values(coeffs, nodes, loop,
                                                                  (method,))))
    return out


def main() -> None:
    sets = draw_sets()
    values = entries(sets)
    transcript = {"numpy": np.__version__, "python": platform.python_version(),
                  "sets": sets, "entries": values}
    TRANSCRIPT.write_text(json.dumps(transcript, indent=1) + "\n", encoding="utf-8")
    refusals = sum(isinstance(v, str) for v in values.values())
    print(f"wrote {len(sets)} sets and {len(values)} entries, {refusals} of them "
          f"refusals, to {TRANSCRIPT}", file=sys.stderr)


if __name__ == "__main__":
    main()
