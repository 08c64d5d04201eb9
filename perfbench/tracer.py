"""Spans around rmsphase's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules by
a timing wrapper, at every module attribute that is bound to it (so the
names a module imported with ``from .specfun import assoc_legendre`` are
wrapped too, and calls between modules are seen).  Private helpers are not
wrapped; their time counts as self time of the public function that called
them.  Each span is ``(op, span_id, parent_id, name, start, end)``; spans
of one benchmark operation share ``op``.
"""

from __future__ import annotations

import importlib
import time

MODULES = ("quadrature", "specfun", "oscillator", "perturbation", "berry",
           "validate", "cli")

# Function groups behind the per-layer metrics.  Self times are summed, so
# a constructor nested in another (polar_rule -> gauss_legendre) is not
# counted twice.
RULE_CONSTRUCTORS = ("quadrature.gauss_legendre", "quadrature.chebyshev_u",
                 "quadrature.polar_rule", "quadrature.rapidity_rule",
                 "quadrature.radial_rule")
OVERLAPS = ("oscillator.polar_overlap", "oscillator.rapidity_overlap",
            "oscillator.radial_overlap", "oscillator.azimuthal_overlap",
            "oscillator.state_overlap")
CONNECTION_LOOP = ("berry.connection_loop_integral", "berry.berry_connection",
                   "berry.berry_phase_loop_connection")
OVERLAP_LOOP = ("berry.overlap_loop_phase", "berry.overlap_product_phase",
                "berry.berry_phase_loop_overlap")
CLOSED = ("berry.berry_phase_closed", "berry.closed_form_phase")


class Tracer:
    """Records spans and per-function call counts, self and cache-miss totals."""

    def __init__(self):
        self.enabled = False
        self.op = 0
        self.spans: list[tuple] = []
        # name -> [calls, self seconds, cache misses]
        self.stats: dict[str, list] = {}
        self.nodes_evaluated = 0
        self._stack: list[list] = []     # [span_id, child seconds]
        self._next_id = 0

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s traced modules."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        targets = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    targets[id(obj)] = (f"{short}.{attr}", obj)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and not attr.startswith("__"):
                    setattr(mod, attr, wrappers[id(obj)])

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        cache_info = getattr(fn, "cache_info", None)
        counts_nodes = name == "quadrature.integrate"
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            misses = cache_info().misses if cache_info else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                if cache_info:
                    stats[2] += cache_info().misses - misses
                if counts_nodes:
                    rule = args[0] if args else kwargs["rule"]
                    self.nodes_evaluated += rule.nodes.size
                self.spans.append((self.op, span_id, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict:
        """Totals that a child process hands to its parent."""
        return {"stats": self.stats, "nodes_evaluated": self.nodes_evaluated,
                "spans": len(self.spans)}


def merge(total: dict, part: dict) -> None:
    """Add a snapshot into a running total of the same shape."""
    for name, (calls, self_s, misses) in part["stats"].items():
        acc = total["stats"].setdefault(name, [0, 0.0, 0])
        acc[0] += calls
        acc[1] += self_s
        acc[2] += misses
    total["nodes_evaluated"] += part["nodes_evaluated"]
    total["spans"] += part["spans"]


def empty() -> dict:
    return {"stats": {}, "nodes_evaluated": 0, "spans": 0}


def layer_metrics(total: dict) -> dict:
    """Per-layer figures (ms and counts) from merged tracer totals."""
    stats = total["stats"]

    def pick(names, field):
        return sum(stats.get(n, (0, 0.0, 0))[field] for n in names)

    def module(prefix):
        return tuple(n for n in stats if n.startswith(prefix + "."))

    ms = 1e3
    return {
        "quadrature.rule_build_ms": pick(RULE_CONSTRUCTORS, 1) * ms,
        "quadrature.rules_built": pick(RULE_CONSTRUCTORS, 2),
        "quadrature.rule_calls": pick(RULE_CONSTRUCTORS, 0),
        "quadrature.integrate_ms": pick(("quadrature.integrate",), 1) * ms,
        "quadrature.integrate_calls": pick(("quadrature.integrate",), 0),
        "quadrature.nodes_evaluated": total["nodes_evaluated"],
        "quadrature.doubling_gap_ms": pick(("quadrature.doubling_gap",), 1) * ms,
        "specfun.self_ms": pick(module("specfun"), 1) * ms,
        "specfun.calls": pick(module("specfun"), 0),
        "oscillator.overlap_ms": pick(OVERLAPS, 1) * ms,
        "oscillator.overlap_calls": pick(OVERLAPS, 0),
        "oscillator.gram_ms": pick(("oscillator.gram_matrix",), 1) * ms,
        "perturbation.coefficients_ms":
            pick(("perturbation.correction_coefficients",), 1) * ms,
        "perturbation.element_calls": pick(("perturbation.phi_integral",), 0),
        "berry.connection_loop_ms": pick(CONNECTION_LOOP, 1) * ms,
        "berry.connection_calls": pick(("berry.berry_connection",), 0),
        "berry.overlap_loop_ms": pick(OVERLAP_LOOP, 1) * ms,
        "berry.closed_ms": pick(CLOSED, 1) * ms,
        "validate.run_checks_ms": pick(module("validate"), 1) * ms,
        "cli.self_ms": pick(module("cli"), 1) * ms,
        "trace.spans": total["spans"],
    }
