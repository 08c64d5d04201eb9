#!/usr/bin/env python3
"""rmsphase benchmark: one command per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the seed draws every input; the program sees only those inputs):

* ``cli-cold``          fresh ``rmsphase`` processes: ``table --format csv``,
                        ``phase --state J --method M``, ``oracle --state J``
                        and ``validate``, each once per round in a seeded
                        order.  What a user pays per command; import
                        dominates it.
* ``resolution-sweep``  one process; each operation builds the ten
                        closed-form phases and the Gram matrix at its own
                        seeded NodeCounts (every axis in [32, 256]), so every
                        operation misses the package's caches.
* ``oracle-loops``      one process with the 128-node tables built in
                        set-up; each operation runs ``oracle_comparison`` on a
                        seeded state with seeded steps in [64, 2048] and
                        checks both loop routes on a seeded synthetic
                        coefficient set with a nonzero phase.  The cache-hit
                        mirror of ``resolution-sweep``.

Load is one client in a closed loop: the next operation starts when the
previous one ended.  The benchmark and its children, which run one at a
time, share one vCPU, and BLAS is pinned to one thread.  ``--trace 0``
prints the end-to-end metrics, every time scaled to a reference machine
speed (speed.py); ``--trace 1`` prints the per-layer metrics of a separate
traced run.  The last stdout line is the JSON result; a results file with
provenance and the raw samples goes to perfbench/results/.
"""

from __future__ import annotations

import os

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)     # before numpy loads, here and in every child

import argparse  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402
from speed import Speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = probe.ROOT
SRC = probe.SRC
RESULTS = HERE / "results"
REFERENCE_CSV = HERE / "reference" / "table.csv"

PY = sys.executable
CHILD_ENV = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
CHILD_TIMEOUT = 120.0
HARD_LIMIT = 170.0          # seconds; a run must end within 180

SETUP_REPEATS = 7           # set-up is measured this many times, median reported
IMPORT_PROBES = 3           # -X importtime probes in a traced run
RSS_OPS = 50                # in-process peak RSS is read after this many operations
# Operations whose trace feeds the per-layer totals; a fixed count, so the
# counts repeat exactly for a seed.
TRACED_OPS = {"cli-cold": 8, "resolution-sweep": 40, "oracle-loops": 60}

CLI_KINDS = ("table", "phase", "oracle", "validate")
PHASE_METHODS = ("closed", "loop-connection", "loop-overlap")
SWEEP_RANGE = (32, 256)
STEPS_RANGE = (64, 2048)
CLI_STEPS = 720             # the CLI's default loop resolution

# The n >= 364 radial-rule cliff: `table` doubles the node count, so 192
# nodes fail today.  Run as a probe, outside the workload's operations.
DEFECT_PROBE = ("table", "--format", "csv", "--nodes", "192")


class BenchError(Exception):
    """The benchmark cannot produce a result (no package, broken child, time out)."""


class Context:
    """What one run accumulates besides its metrics."""

    def __init__(self, args):
        self.args = args
        self.rng = random.Random(args.seed)
        self.tally = Tally()
        self.report: list[str] = []      # human-readable lines before the result
        self.samples: dict[str, list] = {}   # raw samples, kept in the results file


class Tally:
    """Operations attempted and failed, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {reason}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# helpers

def run_child(argv: list[str], label: str) -> tuple[int, str, float]:
    """Run one child to completion; returns (exit code, stdout, wall seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{label} did not finish in {CHILD_TIMEOUT} s") from exc
    return proc.returncode, proc.stdout, time.perf_counter() - start


def probe_seconds(mode: str) -> float:
    """The seconds a set-up probe measured in its child."""
    code, out, _ = run_child([PY, str(HERE / "probe.py"), mode], mode)
    if code != 0:
        raise BenchError(f"set-up probe {mode!r} exited {code}")
    return json.loads(out)["seconds"]


class SetupSampler:
    """Set-up measured SETUP_REPEATS times, spread evenly over the timed window,
    so the samples do not all land in one phase of the machine's drift."""

    def __init__(self, mode: str, seconds: float, speed: Speed):
        self.mode = mode
        self.seconds = seconds
        self.speed = speed
        self.values: list[float] = []   # at reference speed
        self.raw: list[float] = []
        probe_seconds(mode)     # compiles bytecode, warms the file cache

    def poll(self, elapsed: float) -> None:
        """Take the next sample once its slot in the window has come."""
        slot = (len(self.values) + 0.5) * self.seconds / SETUP_REPEATS
        if len(self.values) < SETUP_REPEATS and elapsed >= slot:
            seconds, _, scale = self.speed.measure(lambda: probe_seconds(self.mode))
            self.values.append(seconds * scale)
            self.raw.append(seconds)

    def median(self) -> float:
        while len(self.values) < SETUP_REPEATS:
            self.poll(math.inf)
        return statistics.median(self.values)


def guarded(fn, *args):
    """(result, None), or (None, exception) when the program raised."""
    try:
        return fn(*args), None
    except Exception as exc:    # a failed operation is counted; the run goes on
        return None, exc


def import_layers() -> dict:
    """Median import times from `python -X importtime -c "import rmsphase"`."""
    samples = []
    for _ in range(IMPORT_PROBES):
        try:
            proc = subprocess.run([PY, "-X", "importtime", "-c", "import rmsphase"],
                                  cwd=ROOT, env=CHILD_ENV, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("import probe did not finish") from exc
        if proc.returncode != 0:
            raise BenchError("import probe failed")
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def parse_importtime(text: str) -> dict:
    selfs: dict[str, float] = {}
    rmsphase_us = None
    for line in text.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", line)
        if not match:
            continue
        self_us, cumulative_us, name = int(match[1]), int(match[2]), match[4]
        top = name.split(".")[0]
        selfs[top] = selfs.get(top, 0.0) + self_us
        if name == "rmsphase":
            rmsphase_us = cumulative_us
    if rmsphase_us is None:
        raise BenchError("no rmsphase line in -X importtime output")
    return {"import.rmsphase_ms": rmsphase_us / 1e3,
            "import.scipy_ms": selfs.get("scipy", 0.0) / 1e3,
            "import.numpy_ms": selfs.get("numpy", 0.0) / 1e3}


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(latencies: list[float]) -> dict:
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": percentile(latencies, 90) * 1e3}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rmsphase").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


# ---------------------------------------------------------------------------
# cli-cold

def cli_rounds(rng: random.Random):
    """Endless seeded rounds; each runs the four commands once in random order.

    States are drawn from the live ones, and every three rounds use each
    `phase` method once, so the draws move the per-command medians little.
    """
    methods: list[str] = []
    while True:
        if not methods:
            methods = rng.sample(PHASE_METHODS, len(PHASE_METHODS))
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "table":
                yield kind, ["table", "--format", "csv"], None
            elif kind == "phase":
                j, method = rng.choice(checks.LIVE_STATES), methods.pop()
                yield kind, ["phase", "--state", str(j), "--method", method], (j, method)
            elif kind == "oracle":
                j = rng.choice(checks.LIVE_STATES)
                yield kind, ["oracle", "--state", str(j)], (j,)
            else:
                yield kind, ["validate"], None


def check_cli(kind: str, params, code: int, out: str, reference: str) -> str | None:
    if kind == "table":
        return checks.check_table_csv(code, out, reference)
    if kind == "phase":
        return checks.check_phase(code, out, *params)
    if kind == "oracle":
        return checks.check_oracle(code, out, params[0], CLI_STEPS)
    return checks.check_validate(code, out)


def cli_command(argv: list[str]) -> list[str]:
    return [PY, "-m", "rmsphase.cli", *argv]


def traced_cli_command(argv: list[str], out: Path) -> list[str]:
    return [PY, str(HERE / "probe.py"), "cli", str(out), "--", *argv]


def defect_probe() -> str | None:
    code, out, _ = run_child(cli_command(list(DEFECT_PROBE)), "defect probe")
    return checks.check_table_csv(code, out, None)


def cli_cold(ctx: Context) -> dict:
    reference = REFERENCE_CSV.read_text(encoding="utf-8")
    if ctx.args.trace:
        return cli_cold_traced(ctx, reference)
    speed = Speed(repeats=3)
    setup = SetupSampler("import", ctx.args.seconds, speed)
    times: dict[str, list[float]] = {k: [] for k in CLI_KINDS}     # at reference speed
    raw: dict[str, list[float]] = {k: [] for k in CLI_KINDS}
    start = time.perf_counter()
    for n, (kind, argv, params) in enumerate(cli_rounds(ctx.rng)):
        elapsed = time.perf_counter() - start
        if n >= len(CLI_KINDS) and elapsed >= ctx.args.seconds:
            break
        setup.poll(elapsed)
        (code, out, _), seconds, scale = speed.measure(
            lambda: run_child(cli_command(argv), kind))
        ctx.tally.record(" ".join(argv), check_cli(kind, params, code, out, reference))
        times[kind].append(seconds * scale)
        raw[kind].append(seconds)
    setup_s = setup.median()
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    probe_reason = defect_probe()
    medians = {k: statistics.median(v) for k, v in times.items()}
    for kind in CLI_KINDS:
        ctx.report.append(f"cli_{kind}_s = {medians[kind]!r} s at reference speed, "
                          f"{statistics.median(raw[kind])!r} s raw "
                          f"(median of {len(times[kind])})")
    ctx.report.append(f"setup_s raw = {statistics.median(setup.raw)!r} s")
    ctx.report.append(f"defect probe `rmsphase {' '.join(DEFECT_PROBE)}`: "
                      f"{probe_reason or 'ok'}")
    ctx.samples.update(setup_s=setup.values, setup_raw_s=setup.raw, ref_s=speed.refs,
                       **{f"cli_{k}_s": v for k, v in times.items()},
                       **{f"cli_{k}_raw_s": v for k, v in raw.items()})
    every = [t for v in times.values() for t in v]
    return {"setup_s": setup_s,
            "ops_per_s": len(every) / sum(every),
            # mean over the four commands of each command's median and p90,
            # so the seeded order and J/M draws weigh nothing
            "op_p50_ms": statistics.fmean(medians.values()) * 1e3,
            "op_p90_ms": statistics.fmean(percentile(v, 90) for v in times.values()) * 1e3,
            "peak_rss_mb": rss_mb}


def cli_cold_traced(ctx: Context, reference: str) -> dict:
    layers = import_layers()
    totals = tracer.empty()
    spans: list = []
    traced_s = untraced_s = 0.0
    child_out = RESULTS / "child-trace.json"
    start = time.perf_counter()
    for n, (kind, argv, params) in enumerate(cli_rounds(ctx.rng)):
        if n >= TRACED_OPS["cli-cold"] and time.perf_counter() - start >= ctx.args.seconds:
            break
        # the same command untraced and traced, in alternating order
        order = (False, True) if n % 2 else (True, False)
        for traced in order:
            command = traced_cli_command(argv, child_out) if traced else cli_command(argv)
            code, out, seconds = run_child(command, kind)
            ctx.tally.record(" ".join(argv), check_cli(kind, params, code, out, reference))
            if not traced:
                untraced_s += seconds
                continue
            traced_s += seconds
            part = json.loads(child_out.read_text(encoding="utf-8"))
            child_out.unlink()
            if n < TRACED_OPS["cli-cold"]:
                tracer.merge(totals, part)
                spans.extend((n, *span) for span in part["span_list"])
    write_spans(ctx.args, spans)
    layers.update(tracer.layer_metrics(totals))
    layers["cli.nodes192_failed"] = 0 if defect_probe() is None else 1
    ctx.report.append(f"per-layer totals over set-up and {TRACED_OPS['cli-cold']} "
                      f"traced commands")
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return layers


# ---------------------------------------------------------------------------
# in-process workloads

def row_constants(rms) -> dict:
    """SI constants of each live state at its reference-table frequency."""
    validate = importlib.import_module(f"{rms.__name__}.validate")
    return {j: rms.oscillator.PhysicalConstants.from_frequency(mhz)
            for j, mhz in validate.ROW_FREQUENCIES_MHZ.items()}


class SweepOps:
    """Ten closed-form phases and the Gram matrix at a fresh resolution."""

    name = "resolution-sweep"
    setup_mode = "import"
    repeatable = False          # a second run at the same resolution hits the caches
    aliases = ("tables_per_s", "table_p90_ms")

    def __init__(self, rms):
        self.rms = rms
        self.constants = row_constants(rms)

    def setup(self) -> None:
        pass

    def draw(self, rng: random.Random):
        return self.rms.oscillator.NodeCounts(
            *(rng.randint(*SWEEP_RANGE) for _ in range(4)))

    def run(self, nodes):
        rms = self.rms
        phases = {j: rms.berry.berry_phase_closed(j, c, nodes).dimensionless_value
                  for j, c in self.constants.items()}
        return phases, rms.oscillator.gram_matrix(nodes)[1]

    def check(self, nodes, result) -> str | None:
        import numpy as np
        phases, gram = result
        return checks.check_table(phases, float(np.max(np.abs(gram - np.eye(len(gram))))))


class OracleOps:
    """oracle_comparison on cached tables, plus a synthetic nonzero loop."""

    name = "oracle-loops"
    setup_mode = "oracle-setup"
    repeatable = True
    aliases = ("loops_per_s", "loop_p90_ms")

    def __init__(self, rms):
        self.rms = rms
        self.constants = row_constants(rms)
        self.nodes = rms.oscillator.NodeCounts.uniform(probe.ORACLE_NODES)

    def setup(self) -> None:
        probe.build_oracle_tables(self.rms)

    def draw(self, rng: random.Random):
        j = rng.choice(checks.LIVE_STATES)
        steps = rng.randint(*STEPS_RANGE)
        others = [i for i in checks.LIVE_STATES if i != j]
        while True:
            members = rng.sample(others, rng.randint(2, 4))
            a = {i: complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for i in members}
            b = {i: complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for i in members}
            cross = sum(a[i].conjugate() * b[i] for i in members).imag
            if abs(cross) >= 0.05:
                return j, steps, a, b, -2.0 * math.pi * cross

    def run(self, op):
        j, steps, a, b, _ = op
        rms = self.rms
        berry = rms.berry
        report = berry.oracle_comparison(j, self.constants[j],
                                         berry.LoopParams(steps=steps), self.nodes)
        synthetic = rms.perturbation.CorrectionCoefficients(j, a, b)
        radius = 1e-2 / synthetic.max_magnitude()
        loop = berry.LoopParams(radius=radius, steps=steps)
        gram = rms.oscillator.gram_matrix(self.nodes)
        # Richardson in the radius, as berry_phase_loop_overlap does
        overlap = (4.0 * berry.overlap_loop_phase(synthetic, gram, loop, 0.5 * radius)
                   - berry.overlap_loop_phase(synthetic, gram, loop, radius)) / 3.0
        return (report["closed"].dimensionless_value,
                report["loop_connection"].dimensionless_value,
                report["loop_overlap"].dimensionless_value,
                berry.closed_form_phase(synthetic),
                berry.connection_loop_integral(synthetic, loop)[0],
                overlap)

    def check(self, op, result) -> str | None:
        closed, connection, overlap, s_closed, s_connection, s_overlap = result
        return (checks.check_routes(closed, connection, overlap)
                or checks.check_synthetic(s_closed, op[4], s_connection,
                                          s_overlap, op[1]))


def in_process(ops_class, ctx: Context) -> dict:
    args = ctx.args
    if args.trace:
        layers = import_layers()
        rms, _ = probe.load_package()
        return in_process_traced(ops_class(rms), ctx, layers)
    speed = Speed(repeats=3)
    setup = SetupSampler(ops_class.setup_mode, args.seconds, speed)
    rms, _ = probe.load_package()
    ops = ops_class(rms)
    ops.setup()
    latencies: list[float] = []     # at reference speed
    raw: list[float] = []
    rss_mb = None
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < args.seconds:
        setup.poll(time.perf_counter() - start)
        op = ops.draw(ctx.rng)
        (result, exc), seconds, scale = speed.measure(lambda: guarded(ops.run, op))
        ctx.tally.record(f"op {ctx.tally.attempted}",
                         f"raised {exc!r}" if exc else ops.check(op, result))
        if exc is None:
            latencies.append(seconds * scale)
            raw.append(seconds)
        if ctx.tally.attempted == RSS_OPS:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rss_mb is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = setup.median()
    timing = latency_metrics(latencies)
    raw_timing = latency_metrics(raw)
    ctx.report.append(f"{len(latencies)} operations timed")
    ctx.report.append(f"{ops.aliases[0]} = {timing['ops_per_s']!r} 1/s, "
                      f"{ops.aliases[1]} = {timing['op_p90_ms']!r} ms at reference speed")
    ctx.report.append(f"raw: setup_s = {statistics.median(setup.raw)!r} s, " + ", ".join(
        f"{k} = {v!r}" for k, v in raw_timing.items()))
    ctx.samples.update(setup_s=setup.values, setup_raw_s=setup.raw, ref_s=speed.refs,
                       op_s=latencies, op_raw_s=raw)
    return {"setup_s": setup_s, **timing, "peak_rss_mb": rss_mb}


def in_process_traced(ops, ctx: Context, layers: dict) -> dict:
    trace = tracer.Tracer()
    trace.install(ops.rms)
    trace.enabled = True
    ops.setup()                 # traced: oracle-loops builds its tables here
    traced_s = untraced_s = 0.0
    limit = TRACED_OPS[ops.name]
    totals = spans = None
    start = time.perf_counter()
    n = 0
    while n < limit or time.perf_counter() - start < ctx.args.seconds:
        # A traced and an untraced operation, in alternating order.  The
        # same operation twice where it leaves the caches as it found them.
        first = ops.draw(ctx.rng)
        pair = (first, first if ops.repeatable else ops.draw(ctx.rng))
        for k, op in enumerate(pair):
            trace.enabled = (k == n % 2)
            trace.op = n
            t0 = time.perf_counter()
            result, exc = guarded(ops.run, op)
            seconds = time.perf_counter() - t0
            ctx.tally.record(f"op {n}.{k}",
                             f"raised {exc!r}" if exc else ops.check(op, result))
            if trace.enabled:
                traced_s += seconds
            else:
                untraced_s += seconds
        n += 1
        if n == limit:
            totals, spans = copy.deepcopy(trace.snapshot()), trace.spans
            trace.spans = []
        elif totals is not None:
            trace.spans.clear()     # keep recording cost, not the memory
    trace.enabled = False
    write_spans(ctx.args, spans)
    layers.update(tracer.layer_metrics(totals))
    layers["cli.nodes192_failed"] = 0
    ctx.report.append(f"per-layer totals over set-up and {limit} traced operations")
    layers["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return layers


# ---------------------------------------------------------------------------

def write_spans(args, spans) -> None:
    path = RESULTS / f"spans-{args.workload}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["op", "span", "parent", "name", "start", "end"],
                   "spans": spans}, handle, separators=(",", ":"))


WORKLOADS = {
    "cli-cold": cli_cold,
    "resolution-sweep": lambda ctx: in_process(SweepOps, ctx),
    "oracle-loops": lambda ctx: in_process(OracleOps, ctx),
}

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "peak_rss_mb": "MB", "trace.overhead_frac": "frac"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One vCPU for the benchmark and every child, so the reference timing
    # and the work it scales run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "rmsphase" / "__init__.py").is_file():
        sys.stderr.write(f"no rmsphase sources under {SRC}\n")
        return 2
    if not 0 < args.seconds <= 120:
        sys.stderr.write("--seconds must be in (0, 120]\n")
        return 2
    RESULTS.mkdir(exist_ok=True)
    began = time.perf_counter()
    ctx = Context(args)
    tally, report = ctx.tally, ctx.report
    try:
        metrics = WORKLOADS[args.workload](ctx)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    elapsed = time.perf_counter() - began
    if elapsed > HARD_LIMIT:
        sys.stderr.write(f"run took {elapsed:.0f} s, over the {HARD_LIMIT:.0f} s limit\n")
        return 1
    info = provenance(args)
    report.append(f"failed_frac = {tally.failed_frac!r} "
                  f"({tally.failed} of {tally.attempted} operations)")
    report.extend(f"failure: {reason}" for reason in tally.reasons)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": info, "wall_s": elapsed,
                               "report": report, **result,
                               "samples": ctx.samples}) + "\n",
                   encoding="utf-8")
    print("provenance " + json.dumps(info, sort_keys=True))
    for line in report:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value!r} {unit_of(name)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
