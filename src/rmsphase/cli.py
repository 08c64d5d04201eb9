"""Command-line front end.

Subcommands:
    table      phases for every normalizable catalogue state at its
               reference frequency (CSV/JSON/pretty)
    phase      one state's phase with metadata
    oracle     closed form vs both loop oracles for one state
    validate   the invariant self-check suite

Defaults can come from a flat key=value config file (--config or the
RMSPHASE_CONFIG environment variable); command-line flags win.  Exit
codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical non-convergence.

A command imports only what it runs: ``json`` loads where its format is
rendered, and the ``validate`` suite loads in ``cmd_validate``; CSV rows
need no module.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from . import berry, oscillator as osc
from .errors import EvaluationError, ParameterError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3

CONFIG_ENV_VAR = "RMSPHASE_CONFIG"

CSV_COLUMNS = ("j", "omega_hz", "gamma_over_r2", "method", "converged")


def _switch(value: str) -> bool:
    """A config-file boolean: 1/true/yes or 0/false/no, in any case."""
    word = value.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {value!r}")
    return word in ("1", "true", "yes")


_CONFIG_KEYS = {
    "omega_mhz": float,
    "omega_convention": str,
    "hbar_convention": str,
    "dimensionless": _switch,
    "nodes": int,
    "steps": int,
    "radius": float,
    "format": str,
    "out": str,
}


class RunConfig(NamedTuple):
    """Resolved settings for one invocation; ``check`` refuses bad values."""

    omega_mhz: float | None = None
    omega_convention: str = "angular"
    hbar_convention: str = "hbar"
    dimensionless: bool = False
    nodes: int = 128
    steps: int = 720
    radius: float | None = None
    format: str = "pretty"
    out: str | None = None

    def check(self) -> None:
        if not 16 <= self.nodes <= osc.MAX_NODES:
            raise ParameterError(f"node count must be in 16..{osc.MAX_NODES}, got {self.nodes}")
        if self.format not in ("csv", "json", "pretty"):
            raise ParameterError(f"unknown output format {self.format!r}")
        if self.omega_convention not in ("angular", "cyclic"):
            raise ParameterError(f"unknown omega convention {self.omega_convention!r}")
        if self.hbar_convention not in ("hbar", "h"):
            raise ParameterError(f"unknown hbar convention {self.hbar_convention!r}")

    def node_counts(self) -> osc.NodeCounts:
        return osc.NodeCounts.uniform(self.nodes)

    def constants_for(self, j: int) -> osc.PhysicalConstants:
        """State j's constants: dimensionless, or at the --omega value when one
        is given, else at j's reference frequency."""
        if self.dimensionless:
            return osc.PhysicalConstants.dimensionless()
        # a given 0 must reach PhysicalConstants, which rejects it
        omega_mhz = (self.omega_mhz if self.omega_mhz is not None
                     else osc.ROW_FREQUENCIES_MHZ.get(j, 240.4))
        return osc.PhysicalConstants.from_frequency(omega_mhz, self.omega_convention)


def read_config_file(path: str) -> dict:
    """Flat key=value file of UTF-8 text, with or without a byte-order mark;
    blank lines and # comments ignored, and each key given at most once."""
    settings = {}
    seen = {}           # key -> the line that gave it
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParameterError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
                if key in seen:
                    raise ParameterError(f"{path}:{lineno}: key {key!r} given twice, "
                                         f"on lines {seen[key]} and {lineno}")
                seen[key] = lineno
                try:
                    settings[key] = _CONFIG_KEYS[key](value.strip())
                except ValueError as exc:
                    raise ParameterError(f"{path}:{lineno}: bad value for {key}: {exc}")
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}")
    except UnicodeDecodeError:
        # raised by the file iterator, so it carries no line number
        raise ParameterError(f"cannot read config file {path}: not UTF-8 text")
    return settings


def build_config(args: argparse.Namespace) -> RunConfig:
    # a config file's format is a default for table; a flag on another command is an error
    if args.command != "table" and args.format in ("csv", "json"):
        raise ParameterError(f"--format {args.format}: only table reads --format; "
                             f"{args.command} prints plain text")
    settings: dict = {}
    path = args.config      # a given flag wins, an empty one too, which fails to open
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None       # an empty variable names no file
    if path is not None:
        settings.update(read_config_file(path))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    config = RunConfig(**settings)
    config.check()
    # validate runs at fixed constants and reads neither key
    if args.command != "validate" and config.dimensionless and config.omega_mhz is not None:
        raise ParameterError("omega_mhz (--omega) cannot be combined with "
                             "dimensionless (--dimensionless)")
    return config


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _table_rows(config: RunConfig) -> list[dict]:
    nodes = config.node_counts()
    converged = osc.exactness_gap(nodes) < osc.EXACTNESS_BOUND
    rows = []
    for j in osc.live_indices():
        constants = config.constants_for(j)
        result = berry.berry_phase_closed(j, constants, nodes)
        rows.append({
            "j": j,
            "omega_hz": 0.0 if config.dimensionless else constants.omega,
            "gamma_over_r2": result.gamma_over_r2,
            "method": result.method,
            "converged": converged,
            "dimensionless_value": result.dimensionless_value,
            "si_prefactor": result.si_prefactor,
        })
    return rows


def _render_rows(rows: list[dict], config: RunConfig) -> str:
    if config.format == "csv":
        # no field can hold a comma, a quote or a newline, so none is quoted
        lines = [",".join(CSV_COLUMNS)]
        for row in rows:
            lines.append(f"{row['j']},{_fmt(row['omega_hz'])},{_fmt(row['gamma_over_r2'])},"
                         f"{row['method']},{str(row['converged']).lower()}")
        return "\n".join(lines) + "\n"
    if config.format == "json":
        import json
        payload = {
            "rows": rows,
            "config": {
                "nodes": config.nodes,
                "omega_convention": config.omega_convention,
                "hbar_convention": config.hbar_convention,
                "dimensionless": config.dimensionless,
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"{'j':>3} {'omega_hz':>16} {'gamma_over_r2':>24} {'method':>16} {'conv':>5}"]
    for row in rows:
        lines.append(f"{row['j']:>3} {row['omega_hz']:>16.6e} "
                     f"{row['gamma_over_r2']:>24.15e} {row['method']:>16} "
                     f"{str(row['converged']).lower():>5}")
    return "\n".join(lines) + "\n"


def _emit(text: str, config: RunConfig) -> None:
    if config.out is not None:      # an empty path fails to open, as any bad path does
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write output file {config.out}: {exc}")
    else:
        sys.stdout.write(text)


def cmd_table(config: RunConfig) -> int:
    rows = _table_rows(config)
    bad = [row["j"] for row in rows if not row["converged"]]
    if bad:
        sys.stderr.write(f"non-converged states: {bad}\n")
    _emit(_render_rows(rows, config), config)
    return EXIT_NONCONVERGENCE if bad else EXIT_OK


def cmd_phase(config: RunConfig, j: int, method: str) -> int:
    qn = osc.get_state(j)
    constants = config.constants_for(j)
    nodes = config.node_counts()
    loop = berry.LoopParams(radius=config.radius, steps=config.steps)
    if method == "closed":
        result = berry.berry_phase_closed(j, constants, nodes)
    elif method == "loop-connection":
        result = berry.berry_phase_loop_connection(j, constants, loop, nodes)
    else:
        result = berry.berry_phase_loop_overlap(j, constants, loop, nodes)
    lines = [f"state {j}: quantum numbers (n_a, l, n, m) = "
             f"({qn.n_a}, {qn.l}, {qn.n}, {qn.m})",
             # 2E is odd, so E prints as reduced_energy does, without a Fraction
             f"eigenvalue: {qn.twice_energy}/2 in units of hbar*omega",
             f"method: {result.method}"]
    if qn.is_null:
        reason = "l < n" if qn.vanishing_polar else "m < n"
        lines.append(f"state vanishes identically ({reason}); phase is zero")
    if config.dimensionless:
        lines.append(f"gamma/r^2 (dimensionless) = {_fmt(result.dimensionless_value)}")
        lines.append("SI prefactor: 1/(M*omega^2)^2, apply for couplings in J/m^2")
    else:
        lines.append(f"gamma/r^2 = {_fmt(result.gamma_over_r2)} (r in J/m^2)")
        lines.append(f"  = dimensionless {_fmt(result.dimensionless_value)} "
                     f"x prefactor {_fmt(result.si_prefactor)}")
    for key in ("steps", "radius", "imag_residual"):
        if key in result.metadata:
            lines.append(f"{key}: {result.metadata[key]}")
    _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


def cmd_oracle(config: RunConfig, j: int) -> int:
    if osc.get_state(j).is_null:
        raise ParameterError(f"state {j} vanishes identically; no oracle comparison")
    constants = config.constants_for(j)
    loop = berry.LoopParams(radius=config.radius, steps=config.steps)
    report = berry.oracle_comparison(j, constants, loop, config.node_counts())
    lines = [f"state {j} oracle comparison (dimensionless values)"]
    for key in ("closed", "loop_connection", "loop_overlap"):
        result = report[key]
        extra = ""
        if "radius" in result.metadata:
            extra = f"  [steps={result.metadata['steps']} r={result.metadata['radius']:.3e}]"
        lines.append(f"  {result.method:>16}: {_fmt(result.dimensionless_value)}{extra}")
    lines.append(f"  gap closed/connection: {report['gap_closed_connection']:.3e}")
    lines.append(f"  gap closed/overlap:    {report['gap_closed_overlap']:.3e}")
    lines.append(f"  gap connection/overlap:{report['gap_connection_overlap']:.3e}")
    raw = report["loop_overlap"].metadata["raw_values"]
    lines.append(f"  overlap raw values at r, r/2: {_fmt(raw[0])}, {_fmt(raw[1])}"
                 f" (Richardson extrapolated)")
    _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


def cmd_validate(config: RunConfig) -> int:
    from . import validate as val
    results = val.run_checks(config.node_counts())
    lines = []
    for check in results:
        status = "WARN" if check.warning else ("PASS" if check.passed else "FAIL")
        lines.append(f"[{status}] {check.name}: {check.detail}")
    failures = [c for c in results if not c.passed]
    warnings = [c for c in results if c.warning]
    lines.append(f"{len(results) - len(failures)}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", config)
    if failures:
        return EXIT_VALIDATION
    if warnings:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--nodes", type=int, default=None,
                        help=f"quadrature nodes per axis, 16..{osc.MAX_NODES} (default 128)")
    parser.add_argument("--format", choices=("csv", "json", "pretty"), default=None)
    parser.add_argument("--out", default=None, help="write output to a file")


def _add_frequency(parser: argparse.ArgumentParser) -> None:
    """Flags of the commands that report a phase; validate runs at fixed constants."""
    parser.add_argument("--omega", dest="omega_mhz", type=float, metavar="MHZ",
                        help="frequency in MHz (overrides per-state defaults)")
    parser.add_argument("--omega-convention", dest="omega_convention",
                        choices=("angular", "cyclic"), default=None,
                        help="read --omega as rad/s (angular) or cycles/s (cyclic)")
    parser.add_argument("--hbar-convention", dest="hbar_convention",
                        choices=("hbar", "h"), default=None,
                        help="accepted and echoed in JSON output; hbar cancels "
                             "from every phase, so it changes no number")
    parser.add_argument("--dimensionless", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="report pure numbers, couplings in units of M*omega^2 "
                             "(--no-dimensionless overrides a config file)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmsphase",
        description="Loop phases of the perturbed four-dimensional oscillator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("table", "phase table for all normalizable states"),
                          ("phase", "phase of a single state"),
                          ("oracle", "compare closed form against loop oracles"),
                          ("validate", "run the invariant self-checks")):
        p = sub.add_parser(command, help=text)
        _add_common(p)
        if command != "validate":
            _add_frequency(p)
        if command in ("phase", "oracle"):
            p.add_argument("--state", type=int, required=True, metavar="J")
        if command == "phase":
            p.add_argument("--method", choices=("closed", "loop-connection", "loop-overlap"),
                           default="closed")
        if command in ("phase", "oracle"):
            p.add_argument("--steps", type=int, default=None,
                           help=f"loop samples per circle, 8..{berry.MAX_STEPS} (default 720)")
            p.add_argument("--radius", type=float, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "table":
            return cmd_table(config)
        if args.command == "phase":
            return cmd_phase(config, args.state, args.method)
        if args.command == "oracle":
            return cmd_oracle(config, args.state)
        return cmd_validate(config)
    except ParameterError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except EvaluationError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
