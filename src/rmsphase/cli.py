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
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from . import berry, oscillator as osc, validate as val
from .errors import ConfigError, ParameterError, RmsPhaseError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3

CONFIG_ENV_VAR = "RMSPHASE_CONFIG"

CSV_COLUMNS = ("j", "omega_hz", "gamma_over_r2", "method", "converged")

STEPS_HELP = f"loop samples per circle, 8..{berry.MAX_STEPS} (default 720)"

_CONFIG_KEYS = {
    "omega_mhz": float,
    "omega_convention": str,
    "hbar_convention": str,
    "dimensionless": lambda v: v.lower() in ("1", "true", "yes"),
    "nodes": int,
    "steps": int,
    "radius": float,
    "format": str,
    "out": str,
}


@dataclass
class RunConfig:
    """Resolved settings for one invocation."""

    omega_mhz: float | None = None
    omega_convention: str = "angular"
    hbar_convention: str = "hbar"
    dimensionless: bool = False
    nodes: int = 128
    steps: int = 720
    radius: float | None = None
    format: str = "pretty"
    out: str | None = None

    def __post_init__(self):
        if not 16 <= self.nodes <= 1024:
            raise ConfigError(f"node count must be in 16..1024, got {self.nodes}")
        if self.format not in ("csv", "json", "pretty"):
            raise ConfigError(f"unknown output format {self.format!r}")
        if self.omega_convention not in ("angular", "cyclic"):
            raise ConfigError(f"unknown omega convention {self.omega_convention!r}")
        if self.hbar_convention not in ("hbar", "h"):
            raise ConfigError(f"unknown hbar convention {self.hbar_convention!r}")
        if self.dimensionless and self.omega_mhz is not None:
            raise ConfigError("omega_mhz (--omega) cannot be combined with "
                              "dimensionless (--dimensionless)")

    def node_counts(self) -> osc.NodeCounts:
        return osc.NodeCounts.uniform(self.nodes)

    def constants_for(self, omega_mhz: float) -> osc.PhysicalConstants:
        if self.dimensionless:
            return osc.PhysicalConstants.dimensionless()
        return osc.PhysicalConstants.from_frequency(
            omega_mhz, self.omega_convention, self.hbar_convention)


def read_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    settings = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    settings[key] = _CONFIG_KEYS[key](value.strip())
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return settings


def build_config(args: argparse.Namespace) -> RunConfig:
    settings: dict = {}
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        settings.update(read_config_file(path))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            settings[key] = flag
    return RunConfig(**settings)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _omega_mhz(config: RunConfig, j: int) -> float:
    """The --omega value when one is given, else state j's reference frequency."""
    # a given 0 must reach PhysicalConstants, which rejects it
    if config.omega_mhz is not None:
        return config.omega_mhz
    return val.ROW_FREQUENCIES_MHZ.get(j, 240.4)


def _phase_converged(j: int, config: RunConfig,
                     constants: osc.PhysicalConstants) -> tuple[berry.PhaseResult, bool]:
    nodes = config.node_counts()
    result = berry.berry_phase_closed(j, constants, nodes)
    refined = berry.berry_phase_closed(j, constants, nodes.doubled())
    converged = bool(val.within(result.dimensionless_value,
                                refined.dimensionless_value, 1e-9, 1e-9))
    return result, converged


def _table_rows(config: RunConfig) -> list[dict]:
    rows = []
    for j in osc.live_indices():
        constants = config.constants_for(_omega_mhz(config, j))
        result, converged = _phase_converged(j, config, constants)
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([row["j"], _fmt(row["omega_hz"]),
                             _fmt(row["gamma_over_r2"]), row["method"],
                             str(row["converged"]).lower()])
        return buf.getvalue()
    if config.format == "json":
        payload = {
            "rows": [{k: row[k] for k in ("j", "omega_hz", "gamma_over_r2",
                                          "method", "converged",
                                          "dimensionless_value", "si_prefactor")}
                     for row in rows],
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
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {config.out}: {exc}")
    else:
        sys.stdout.write(text)


def cmd_table(config: RunConfig) -> int:
    rows = _table_rows(config)
    if not all(row["converged"] for row in rows):
        bad = [row["j"] for row in rows if not row["converged"]]
        sys.stderr.write(f"non-converged states: {bad}\n")
        _emit(_render_rows(rows, config), config)
        return EXIT_NONCONVERGENCE
    _emit(_render_rows(rows, config), config)
    return EXIT_OK


def cmd_phase(config: RunConfig, j: int, method: str) -> int:
    record = osc.get_state(j)
    constants = config.constants_for(_omega_mhz(config, j))
    nodes = config.node_counts()
    loop = berry.LoopParams(radius=config.radius, steps=config.steps)
    if method == "closed":
        result = berry.berry_phase_closed(j, constants, nodes)
    elif method == "loop-connection":
        result = berry.berry_phase_loop_connection(j, constants, loop, nodes)
    else:
        result = berry.berry_phase_loop_overlap(j, constants, loop, nodes)
    lines = [f"state {j}: quantum numbers (n_a, l, n, m) = "
             f"({record.qn.n_a}, {record.qn.l}, {record.qn.n}, {record.qn.m})",
             f"eigenvalue: {record.energy_factor} in units of hbar*omega",
             f"method: {result.method}"]
    if record.is_null:
        reason = "l < n" if record.identically_zero else "m < n"
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
    record = osc.get_state(j)
    if record.is_null:
        raise ConfigError(f"state {j} vanishes identically; no oracle comparison")
    constants = config.constants_for(_omega_mhz(config, j))
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
    parser.add_argument("--omega", dest="omega_mhz", type=float, metavar="MHZ",
                        help="frequency in MHz (overrides per-state defaults)")
    parser.add_argument("--omega-convention", dest="omega_convention",
                        choices=("angular", "cyclic"), default=None,
                        help="read --omega as rad/s (angular) or cycles/s (cyclic)")
    parser.add_argument("--hbar-convention", dest="hbar_convention",
                        choices=("hbar", "h"), default=None,
                        help="treat the Planck default as hbar or as h")
    parser.add_argument("--dimensionless", action="store_true", default=False,
                        help="report pure numbers, couplings in units of M*omega^2")
    parser.add_argument("--nodes", type=int, default=None,
                        help="quadrature nodes per axis, 16..1024 (default 128)")
    parser.add_argument("--format", choices=("csv", "json", "pretty"), default=None)
    parser.add_argument("--out", default=None, help="write output to a file")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmsphase",
        description="Loop phases of the perturbed four-dimensional oscillator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="phase table for all normalizable states")
    _add_common(p_table)

    p_phase = sub.add_parser("phase", help="phase of a single state")
    _add_common(p_phase)
    p_phase.add_argument("--state", type=int, required=True, metavar="J")
    p_phase.add_argument("--method", choices=("closed", "loop-connection", "loop-overlap"),
                         default="closed")
    p_phase.add_argument("--steps", type=int, default=None, help=STEPS_HELP)
    p_phase.add_argument("--radius", type=float, default=None)

    p_oracle = sub.add_parser("oracle", help="compare closed form against loop oracles")
    _add_common(p_oracle)
    p_oracle.add_argument("--state", type=int, required=True, metavar="J")
    p_oracle.add_argument("--steps", type=int, default=None, help=STEPS_HELP)
    p_oracle.add_argument("--radius", type=float, default=None)

    p_validate = sub.add_parser("validate", help="run the invariant self-checks")
    _add_common(p_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "table":
            return cmd_table(config)
        if args.command == "phase":
            if not 1 <= args.state <= 16:
                raise ConfigError(f"state index must be in 1..16, got {args.state}")
            return cmd_phase(config, args.state, args.method)
        if args.command == "oracle":
            if not 1 <= args.state <= 16:
                raise ConfigError(f"state index must be in 1..16, got {args.state}")
            return cmd_oracle(config, args.state)
        if args.command == "validate":
            return cmd_validate(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParameterError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except RmsPhaseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
