"""Command-line interface: subcommands, formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmsphase import cli
from rmsphase.errors import EvaluationError, ParameterError, RmsPhaseError

REFERENCE_CSV = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "table.csv"
REFERENCE_JSON = Path(__file__).resolve().parent / "data" / "table.json"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LIVE = [1, 2, 5, 6, 8, 9, 10, 13, 14, 16]
FAST = ("--nodes", "32")


class TestTable:
    def test_csv_rows_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "csv", *FAST)
        assert code == cli.EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(cli.CSV_COLUMNS)
        assert [int(r[0]) for r in rows[1:]] == LIVE
        assert all(r[4] == "true" for r in rows[1:])

    def test_reference_frequencies(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "csv", *FAST)
        rows = {int(r[0]): r for r in list(csv.reader(io.StringIO(out)))[1:]}
        assert float(rows[1][1]) == pytest.approx(240.4e6)
        assert float(rows[2][1]) == pytest.approx(89.6e6)
        assert float(rows[8][1]) == pytest.approx(334.02e6)

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "--format", "csv", *FAST)
        _, out2, _ = run_cli(capsys, "table", "--format", "csv", *FAST)
        assert out1 == out2

    def test_json_matches_reference(self, capsys):
        # the JSON echoes the node count, so the reference is at the default
        code, out, _ = run_cli(capsys, "table", "--format", "json")
        assert code == cli.EXIT_OK
        assert out == REFERENCE_JSON.read_bytes().decode()

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json", *FAST)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert len(payload["rows"]) == 10
        row = payload["rows"][0]
        assert set(row) == {"j", "omega_hz", "gamma_over_r2", "method",
                            "converged", "dimensionless_value", "si_prefactor"}
        assert payload["config"]["nodes"] == 32

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table", "--format", "csv",
                               "--out", str(target), *FAST)
        assert code == cli.EXIT_OK
        assert out == ""
        assert target.read_text().startswith("j,omega_hz")

    def test_dimensionless_mode(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json",
                               "--dimensionless", *FAST)
        payload = json.loads(out)
        assert all(r["si_prefactor"] == 1.0 for r in payload["rows"])


class TestHbarConvention:
    """--hbar-convention is parsed, checked and echoed; hbar cancels from every
    phase, so it changes no number."""

    @pytest.mark.parametrize("argv", [("table", "--format", "csv"), ("phase", "--state", "8")])
    def test_h_gives_the_default_output(self, capsys, argv):
        default = run_cli(capsys, *argv, *FAST)
        assert default[0] == cli.EXIT_OK
        assert run_cli(capsys, *argv, "--hbar-convention", "h", *FAST) == default

    def test_json_echoes_it(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json", "--hbar-convention", "h",
                               *FAST)
        assert code == cli.EXIT_OK
        assert json.loads(out)["config"]["hbar_convention"] == "h"

    def test_unknown_value_in_config_file_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hbar_convention = planck\n")
        code, out, err = run_cli(capsys, "table", "--config", str(cfg), *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err == "configuration error: unknown hbar convention 'planck'\n"


class TestPhase:
    def test_live_state(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--state", "1", *FAST)
        assert code == cli.EXIT_OK
        assert "gamma/r^2" in out

    def test_null_state_reports_zero(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--state", "3", *FAST)
        assert code == cli.EXIT_OK
        assert "vanishes identically" in out
        assert "l < n" in out

    def test_rapidity_null_state(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--state", "7", *FAST)
        assert code == cli.EXIT_OK
        assert "m < n" in out

    def test_dimensionless_output(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--state", "1",
                               "--dimensionless", *FAST)
        assert code == cli.EXIT_OK
        assert "dimensionless" in out
        assert "prefactor" in out

    def test_loop_method(self, capsys):
        code, out, _ = run_cli(capsys, "phase", "--state", "1", "--method",
                               "loop-connection", "--steps", "360", *FAST)
        assert code == cli.EXIT_OK
        assert "loop-connection" in out

    def test_bad_state_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "phase", "--state", "17", *FAST)
        assert code == cli.EXIT_CONFIG
        assert "configuration error" in err


class TestOracle:
    def test_comparison_report(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--state", "1",
                               "--steps", "360", *FAST)
        assert code == cli.EXIT_OK
        assert "closed" in out and "loop-connection" in out and "loop-overlap" in out
        assert "gap" in out

    def test_null_state_rejected(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--state", "3", *FAST)
        assert code == cli.EXIT_CONFIG

    def test_coarse_steps_still_finite(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--state", "1",
                               "--steps", "8", *FAST)
        assert code == cli.EXIT_OK
        assert "nan" not in out and "inf" not in out

    def test_too_coarse_chain_is_a_numerical_error(self, capsys):
        # a loop the steps cannot resolve is non-convergence (exit 3), not a failed validation
        code, out, err = run_cli(capsys, "oracle", "--state", "9", "--steps", "8",
                                 "--radius", "1e4", "--nodes", "16")
        assert code == cli.EXIT_NONCONVERGENCE
        assert out == ""
        assert err == ("numerical error: adjacent loop samples barely overlap; "
                       "increase the step count\n")

    def test_unconverged_rule_is_a_numerical_error(self, monkeypatch, capsys):
        def unconverged(nodes):
            raise EvaluationError("Gauss nodes not converged by the order-8 Taylor solve")

        monkeypatch.setattr(cli.osc, "exactness_gap", unconverged)
        code, out, err = run_cli(capsys, "table", *FAST)
        assert code == cli.EXIT_NONCONVERGENCE
        assert out == ""
        assert err == ("numerical error: Gauss nodes not converged by the order-8 "
                       "Taylor solve\n")


class TestErrorExits:
    def test_one_class_per_error_exit(self):
        assert RmsPhaseError.__subclasses__() == [ParameterError, EvaluationError]

    @pytest.mark.parametrize("error, code, prefix", [
        (ParameterError, cli.EXIT_CONFIG, "configuration error:"),
        (EvaluationError, cli.EXIT_NONCONVERGENCE, "numerical error:")])
    def test_each_class_maps_to_its_exit(self, monkeypatch, capsys, error, code, prefix):
        def failing(config):
            raise error("raised inside the command")

        monkeypatch.setattr(cli, "cmd_validate", failing)
        assert run_cli(capsys, "validate", *FAST) == (
            code, "", f"{prefix} raised inside the command\n")


class TestStructuralZeroSign:
    """Every loop-connection phase of the catalogue is an exact zero, whose
    sign roundoff in the rules flips from one node count to another."""

    @staticmethod
    def printed(capsys, j, nodes):
        _, phase, _ = run_cli(capsys, "phase", "--state", str(j), "--method", "loop-connection",
                              "--dimensionless", "--nodes", nodes)
        _, oracle, _ = run_cli(capsys, "oracle", "--state", str(j), "--nodes", nodes)
        value = [line for line in phase.splitlines() if line.startswith("gamma/r^2")]
        # the oracle line goes on with the loop radius, which moves at roundoff
        value += [line.split("[")[0].strip() for line in oracle.splitlines()
                  if "loop-connection:" in line]
        return value

    def test_same_line_at_two_node_counts(self, capsys):
        # before the sign was fixed, states 1, 8 and 16 printed 0 at one of these counts and -0 at the other
        for j in LIVE:
            assert (self.printed(capsys, j, "32") == self.printed(capsys, j, "128")
                    == ["gamma/r^2 (dimensionless) = 0", "loop-connection: 0"]), j


class TestOverlapZeroSign:
    """The overlap route returns an exact zero as +0, as the connection loop does."""

    @pytest.mark.parametrize("steps", ["8", "720"])
    def test_no_overlap_value_prints_minus_zero(self, capsys, steps):
        # at 8 steps state 16's chain sums to an exact zero at both radii
        for j in LIVE:
            code, out, _ = run_cli(capsys, "oracle", "--state", str(j), "--steps", steps)
            assert code == cli.EXIT_OK
            lines = [line.split(":", 1)[1] for line in out.splitlines()
                     if "loop-overlap:" in line or "raw values" in line]
            values = [token for line in lines
                      for token in line.split("(")[0].split("[")[0].replace(",", " ").split()]
            assert len(values) == 3 and "-0" not in values, (j, values)


class TestValidate:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--nodes", "48")
        assert code == cli.EXIT_OK
        assert "[PASS] orthonormality" in out
        assert "[FAIL]" not in out

    def test_low_resolution_warns_with_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--nodes", "16")
        assert code == cli.EXIT_NONCONVERGENCE
        assert ("[WARN] resolution-floor: node count 16: this suite is not validated "
                "below 32 nodes/axis\n") in out

    @pytest.mark.parametrize("command", [("table",), ("phase", "--state", "1"),
                                         ("oracle", "--state", "1")])
    def test_low_resolution_outside_validate_exits_0(self, capsys, command):
        code, out, _ = run_cli(capsys, *command, "--nodes", "16")
        assert code == cli.EXIT_OK
        assert "WARN" not in out

    # a wrong measure in one axis's weight; each keeps the coupling factor's power
    @pytest.mark.parametrize("field, weight", [
        ("rapidity", lambda b, p: np.cosh(b) ** (2 * p)),
        ("rapidity", lambda b, p: np.cosh(b) ** (2 + 2 * p)),
        ("polar", lambda t, p: np.sin(t) ** (4 + 2 * p)),
        ("radial", lambda r, p: r ** (5 + 2 * p)),
    ], ids=["rapidity-no-cosh", "rapidity-cosh-squared", "polar-sin-4", "radial-r-5"])
    def test_wrong_axes_measure_fails(self, monkeypatch, capsys, fresh_tables, field, weight):
        from rmsphase import oscillator as osc
        monkeypatch.setattr(osc, "AXES", tuple(axis._replace(weight=weight)
                                               if axis.field == field else axis
                                               for axis in osc.AXES))
        code, out, _ = run_cli(capsys, "validate", "--nodes", "48")
        assert code == cli.EXIT_VALIDATION
        assert "[FAIL] measure-jacobian" in out

    def test_nonzero_null_phase_fails_zero_classes(self, monkeypatch, capsys):
        from rmsphase import berry
        closed = berry.berry_phase_closed
        monkeypatch.setattr(berry, "berry_phase_closed",
                            lambda *args: closed(*args)._replace(dimensionless_value=1.0))
        code, out, _ = run_cli(capsys, "validate", *FAST)
        assert code == cli.EXIT_VALIDATION
        assert "[FAIL] zero-classes: null state 3 has nonzero phase\n" in out

    def test_wrong_live_set_fails_zero_classes(self, monkeypatch):
        from rmsphase import validate
        monkeypatch.setattr(validate.osc, "live_indices", lambda: (1, 2, 5))
        result = validate._check_zero_classes(validate.osc.PhysicalConstants.dimensionless(),
                                              validate.osc.NodeCounts.uniform(32))
        assert result == ("zero-classes", False, "normalizable set [1, 2, 5] != "
                          "[1, 2, 5, 6, 8, 9, 10, 13, 14, 16]", False)

    def test_cold_validate_does_not_import_numpy_random(self):
        proc = run_python("""
            import sys
            from rmsphase import cli
            code = cli.main(["validate"])
            assert "numpy.random" not in sys.modules
            sys.exit(code)
        """)
        assert proc.returncode == cli.EXIT_OK, proc.stderr.decode()


class TestConfig:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nnodes = 32\nformat = csv\n")
        code, out, _ = run_cli(capsys, "table", "--config", str(cfg))
        assert code == cli.EXIT_OK
        assert out.startswith("j,omega_hz")

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("nodes = 32\nformat = json\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
        code, out, _ = run_cli(capsys, "table")
        assert code == cli.EXIT_OK
        assert json.loads(out)["config"]["nodes"] == 32

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes = 32\nformat = json\n")
        code, out, _ = run_cli(capsys, "table", "--config", str(cfg),
                               "--format", "csv")
        assert code == cli.EXIT_OK
        assert out.startswith("j,omega_hz")

    @pytest.mark.parametrize("file_value, flags, dimensionless", [
        ("true", (), True),
        ("true", ("--dimensionless",), True),
        ("true", ("--no-dimensionless",), False),
        ("false", (), False),
        ("false", ("--dimensionless",), True),
        ("false", ("--no-dimensionless",), False),
    ])
    def test_dimensionless_file_key_and_flags(self, capsys, tmp_path, file_value, flags,
                                              dimensionless):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dimensionless = {file_value}\nnodes = 32\nformat = json\n")
        code, out, _ = run_cli(capsys, "table", "--config", str(cfg), *flags)
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["config"]["dimensionless"] is dimensionless
        assert (payload["rows"][0]["omega_hz"] == 0.0) is dimensionless

    def test_no_dimensionless_admits_omega_over_file_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dimensionless = true\n")
        command = ("phase", "--state", "1", "--config", str(cfg), "--omega", "240.4", *FAST)
        code, _, err = run_cli(capsys, *command)
        assert code == cli.EXIT_CONFIG
        assert "cannot be combined" in err
        code, out, _ = run_cli(capsys, *command, "--no-dimensionless")
        assert code == cli.EXIT_OK
        assert "(r in J/m^2)" in out

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wavelength = 7\n")
        code, _, err = run_cli(capsys, "table", "--config", str(cfg))
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("line, message", [
        ("format = xml", "unknown output format 'xml'"),
        ("omega_convention = bogus", "unknown omega convention 'bogus'"),
        ("nodes 32", "{cfg}:1: expected key=value"),
        ("nodes = 64\n# smaller\nnodes = 32",
         "{cfg}:3: key 'nodes' given twice, on lines 1 and 3"),
    ], ids=["format", "omega-convention", "no-equals", "key-twice"])
    def test_bad_config_line_is_config_error(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, "table", "--config", str(cfg))
        assert (code, out) == (cli.EXIT_CONFIG, "")
        assert err == f"configuration error: {message.format(cfg=cfg)}\n"

    def test_low_node_count_rejected(self, capsys):
        for nodes in ("8", "1025"):
            code, _, err = run_cli(capsys, "table", "--nodes", nodes)
            assert code == cli.EXIT_CONFIG
            assert "node count must be in 16..1024" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "table", "--config", "/nonexistent.cfg")
        assert code == cli.EXIT_CONFIG

    def test_empty_config_flag_is_config_error(self, capsys, tmp_path, monkeypatch):
        # an empty flag once fell through to the variable's file, against "flags win"
        cfg = tmp_path / "env.cfg"
        cfg.write_text("nodes = 8\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
        code, out, err = run_cli(capsys, "table", "--config", "")
        assert (code, out) == (cli.EXIT_CONFIG, "")
        assert err.startswith("configuration error: cannot read config file : ")

    def test_empty_config_variable_reads_no_file(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, "")
        code, out, _ = run_cli(capsys, "table", "--format", "csv", *FAST)
        assert code == cli.EXIT_OK
        assert out.startswith("j,omega_hz")

    def test_non_utf8_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"nodes = 32\n# \xff\n")
        code, out, err = run_cli(capsys, "table", "--config", str(cfg))
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err == f"configuration error: cannot read config file {cfg}: not UTF-8 text\n"

    def test_config_file_with_a_byte_order_mark(self, capsys, tmp_path):
        # the mark was once read into the first key, "unknown key '\ufeffnodes'"
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfnodes = 32\nformat = json\n")
        code, out, _ = run_cli(capsys, "table", "--config", str(cfg))
        assert code == cli.EXIT_OK
        assert json.loads(out)["config"]["nodes"] == 32

    def test_argparse_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["phase"])          # --state is required
        assert exc.value.code == 2


class TestHighNodeCounts:
    """Node counts at which the radial rule used to overflow (n >= 364)."""

    def test_table_at_384_nodes_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--nodes", "384", "--format", "csv")
        assert code == cli.EXIT_OK
        assert out == REFERENCE_CSV.read_bytes().decode()

    def test_validate_at_364_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--nodes", "364")
        assert code == cli.EXIT_OK
        assert "9/9 checks passed" in out


def run_python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this rmsphase."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)


# modules that a cold command loads only when it runs them
UNUSED_ON_COLD_PATH = ("rmsphase.validate", "csv", "json", "fractions", "decimal")


@pytest.mark.parametrize("argv, unused", [
    (None, ("fractions", "decimal")),
    (["phase", "--state", "8"], UNUSED_ON_COLD_PATH),
    (["phase", "--state", "3", "--method", "loop-overlap"], UNUSED_ON_COLD_PATH),
    (["oracle", "--state", "1"], UNUSED_ON_COLD_PATH),
    (["table", "--format", "csv"], ("rmsphase.validate", "csv", "json")),
], ids=["import", "phase", "phase-null-state", "oracle", "table-csv"])
def test_cold_command_loads_only_what_it_runs(argv, unused):
    proc = run_python(f"""
        import sys
        if {argv!r} is None:
            import rmsphase
            code = 0
        else:
            from rmsphase import cli
            code = cli.main({argv!r})
        loaded = [name for name in {unused!r} if name in sys.modules]
        assert not loaded, loaded
        sys.exit(code)
    """)
    assert proc.returncode == cli.EXIT_OK, proc.stderr.decode()


def test_runs_on_numpy_alone():
    """scipy is a test-only dependency: block it and run a table."""
    proc = run_python("""
        import sys
        sys.modules["scipy"] = None    # every scipy import now raises ImportError
        from rmsphase import cli, oscillator
        code = cli.main(["table", "--format", "csv"])
        oscillator.overlap_tables()
        loaded = [name for name, module in sys.modules.items()
                  if name.startswith("scipy") and module is not None]
        assert not loaded, loaded
        sys.exit(code)
    """)
    assert proc.returncode == cli.EXIT_OK, proc.stderr.decode()
    assert proc.stdout == REFERENCE_CSV.read_bytes()


class TestMutationHook:
    def test_sign_flip_detected_by_validate(self, monkeypatch, capsys):
        from rmsphase import berry
        monkeypatch.setattr(berry, "_PHASE_ORIENTATION", +1.0)
        code, out, _ = run_cli(capsys, "validate", "--nodes", "48")
        assert code == cli.EXIT_VALIDATION
        assert "[FAIL] sign-mutation-detector" in out


def patch_phi(monkeypatch, pert, fault):
    """Rebuild the channel stack ``pert._PHI`` from ``fault``, a stand-in for
    ``phi_integral`` called on every live pair."""
    m = [qn.m for qn in pert.osc._LIVE_QNS]
    monkeypatch.setattr(pert, "_PHI", np.array(
        [[[fault(mi, mj, channel) for mj in m] for mi in m] for channel in pert.Channel]))


def patch_rules(monkeypatch, osc, field, pick):
    """Make the ``field`` axis of ``osc.AXES`` hand out ``pick`` of its rule pair."""
    axes = tuple(axis._replace(rules=lambda n, rules=axis.rules: pick(rules(n)))
                 if axis.field == field else axis for axis in osc.AXES)
    monkeypatch.setattr(osc, "AXES", axes)


# (axis, pick) arguments of patch_rules for the three known rule faults
RULE_FAULTS = {
    "polar-odd-for-even": ("polar", lambda rules: (rules[1], rules[1])),
    "rapidity-even-for-odd": ("rapidity", lambda rules: (rules[0], rules[0])),
    "radial-swapped": ("radial", lambda rules: rules[::-1]),
}


class TestTableFaults:
    def test_swapped_radial_rules_detected_by_validate(self, monkeypatch, capsys,
                                                       fresh_tables):
        from rmsphase import oscillator as osc
        patch_rules(monkeypatch, osc, "radial", lambda rules: rules[::-1])
        code, out, _ = run_cli(capsys, "validate", "--nodes", "48")
        assert code == cli.EXIT_VALIDATION
        assert "[FAIL] orthonormality" in out

    # each fault leaves a relative gap of 6e-5 to 1.1e-3 from the 9-node build at
    # every count; the swapped radial rules also break orthonormality below 256
    @pytest.mark.parametrize("nodes", ["16", "17", "48", "128", "256", "1024"])
    @pytest.mark.parametrize("fault", ["clean", *RULE_FAULTS])
    def test_wrong_rule_fails_exactness(self, monkeypatch, capsys, fresh_tables, fault, nodes):
        from rmsphase import oscillator as osc
        failing = []
        if fault != "clean":
            patch_rules(monkeypatch, osc, *RULE_FAULTS[fault])
            failing = ["orthonormality"] * (fault == "radial-swapped" and int(nodes) < 256)
            failing.append("exactness")
        code, out, _ = run_cli(capsys, "validate", "--nodes", nodes)
        assert [line.split(":")[0] for line in out.splitlines()
                if line.startswith("[FAIL]")] == [f"[FAIL] {name}" for name in failing]
        assert (code == cli.EXIT_VALIDATION) is bool(failing)
        assert ("[PASS] exactness" in out) is not bool(failing)

    # the even rapidity rule on the odd pairs' sqrt(1-u^2) integrands leaves a
    # gap of 7e-4 at 1024 rapidity nodes (1e-15 with the right rule)
    @pytest.mark.parametrize("faulty", [True, False], ids=["even-rule-for-odd-pairs", "clean"])
    def test_rapidity_exactness_check_at_1024_nodes(self, monkeypatch, fresh_tables, faulty):
        from rmsphase import oscillator as osc
        from rmsphase import validate as val
        if faulty:
            patch_rules(monkeypatch, osc, *RULE_FAULTS["rapidity-even-for-odd"])
        result = val._check_exactness(osc.NodeCounts(16, 16, 16, 1024))
        assert result.passed is not faulty, result.detail

    def test_non_positive_norm_is_a_numerical_error(self, monkeypatch, capsys, fresh_tables):
        # azimuthal weights of the wrong sign give every squared norm the wrong sign
        from rmsphase import quadrature as quad
        trapezoid = quad.periodic_trapezoid

        def flipped(*args):
            rule = trapezoid(*args)
            return rule._replace(weights=-rule.weights)

        monkeypatch.setattr(quad, "periodic_trapezoid", flipped)
        code, out, err = run_cli(capsys, "table", *FAST)
        assert (code, out) == (cli.EXIT_NONCONVERGENCE, "")
        assert err == ("numerical error: non-positive norm for "
                       "QuantumNumbers(n_a=3, l=3, n=2, m=2)\n")

    def test_polar_fault_makes_table_non_converged(self, monkeypatch, capsys, fresh_tables):
        from rmsphase import oscillator as osc
        patch_rules(monkeypatch, osc, *RULE_FAULTS["polar-odd-for-even"])
        code, out, err = run_cli(capsys, "table", "--format", "csv")
        assert code == cli.EXIT_NONCONVERGENCE
        assert [row[4] for row in csv.reader(io.StringIO(out))][1:] == ["false"] * len(LIVE)
        assert err == f"non-converged states: {LIVE}\n"

    def test_flipped_sine_channel_detected_by_validate(self, monkeypatch, capsys,
                                                       fresh_tables):
        from rmsphase import perturbation as pert
        straight = pert.phi_integral

        def flipped(m_bra, m_ket, channel):
            value = straight(m_bra, m_ket, channel)
            return -value if channel is pert.Channel.SINE else value

        patch_phi(monkeypatch, pert, flipped)
        code, out, _ = run_cli(capsys, "validate", "--nodes", "48")
        assert code == cli.EXIT_VALIDATION
        assert "[FAIL] channel-sum-rule" in out

    def test_non_hermitian_phi_integral_detected_by_validate(self, monkeypatch, capsys,
                                                             fresh_tables):
        from rmsphase import perturbation as pert
        straight = pert.phi_integral

        def skewed(m_bra, m_ket, channel):
            # the imaginary part keeps its sign under bra/ket swap
            value = straight(m_bra, m_ket, channel)
            return complex(value.real, abs(value.imag))

        patch_phi(monkeypatch, pert, skewed)
        code, out, _ = run_cli(capsys, "validate", "--nodes", "48")
        assert code == cli.EXIT_VALIDATION
        assert "[FAIL] hermiticity" in out


class TestBadInput:
    @pytest.mark.parametrize("command, fmt", [(("validate",), "json"),
                                              (("oracle", "--state", "1"), "csv"),
                                              (("phase", "--state", "1"), "json")])
    def test_format_flag_outside_table_is_config_error(self, capsys, command, fmt):
        # these commands print plain text only; a CSV or JSON request is not ignored
        code, out, err = run_cli(capsys, *command, "--format", fmt, *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert f"--format {fmt}: only table reads --format" in err

    def test_format_in_config_file_stays_a_table_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = json\n")
        code, out, _ = run_cli(capsys, "phase", "--state", "1", "--config", str(cfg), *FAST)
        assert code == cli.EXIT_OK
        assert out.startswith("state 1:")

    @pytest.mark.parametrize("flags", [("--omega", "-5"), ("--omega-convention", "cyclic"),
                                       ("--hbar-convention", "h"), ("--dimensionless",),
                                       ("--no-dimensionless",)])
    def test_frequency_flag_on_validate_is_usage_error(self, capsys, flags):
        # validate runs at fixed constants; a frequency flag there is refused, not ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", *flags, *FAST])
        assert exc.value.code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_frequency_in_config_file_stays_a_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_mhz = 240.4\nomega_convention = cyclic\n")
        code, out, _ = run_cli(capsys, "validate", "--config", str(cfg), *FAST)
        assert code == cli.EXIT_OK
        assert out.endswith("9/9 checks passed\n")

    @pytest.mark.parametrize("command", [("table",), ("phase", "--state", "1"),
                                         ("oracle", "--state", "1")])
    def test_omega_zero_is_config_error(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--omega", "0", *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err and "finite and positive" in err

    @pytest.mark.parametrize("omega", ["nan", "inf"])
    def test_non_finite_omega_is_config_error(self, capsys, omega):
        code, out, err = run_cli(capsys, "phase", "--state", "1", "--omega", omega, *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "finite and positive" in err

    @pytest.mark.parametrize("command, omega", [
        (("phase", "--state", "1"), "1e-70"),
        (("table", "--format", "csv"), "1e-70"),
        (("phase", "--state", "1"), "1e-300"),
        (("phase", "--state", "1"), "1e90"),
    ])
    def test_omega_with_coupling_out_of_range_is_config_error(self, capsys, command, omega):
        code, out, err = run_cli(capsys, *command, "--omega", omega, *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err and "M omega^2" in err

    def test_omega_with_dimensionless_flags(self, capsys):
        code, out, err = run_cli(capsys, "phase", "--state", "1", "--dimensionless",
                                 "--omega", "0", *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "omega_mhz (--omega)" in err and "dimensionless (--dimensionless)" in err

    @pytest.mark.parametrize("settings, flags", [
        ("omega_mhz = 240.4\ndimensionless = true\n", ()),
        ("omega_mhz = 240.4\n", ("--dimensionless",)),
    ], ids=["both-in-file", "file-and-flag"])
    def test_omega_with_dimensionless_in_config_file(self, capsys, tmp_path, settings, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(settings)
        code, out, err = run_cli(capsys, "phase", "--state", "1", "--config", str(cfg),
                                 *flags, *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "omega_mhz (--omega)" in err and "dimensionless (--dimensionless)" in err

    @pytest.mark.parametrize("command", [("table",), ("oracle", "--state", "1")])
    def test_omega_with_dimensionless_in_config_file_on_table_and_oracle(
            self, capsys, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_mhz = 240.4\ndimensionless = true\n")
        code, out, err = run_cli(capsys, *command, "--config", str(cfg), *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "omega_mhz (--omega)" in err and "dimensionless (--dimensionless)" in err

    def test_omega_with_dimensionless_in_config_file_is_unread_by_validate(
            self, capsys, tmp_path):
        # validate runs at fixed constants, so the pair is a conflict it never meets
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega_mhz = 240.4\ndimensionless = true\n")
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg), *FAST)
        assert code == cli.EXIT_OK
        assert err == ""
        assert out.endswith("9/9 checks passed\n")

    @pytest.mark.parametrize("value", ["ture", "on", "2", ""])
    def test_bad_dimensionless_value_in_config_file(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dimensionless = {value}\n")
        code, out, err = run_cli(capsys, "phase", "--state", "1", "--config", str(cfg), *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err and "bad value for dimensionless" in err

    @pytest.mark.parametrize("value, dimensionless", [
        ("TRUE", True), ("Yes", True), ("1", True), ("False", False), ("no", False), ("0", False),
    ])
    def test_dimensionless_values_in_config_file(self, tmp_path, value, dimensionless):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dimensionless = {value}\n")
        assert cli.read_config_file(str(cfg)) == {"dimensionless": dimensionless}

    @pytest.mark.parametrize("radius", ["inf", "nan", "-1"])
    def test_bad_radius_is_config_error(self, capsys, radius):
        code, out, err = run_cli(capsys, "phase", "--state", "1", "--method",
                                 "loop-connection", "--dimensionless",
                                 "--radius", radius, *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err and "finite and positive" in err

    @pytest.mark.parametrize("method", ["loop-connection", "loop-overlap"])
    def test_radius_with_overflowing_square_is_config_error(self, capsys, method):
        for radius in ("1e200", "1e-200"):
            code, out, err = run_cli(capsys, "phase", "--state", "1", "--method", method,
                                     "--radius", radius, *FAST)
            assert code == cli.EXIT_CONFIG
            assert out == ""
            assert "configuration error" in err and "no finite square" in err

    @pytest.mark.parametrize("argv, label", [
        (("phase", "--state", "8", "--radius", "1e153", "--method", "loop-connection",
          "--dimensionless"), "loop radius 1e+153: the connection loop overflows"),
        (("phase", "--state", "1", "--radius", "1e100", "--method", "loop-overlap",
          "--dimensionless"), "loop radii 1e+100, 5e+99: the overlap chain overflows"),
        (("oracle", "--state", "1", "--radius", "1e150"),
         "loop radii 1e+150, 5e+149: the overlap chain overflows"),
        (("phase", "--state", "8", "--radius", "1e78", "--method", "loop-overlap"),
         "loop radii 1e+78, 5e+77: the overlap chain overflows"),
    ])
    def test_radius_that_overflows_a_loop_route_is_config_error(self, capsys, argv, label):
        # these printed nan or a meaningless ~1e-216 with exit 0, or under
        # -W error::RuntimeWarning ended in a traceback
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"configuration error: {label} at r * max|coefficient| = ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method", ["loop-connection", "loop-overlap"])
    def test_largest_radius_short_of_overflow_still_runs(self, capsys, method):
        code, out, err = run_cli(capsys, "phase", "--state", "8", "--radius", "1e76",
                                 "--method", method)
        assert (code, err) == (cli.EXIT_OK, "")
        assert "radius: 1e+76" in out and "nan" not in out

    @pytest.mark.parametrize("command", [("oracle",), ("phase", "--method", "loop-overlap")])
    def test_radius_below_the_overlap_floor_is_config_error(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--state", "1", "--radius", "1e-150",
                                 "--nodes", "16")
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err.startswith("configuration error: loop radii 1e-150, 5e-151: "
                              "the overlap route needs every radius at or above ")

    @pytest.mark.parametrize("command", ["phase", "oracle"])
    @pytest.mark.parametrize("steps", ["7", "1048577"])
    def test_steps_out_of_range_is_config_error(self, capsys, command, steps):
        code, out, err = run_cli(capsys, command, "--state", "1", "--steps", steps, *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err and "8..1048576" in err

    @pytest.mark.parametrize("command", ["phase", "oracle"])
    def test_steps_help_names_the_range(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert "8..1048576" in capsys.readouterr().out

    def test_node_count_above_bound_is_parameter_error(self):
        from rmsphase.errors import ParameterError
        from rmsphase.oscillator import MAX_NODES, NodeCounts
        assert MAX_NODES == 1024
        with pytest.raises(ParameterError, match="2..1024"):
            NodeCounts(128, 128, MAX_NODES + 1, 128)

    @pytest.mark.parametrize("source", ["flag", "config-file"])
    def test_empty_out_is_config_error(self, capsys, tmp_path, source):
        # an empty path once printed the table to stdout and exited 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out =\n")
        flags = ("--out", "") if source == "flag" else ("--config", str(cfg))
        code, out, err = run_cli(capsys, "table", "--format", "csv", *flags, *FAST)
        assert (code, out) == (cli.EXIT_CONFIG, "")
        assert err.startswith("configuration error: cannot write output file : ")

    def test_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(capsys, "table", "--format", "csv",
                                 "--out", str(target), *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err.startswith("configuration error: cannot write output file")
        assert not target.exists()


# ---------------------------------------------------------------------------
# the exit-code contract over drawn argv and config files

# Values for any flag or config key: non-finite, subnormal, huge, empty and
# non-UTF-8 ones ("\udcff" is how Python passes the argv byte 0xff), and
# paths, which the test resolves inside a directory of its own.
ODD_VALUES = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "5e-324", "1e-310", "-0", "0", "-1", "1e400", "1e150",
    "9" * 40, "1" * 5000, "", " ", "\xff", "\udcff", "out.txt", ".", "missing/out.txt"])


def drawn(in_range, wide=st.nothing()):
    """Half the time an in-range value, else a wide or an odd one."""
    return st.one_of(st.sampled_from(in_range), st.one_of(wide, ODD_VALUES))


# in-range node and step counts stay small, so every example is cheap
FLAG_VALUES = {
    "--nodes": drawn(["16", "17", "32"],
                     st.integers().filter(lambda n: not 16 <= n <= 1024).map(str)),
    "--steps": drawn(["8", "9", "64"],
                     st.integers().filter(lambda n: not 8 <= n <= 2 ** 20).map(str)),
    "--radius": drawn(["1e-3", "0.5", "1e100", "1e153"], st.floats().map(repr)),
    "--omega": drawn(["89.6", "240.4"], st.floats().map(repr)),
    "--omega-convention": drawn(["angular", "cyclic"]),
    "--hbar-convention": drawn(["hbar", "h"]),
    "--method": drawn(["closed", "loop-connection", "loop-overlap"]),
    "--format": drawn(["csv", "json", "pretty"]),
    "--out": drawn(["out.txt", ".", "missing/out.txt"]),
    "--dimensionless": st.just(None),
    "--no-dimensionless": st.just(None),
}
COMMON_FLAGS = ("--nodes", "--format", "--out")
FREQUENCY_FLAGS = ("--omega", "--omega-convention", "--hbar-convention", "--dimensionless",
                   "--no-dimensionless")
LOOP_FLAGS = ("--steps", "--radius")
COMMAND_FLAGS = {"table": COMMON_FLAGS + FREQUENCY_FLAGS,
                 "phase": COMMON_FLAGS + FREQUENCY_FLAGS + LOOP_FLAGS + ("--method",),
                 "oracle": COMMON_FLAGS + FREQUENCY_FLAGS + LOOP_FLAGS,
                 "validate": COMMON_FLAGS}
CONFIG_VALUES = {"omega_mhz": "--omega", "omega_convention": "--omega-convention",
                 "hbar_convention": "--hbar-convention", "nodes": "--nodes",
                 "steps": "--steps", "radius": "--radius", "format": "--format", "out": "--out"}
config_line = st.one_of(
    st.sampled_from(sorted(CONFIG_VALUES)).flatmap(
        lambda key: FLAG_VALUES[CONFIG_VALUES[key]].map(lambda value: f"{key} = {value}")),
    drawn(["true", "no"]).map(lambda value: f"dimensionless = {value}"),
    st.sampled_from(["", "# comment", "no equals sign", "bogus = 1"]))
config_bytes = st.one_of(
    st.lists(config_line, max_size=4).map(
        lambda lines: "\n".join(lines).encode("utf-8", "surrogateescape")),
    st.binary(max_size=16))


@st.composite
def invocations(draw):
    """(argv, config file bytes or None); argv runs in a directory of its own."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    if command in ("phase", "oracle") and draw(st.integers(0, 7)):
        argv += ["--state", draw(drawn([str(j) for j in range(1, 17)], st.integers().map(str)))]
    for flag in draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), max_size=4)):
        value = draw(FLAG_VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    config = draw(st.none() | config_bytes)
    if config is not None:
        argv += ["--config", "run.cfg"]
    return argv, config


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=150, deadline=None, database=None)
@given(invocations())
def test_any_input_keeps_the_exit_contract(contract_dir, invocation):
    # exit 0-3; only argparse's usage error exits by SystemExit(2); exit 0 never
    # reports nan; exit 2 is one "configuration error:" line on stderr; a
    # "numerical error:" line comes with exit 3; no package error prints a bare
    # "error:" line, as exit 1 is left to a failed validation
    argv, config = invocation
    for stale in contract_dir.rglob("*"):
        if stale.is_file():
            stale.unlink()
    if config is not None:
        (contract_dir / "run.cfg").write_bytes(config)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(contract_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == cli.EXIT_CONFIG, (argv, exc.code)
        return
    finally:
        os.chdir(cwd)
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_CONFIG,
                    cli.EXIT_NONCONVERGENCE), (argv, code)
    if code == cli.EXIT_OK:
        written = [path.read_text(encoding="utf-8") for path in contract_dir.rglob("*")
                   if path.is_file() and path.name != "run.cfg"]
        for text in (out.getvalue(), *written):
            assert not re.search(r"\bnan\b", text, re.IGNORECASE), (argv, config, text)
    if code == cli.EXIT_CONFIG:
        message = err.getvalue()
        assert message.startswith("configuration error:"), (argv, config, message)
        assert message.count("\n") == 1 and message.endswith("\n"), (argv, config, message)
    if err.getvalue().startswith("numerical error:"):
        assert code == cli.EXIT_NONCONVERGENCE, (argv, config, err.getvalue())
    assert not err.getvalue().startswith("error:"), (argv, config, err.getvalue())
