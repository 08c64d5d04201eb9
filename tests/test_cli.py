"""Command-line interface: subcommands, formats, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from rmsphase import cli

REFERENCE_CSV = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "table.csv"


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


class TestValidate:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--nodes", "48")
        assert code == cli.EXIT_OK
        assert "[PASS] orthonormality" in out
        assert "[FAIL]" not in out

    def test_low_resolution_warns_with_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--nodes", "16")
        assert code == cli.EXIT_NONCONVERGENCE
        assert "[WARN]" in out


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

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wavelength = 7\n")
        code, _, err = run_cli(capsys, "table", "--config", str(cfg))
        assert code == cli.EXIT_CONFIG

    def test_low_node_count_rejected(self, capsys):
        for nodes in ("8", "1025"):
            code, _, err = run_cli(capsys, "table", "--nodes", nodes)
            assert code == cli.EXIT_CONFIG
            assert "node count must be in 16..1024" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "table", "--config", "/nonexistent.cfg")
        assert code == cli.EXIT_CONFIG

    def test_argparse_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["phase"])          # --state is required
        assert exc.value.code == 2


class TestHighNodeCounts:
    """Node counts at which the radial rule used to overflow (n >= 364)."""

    def test_table_at_192_nodes_matches_reference(self, capsys):
        # table doubles the node count for its convergence flag
        code, out, _ = run_cli(capsys, "table", "--nodes", "192", "--format", "csv")
        assert code == cli.EXIT_OK
        assert out == REFERENCE_CSV.read_bytes().decode()

    def test_validate_at_364_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--nodes", "364")
        assert code == cli.EXIT_OK
        assert "9/9 checks passed" in out


def test_runs_on_numpy_alone():
    """scipy is a test-only dependency: block it and run a table."""
    script = textwrap.dedent("""
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
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == cli.EXIT_OK, proc.stderr.decode()
    assert proc.stdout == REFERENCE_CSV.read_bytes()


class TestMutationHook:
    def test_sign_flip_detected_by_validate(self, monkeypatch, capsys):
        from rmsphase import berry
        monkeypatch.setattr(berry, "_PHASE_ORIENTATION", +1.0)
        code, out, _ = run_cli(capsys, "validate", "--nodes", "48")
        assert code == cli.EXIT_VALIDATION
        assert "[FAIL] sign-mutation-detector" in out


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty the table caches around a test that patches what they are built from."""
    from rmsphase import oscillator, perturbation
    caches = (oscillator.overlap_tables, perturbation._phi_table,
              perturbation._coefficient_tables)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


class TestTableFaults:
    def test_swapped_radial_rules_detected_by_validate(self, monkeypatch, capsys,
                                                       fresh_tables):
        from rmsphase import oscillator as osc
        axes = tuple(axis._replace(rules=axis.rules[::-1]) if axis.field == "radial"
                     else axis for axis in osc.AXES)
        monkeypatch.setattr(osc, "AXES", axes)
        code, out, _ = run_cli(capsys, "validate", "--nodes", "48")
        assert code == cli.EXIT_VALIDATION
        assert "[FAIL] orthonormality" in out

    def test_flipped_sine_channel_detected_by_validate(self, monkeypatch, capsys,
                                                       fresh_tables):
        from rmsphase import perturbation as pert
        straight = pert.phi_integral

        def flipped(m_bra, m_ket, channel):
            value = straight(m_bra, m_ket, channel)
            return -value if channel is pert.Channel.SINE else value

        monkeypatch.setattr(pert, "phi_integral", flipped)
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

        monkeypatch.setattr(pert, "phi_integral", skewed)
        code, out, _ = run_cli(capsys, "validate", "--nodes", "48")
        assert code == cli.EXIT_VALIDATION
        assert "[FAIL] hermiticity" in out


class TestBadInput:
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
        code, out, err = run_cli(capsys, "phase", "--state", "1", "--method", method,
                                 "--radius", "1e200", *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert "configuration error" in err and "no finite square" in err

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
        assert NodeCounts.uniform(1024).doubled().radial == MAX_NODES == 2048
        with pytest.raises(ParameterError, match="2..2048"):
            NodeCounts(128, 128, MAX_NODES + 1, 128)

    def test_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(capsys, "table", "--format", "csv",
                                 "--out", str(target), *FAST)
        assert code == cli.EXIT_CONFIG
        assert out == ""
        assert err.startswith("configuration error: cannot write output file")
        assert not target.exists()
