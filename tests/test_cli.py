import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path as FilePath

import numpy as np
import pytest

from cheshire import analysis, cli, experiment
from cheshire.cli import (
    MAX_POINTS,
    ScenarioConfig,
    format_scenario_config,
    main,
    parse_scenario_config,
)
from cheshire.elements import Truncation
from cheshire.qcore import Path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_value(out: str, row_label: str, column: int) -> float:
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == row_label:
            return float(parts[column])
    raise AssertionError(f"row {row_label!r} not found in output:\n{out}")


class TestRunCommand:
    def test_default_scenario_reads_reference(self, capsys):
        code, out, _ = run_cli(capsys, "run")
        assert code == 0
        assert table_value(out, "O_selected", 2) == pytest.approx(11.25, abs=1e-9)

    def test_magnet_path_II_20_degrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--insertion", "magnet", "--path", "II", "--alpha-deg", "20"
        )
        assert code == 0
        cps = table_value(out, "O_selected", 2)
        assert cps == pytest.approx(10.910770991920733, abs=1e-9)
        assert "10.91" in out

    def test_absorber_path_I(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--insertion",
            "absorber",
            "--path",
            "I",
            "--transmissivity",
            "0.5",
        )
        assert code == 0
        assert table_value(out, "O_selected", 2) == pytest.approx(11.25, abs=1e-9)

    def test_degree_radian_equivalence(self, capsys):
        _, out_deg, _ = run_cli(
            capsys, "run", "--insertion", "magnet", "--path", "II", "--alpha-deg", "20"
        )
        _, out_rad, _ = run_cli(
            capsys,
            "run",
            "--insertion",
            "magnet",
            "--path",
            "II",
            "--alpha-rad",
            "0.349065850398866",
        )
        a = table_value(out_deg, "O_selected", 1)
        b = table_value(out_rad, "O_selected", 1)
        assert a == pytest.approx(b, abs=1e-12)

    def test_scale_flag(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--scale-ref-cps", "100")
        assert code == 0
        assert table_value(out, "O_selected", 2) == pytest.approx(100.0, abs=1e-9)


class TestNonFiniteReadings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--insertion", "magnet", "--path", "I", "--alpha-rad", "1e200",
             "--truncation", "linear"],
            ["analyze", "--path", "I", "--alpha-max", "1e160"],
        ],
    )
    def test_overflow_is_an_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and "not finite" in err
        assert "Traceback" not in err
        assert "inf" not in out


class TestUsageErrors:
    def test_missing_magnet_path_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "run", "--insertion", "magnet", "--alpha-deg", "20")
        assert code == 1
        assert "path" in err

    def test_both_angle_spellings_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "--insertion",
            "magnet",
            "--path",
            "I",
            "--alpha-deg",
            "20",
            "--alpha-rad",
            "0.3",
        )
        assert code == 1
        assert "alpha" in err

    def test_out_of_range_transmissivity_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "--insertion",
            "absorber",
            "--path",
            "I",
            "--transmissivity",
            "1.5",
        )
        assert code == 1
        assert "transmissivity" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "run", "--frequency", "3")
        assert code == 1

    def test_missing_command_exits_1(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_stray_truncation_without_magnet_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "run", "--truncation", "linear")
        assert code == 1
        assert "magnet" in err


class TestConfigFile:
    CONFIG = (
        "# benchmark magnet scenario\n"
        "insertion = magnet\n"
        "path = II\n"
        "alpha_deg = 20  # rotation angle\n"
        "truncation = exact\n"
        "scale_ref_cps = 11.25\n"
    )

    def test_config_drives_run(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(self.CONFIG, encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert table_value(out, "O_selected", 2) == pytest.approx(10.9107709919, abs=1e-9)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(self.CONFIG, encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--alpha-deg", "0")
        assert code == 0
        assert table_value(out, "O_selected", 2) == pytest.approx(11.25, abs=1e-9)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("insertion = none\nwavelength = 1.9\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "wavelength" in err

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_scenario_config("chi_rad = 1\nchi_rad = 2\n")

    def test_both_angle_units_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            parse_scenario_config(
                "insertion = magnet\npath = I\nalpha_deg = 20\nalpha_rad = 0.3\n"
            )

    def test_missing_config_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "nope.cfg"))
        assert code == 1
        assert "config" in err

    def test_round_trip_is_semantically_stable(self):
        parsed = parse_scenario_config(self.CONFIG)
        again = parse_scenario_config(format_scenario_config(parsed))
        assert again == parsed
        assert again.to_scenario() == parsed.to_scenario()

    def test_round_trip_preserves_full_float_precision(self):
        config = ScenarioConfig(
            insertion="magnet",
            path=Path.I,
            alpha_rad=0.123456789012345678,
            truncation=Truncation.QUADRATIC,
            chi_rad=math.pi / 7,
        )
        assert parse_scenario_config(format_scenario_config(config)) == config


class TestSweepCommand:
    def test_chi_sweep_magnet_II_constant_selected_column(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--vary",
            "chi",
            "--insertion",
            "magnet",
            "--path",
            "II",
            "--alpha-deg",
            "20",
            "--csv",
            str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "scenario_id,detector,chi_rad,alpha_rad,truncation,intensity_norm,intensity_cps"
        )
        selected = [
            float(line.split(",")[5]) for line in lines[1:] if ",O_selected," in line
        ]
        assert len(selected) == 361
        assert max(selected) - min(selected) < 1e-12

    def test_chi_sweep_magnet_I_oscillates(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        run_cli(
            capsys,
            "sweep",
            "--vary",
            "chi",
            "--insertion",
            "magnet",
            "--path",
            "I",
            "--alpha-deg",
            "20",
            "--csv",
            str(out_csv),
        )
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        selected = [
            float(line.split(",")[5]) for line in lines[1:] if ",O_selected," in line
        ]
        spread = max(selected) - min(selected)
        assert spread == pytest.approx(math.sin(math.radians(10.0)), abs=1e-6)

    def test_alpha_sweep_linear_path_II_constant(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--vary",
            "alpha",
            "--insertion",
            "magnet",
            "--path",
            "II",
            "--alpha-deg",
            "20",
            "--truncation",
            "linear",
            "--csv",
            str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 50 * 3
        cps = [float(line.split(",")[6]) for line in lines[1:] if ",O_selected," in line]
        assert all(abs(v - 11.25) < 1e-9 for v in cps)

    def test_csv_bytes_deterministic(self, capsys, tmp_path):
        args = [
            "sweep",
            "--vary",
            "chi",
            "--points",
            "25",
            "--insertion",
            "magnet",
            "--path",
            "I",
            "--alpha-deg",
            "20",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_cli(capsys, *args, "--csv", str(first))
        run_cli(capsys, *args, "--csv", str(second))
        assert first.read_bytes() == second.read_bytes()
        assert b"\r" not in first.read_bytes()

    def test_csv_has_at_least_12_significant_digits(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        run_cli(capsys, "sweep", "--vary", "chi", "--points", "3", "--csv", str(out_csv))
        row = out_csv.read_text(encoding="utf-8").splitlines()[1].split(",")
        mantissa = row[5].split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 12

    def test_sweep_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--vary", "chi", "--points", "2")
        assert code == 0
        assert out.startswith("scenario_id,detector,")
        assert len(out.splitlines()) == 7

    def test_alpha_sweep_requires_magnet(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--vary", "alpha")
        assert code == 1
        assert "magnet" in err

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--vary", "chi", "--points", "1")
        assert code == 1
        assert "points" in err
        code, _, err = run_cli(
            capsys, "sweep", "--vary", "chi", "--start", "2", "--stop", "1"
        )
        assert code == 1
        assert "start" in err


class TestWeakvaluesCommand:
    def test_prints_canonical_quartet(self, capsys):
        code, out, _ = run_cli(capsys, "weakvalues")
        assert code == 0
        assert table_value(out, "pi_I", 1) == pytest.approx(0.0, abs=1e-12)
        assert table_value(out, "pi_II", 1) == pytest.approx(1.0, abs=1e-12)
        re = table_value(out, "sigma_pi_I", 1)
        im = table_value(out, "sigma_pi_I", 2)
        assert math.hypot(re, im) == pytest.approx(1.0, abs=1e-12)
        assert table_value(out, "sigma_pi_II", 1) == pytest.approx(0.0, abs=1e-12)

    def test_prints_projective_expectations(self, capsys):
        _, out, _ = run_cli(capsys, "weakvalues")
        assert "projective_sigma_z_I = 0" in out
        assert "projective_sigma_z_II = 0" in out


class TestReproduceCommand:
    def test_agreement_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 0
        assert "3/3" in out
        assert table_value(out, "I_mag_II", 2) == pytest.approx(10.9107709919, abs=1e-9)
        assert table_value(out, "I_mag_II", 1) == pytest.approx(0.2424615776, abs=1e-9)

    def test_corrupted_theory_exits_2(self, capsys, monkeypatch):
        real = experiment.closed_form_o
        monkeypatch.setattr(analysis, "closed_form_o", lambda sc: 0.9 * real(sc))
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 2
        assert "NO" in out


class TestAnalyzeCommand:
    def test_path_II_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--path", "II", "--points", "12")
        assert code == 0
        rows = [
            line.split()
            for line in out.splitlines()
            if line and line[0].isdigit() and "." in line.split()[0]
        ]
        assert len(rows) == 12
        deficit_linear = [float(r[5]) for r in rows]
        assert all(abs(d) < 1e-12 for d in deficit_linear)
        assert "exponent" in out

    def test_path_II_fitted_exponents_printed(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--path", "II", "--points", "12")
        lin = float(out.split("|I_linear - I_exact| exponent:")[1].split()[0])
        quad = float(out.split("|I_quadratic - I_exact| exponent:")[1].split()[0])
        assert lin == pytest.approx(2.0, abs=0.2)
        assert quad == pytest.approx(4.0, abs=0.2)

    def test_path_I_exact_exceeds_reference(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", "--path", "I", "--points", "12")
        rows = [
            line.split()
            for line in out.splitlines()
            if line and line[0].isdigit() and "." in line.split()[0]
        ]
        assert len(rows) == 12
        assert all(float(r[1]) > 0.25 for r in rows)

    def test_csv_output(self, capsys, tmp_path):
        out_csv = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "analyze", "--path", "II", "--points", "12", "--csv", str(out_csv)
        )
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("alpha_rad,i_exact_norm,")
        assert len(lines) == 13

    def test_bad_grid_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--path", "II", "--points", "5")
        assert code == 1
        code, _, _ = run_cli(
            capsys, "analyze", "--path", "II", "--alpha-min", "0.5", "--alpha-max", "0.1"
        )
        assert code == 1


def test_witness_line_uses_grid_maximum(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--path", "II", "--points", "12")
    assert "witness at alpha = 0.3" in out


def test_sweep_grid_defaults_match_documentation(capsys, tmp_path):
    out_csv = tmp_path / "defaults.csv"
    run_cli(capsys, "sweep", "--vary", "chi", "--csv", str(out_csv))
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 361 * 3
    first_chi = float(lines[1].split(",")[2])
    last_chi = float(lines[-1].split(",")[2])
    assert first_chi == 0.0
    assert last_chi == pytest.approx(2 * math.pi, rel=1e-12)
    run_cli(
        capsys,
        "sweep",
        "--vary",
        "alpha",
        "--insertion",
        "magnet",
        "--path",
        "II",
        "--alpha-deg",
        "20",
        "--csv",
        str(out_csv),
    )
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    alphas = sorted({float(line.split(",")[3]) for line in lines[1:]})
    assert len(alphas) == 50
    assert alphas[0] == pytest.approx(0.01, rel=1e-12)
    assert alphas[-1] == pytest.approx(0.3, rel=1e-12)
    ratios = np.diff(np.log(alphas))
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


class TestOneValidationLayer:
    @pytest.mark.parametrize(
        "fields",
        [
            dict(insertion="absorber", path=Path.I, transmissivity=1.5),
            dict(insertion="absorber", path=Path.I, transmissivity=math.nan),
            dict(insertion="magnet", path=Path.I, alpha_rad=math.inf),
            dict(chi_rad=math.nan),
            dict(scale_ref_cps=0.0),
        ],
    )
    def test_config_rejects_what_its_scenario_rejects(self, fields):
        with pytest.raises(ValueError):
            ScenarioConfig(**fields)

    @pytest.mark.parametrize(
        "key, text",
        [("insertion", "foo"), ("path", "III"), ("truncation", "cubic"), ("chi_deg", "abc")],
    )
    def test_flag_and_file_share_one_parse(self, capsys, tmp_path, key, text):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
        code_file, _, err_file = run_cli(capsys, "run", "--config", str(cfg))
        code_flag, _, err_flag = run_cli(capsys, "run", "--" + key.replace("_", "-"), text)
        assert code_file == code_flag == 1
        assert err_file == err_flag
        assert err_flag.startswith(f"error: {key}")

    def test_flags_complete_a_partial_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("insertion = magnet\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--path", "II", "--alpha-deg", "20"
        )
        assert code == 0
        assert table_value(out, "O_selected", 2) == pytest.approx(10.9107709919, abs=1e-9)


class TestPointsBound:
    @pytest.mark.parametrize("points", ["1000000000000", str(MAX_POINTS + 1)])
    @pytest.mark.parametrize(
        "argv, least",
        [(["sweep", "--vary", "chi"], 2), (["analyze", "--path", "I"], 10)],
    )
    def test_too_many_points_is_an_error_line(self, capsys, argv, least, points):
        code, out, err = run_cli(capsys, *argv, "--points", points)
        assert code == 1
        assert out == ""
        assert err == f"error: --points must be between {least} and {MAX_POINTS}\n"

    def test_bound_admits_a_large_sweep(self, capsys, tmp_path):
        out_csv = tmp_path / "large.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--vary", "chi", "--points", "24000", "--csv", str(out_csv)
        )
        assert code == 0
        assert out == f"wrote 72000 rows to {out_csv}\n"


class TestCsvReplacement:
    ARGS = ["sweep", "--vary", "chi", "--points", "5"]

    def test_failed_rename_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        out_csv = tmp_path / "sweep.csv"
        out_csv.write_bytes(b"old contents\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        code, out, err = run_cli(capsys, *self.ARGS, "--csv", str(out_csv))
        assert code == 1
        assert out == ""
        assert err == "error: rename refused\n"
        assert out_csv.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_replaces_existing_file(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        out_csv.write_bytes(b"old contents\n")
        code, out, _ = run_cli(capsys, *self.ARGS, "--csv", str(out_csv))
        assert code == 0
        assert out == f"wrote 15 rows to {out_csv}\n"
        assert out_csv.read_text(encoding="utf-8").startswith("scenario_id,")
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


class TestNegativeExponentValues:
    # argparse alone takes "-1e-3" for an option ("expected one argument")
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--chi-rad", "-1e-3"],
            ["run", "--chi-deg", "-2E-2"],
            ["run", "--insertion", "magnet", "--path", "I", "--alpha-rad", "-1e-3"],
            ["run", "--insertion", "magnet", "--path", "II", "--alpha-deg", "-2E+1"],
            ["sweep", "--vary", "chi", "--start", "-1e-3", "--stop", "1e-3", "--points", "3"],
            ["sweep", "--vary", "chi", "--start", "-2e-3", "--stop", "-1.5E-3", "--points", "3"],
        ],
    )
    def test_parses_like_the_equals_spelling(self, capsys, argv):
        # "--flag=-1e-3" always worked; "--flag -1e-3" must read the same
        equals = []
        for arg in argv:
            if arg.startswith("-") and arg[1:2].isdigit():
                equals[-1] = f"{equals[-1]}={arg}"
            else:
                equals.append(arg)
        spaced = run_cli(capsys, *argv)
        assert spaced[0] == 0
        assert spaced == run_cli(capsys, *equals)

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["run", "--scale-ref-cps", "-1e1"], "error: scale_ref_cps must be positive, got -10.0\n"),
            (["reproduce", "--scale-ref-cps", "-1E1"], "error: scale_ref_cps must be positive, got -10.0\n"),
            (["analyze", "--path", "I", "--alpha-min", "-1e-3"], "error: need 0 < --alpha-min < --alpha-max\n"),
            (["run", "--path", "-1e0"], "error: path must be I or II, got '-1e0'\n"),
        ],
    )
    def test_value_reaches_its_own_check(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (1, "", err)

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["run", "--bogus"], "error: unrecognized arguments: --bogus\n"),
            (["run", "--chi-rad", "-x"], "error: argument --chi-rad: expected one argument\n"),
            (["run", "--chi-rad", "-1e"], "error: argument --chi-rad: expected one argument\n"),
            (["sweep", "--vary", "chi", "--start", "-e3"], "error: argument --start: expected one argument\n"),
        ],
    )
    def test_options_are_still_options(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (1, "", err)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cheshire run [-h]")


def _cheshire_process(*argv, **kwargs):
    src = str(FilePath(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "cheshire", *argv], env=env, **kwargs)


class TestClosedOutput:
    @pytest.mark.parametrize(
        "argv",
        [("sweep", "--vary", "chi", "--points", "50000"), ("run",)],
        ids=["large-output", "buffered-output"],
    )
    def test_broken_pipe_is_quiet_with_a_fixed_code(self, argv):
        # like `cheshire ... | true`: the reader is gone before the output
        # is written, in the middle of it (150 000 rows) or at the final
        # flush of a few buffered lines
        proc = _cheshire_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_other_write_errors_still_print_an_error_line(self):
        with open("/dev/full", "wb") as full:
            proc = _cheshire_process(
                "sweep", "--vary", "chi", stdout=full, stderr=subprocess.PIPE
            )
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err.decode().startswith("error: [Errno 28]")


def _fresh_process(*argv):
    """(exit code, stdout, stderr) of argv run alone in a new interpreter."""
    proc = _cheshire_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    return proc.returncode, out.decode(), err.decode()


class TestReusedParser:
    def test_calls_in_one_process_match_fresh_processes(self, capsys, tmp_path):
        # main builds its parser once per process; no call may see what an
        # earlier one parsed
        config = tmp_path / "scenario.cfg"
        config.write_text("insertion = magnet\npath = I\nalpha_deg = 20\nchi_deg = 30\n", encoding="utf-8")
        sequence = [
            ["sweep", "--vary", "chi", "--points", "7", "--bogus"],
            ["run", "--config", str(config)],
            ["run", "--chi-deg", "45"],
            ["sweep", "--vary", "alpha", "--insertion", "magnet", "--path", "II", "--alpha-deg", "5",
             "--points", "4"],
            ["sweep", "--vary", "alpha", "--insertion", "magnet", "--path", "II", "--alpha-deg", "5"],
            ["weakvalues"],
        ]
        in_process = [run_cli(capsys, *argv) for argv in sequence]
        assert in_process[0][0] == 1
        assert all(code == 0 for code, _, _ in in_process[1:])
        for argv, result in zip(sequence, in_process):
            assert result == _fresh_process(*argv), argv
        assert cli.build_parser() is cli.build_parser()


class TestStreamedCsv:
    ARGS = ["sweep", "--vary", "chi", "--insertion", "magnet", "--path", "I", "--alpha-deg", "20"]

    def test_failure_mid_stream_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        out_csv = tmp_path / "sweep.csv"
        out_csv.write_bytes(b"old contents\n")
        format_number = cli._num
        calls = []

        def fail_late(value):
            # the template's chi and alpha, then one call per grid point
            calls.append(sorted(p.name for p in tmp_path.iterdir()))
            if len(calls) > 300:
                raise ValueError("formatting failed")
            return format_number(value)

        monkeypatch.setattr(cli, "_num", fail_late)
        code, out, err = run_cli(capsys, *self.ARGS, "--points", "400", "--csv", str(out_csv))
        assert (code, out, err) == (1, "", "error: formatting failed\n")
        # rows were already streaming into the temporary sibling
        assert calls[-1] == [f".sweep.csv.{os.getpid()}.tmp", "sweep.csv"]
        assert out_csv.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    @pytest.mark.parametrize(
        "argv",
        [
            ARGS + ["--points", "40"],
            ["sweep", "--vary", "alpha", "--insertion", "magnet", "--path", "II", "--alpha-deg", "5",
             "--truncation", "quadratic", "--chi-deg", "12"],
            ["sweep", "--vary", "chi", "--insertion", "absorber", "--path", "I",
             "--transmissivity", "0.3", "--scale-ref-cps", "7"],
        ],
        ids=["chi-magnet", "alpha-magnet", "chi-absorber"],
    )
    def test_stdout_and_file_carry_the_same_bytes(self, capsys, tmp_path, argv):
        out_csv = tmp_path / "sweep.csv"
        code, stdout_csv, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out, _ = run_cli(capsys, *argv, "--csv", str(out_csv))
        assert code == 0
        assert out_csv.read_bytes() == stdout_csv.encode("utf-8")
        assert out == f"wrote {stdout_csv.count(chr(10)) - 1} rows to {out_csv}\n"

    def test_peak_memory_stays_below_twice_the_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "large.csv"
        argv = [*self.ARGS, "--points", "24000", "--csv", str(out_csv)]
        assert run_cli(capsys, *self.ARGS, "--points", "5")[0] == 0  # parser and imports warm
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        size = out_csv.stat().st_size
        assert size > 7_000_000
        assert peak < 2 * size, (peak, size)


class TestInputChecks:
    @pytest.mark.parametrize("flag", ["--alpha-min", "--alpha-max"])
    def test_infinite_analyze_bound_prints_one_error_line(self, flag):
        # numpy warns about an infinite geomspace bound; the check comes first
        assert _fresh_process("analyze", "--path", "I", flag, "inf") == (
            1, "", "error: need 0 < --alpha-min < --alpha-max\n"
        )

    @pytest.mark.parametrize("csv", ["", ".", "/"])
    @pytest.mark.parametrize("argv", [["sweep", "--vary", "chi"], ["analyze", "--path", "I"]])
    def test_csv_without_file_name_is_rejected_before_any_work(self, capsys, argv, csv):
        # analyze would print its report first if the scan ran
        assert run_cli(capsys, *argv, "--csv", csv) == (
            1, "", f"error: argument --csv: {csv!r} names no file\n"
        )

    @pytest.mark.parametrize("argv", [["sweep", "--vary", "chi"], ["analyze", "--path", "I"]])
    def test_csv_naming_a_directory_is_rejected_before_any_work(self, capsys, tmp_path, argv):
        for csv in [str(tmp_path / "out") + "/", str(tmp_path)]:
            assert run_cli(capsys, *argv, "--csv", csv) == (
                1, "", f"error: argument --csv: {csv!r} names a directory\n"
            )
        assert list(tmp_path.iterdir()) == []

    def test_csv_in_a_missing_directory_names_the_path_given(self, capsys, tmp_path):
        csv = str(tmp_path / "nodir" / "x.csv")
        code, out, err = run_cli(capsys, "sweep", "--vary", "chi", "--csv", csv)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {csv!r}\n"
        assert list(tmp_path.iterdir()) == []


class TestAlphaSweepWithoutAngle:
    README_LINE = "cheshire sweep --vary alpha --insertion magnet --path II --truncation linear"

    def test_readme_example_runs(self):
        # the README's own alpha-sweep line, verbatim
        readme = (FilePath(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert self.README_LINE in readme.splitlines()
        code, out, err = _fresh_process(*self.README_LINE.split()[1:])
        assert (code, err) == (0, "")
        assert out.startswith("scenario_id,detector,chi_rad,alpha_rad,truncation,")
        assert out.count("\n") == 1 + 3 * 50

    @pytest.mark.parametrize("angle", [["--alpha-deg", "20"], ["--alpha-rad", "-2.5"]])
    def test_csv_equals_the_one_with_a_dummy_angle(self, capsys, angle):
        argv = self.README_LINE.split()[1:]
        code, without, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, *angle) == (0, without, "")

    def test_alpha_grid_still_requires_a_magnet(self, capsys):
        assert run_cli(capsys, "sweep", "--vary", "alpha") == (
            1, "", "error: an alpha grid requires a scenario with a magnet insertion\n"
        )
        assert run_cli(capsys, "sweep", "--vary", "chi", "--insertion", "magnet", "--path", "I") == (
            1, "", "error: insertion = magnet requires alpha\n"
        )
