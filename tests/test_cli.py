import errno
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cheshire import analysis, cli, experiment
from cheshire.cli import (
    MAX_POINTS,
    format_scenario_config,
    main,
    parse_scenario_config,
)
from cheshire.elements import Truncation
from cheshire.experiment import DEFAULT_SCALE_REF_CPS, Absorber, Detector, Magnet, Scenario
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


class TestAnglePastTheDomain:
    @pytest.mark.parametrize(
        "argv, head, tail",
        [
            (["run", "--insertion", "magnet", "--path", "I", "--alpha-rad", "1e200", "--truncation", "linear"],
             "error: alpha_rad must lie in [-1e6, 1e6], got 1e+200", ""),
            # a grid's bound is checked, and named, before the grid is built
            (["analyze", "--path", "I", "--alpha-max", "1e160"],
             "error: --alpha-max must lie in (0, 1e6], got 1e+160", ""),
            (["sweep", "--vary", "alpha", "--insertion", "magnet", "--path", "I", "--stop", "3e154",
              "--points", "40"],
             "error: --stop must lie in [-1e6, 1e6], got 3e+154", ""),
        ],
        ids=["run", "analyze", "sweep"],
    )
    def test_is_an_error_line(self, capsys, argv, head, tail):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(head) and err.endswith(tail + "\n") and err.count("\n") == 1


class TestScalePastTheDomain:
    SCALE = ["--scale-ref-cps", "1.79e308"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--insertion", "magnet", "--path", "I", "--alpha-deg", "180"],
            ["reproduce"],
            ["sweep", "--vary", "chi", "--points", "5"],
        ],
    )
    def test_is_one_error_line(self, capsys, argv):
        err = "error: scale_ref_cps must lie in [1e-12, 1e12], got 1.79e+308\n"
        assert run_cli(capsys, *argv, *self.SCALE) == (1, "", err)

    def test_keeps_an_existing_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        out_csv.write_bytes(b"old contents\n")
        code, out, _ = run_cli(capsys, "sweep", "--vary", "chi", *self.SCALE, "--csv", str(out_csv))
        assert code == 1
        assert out == ""
        assert out_csv.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


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

    def test_config_file_not_in_utf8_exits_1_with_the_prefix(self, capsys, tmp_path):
        # a UnicodeDecodeError is a ValueError, not an OSError
        cfg = tmp_path / "scenario.cfg"
        cfg.write_bytes(b"\xffinsertion = none\n")
        assert run_cli(capsys, "run", "--config", str(cfg)) == (
            1, "", "error: cannot read config file: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n"
        )

    def test_round_trip_is_semantically_stable(self):
        parsed = parse_scenario_config(self.CONFIG)
        again = parse_scenario_config(format_scenario_config(*parsed))
        assert again == parsed
        assert parsed == (Scenario(Magnet(Path.II, math.radians(20.0))), 11.25)

    def test_round_trip_preserves_full_float_precision(self):
        scenario = Scenario(Magnet(Path.I, 0.123456789012345678, Truncation.QUADRATIC), math.pi / 7)
        text = format_scenario_config(scenario)
        assert parse_scenario_config(text) == (scenario, DEFAULT_SCALE_REF_CPS)

    @pytest.mark.parametrize("scale, written", [(11, "11.0"), (True, "1.0"), (np.float32(2.5), "2.5")])
    def test_format_writes_a_checked_scale_as_a_float_that_parses_back(self, scale, written):
        text = format_scenario_config(Scenario(), scale)
        assert text.endswith(f"\nscale_ref_cps = {written}\n")
        assert parse_scenario_config(text) == (Scenario(), scale)


# The whole scenario space: no insertion, any absorber, a magnet at any
# angle in [-1e6, 1e6] in any truncation, any finite phase; any scale in
# [1e-12, 1e12].
finite = st.floats(allow_nan=False, allow_infinity=False)
paths = st.sampled_from(list(Path))
scenarios = st.builds(
    Scenario,
    st.one_of(
        st.none(),
        st.builds(Absorber, paths, st.floats(0.0, 1.0)),
        st.builds(Magnet, paths, st.floats(-1e6, 1e6), st.sampled_from(list(Truncation))),
    ),
    finite,
)
scales = st.floats(1e-12, 1e12)


@settings(max_examples=500, deadline=None)
@given(scenarios, scales)
def test_config_round_trip_covers_the_scenario_space(scenario, scale):
    text = format_scenario_config(scenario, scale)
    assert parse_scenario_config(text) == (scenario, scale)
    assert format_scenario_config(*parse_scenario_config(text)) == text


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
            cli._scenario(fields)

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
            (["run", "--scale-ref-cps", "-1e1"], "error: scale_ref_cps must lie in [1e-12, 1e12], got -10.0\n"),
            (["reproduce", "--scale-ref-cps", "-1E1"],
             "error: scale_ref_cps must lie in [1e-12, 1e12], got -10.0\n"),
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


# One argv per subcommand, each exiting 0.
SUBCOMMAND_ARGV = [
    ["run", "--insertion", "magnet", "--path", "I", "--alpha-deg=-20", "--chi-deg", "30"],
    ["sweep", "--vary", "alpha", "--insertion", "magnet", "--path", "II", "--points", "3"],
    ["weakvalues"],
    ["reproduce", "--scale-ref-cps", "11.25"],
    ["analyze", "--path", "II", "--points", "10", "--csv", "scan.csv"],
]


class TestDispatch:
    """main parses a subcommand's argv with that subcommand's parser alone."""

    def test_every_subcommand_is_listed(self):
        assert [argv[0] for argv in SUBCOMMAND_ARGV] == list(cli.build_parser().commands)

    def test_top_level_parser_is_not_used_for_a_subcommand(self, capsys, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a subcommand's argv")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
        for argv in SUBCOMMAND_ARGV:
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv

    @pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda argv: argv[0])
    def test_both_routes_parse_the_same_namespace(self, argv):
        parser = cli.build_parser()
        both_passes = vars(parser.parse_args(argv))
        assert both_passes.pop("command") == argv[0]
        assert vars(parser.commands[argv[0]].parse_args(argv[1:])) == both_passes

    @pytest.mark.parametrize(
        "argv, err",
        [
            ([], "error: the following arguments are required: command\n"),
            (["bogus"], "error: argument command: invalid choice: 'bogus' "
                        "(choose from 'run', 'sweep', 'weakvalues', 'reproduce', 'analyze')\n"),
            (["sweep", "--vary", "chi", "--bogus"], "error: unrecognized arguments: --bogus\n"),
            (["--bogus", "run"], "error: unrecognized arguments: --bogus\n"),
        ],
        ids=["no-command", "unknown-command", "unknown-sweep-flag", "flag-before-command"],
    )
    def test_error_lines(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (1, "", err)

    def test_top_level_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cheshire [-h] {run,sweep,")


class TestStreamedCsv:
    ARGS = ["sweep", "--vary", "chi", "--insertion", "magnet", "--path", "I", "--alpha-deg", "20"]

    def test_failure_mid_stream_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        out_csv = tmp_path / "sweep.csv"
        partial = tmp_path / f".sweep.csv.{os.getpid()}.tmp"
        code, whole, _ = run_cli(capsys, *self.ARGS, "--points", "1500")
        assert code == 0
        first_block = "".join(whole.splitlines(keepends=True)[: 1 + 3 * cli._BLOCK]).encode("utf-8")
        out_csv.write_bytes(b"old contents\n")
        format_number = cli._num
        calls = []

        def fail_late(value):
            # the template's chi and alpha, then one call per grid point: fail in the second block
            calls.append(sorted(p.name for p in tmp_path.iterdir()))
            if len(calls) > 2 + cli._BLOCK + 100:
                calls.append(partial.read_bytes())
                raise ValueError("formatting failed")
            return format_number(value)

        monkeypatch.setattr(cli, "_num", fail_late)
        code, out, err = run_cli(capsys, *self.ARGS, "--points", "1500", "--csv", str(out_csv))
        assert (code, out, err) == (1, "", "error: formatting failed\n")
        # the header and the first block were already in the temporary sibling
        assert calls[-2] == [partial.name, "sweep.csv"]
        assert calls[-1] == first_block
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

    def test_peak_memory_stays_below_two_fifths_of_the_csv(self, capsys, tmp_path):
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
        # rows go out a block of grid points at a time: the peak, about 0.35 of
        # the CSV's size, is the grid, its readings and rates, and one block
        assert peak < 0.4 * size, (peak, size)

    def test_success_makes_no_unlink_call(self, capsys, tmp_path, monkeypatch):
        out_csv = tmp_path / "sweep.csv"
        out_csv.write_bytes(b"old contents\n")
        calls = []
        monkeypatch.setattr(FilePath, "unlink", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(os, "unlink", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(os, "remove", lambda *args, **kwargs: calls.append(args))
        code, out, _ = run_cli(capsys, *self.ARGS, "--points", "5", "--csv", str(out_csv))
        assert (code, out) == (0, f"wrote 15 rows to {out_csv}\n")
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


@pytest.mark.parametrize("points", [1023, 1024, 1025, 2055])
@pytest.mark.parametrize("vary", ["chi", "alpha"])
def test_sweep_csv_bytes_across_block_edges(capsys, tmp_path, vary, points):
    template = Scenario(Magnet(Path.II, -0.7, Truncation.QUADRATIC), 0.4)
    argv = ["sweep", "--vary", vary, "--points", str(points), "--insertion", "magnet", "--path", "II",
            "--truncation", "quadratic", "--alpha-rad", "-0.7", "--chi-rad", "0.4", "--scale-ref-cps", "3.5"]
    start, stop, space = (-1.0, 4.0, np.linspace) if vary == "chi" else (0.01, 0.3, np.geomspace)
    argv += [f"--start={start!r}", f"--stop={stop!r}"]
    expected = expected_sweep_csv(template, vary, space(start, stop, points), 3.5)
    assert run_cli(capsys, *argv) == (0, expected, "")
    out_csv = tmp_path / "sweep.csv"
    assert run_cli(capsys, *argv, "--csv", str(out_csv)) == (0, f"wrote {3 * points} rows to {out_csv}\n", "")
    assert out_csv.read_bytes() == expected.encode("utf-8")


def expected_sweep_csv(template: Scenario, vary: str, grid: np.ndarray, scale: float) -> str:
    """A sweep's CSV as the README's schema spells it, each number by format(x, ".12e")."""
    readings = experiment.run_batch(template, **{f"{vary}_rad": grid})
    rates = experiment.count_rate(readings, scale)
    ins = template.insertion
    if ins is None:
        sid, alpha_rad, trunc = "none", None, ""
    elif isinstance(ins, Absorber):
        sid, alpha_rad, trunc = f"absorber:{ins.path.name}:T={ins.transmissivity:.12g}", None, ""
    else:
        sid, alpha_rad, trunc = f"magnet:{ins.path.name}:{ins.truncation.value}", ins.alpha_rad, ins.truncation.value
    lines = ["scenario_id,detector,chi_rad,alpha_rad,truncation,intensity_norm,intensity_cps"]
    for value, norms, cps in zip(grid, readings, rates):
        chi, alpha = (value, alpha_rad) if vary == "chi" else (template.chi_rad, value)
        point = [format(chi, ".12e"), "" if alpha is None else format(alpha, ".12e"), trunc]
        for det, n, c in zip(Detector, norms, cps):
            lines.append(",".join([sid, det.value, *point, format(n, ".12e"), format(c, ".12e")]))
    return "".join(line + "\n" for line in lines)


angles = st.floats(-10.0, 10.0)
sweep_templates = st.one_of(
    st.none(),
    st.builds(Absorber, paths, st.floats(0.0, 1.0)),
    st.builds(Magnet, paths, angles, st.sampled_from(list(Truncation))),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ins=sweep_templates,
    chi=angles,
    vary=st.sampled_from(["chi", "alpha"]),
    points=st.integers(2, 12),
    start=st.floats(1e-4, 1.0),
    width=st.floats(1e-3, 5.0),
    scale=st.floats(1e-3, 1e3),
)
def test_sweep_csv_bytes_match_a_plain_formatter(capsys, tmp_path, ins, chi, vary, points, start, width, scale):
    if not isinstance(ins, Magnet):
        vary = "chi"
    template = Scenario(ins, chi)
    argv = ["sweep", "--vary", vary, "--points", str(points), f"--start={start!r}",
            f"--stop={start + width!r}", f"--scale-ref-cps={scale!r}", f"--chi-rad={chi!r}"]
    if ins is not None:
        argv += ["--insertion", "absorber" if isinstance(ins, Absorber) else "magnet", "--path", ins.path.name]
    if isinstance(ins, Absorber):
        argv.append(f"--transmissivity={ins.transmissivity!r}")
    if isinstance(ins, Magnet):
        argv += [f"--alpha-rad={ins.alpha_rad!r}", "--truncation", ins.truncation.value]
    space = np.linspace if vary == "chi" else np.geomspace
    expected = expected_sweep_csv(template, vary, space(start, start + width, points), scale)

    assert run_cli(capsys, *argv) == (0, expected, "")
    out_csv = tmp_path / "sweep.csv"
    assert run_cli(capsys, *argv, "--csv", str(out_csv)) == (0, f"wrote {3 * points} rows to {out_csv}\n", "")
    assert out_csv.read_bytes() == expected.encode("utf-8")


def _same_bits(grid: np.ndarray, reference: np.ndarray) -> bool:
    return grid.dtype == reference.dtype and np.array_equal(grid.view(np.int64), reference.view(np.int64))


class TestSweepGrids:
    """``cli._linspace`` and ``cli._geomspace`` give the bits of the installed numpy's
    ``np.linspace`` and ``np.geomspace``, so every numpy that CI runs is checked."""

    def sample(self, seed: int, n: int):
        """Pairs of (start, stop, points) from the CLI's domains: chi bounds a finite
        distance apart, alpha bounds in (0, 1e6]."""
        rng = np.random.default_rng(seed)
        points = np.exp(rng.uniform(np.log(2), np.log(2000), n)).astype(int).tolist()
        sign = rng.choice((-1.0, 1.0), n)
        starts = (sign * 10.0 ** rng.uniform(-12, 6, n)).tolist()
        widths = (10.0 ** rng.uniform(-12, 7, n)).tolist()
        lows, highs = np.sort(rng.uniform(-323, 6, (2, n)), axis=0)
        for start, width, low, high, count in zip(starts, widths, lows.tolist(), highs.tolist(), points):
            # a width below half of start's ulp gives the next float
            stop = max(start + width, math.nextafter(start, math.inf))
            yield (start, stop, count), (10.0 ** low, 10.0 ** high, count)

    def test_a_seeded_sample_of_the_cli_domains(self):
        bad = []
        for chi, alpha in self.sample(2014, 10_000):
            assert chi[0] < chi[1] and 0.0 < alpha[0] < alpha[1] <= 1e6, (chi, alpha)
            if not _same_bits(cli._linspace(*chi), np.linspace(*chi)):
                bad.append(("chi", chi))
            if not _same_bits(cli._geomspace(*alpha), np.geomspace(*alpha)):
                bad.append(("alpha", alpha))
        assert bad == []

    SPACES = {"chi": (cli._linspace, np.linspace), "alpha": (cli._geomspace, np.geomspace)}

    @pytest.mark.parametrize(
        "vary, start, stop, points",
        [
            ("chi", *cli._SWEEP_GRID["chi"]),
            ("alpha", *cli._SWEEP_GRID["alpha"]),
            ("chi", -1.0, 4.0, 2),
            ("chi", 0.0, 5e-324, 2),
            ("chi", 1.0, 1.0000000000000002, 2),
            ("alpha", 0.01, 0.3, 2),
            ("alpha", 5e-324, 1e6, 2),
            ("alpha", 1.0, 1.0000000000000002, 2),
            *(("alpha", 1e-9, 1e3, points) for points in (2, 12, 30, 75, 1000)),  # twelve decades
        ],
    )
    def test_named_grids(self, vary, start, stop, points):
        build, space = self.SPACES[vary]
        assert _same_bits(build(start, stop, points), space(start, stop, points))

    def test_analyze_defaults(self):
        analyze = cli.build_parser().commands["analyze"]
        grid = tuple(analyze.get_default(name) for name in ("alpha_min", "alpha_max", "points"))
        assert _same_bits(cli._geomspace(*grid), np.geomspace(*grid))

    @pytest.mark.parametrize("stop, points", [(5e-324, 3), (2.5e-323, 12)])
    def test_a_step_that_underflows_takes_numpys_branch(self, stop, points):
        # the step rounds to 0, so numpy divides first and then scales; at 12 points
        # only that order gives the middle points their subnormal values
        assert stop / (points - 1) == 0.0
        assert _same_bits(cli._linspace(0.0, stop, points), np.linspace(0.0, stop, points))


class TestOsLevelWrite:
    """``_write_csv`` writes through ``os.write``: a short write is finished, and a
    failed one keeps the old CSV."""

    ARGS = ["sweep", "--vary", "chi", "--insertion", "magnet", "--path", "I", "--alpha-deg", "20",
            "--points", "1500"]

    def test_short_writes_give_the_stdout_bytes(self, capsys, tmp_path, monkeypatch):
        code, stdout_csv, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        write = os.write
        calls = []

        def at_most_seven(fd, data):
            calls.append(len(data))
            return write(fd, data[:7])

        monkeypatch.setattr(os, "write", at_most_seven)
        out_csv = tmp_path / "sweep.csv"
        wrote = f"wrote 4500 rows to {out_csv}\n"
        assert run_cli(capsys, *self.ARGS, "--csv", str(out_csv)) == (0, wrote, "")
        assert out_csv.read_bytes() == stdout_csv.encode("utf-8")
        # one call per 7 bytes of each chunk: the header, then one chunk per block of grid points
        rows = stdout_csv.encode("utf-8").splitlines(keepends=True)
        block = 3 * cli._BLOCK
        chunks = [rows[0]] + [b"".join(rows[lo : lo + block]) for lo in range(1, len(rows), block)]
        assert calls == [len(chunk) - done for chunk in chunks for done in range(0, len(chunk), 7)]
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_a_full_disk_keeps_the_old_file(self, capsys, tmp_path, monkeypatch):
        out_csv = tmp_path / "sweep.csv"
        out_csv.write_bytes(b"old contents\n")
        write = os.write
        calls = []

        def full_on_the_second_call(fd, data):
            calls.append(len(data))
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, data)

        monkeypatch.setattr(os, "write", full_on_the_second_call)
        code, out, err = run_cli(capsys, *self.ARGS, "--csv", str(out_csv))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert len(calls) == 2
        assert out_csv.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


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

    @pytest.mark.parametrize("argv", [["sweep", "--vary", "chi"], ["analyze", "--path", "I"]])
    def test_csv_in_a_missing_directory_is_rejected_before_any_work(self, capsys, tmp_path, argv):
        # analyze used to print its whole report before the write failed
        (tmp_path / "file").write_text("kept")
        cases = [("nodir", "[Errno 2] No such file or directory"), ("file", "[Errno 20] Not a directory")]
        for parent, reason in cases:
            csv = str(tmp_path / parent / "x.csv")
            assert run_cli(capsys, *argv, "--csv", csv) == (1, "", f"error: {reason}: {csv!r}\n")
        assert [f.name for f in tmp_path.iterdir()] == ["file"]


class TestSweepBounds:
    ERR = "error: need --start < --stop, a finite distance apart\n"

    @pytest.mark.parametrize(
        "start, stop",
        [("2", "1"), ("1", "1"), ("nan", "1"), ("0", "nan"), ("0", "inf"), ("-inf", "0"),
         ("-1e308", "1e308")],
    )
    @pytest.mark.parametrize("vary", ["chi", "alpha"])
    def test_one_condition_one_message(self, capsys, vary, start, stop):
        argv = ["sweep", "--vary", vary, "--insertion", "magnet", "--path", "I", "--alpha-deg", "20"]
        assert run_cli(capsys, *argv, f"--start={start}", f"--stop={stop}") == (1, "", self.ERR)

    def test_bounds_a_finite_distance_apart_are_a_grid(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--vary", "chi", "--start", "-8e307", "--stop", "8e307",
                                 "--points", "3")
        assert (code, err) == (0, "")
        assert out.count("\n") == 1 + 3 * 3

    def test_overflowing_distance_is_one_error_line_without_warnings(self):
        # np.linspace used to warn twice and the scenario check then named a nan
        code, out, err = _fresh_process("sweep", "--vary", "chi", "--start", "-1e308", "--stop", "1e308")
        assert (code, out, err) == (1, "", self.ERR)


class TestCsvTarget:
    ARGS = ["sweep", "--vary", "chi", "--points", "5"]

    def test_symlink_is_written_through(self, capsys, tmp_path):
        real = tmp_path / "real.csv"
        real.write_bytes(b"old contents\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real.name)
        code, stdout_csv, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert run_cli(capsys, *self.ARGS, "--csv", str(link)) == (0, f"wrote 15 rows to {link}\n", "")
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_bytes() == stdout_csv.encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("argv", [ARGS, ["analyze", "--path", "I"]])
    def test_fifo_is_refused_before_any_work(self, capsys, tmp_path, argv):
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        assert run_cli(capsys, *argv, "--csv", str(fifo)) == (
            1, "", f"error: argument --csv: {str(fifo)!r} names no regular file\n"
        )
        assert fifo.is_fifo()
        assert [p.name for p in tmp_path.iterdir()] == ["fifo.csv"]

    def test_symlink_loop_is_refused_before_any_work(self, capsys, tmp_path):
        loop = tmp_path / "loop.csv"
        loop.symlink_to(loop.name)
        code, out, err = run_cli(capsys, "analyze", "--path", "I", "--csv", str(loop))
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(loop)!r}\n")
        assert loop.is_symlink()

    @pytest.mark.parametrize("argv", [ARGS, ["analyze", "--path", "I", "--points", "10"]])
    def test_dangling_symlink_into_a_missing_directory_is_refused_before_any_work(self, capsys, tmp_path, argv):
        # analyze used to print its whole report before the write failed
        link = tmp_path / "d.csv"
        link.symlink_to(os.path.join("nodir", "x.csv"))
        assert run_cli(capsys, *argv, "--csv", str(link)) == (
            1, "", f"error: [Errno 2] No such file or directory: {str(link)!r}\n"
        )
        assert link.is_symlink()
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    def test_dangling_symlink_into_a_directory_creates_its_target(self, capsys, tmp_path):
        (tmp_path / "sub").mkdir()
        link = tmp_path / "d.csv"
        link.symlink_to(os.path.join("sub", "x.csv"))
        code, stdout_csv, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert run_cli(capsys, *self.ARGS, "--csv", str(link)) == (0, f"wrote 15 rows to {link}\n", "")
        assert link.is_symlink()
        assert (tmp_path / "sub" / "x.csv").read_bytes() == stdout_csv.encode("utf-8")
        assert [p.name for p in (tmp_path / "sub").iterdir()] == ["x.csv"]


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
