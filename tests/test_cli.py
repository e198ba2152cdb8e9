import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twinmill import cli, config, modal
from twinmill.errors import InvalidInputError, TwinmillError
from twinmill.geometry import Pose
from twinmill.pathplan import (
    Setpoints,
    parse_gcode,
    path_from_json,
    path_to_json,
    program_from_csv,
    program_to_csv,
    transform_path,
)
from twinmill.stiffness import cell_sha256

from conftest import (DEMO_CONFIG, demo_config_dict, forty_one_column_program, json_with_a_repeated_key,
                      three_column_impact)

SLOT_GCODE = "G1 X40 F300\nG3 X40 Y40 J20\nG1 X0\n"
WORK_OFFSET = "2105,-20,1100"


@pytest.fixture
def config_file():
    return str(DEMO_CONFIG)


@pytest.fixture
def gcode_file(tmp_path):
    p = tmp_path / "slot.gcode"
    p.write_text(SLOT_GCODE)
    return str(p)


def read_rms(path):
    for line in path.read_text().splitlines():
        if line.startswith("# rms_m="):
            return float(line.split("=", 1)[1])
    raise AssertionError("no rms in report")


class TestUsage:
    def test_no_arguments(self):
        assert cli.main([]) == 64

    def test_unknown_command(self):
        assert cli.main(["mill"]) == 64

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_missing_config(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
        code = cli.main(["modal", "--tensions", "0,500", "--out", str(tmp_path / "o")])
        assert code == 64


class TestConfigHandling:
    def test_env_var_fallback(self, tmp_path, config_file, monkeypatch):
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, config_file)
        out = tmp_path / "modal_out"
        code = cli.main(["modal", "--tensions", "0,500,1400,2000", "--out", str(out)])
        assert code == 0
        assert (out / "shift_fit_x.csv").exists()

    def test_flag_beats_env(self, tmp_path, config_file, monkeypatch):
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(tmp_path / "missing.json"))
        out = tmp_path / "o"
        code = cli.main(
            ["--config", config_file, "modal", "--tensions", "0,2000", "--out", str(out)]
        )
        assert code == 0

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1}')
        code = cli.main(
            ["--config", str(bad), "modal", "--tensions", "0,500", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        code = cli.main(
            ["--config", str(tmp_path / "none.json"), "modal", "--tensions", "0,500",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2


NOT_UTF8 = b"\xff\xfe G1 X10\n"
DEEP_JSON = b"[" * 100000 + b"]" * 100000


class TestUnreadableInput:
    """An input file that is not UTF-8, or a config nested past the JSON
    decoder's recursion limit, exits with its documented code naming the
    file: 2 for the config, 3 for every other input."""

    @pytest.mark.parametrize("data", [NOT_UTF8, DEEP_JSON], ids=["not_utf8", "nested"])
    def test_modal_config(self, tmp_path, data, capsys):
        bad = tmp_path / "system.json"
        bad.write_bytes(data)
        code = cli.main(["--config", str(bad), "modal", "--tensions", "0,500", "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["slot.gcode", "slot.json"])
    def test_plan_path_file(self, tmp_path, config_file, name, capsys):
        bad = tmp_path / name
        bad.write_bytes(NOT_UTF8)
        assert cli.main(["--config", config_file, "plan", str(bad), "--out", str(tmp_path / "p.csv")]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: 'utf-8' codec")

    def test_deform_program(self, tmp_path, config_file, capsys):
        bad = tmp_path / "program.csv"
        bad.write_bytes(NOT_UTF8)
        assert cli.main(["--config", config_file, "deform", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: 'utf-8' codec")

    def test_frf_impact(self, tmp_path, capsys):
        bad = tmp_path / "impact.csv"
        bad.write_bytes(NOT_UTF8)
        assert cli.main(["frf", str(bad), "--out", str(tmp_path / "frf.csv")]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: 'utf-8' codec")


class TestRepeatedJsonKeys:
    """A key given twice in the config or in a path JSON, of which json.loads
    alone would keep the last value, exits with its documented code naming
    the key's schema path: 2 for the config, 3 for the path."""

    def test_config_exits_2(self, tmp_path, gcode_file, capsys):
        bad = tmp_path / "system.json"
        bad.write_text(json_with_a_repeated_key(demo_config_dict(), (), "spring_matrix", [[1]]))
        out = tmp_path / "p.csv"
        code = cli.main(["--config", str(bad), "plan", gcode_file, "--tension", "1000",
                         "--work-offset-mm", WORK_OFFSET, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "config error: config.spring_matrix: repeated key\n"
        assert not out.exists()

    def test_path_json_exits_3(self, tmp_path, config_file, capsys):
        doc = json.loads(path_to_json(transform_path(parse_gcode(SLOT_GCODE), Pose([4.21, 0.0, 0.0]))))
        path_file = tmp_path / "slot.json"
        path_file.write_text(json_with_a_repeated_key(doc, ("segments", 0, "end"), "position_m", [0, 0, 0]))
        out = tmp_path / "p.csv"
        code = cli.main(["--config", config_file, "plan", str(path_file), "--work-offset-mm", "-2105,-20,1100",
                         "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"error: {path_file}: path JSON segments[0].end.position_m: repeated key\n"
        assert not out.exists()


class TestModal:
    @pytest.mark.parametrize("axis_args, axis", [([], "x"), (["--axis", "y"], "y"), (["--axis", "z"], "z")],
                             ids=["x", "y", "z"])
    def test_writes_frfs_and_fit(self, tmp_path, config_file, capsys, axis_args, axis):
        out = tmp_path / "modal_out"
        code = cli.main(
            ["--config", config_file, "modal", "--tensions", "0,500,1400,2000", *axis_args,
             "--out", str(out)]
        )
        assert code == 0
        for T in ("0", "500", "1400", "2000"):
            assert (out / f"frf_{axis}_{T}N.csv").exists()
        text = (out / f"shift_fit_{axis}.csv").read_text()
        slope = float(
            [l for l in text.splitlines() if l.startswith("# slope")][0].split("=")[1]
        )
        assert slope == pytest.approx(config.load_config(config_file).modal_models[axis].sensitivity, rel=0.02)
        assert "slope=" in capsys.readouterr().out

    def test_single_tension_exits_3(self, tmp_path, config_file):
        code = cli.main(
            ["--config", config_file, "modal", "--tensions", "1000", "--out", str(tmp_path / "o")]
        )
        assert code == 3
        assert not (tmp_path / "o").exists()

    def test_empty_tensions_exits_64(self, tmp_path, config_file):
        code = cli.main(
            ["--config", config_file, "modal", "--tensions", ",", "--out", str(tmp_path / "o")]
        )
        assert code == 64

    @pytest.mark.parametrize("option, value", [
        ("--df", "0"), ("--df", "nan"), ("--df", "-0.25"), ("--df", "inf"),
        ("--tensions", "0,inf"), ("--tensions", "0,nan"), ("--tensions", "0,1e300"),
        ("--tensions", "0,-500"), ("--df", "5e-324"),
    ])
    def test_bad_numeric_option_exits_64(self, tmp_path, config_file, capsys, option, value):
        options = {"--tensions": "0,500", "--df": "0.25", option: value}
        out = tmp_path / "o"
        code = cli.main(["--config", config_file, "modal", *(x for kv in options.items() for x in kv),
                         "--out", str(out)])
        assert code == 64
        assert option in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tensions, stderr", [
        ("0,500,500", "tensions '500' and '500' would both be written to frf_<axis>_500N.csv"),
        ("500,500.0000001", "tensions '500' and '500.0000001' would both be written to frf_<axis>_500N.csv"),
    ], ids=["repeated", "equal as %g"])
    def test_tensions_that_share_an_frf_file_name_exit_64(self, tmp_path, config_file, capsys, monkeypatch,
                                                          tensions, stderr):
        """Each FRF file is named by its tension as `%g`: two tensions that
        give one name are refused before anything is written."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal width
        out = tmp_path / "o"
        code = cli.main(["--config", config_file, "modal", "--tensions", tensions, "--out", str(out)])
        assert code == 64
        assert capsys.readouterr().err == ("usage: twinmill modal [-h] --tensions TENSIONS [--axis {x,y,z}] [--df DF]\n"
                                           "                      --out OUT\n"
                                           f"twinmill modal: error: argument --tensions: {stderr}\n")
        assert not out.exists()

    def test_a_grid_of_infinitely_many_points_is_over_the_cap(self, tmp_path, config_file, capsys):
        out = tmp_path / "o"
        code = cli.main(["--config", config_file, "modal", "--tensions", "0,1000", "--df", "5e-324", "--out", str(out)])
        assert code == 64
        assert capsys.readouterr().err == ("usage error: --tensions and --df give a frequency grid of inf points "
                                           "up to 381.6 Hz, more than 1048576\n")
        assert not out.exists()

    def test_grid_over_the_cap_refused_before_allocating(self, monkeypatch):
        with pytest.raises(cli._UsageError, match=r"grid of 1\.049e\+06 points"):
            cli._frequency_grid(1.0 + 0.25 * 2**20 + 0.1, 0.25)
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 100)
        assert len(cli._frequency_grid(26.0, 0.25)) == 100  # the count is np.arange's
        with pytest.raises(cli._UsageError, match="grid of 101 points"):
            cli._frequency_grid(26.1, 0.25)


class TestFrf:
    def test_h1_from_impacts(self, tmp_path, config_file):
        model = modal.ModalModel("x", 60.0, 0.015, 159.0, 0.0226)
        files = []
        for i in range(2):
            rec = modal.simulate_impact(model, 500.0, sample_rate=2048.0, duration=2.0)
            p = tmp_path / f"impact{i}.csv"
            p.write_text(modal.impact_record_to_csv(rec))
            files.append(str(p))
        out = tmp_path / "frf.csv"
        code = cli.main(["frf", *files, "--out", str(out)])
        assert code == 0
        frf = modal.frf_from_csv(out.read_text())
        peaks = modal.peak_pick(frf, 100.0, 300.0)
        assert len(peaks) == 1
        assert peaks[0][0] == pytest.approx(159.0 + 0.0226 * 500.0, abs=0.5)

    def test_mismatched_records_exit_3(self, tmp_path):
        model = modal.ModalModel("x", 60.0, 0.015, 159.0, 0.0226)
        files = []
        for i, T in enumerate((0.0, 500.0)):
            rec = modal.simulate_impact(model, T, sample_rate=2048.0, duration=1.0)
            p = tmp_path / f"impact{i}.csv"
            p.write_text(modal.impact_record_to_csv(rec))
            files.append(str(p))
        assert cli.main(["frf", *files, "--out", str(tmp_path / "frf.csv")]) == 3

    @pytest.mark.parametrize("nfft", ["0", "-3", "1", "1.5"])
    def test_nfft_below_2_exits_64(self, tmp_path, capsys, monkeypatch, nfft):
        """As every other bad option value does; the upper bound, which
        needs the records, is h1_estimate's (exit 3)."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal width
        model = modal.ModalModel("x", 60.0, 0.015, 159.0, 0.0226)
        p = tmp_path / "impact.csv"
        p.write_text(modal.impact_record_to_csv(modal.simulate_impact(model, 0.0, sample_rate=2048.0,
                                                                      duration=0.25)))
        out = tmp_path / "frf.csv"
        assert cli.main(["frf", str(p), "--nfft", nfft, "--out", str(out)]) == 64
        assert capsys.readouterr().err == ("usage: twinmill frf [-h] [--nfft NFFT] --out OUT impacts [impacts ...]\n"
                                           f"twinmill frf: error: argument --nfft: expected an integer >= 2, "
                                           f"got '{nfft}'\n")
        assert not out.exists()

    def test_nfft_over_the_cap_exits_3(self, tmp_path, capsys):
        model = modal.ModalModel("x", 60.0, 0.015, 159.0, 0.0226)
        p = tmp_path / "impact.csv"
        p.write_text(modal.impact_record_to_csv(modal.simulate_impact(model, 0.0, sample_rate=2048.0,
                                                                      duration=0.25)))
        out = tmp_path / "frf.csv"
        assert cli.main(["frf", str(p), "--nfft", "1000000000", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: nfft 1000000000 exceeds both 4194304 ")
        assert not out.exists()


class TestPlan:
    @pytest.mark.parametrize("axis_args, axis", [([], "x"), (["--tension-axis", "y"], "y"),
                                                 (["--tension-axis", "z"], "z")], ids=["x", "y", "z"])
    def test_plan_gcode(self, tmp_path, config_file, gcode_file, axis_args, axis):
        """The tension lies on its axis, and `deform` takes the program."""
        out = tmp_path / "program.csv"
        code = cli.main(
            ["--config", config_file, "plan", gcode_file, "--tension", "1000", *axis_args,
             "--work-offset-mm", WORK_OFFSET, "--out", str(out)]
        )
        assert code == 0
        program = program_from_csv(out.read_text())
        assert len(program.pairs) > 10
        assert program.tension.as_vector().tolist() == [1000.0 * (k == "xyz".index(axis)) for k in range(6)]
        assert cli.main(["--config", config_file, "deform", str(out), "--out", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_tension_exits_64(self, tmp_path, config_file, gcode_file, capsys, value):
        out = tmp_path / "p.csv"
        code = cli.main(["--config", config_file, "plan", gcode_file, f"--tension={value}",
                         "--work-offset-mm", WORK_OFFSET, "--out", str(out)])
        assert code == 64
        assert "argument --tension: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_tension_is_planned(self, tmp_path, config_file, gcode_file):
        out = tmp_path / "p.csv"
        assert cli.main(["--config", config_file, "plan", gcode_file, "--tension", "-1000",
                         "--work-offset-mm", WORK_OFFSET, "--out", str(out)]) == 0
        assert program_from_csv(out.read_text()).tension.force[0] == -1000.0

    def test_plan_outside_workspace_exits_3(self, tmp_path, config_file, gcode_file):
        code = cli.main(
            ["--config", config_file, "plan", gcode_file, "--out", str(tmp_path / "p.csv")]
        )
        assert code == 3

    @pytest.mark.parametrize("value", ["1,2", "2105,-20,nan", "2105,-20,1e400", "a,b,c"])
    def test_bad_work_offset_exits_64(self, tmp_path, config_file, gcode_file, capsys, value):
        out = tmp_path / "p.csv"
        code = cli.main(["--config", config_file, "plan", gcode_file, "--work-offset-mm", value,
                         "--out", str(out)])
        assert code == 64
        assert "argument --work-offset-mm: expected " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, code", [("-2105,-20,1100", 0), ("-20,1,2", 3)])
    def test_work_offset_with_a_leading_minus_in_either_spelling(self, tmp_path, config_file, capsys,
                                                                 value, code):
        """`--work-offset-mm V`, `--work-offset-mm=V` and the abbreviation
        `--work-offset V` plan alike when V starts with a minus sign. The
        slot 4.21 m along x is planned at -2105,-20,1100; at -20,1,2 it
        lies outside the workspace box."""
        path_file = tmp_path / "slot.json"
        path_file.write_text(path_to_json(transform_path(parse_gcode(SLOT_GCODE), Pose([4.21, 0.0, 0.0]))))
        results = []
        for option in (["--work-offset-mm", value], [f"--work-offset-mm={value}"], ["--work-offset", value]):
            out = tmp_path / f"p{len(results)}.csv"
            assert cli.main(["--config", config_file, "plan", str(path_file), *option, "--out", str(out)]) == code
            results.append((capsys.readouterr().err, out.read_bytes() if out.exists() else None))
        assert results[0] == results[1] == results[2]
        assert (results[0][1] is not None) == (code == 0)

    def test_tension_beyond_the_offset_bound_exits_3(self, tmp_path, config_file, gcode_file, capsys):
        """40 kN asks for about 11 mm of arm-2 offset, more than `deform`
        accepts: plan refuses it, naming the first setpoint."""
        out = tmp_path / "p.csv"
        code = cli.main(["--config", config_file, "plan", gcode_file, "--tension", "40000",
                         "--work-offset-mm", WORK_OFFSET, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: setpoint 0: commanded arm-2 flange is 1.09")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "{}",
        '{"segments": [{"type": "linear", "end": {"position_m": [0, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}}]}',
        "not json",
        "[]",
        '{"feed_mm_min": "fast", "segments": []}',
    ])
    def test_bad_path_json_exits_3(self, tmp_path, config_file, text, capsys):
        path_file = tmp_path / "path.json"
        path_file.write_text(text)
        code = cli.main(["--config", config_file, "plan", str(path_file), "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {path_file}: path JSON")

    @pytest.mark.parametrize("key, value", [
        ("max_iter", float("nan")), ("max_iter", 2.7), ("tol_pos_m", float("nan")),
        ("max_step_m", float("inf")),
    ])
    def test_bad_config_default_exits_2(self, tmp_path, gcode_file, key, value, capsys):
        doc = demo_config_dict()
        doc["defaults"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        code = cli.main(["--config", str(bad), "plan", gcode_file, "--tension", "1000",
                         "--work-offset-mm", WORK_OFFSET, "--out", str(out)])
        assert code == 2
        assert f"config.defaults.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_null_seed_exits_2(self, tmp_path, gcode_file, capsys):
        doc = demo_config_dict()
        doc["ik_seed2_rad"][3] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "p.csv"
        assert cli.main(["--config", str(bad), "plan", gcode_file, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: config.ik_seed2_rad[3]: expected a finite number")
        assert not out.exists()

    def test_missing_path_file_exits_3(self, tmp_path, config_file):
        code = cli.main(
            ["--config", config_file, "plan", str(tmp_path / "none.gcode"),
             "--out", str(tmp_path / "p.csv")]
        )
        assert code == 3


class TestDeform:
    @pytest.fixture
    def program_file(self, tmp_path, config_file, gcode_file):
        out = tmp_path / "program.csv"
        assert cli.main(
            ["--config", config_file, "plan", gcode_file, "--tension", "1000",
             "--work-offset-mm", WORK_OFFSET, "--out", str(out)]
        ) == 0
        return str(out)

    def test_deform_and_compensate(self, tmp_path, config_file, program_file):
        out = tmp_path / "deform_out"
        code = cli.main(
            ["--config", config_file, "deform", program_file, "--compensate",
             "--noise-sigma", "15e-6", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        before = read_rms(out / "residual_before.csv")
        after = read_rms(out / "residual_after.csv")
        assert before > 1e-4
        assert after < 5e-5

    def test_joint_outside_limits_exits_3(self, tmp_path, config_file, program_file, capsys):
        """Setpoint 7's q1 joint 5 edited to 2.5 rad, beyond its 2.2 rad limit."""
        program = program_from_csv(Path(program_file).read_text())
        sp = program.pairs
        q1 = sp.q1.copy()
        q1[7, 4] = 2.5
        pairs = Setpoints(sp.tool_pose, q1, sp.q2)
        edited = tmp_path / "edited.csv"
        edited.write_text(program_to_csv(dataclasses.replace(program, pairs=pairs)))
        assert edited.read_text().split("\n")[13].startswith("7,")  # the index on setpoint 7's line
        out = tmp_path / "o"
        assert cli.main(["--config", config_file, "deform", str(edited), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: setpoint 7, arm 1: joint configuration violates joint limits: "
            "q5 = 2.5 rad outside [-2.2, 2.2] rad\n")
        assert not (out / "deformed.csv").exists()

    @pytest.mark.parametrize("feed", ["-100", "-1e-300"])
    def test_negative_feed_in_the_program_exits_3(self, tmp_path, config_file, program_file, capsys, feed):
        text = Path(program_file).read_text()
        assert "# feed_mm_min=300\n" in text
        edited = tmp_path / "edited.csv"
        edited.write_text(text.replace("# feed_mm_min=300\n", f"# feed_mm_min={feed}\n"))
        out = tmp_path / "o"
        assert cli.main(["--config", config_file, "deform", str(edited), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"error: {edited}: program CSV line 1: metadata feed_mm_min={feed!r} "
                                           "is negative\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_noise_sigma_exits_64(self, tmp_path, config_file, program_file, capsys, value):
        out = tmp_path / "o"
        code = cli.main(["--config", config_file, "deform", program_file, "--noise-sigma", value,
                         "--seed", "7", "--out", str(out)])
        assert code == 64
        assert "argument --noise-sigma: expected" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise, seed, message", [
        ("1e-5", "-1", "argument --seed: expected a non-negative integer, got '-1'"),
        ("1e-5", "7.5", "argument --seed: expected a non-negative integer, got '7.5'"),
        ("1e308", "1", "argument --noise-sigma: expected a finite number >= 0 and <= 1e+06, got '1e308'"),
    ], ids=["seed -1", "seed 7.5", "noise 1e308"])
    def test_bad_seed_or_noise_is_refused_before_the_config_is_read(self, tmp_path, capsys, noise, seed, message):
        """A config that does not exist would exit 2: argparse refuses first."""
        out = tmp_path / "o"
        code = cli.main(["--config", str(tmp_path / "none.json"), "deform", str(tmp_path / "none.csv"),
                         "--noise-sigma", noise, "--seed", seed, "--out", str(out)])
        assert code == 64
        assert capsys.readouterr().err.split("\n")[-2] == f"twinmill deform: error: {message}"
        assert not out.exists()

    def test_noise_at_its_bound_is_accepted(self, tmp_path, config_file, program_file):
        assert cli.main(["--config", config_file, "deform", program_file, "--compensate", "--noise-sigma",
                         f"{cli.MAX_NOISE_SIGMA:g}", "--seed", "0", "--out", str(tmp_path / "o")]) == 0

    def test_noise_without_seed_exits_64(self, tmp_path, config_file, program_file):
        code = cli.main(
            ["--config", config_file, "deform", program_file, "--noise-sigma", "1e-5",
             "--out", str(tmp_path / "o")]
        )
        assert code == 64


def _edited_program(text, edit):
    """The program CSV `text` with `edit(fields)` applied to the fields of
    each data row."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line[:1].isdigit():
            fields = line.split(",")
            edit(fields)
            lines[i] = ",".join(fields)
    return "\n".join(lines)


def _shift_tool_x(fields):
    if int(fields[0]) >= 40:
        fields[1] = "%.17g" % (float(fields[1]) + 0.005)


def _index_38_at_40(fields):
    if fields[0] == "40":
        fields[0] = "38"


def _run_cli(*args):
    """`python -m twinmill.cli *args` in a subprocess, on the twinmill
    source these tests import."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "twinmill.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def _without_cell(text):
    return "\n".join(line for line in text.split("\n") if not line.startswith("# cell_sha256="))


class TestDeformRefusalsFromTheCommandLine:
    """Refused program CSVs, run as `python -m twinmill.cli deform` in a
    subprocess on the demo plan (`demo/slot.gcode`, 1000 N, offset
    2105,-20,1100): exit code 3 and the location in the message."""

    @pytest.fixture(scope="class")
    def demo_plan(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("plan") / "p1.csv"
        assert cli.main(["--config", str(DEMO_CONFIG), "plan", str(DEMO_CONFIG.parent / "slot.gcode"),
                         "--tension", "1000", "--work-offset-mm", WORK_OFFSET, "--out", str(out)]) == 0
        return out.read_text()

    @pytest.mark.parametrize("edit, options, named", [
        # Tool rows moved 5 mm in x from setpoint 40 on no longer match q1.
        (lambda text: _edited_program(text, _shift_tool_x), ["--compensate"], "setpoint 40"),
        (lambda text: "\n".join("# tension_wrench=1000 0 0 0 0" if line.startswith("# tension_wrench=") else line
                                for line in text.split("\n")), [], "tension_wrench"),
        # Setpoint 40 is on line 47; index 38 there is out of order.
        (lambda text: _edited_program(text, _index_38_at_40), [], "line 47"),
        # The form that also held the flange frames has its header on line 5.
        (lambda text: forty_one_column_program(config.load_config(DEMO_CONFIG).system, program_from_csv(text)),
         [], "program CSV line 5: expected header"),
        # Without its cell_sha256 line the header is on line 5.
        (_without_cell, [], "program CSV line 5: no cell_sha256"),
    ], ids=["tool rows shifted", "wrench of 5 numbers", "index out of order", "41 columns", "no cell_sha256"])
    def test_exits_3_naming_the_location(self, tmp_path, demo_plan, edit, options, named):
        edited = tmp_path / "edited.csv"
        edited.write_text(edit(demo_plan))
        run = _run_cli("--config", DEMO_CONFIG, "deform", edited, *options, "--out", tmp_path / "d")
        assert run.returncode == 3, run.stderr
        assert named in run.stderr
        assert not (tmp_path / "d").exists()

    def test_noise_without_a_seed_exits_64_before_any_output(self, tmp_path, demo_plan):
        program = tmp_path / "p1.csv"
        program.write_text(demo_plan)
        run = _run_cli("--config", DEMO_CONFIG, "deform", program, "--noise-sigma", "1e-5", "--out", tmp_path / "d")
        assert run.returncode == 64, run.stderr
        assert "--noise-sigma requires --seed" in run.stderr
        assert not (tmp_path / "d").exists()


def _null_seed_config(tmp_path):
    doc = demo_config_dict()
    doc["ik_seed2_rad"][3] = None
    path = tmp_path / "null_seed.json"
    path.write_text(json.dumps(doc))
    return path


def _impact_file(tmp_path):
    """A simulated 1 s x-axis impact at 0 N on the demo cell."""
    model = config.load_config(DEMO_CONFIG).modal_models["x"]
    path = tmp_path / "impact.csv"
    path.write_text(modal.impact_record_to_csv(modal.simulate_impact(model, 0.0, duration=1.0)))
    return path


def _written(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


_SLOT = DEMO_CONFIG.parent / "slot.gcode"
_HELIX = "G1 X10 Y0\nG3 X0 Y0 Z-0.3 I-5\n"
_STRING_PATH_JSON = json.dumps({"segments": [{
    "type": "linear", "start": {"position_m": ["0", 0, 0], "quaternion_wxyz": [1, 0, 0, 0]},
    "end": {"position_m": [0.01, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}}]})

# name: (arguments before --out given the test's tmp_path, exit code, what stderr names)
REFUSED_INPUTS = {
    "null IK seed": (lambda tmp: ["--config", _null_seed_config(tmp), "plan", _SLOT], 2,
                     "config.ik_seed2_rad[3]"),
    "nfft over the cap": (lambda tmp: ["frf", _impact_file(tmp), "--nfft", "1000000000"], 3, "nfft"),
    "non-finite tension": (lambda tmp: ["--config", DEMO_CONFIG, "plan", _SLOT, "--tension", "nan"], 64,
                           "--tension"),
    "tension over the offset bound": (lambda tmp: ["--config", DEMO_CONFIG, "plan", _SLOT, "--tension", "40000",
                                                   "--work-offset-mm", WORK_OFFSET], 3, "setpoint 0"),
    "helix": (lambda tmp: ["--config", DEMO_CONFIG, "plan", _written(tmp, "helix.gcode", _HELIX),
                           "--work-offset-mm", WORK_OFFSET], 3, "line 2"),
    "string path JSON": (lambda tmp: ["--config", DEMO_CONFIG, "plan",
                                      _written(tmp, "string.json", _STRING_PATH_JSON)],
                         3, "segments[0].start.position_m[0]"),
}


class TestPlanAndFrfRefusalsFromTheCommandLine:
    """Refused inputs of `plan` and `frf`, run as `python -m twinmill.cli`
    in a subprocess: the exit code, the location in the message and no
    output file."""

    @pytest.mark.parametrize("args, code, named", REFUSED_INPUTS.values(), ids=REFUSED_INPUTS.keys())
    def test_exit_code_and_location(self, tmp_path, args, code, named):
        out = tmp_path / "out.csv"
        run = _run_cli(*args(tmp_path), "--out", out)
        assert run.returncode == code, run.stderr
        assert named in run.stderr
        assert not out.exists()


def _scaled_config(keys, factor):
    """The demo config document with the number at `keys` times `factor`."""
    doc = demo_config_dict()
    entry = doc
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] *= factor
    return doc


def _reordered(doc):
    """The decoded JSON document with every object's keys in reverse order."""
    if isinstance(doc, dict):
        return {key: _reordered(doc[key]) for key in reversed(list(doc))}
    if isinstance(doc, list):
        return [_reordered(value) for value in doc]
    return doc


class TestCellFingerprint:
    """`plan` writes the sha256 of the parsed cell; `deform` refuses a
    program planned on another cell, naming both values."""

    @pytest.fixture(scope="class")
    def program_file(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("plan") / "p.csv"
        assert cli.main(["--config", str(DEMO_CONFIG), "plan", str(DEMO_CONFIG.parent / "slot.gcode"),
                         "--tension", "1000", "--work-offset-mm", WORK_OFFSET, "--out", str(out)]) == 0
        return out

    def test_demo_cell_matches_itself(self, tmp_path, program_file):
        cell = cell_sha256(config.load_config(DEMO_CONFIG).system)
        assert f"# cell_sha256={cell}\n" in program_file.read_text()
        assert cli.main(["--config", str(DEMO_CONFIG), "deform", str(program_file), "--out", str(tmp_path)]) == 0

    def test_reordered_and_reindented_config_hashes_the_same(self, tmp_path, program_file):
        other = tmp_path / "system.json"
        other.write_text(json.dumps(_reordered(demo_config_dict()), indent=7))
        assert other.read_text() != DEMO_CONFIG.read_text()
        assert cell_sha256(config.load_config(other).system) == cell_sha256(config.load_config(DEMO_CONFIG).system)
        assert cli.main(["--config", str(other), "deform", str(program_file), "--out", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("keys, value", [
        (("arm1", "dh_rows", 0, 3), -0.0),
        (("arm2", "base_pose", "position_m", 1), -0.0),
        (("arm2", "base_pose", "quaternion_wxyz"), [0.0, 0.0, 0.0, -1.0]),
        (("flange2_offset", "quaternion_wxyz"), [-0.0, -0.7071067811865476, 0.0, -0.7071067811865476]),
    ], ids=["-0.0 DH entry", "-0.0 base position", "qw=0 base quaternion negated", "qw=0 offset quaternion negated"])
    def test_the_same_cell_with_other_signs_hashes_the_same(self, tmp_path, program_file, keys, value):
        """-0.0 for 0.0, and -q for a quaternion q with qw = 0, which `Pose`
        keeps as written, are the same cell."""
        doc = demo_config_dict()
        entry = doc
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
        other = tmp_path / "system.json"
        other.write_text(json.dumps(doc))
        assert cell_sha256(config.load_config(other).system) == cell_sha256(config.load_config(DEMO_CONFIG).system)
        assert cli.main(["--config", str(other), "deform", str(program_file), "--out", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("keys", [
        ("modal_models", "x", "f0_hz"), ("defaults", "tol_pos_m"), ("workspace_box", "size_m", 0),
    ], ids=["modal model", "solver default", "workspace"])
    def test_what_is_not_the_cell_does_not_change_the_hash(self, keys):
        doc = _scaled_config(keys, 1.5)
        parsed = config.parse_config(json.dumps(doc))
        assert cell_sha256(parsed.system) == cell_sha256(config.load_config(DEMO_CONFIG).system)

    @pytest.mark.parametrize("keys", [
        ("arm1", "joint_stiffness_nm_per_rad", 2), ("arm2", "joint_stiffness_nm_per_rad", 5),
        ("spring_matrix", 4, 4), ("tool_offset", "position_m", 2),
    ], ids=["arm 1 joint stiffness", "arm 2 joint stiffness", "spring entry", "tool offset"])
    def test_another_cell_exits_3_naming_both_values(self, tmp_path, program_file, keys, capsys):
        other = tmp_path / "system.json"
        other.write_text(json.dumps(_scaled_config(keys, 1.01)))
        planned, here = (cell_sha256(config.load_config(p).system) for p in (DEMO_CONFIG, other))
        assert planned != here
        out = tmp_path / "d"
        assert cli.main(["--config", str(other), "deform", str(program_file), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"error: program {program_file} was planned on cell_sha256={planned}, "
                                           f"the config's cell is {here}\n")
        assert not out.exists()

    def test_program_without_a_cell_exits_3(self, tmp_path, program_file, capsys):
        edited = tmp_path / "edited.csv"
        edited.write_text(_without_cell(program_file.read_text()))
        out = tmp_path / "d"
        assert cli.main(["--config", str(DEMO_CONFIG), "deform", str(edited), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"error: {edited}: program CSV line 5: no cell_sha256 metadata "
                                           "before the header\n")
        assert not out.exists()


def _pose(x):
    return {"position_m": [x, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}


def _index_plus_100(fields):
    fields[0] = str(int(fields[0]) + 100)


def _arc(center, start_x):
    return {"type": "arc", "center_m": center, "normal": [0, 0, 1], "start": _pose(start_x), "sweep_rad": 1.0}


def _half_qw_at_setpoint_14(fields):
    if fields[0] == "14":
        fields[4] = "0.5"


def _q1_5_at_setpoint_7(fields):
    """Setpoint 7's q1 joint 5 (field 12) at 2.5 rad, beyond its 2.2 rad limit."""
    if fields[0] == "7":
        fields[12] = "2.5"


def _ik_seed1_q5(value):
    doc = demo_config_dict()
    doc["ik_seed1_rad"][4] = value
    return json.dumps(doc)


def _tension_wrench_1e200(text):
    """The program CSV `text` with a tension of 1e200 N along x, whose
    square overflows."""
    return re.sub(r"(?m)^# tension_wrench=.*$", "# tension_wrench=1e200 0 0 0 0 0", text)


def _impact(tension, rate=None):
    text = modal.impact_record_to_csv(modal.simulate_impact(
        config.load_config(DEMO_CONFIG).modal_models["x"], tension, sample_rate=2048.0, duration=0.05))
    return text if rate is None else text.replace("# sample_rate_hz=2048.0", f"# sample_rate_hz={rate}")


def _impact_struck_after_100_samples():
    """An impact CSV whose force and acceleration are zero for their first
    100 samples: a 64-point FFT of it sees no force at all."""
    record = modal.impact_record_from_csv(_impact(0.0))
    late = dataclasses.replace(record, force=np.r_[np.zeros(100), record.force],
                               acceleration=np.r_[np.zeros(100), record.acceleration])
    return modal.impact_record_to_csv(late)


def _impact_of_two_equal_force_samples():
    """A 64-sample impact CSV at 1 kHz whose force is 100 N at samples 3
    and 4 alone: its force spectrum is exactly 0 at 500 Hz."""
    force = np.zeros(64)
    force[3:5] = 100.0
    return modal.impact_record_to_csv(modal.ImpactRecord(1000.0, force, np.sin(np.arange(64.0))))


def _modal_x_damping(value):
    doc = demo_config_dict()
    doc["modal_models"]["x"]["damping_ratio"] = value
    return json.dumps(doc)


def _first_line_of(program):
    """The demo program cut to its first 17 setpoints, the ones of `G1 X40`:
    a straight line."""
    sp = program.pairs
    return program_to_csv(dataclasses.replace(program, pairs=Setpoints(sp.tool_pose[:17], sp.q1[:17], sp.q2[:17])))


def _spring_diagonal(value):
    doc = demo_config_dict()
    doc["spring_matrix"][3][3] = value
    return json.dumps(doc)


# name: (files to write, by name, given the demo program; argv after the
# file paths are filled in; exit code; stderr, a path written in braces
# being the file's path)
REFUSALS = {
    "path JSON type []": (
        lambda p: {"path.json": json.dumps({"segments": [{"type": [], "start": _pose(0), "end": _pose(0.01)}]})},
        ["--config", str(DEMO_CONFIG), "plan", "{path.json}", "--out", "{out.csv}"], 3,
        "error: {path.json}: path JSON segments[0].type: unknown segment type []\n"),
    "path JSON type {}": (
        lambda p: {"path.json": json.dumps({"segments": [{"type": {}, "start": _pose(0), "end": _pose(0.01)}]})},
        ["--config", str(DEMO_CONFIG), "plan", "{path.json}", "--out", "{out.csv}"], 3,
        "error: {path.json}: path JSON segments[0].type: unknown segment type {}\n"),
    "path JSON line past the float range": (
        lambda p: {"path.json": json.dumps({"segments": [
            {"type": "linear", "start": _pose(-1e308), "end": _pose(1e308)}]})},
        ["--config", str(DEMO_CONFIG), "plan", "{path.json}", "--out", "{out.csv}"], 3,
        "error: {path.json}: segments[0]: the segment takes the path past 1048576 samples "
        "(chord_tol 1e-05 m, max_step 0.005 m)\n"),
    # Coordinates near the float range are refused with no numpy warning,
    # which the tests' filterwarnings = error would raise instead.
    "path JSON arc center at -1e200": (
        lambda p: {"path.json": json.dumps({"segments": [_arc([-1e200, 0, 0], 0)]})},
        ["--config", str(DEMO_CONFIG), "plan", "{path.json}", "--out", "{out.csv}"], 3,
        "error: {path.json}: segments[0]: the segment takes the path past 1048576 samples "
        "(chord_tol 1e-05 m, max_step 0.005 m)\n"),
    "path JSON arc start at 1e200": (
        lambda p: {"path.json": json.dumps({"segments": [_arc([0, 0, 0], 1e200)]})},
        ["--config", str(DEMO_CONFIG), "plan", "{path.json}", "--out", "{out.csv}"], 3,
        "error: {path.json}: segments[0]: the segment takes the path past 1048576 samples "
        "(chord_tol 1e-05 m, max_step 0.005 m)\n"),
    "path JSON arc start 3e308 from its center": (
        lambda p: {"path.json": json.dumps({"segments": [_arc([-1.5e308, 0, 0], 1.5e308)]})},
        ["--config", str(DEMO_CONFIG), "plan", "{path.json}", "--out", "{out.csv}"], 3,
        "error: {path.json}: path JSON segments[0]: arc start-to-center vector overflows the float range\n"),
    "path JSON lines ending at 1e200 and starting at -1e200": (
        lambda p: {"path.json": json.dumps({"segments": [
            {"type": "linear", "start": _pose(0), "end": _pose(1e200)},
            {"type": "linear", "start": _pose(-1e200), "end": _pose(0)}]})},
        ["--config", str(DEMO_CONFIG), "plan", "{path.json}", "--out", "{out.csv}"], 3,
        "error: {path.json}: path JSON segments[1]: toolpath is not C0-continuous (gap inf m)\n"),
    "config repeated key": (
        lambda p: {"system.json": json_with_a_repeated_key(demo_config_dict(), (), "spring_matrix", [[1]])},
        ["--config", "{system.json}", "modal", "--tensions", "0", "--out", "{out}"], 2,
        "config error: config.spring_matrix: repeated key\n"),
    "config spring entry 1e308": (
        lambda p: {"system.json": _spring_diagonal(1e308)},
        ["--config", "{system.json}", "modal", "--tensions", "0", "--out", "{out}"], 2,
        "config error: config.spring_matrix: spring matrix must be a 6x6 array of finite entries, "
        "each of size <= 8.988e+307\n"),
    "impact sample rate 0": (
        lambda p: {"a.csv": _impact(0.0, rate=0)},
        ["frf", "{a.csv}", "--out", "{out.csv}"], 3,
        "error: {a.csv}: impact CSV line 4: metadata sample_rate_hz='0' is not positive\n"),
    "impact sample rate 0 in the second file": (
        lambda p: {"a.csv": _impact(0.0), "b.csv": _impact(0.0, rate=0)},
        ["frf", "{a.csv}", "{b.csv}", "{a.csv}", "--out", "{out.csv}"], 3,
        "error: {b.csv}: impact CSV line 4: metadata sample_rate_hz='0' is not positive\n"),
    "impact record with a time column": (
        lambda p: {"a.csv": three_column_impact(modal.impact_record_from_csv(_impact(0.0)))},
        ["frf", "{a.csv}", "--out", "{out.csv}"], 3,
        "error: {a.csv}: impact CSV line 5: expected header 'force_N,accel_ms2', found 'time_s,force_N,accel_ms2'\n"),
    "impact record with no force in its first nfft samples": (
        lambda p: {"a.csv": _impact_struck_after_100_samples()},
        ["frf", "{a.csv}", "--nfft", "64", "--out", "{out.csv}"], 3,
        "error: force auto-spectrum is identically zero\n"),
    "impact record with no force at 500 Hz": (
        lambda p: {"a.csv": _impact_of_two_equal_force_samples()},
        ["frf", "{a.csv}", "--out", "{out.csv}"], 3,
        "error: force auto-spectrum is zero at 500.0 Hz\n"),
    "mixed impact records": (
        lambda p: {"a.csv": _impact(0.0), "b.csv": _impact(500.0)},
        ["frf", "{a.csv}", "{a.csv}", "{b.csv}", "--out", "{out.csv}"], 3,
        "error: {b.csv}: impact record 2 differs from record 0 in tension: 500.0, not 0.0\n"),
    "program with shifted indices": (
        lambda p: {"program.csv": _edited_program(program_to_csv(p), _index_plus_100)},
        ["--config", str(DEMO_CONFIG), "deform", "{program.csv}", "--out", "{out}"], 3,
        "error: {program.csv}: program CSV line 7: indices must count 0, 1, 2, ... in order, "
        "found 100 where 0 is due\n"),
    # Line 21 holds setpoint 14; field 4 is its tool_qw.
    "program with a bad tool quaternion": (
        lambda p: {"program.csv": _edited_program(program_to_csv(p), _half_qw_at_setpoint_14)},
        ["--config", str(DEMO_CONFIG), "deform", "{program.csv}", "--out", "{out}"], 3,
        "error: {program.csv}: program CSV line 21: tool_pose: pose row 14: position must be finite and "
        "quaternion norm 1 within 1e-9\n"),
    "G-code word": (
        lambda p: {"slot.gcode": "G1 X10\nG1 X20 Q5\n"},
        ["--config", str(DEMO_CONFIG), "plan", "{slot.gcode}", "--out", "{out.csv}"], 3,
        "error: {slot.gcode}: line 2: unsupported word Q5\n"),
    # A tension whose square overflows is refused where it enters, before
    # any IK and with no numpy warning.
    "plan tension 1e200": (
        lambda p: {"slot.gcode": SLOT_GCODE},
        ["--config", str(DEMO_CONFIG), "plan", "{slot.gcode}", "--tension", "1e200",
         "--work-offset-mm", WORK_OFFSET, "--out", "{out.csv}"], 3,
        "error: --tension 1e+200: wrench force/torque must be finite 3-vectors of norm below about 1.341e+154\n"),
    "program tension 1e200": (
        lambda p: {"program.csv": _tension_wrench_1e200(program_to_csv(p))},
        ["--config", str(DEMO_CONFIG), "deform", "{program.csv}", "--out", "{out}"], 3,
        "error: {program.csv}: program CSV line 2: metadata tension_wrench='1e200 0 0 0 0 0' is refused: "
        "wrench force/torque must be finite 3-vectors of norm below about 1.341e+154\n"),
    "program with a repeated metadata key": (
        lambda p: {"program.csv": program_to_csv(p).replace("# cell_sha256=", "# chord_tol_m=2e-05\n# cell_sha256=")},
        ["--config", str(DEMO_CONFIG), "deform", "{program.csv}", "--out", "{out}"], 3,
        "error: {program.csv}: program CSV line 5: metadata chord_tol_m repeated, first given on line 3\n"),
    "program with arm 1 outside its joint limits": (
        lambda p: {"program.csv": _edited_program(program_to_csv(p), _q1_5_at_setpoint_7)},
        ["--config", str(DEMO_CONFIG), "deform", "{program.csv}", "--out", "{out}"], 3,
        "error: setpoint 7, arm 1: joint configuration violates joint limits: q5 = 2.5 rad outside [-2.2, 2.2] rad\n"),
    # A refusal after the first result is computed still writes nothing.
    "modal with one tension": (
        lambda p: {},
        ["--config", str(DEMO_CONFIG), "modal", "--tensions", "500", "--out", "{out}"], 3,
        "error: at least two (tension, frequency) points are required\n"),
    "modal x damping ratio 0.9": (
        lambda p: {"system.json": _modal_x_damping(0.9)},
        ["--config", "{system.json}", "modal", "--tensions", "0,1000", "--out", "{out}"], 3,
        "error: no compliance peak found at tension 0 N\n"),
    # 159 Hz, x's natural frequency at 0 N, lies on the 0.25 Hz grid.
    "modal x damping ratio 0": (
        lambda p: {"system.json": _modal_x_damping(0.0)},
        ["--config", "{system.json}", "modal", "--tensions", "0,500", "--out", "{out}"], 3,
        "error: compliance is unbounded at 159.0 Hz at tension 0 N: k - m w^2 + i c w is 0 there\n"),
    "deform --compensate on one line": (
        lambda p: {"program.csv": _first_line_of(p)},
        ["--config", str(DEMO_CONFIG), "deform", "{program.csv}", "--compensate", "--out", "{out}"], 3,
        "error: reference points are collinear; the rotation is not unique\n"),
    "config IK seed outside its joint limits": (
        lambda p: {"system.json": _ik_seed1_q5(3.0), "slot.gcode": SLOT_GCODE},
        ["--config", "{system.json}", "plan", "{slot.gcode}", "--work-offset-mm", WORK_OFFSET, "--out", "{out.csv}"],
        3, "error: ik_seeds[0] (arm 1): seed violates joint limits: q5 = 3 rad outside [-2.2, 2.2] rad\n"),
}


def _refusal_files(tmp_path, demo_program, files, argv, stderr):
    """Write a REFUSALS case's files under tmp_path. Returns its argv and
    stderr, each path written in braces filled in, and the paths of the
    files written."""
    texts = files(demo_program)
    written = {name: str(tmp_path / name) for name in texts}
    for name, text in texts.items():
        Path(written[name]).write_text(text)
    paths = {"out": str(tmp_path / "out"), "out.csv": str(tmp_path / "out.csv"), **written}

    def fill(text):
        for name, path in paths.items():
            text = text.replace(f"{{{name}}}", path)
        return text

    return [fill(arg) for arg in argv], fill(stderr), list(written.values())


@pytest.mark.parametrize("name, text, parse, cls, message, line, path", [
    ("slot.gcode", "G1 X10\nG1 X20 Q5\n", parse_gcode, InvalidInputError, "line 2: unsupported word Q5", 2, None),
    ("path.json", '{"segments": [{"type": []}]}', path_from_json, InvalidInputError,
     "path JSON segments[0].type: unknown segment type []", None, "segments[0].type"),
], ids=["G-code", "path JSON"])
def test_a_reader_refusal_names_its_file_and_keeps_its_type_and_place(tmp_path, name, text, parse, cls, message,
                                                                       line, path):
    file = tmp_path / name
    file.write_text(text)
    with pytest.raises(cls) as exc:
        cli._parse_input(str(file), parse)
    assert (str(exc.value), exc.value.line, exc.value.path) == (f"{file}: {message}", line, path)


@pytest.mark.parametrize("files, argv, code, stderr", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_exits_2_or_3_naming_its_place(tmp_path, demo_program, capsys, files, argv, code, stderr):
    """Each input exits with its code, never 1, and stderr is one line
    naming the line, the schema path or the file of the bad data. Nothing
    is written."""
    argv, stderr, _ = _refusal_files(tmp_path, demo_program, files, argv, stderr)
    assert cli.main(argv) == code
    assert capsys.readouterr() == ("", stderr)
    assert not (tmp_path / "out").exists() and not (tmp_path / "out.csv").exists()


def test_an_output_that_cannot_be_written_exits_3(tmp_path, capsys):
    out = tmp_path / "nodir" / "p.csv"
    code = cli.main(["--config", str(DEMO_CONFIG), "plan", str(_SLOT), "--work-offset-mm", WORK_OFFSET,
                     "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


@pytest.mark.parametrize("files, argv, code, stderr", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refusal_carries_as_data_each_place_its_stderr_names(tmp_path, demo_program, files, argv, code, stderr):
    """The error itself, caught in-process from the command, is the one
    `main` prints, and carries each place that line names: an input file
    as `file`, `setpoint k` as `index` and `arm n` as `arm`."""
    argv, stderr, written = _refusal_files(tmp_path, demo_program, files, argv, stderr)
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(TwinmillError) as exc:
        args.func(args)
    assert stderr == f"{'config error' if code == 2 else 'error'}: {exc.value}\n"
    named = [path for path in written if path in stderr]
    if named:
        assert [exc.value.file] == named
    if setpoint := re.search(r"\bsetpoint (\d+)", stderr):
        assert exc.value.index == int(setpoint[1])
    if arm := re.search(r"\barm (\d)", stderr):
        assert exc.value.arm == int(arm[1])
