import dataclasses
import json
from pathlib import Path

import pytest

from twinmill import cli, modal
from twinmill.pathplan import Setpoints, program_from_csv, program_to_csv

from conftest import DEMO_CONFIG, demo_config_dict

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


class TestModal:
    def test_writes_frfs_and_fit(self, tmp_path, config_file, capsys):
        out = tmp_path / "modal_out"
        code = cli.main(
            ["--config", config_file, "modal", "--tensions", "0,500,1400,2000",
             "--out", str(out)]
        )
        assert code == 0
        for T in ("0", "500", "1400", "2000"):
            assert (out / f"frf_x_{T}N.csv").exists()
        text = (out / "shift_fit_x.csv").read_text()
        slope = float(
            [l for l in text.splitlines() if l.startswith("# slope")][0].split("=")[1]
        )
        assert slope == pytest.approx(0.0226, rel=0.02)
        assert "slope=" in capsys.readouterr().out

    def test_single_tension_exits_3(self, tmp_path, config_file):
        code = cli.main(
            ["--config", config_file, "modal", "--tensions", "1000", "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_empty_tensions_exits_64(self, tmp_path, config_file):
        code = cli.main(
            ["--config", config_file, "modal", "--tensions", ",", "--out", str(tmp_path / "o")]
        )
        assert code == 64

    @pytest.mark.parametrize("option, value", [
        ("--df", "0"), ("--df", "nan"), ("--df", "-0.25"), ("--df", "inf"),
        ("--tensions", "0,inf"), ("--tensions", "0,nan"), ("--tensions", "0,1e300"),
        ("--tensions", "0,-500"),
    ])
    def test_bad_numeric_option_exits_64(self, tmp_path, config_file, capsys, option, value):
        options = {"--tensions": "0,500", "--df": "0.25", option: value}
        out = tmp_path / "o"
        code = cli.main(["--config", config_file, "modal", *(x for kv in options.items() for x in kv),
                         "--out", str(out)])
        assert code == 64
        assert option in capsys.readouterr().err
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

    @pytest.mark.parametrize("nfft", ["0", "-4", "1"])
    def test_bad_nfft_exits_3(self, tmp_path, capsys, nfft):
        model = modal.ModalModel("x", 60.0, 0.015, 159.0, 0.0226)
        p = tmp_path / "impact.csv"
        p.write_text(modal.impact_record_to_csv(modal.simulate_impact(model, 0.0, sample_rate=2048.0,
                                                                      duration=0.25)))
        out = tmp_path / "frf.csv"
        assert cli.main(["frf", str(p), "--nfft", nfft, "--out", str(out)]) == 3
        assert "nfft must be an integer >= 2" in capsys.readouterr().err
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
    def test_plan_gcode(self, tmp_path, config_file, gcode_file):
        out = tmp_path / "program.csv"
        code = cli.main(
            ["--config", config_file, "plan", gcode_file, "--tension", "1000",
             "--work-offset-mm", WORK_OFFSET, "--out", str(out)]
        )
        assert code == 0
        program = program_from_csv(out.read_text())
        assert len(program.pairs) > 10
        assert program.tension.force[0] == 1000.0

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
        assert capsys.readouterr().err.startswith("error: path JSON")

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
        pairs = Setpoints(sp.index, sp.tool_pose, sp.robot1_flange, sp.robot2_flange_nominal,
                          sp.robot2_flange_commanded, q1, sp.q2)
        edited = tmp_path / "edited.csv"
        edited.write_text(program_to_csv(dataclasses.replace(program, pairs=pairs)))
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
        assert capsys.readouterr().err.startswith("error: sync program feed_mm_min must be finite and >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_noise_sigma_exits_64(self, tmp_path, config_file, program_file, capsys, value):
        out = tmp_path / "o"
        code = cli.main(["--config", config_file, "deform", program_file, "--noise-sigma", value,
                         "--seed", "7", "--out", str(out)])
        assert code == 64
        assert "argument --noise-sigma: expected" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_without_seed_exits_64(self, tmp_path, config_file, program_file):
        code = cli.main(
            ["--config", config_file, "deform", program_file, "--noise-sigma", "1e-5",
             "--out", str(tmp_path / "o")]
        )
        assert code == 64
