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
from twinmill.errors import TwinmillError
from twinmill.geometry import Pose
from twinmill.pathplan import Setpoints, parse_gcode, path_to_json, program_from_csv, program_to_csv, transform_path
from twinmill.stiffness import cell_sha256

from conftest import (DEMO_CONFIG, DEMO_GCODE, DEMO_NOISE_OPTIONS, DEMO_PLAN_OPTIONS, DEMO_TENSION, SLOT_GCODE,
                      SLOT_JSON, WORK_OFFSET_MM, demo_config_dict, edit_line, forty_one_column_program, impact_text,
                      json_replaced, json_with_a_repeated_key, three_column_impact, truncate)

DEMO = str(DEMO_CONFIG)
SLOT = str(DEMO_GCODE)


def read_rms(path):
    for line in path.read_text().splitlines():
        if line.startswith("# rms_m="):
            return float(line.split("=", 1)[1])
    raise AssertionError("no rms in report")


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


def test_unknown_command_exits_64(capsys):
    """Not a USAGE row: the text is argparse's own, which lists the choices
    as each Python version formats them."""
    assert cli.main(["mill"]) == 64
    last = capsys.readouterr().err.split("\n")[-2]
    assert last.startswith("twinmill: error: argument command: invalid choice: 'mill'")


class TestConfigHandling:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, DEMO)
        out = tmp_path / "modal_out"
        code = cli.main(["modal", "--tensions", "0,500,1400,2000", "--out", str(out)])
        assert code == 0
        assert (out / "shift_fit_x.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(tmp_path / "missing.json"))
        out = tmp_path / "o"
        code = cli.main(["--config", DEMO, "modal", "--tensions", "0,2000", "--out", str(out)])
        assert code == 0

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
    def test_plan_path_file(self, tmp_path, name, capsys):
        bad = tmp_path / name
        bad.write_bytes(NOT_UTF8)
        assert cli.main(["--config", DEMO, "plan", str(bad), "--out", str(tmp_path / "p.csv")]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: 'utf-8' codec")

    def test_deform_program(self, tmp_path, capsys):
        bad = tmp_path / "program.csv"
        bad.write_bytes(NOT_UTF8)
        assert cli.main(["--config", DEMO, "deform", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: 'utf-8' codec")

    def test_frf_impact(self, tmp_path, capsys):
        bad = tmp_path / "impact.csv"
        bad.write_bytes(NOT_UTF8)
        assert cli.main(["frf", str(bad), "--out", str(tmp_path / "frf.csv")]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: 'utf-8' codec")


class TestModal:
    @pytest.mark.parametrize("axis_args, axis", [([], "x"), (["--axis", "y"], "y"), (["--axis", "z"], "z")],
                             ids=["x", "y", "z"])
    def test_writes_frfs_and_fit(self, tmp_path, capsys, axis_args, axis):
        out = tmp_path / "modal_out"
        code = cli.main(
            ["--config", DEMO, "modal", "--tensions", "0,500,1400,2000", *axis_args,
             "--out", str(out)]
        )
        assert code == 0
        for T in ("0", "500", "1400", "2000"):
            assert (out / f"frf_{axis}_{T}N.csv").exists()
        text = (out / f"shift_fit_{axis}.csv").read_text()
        slope = float(
            [l for l in text.splitlines() if l.startswith("# slope")][0].split("=")[1]
        )
        assert slope == pytest.approx(config.load_config(DEMO).modal_models[axis].sensitivity, rel=0.02)
        assert "slope=" in capsys.readouterr().out

    def test_grid_over_the_cap_refused_before_allocating(self, monkeypatch):
        with pytest.raises(cli._UsageError, match=r"grid of 1\.049e\+06 points"):
            cli._frequency_grid(1.0 + 0.25 * 2**20 + 0.1, 0.25)
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 100)
        assert len(cli._frequency_grid(26.0, 0.25)) == 100  # the count is np.arange's
        with pytest.raises(cli._UsageError, match="grid of 101 points"):
            cli._frequency_grid(26.1, 0.25)


class TestFrf:
    def test_h1_from_impacts(self, tmp_path):
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


class TestPlan:
    @pytest.mark.parametrize("axis_args, axis", [([], "x"), (["--tension-axis", "y"], "y"),
                                                 (["--tension-axis", "z"], "z")], ids=["x", "y", "z"])
    def test_plan_gcode(self, tmp_path, axis_args, axis):
        """The tension lies on its axis, and `deform` takes the program."""
        out = tmp_path / "program.csv"
        code = cli.main(
            ["--config", DEMO, "plan", SLOT, *DEMO_PLAN_OPTIONS, *axis_args, "--out", str(out)]
        )
        assert code == 0
        program = program_from_csv(out.read_text())
        assert len(program.pairs) > 10
        assert program.tension.as_vector().tolist() == [DEMO_TENSION * (k == "xyz".index(axis)) for k in range(6)]
        assert cli.main(["--config", DEMO, "deform", str(out), "--out", str(tmp_path / "d")]) == 0

    def test_negative_tension_is_planned(self, tmp_path):
        out = tmp_path / "p.csv"
        assert cli.main(["--config", DEMO, "plan", SLOT, "--tension", "-1000",
                         "--work-offset-mm", WORK_OFFSET_MM, "--out", str(out)]) == 0
        assert program_from_csv(out.read_text()).tension.force[0] == -1000.0

    @pytest.mark.parametrize("value, code", [("-2105,-20,1100", 0), ("-20,1,2", 3)])
    def test_work_offset_with_a_leading_minus_in_either_spelling(self, tmp_path, capsys, value, code):
        """`--work-offset-mm V`, `--work-offset-mm=V` and the abbreviation
        `--work-offset V` plan alike when V starts with a minus sign. The
        slot 4.21 m along x is planned at -2105,-20,1100; at -20,1,2 it
        lies outside the workspace box."""
        path_file = tmp_path / "slot.json"
        path_file.write_text(path_to_json(transform_path(parse_gcode(SLOT_GCODE), Pose([4.21, 0.0, 0.0]))))
        results = []
        for option in (["--work-offset-mm", value], [f"--work-offset-mm={value}"], ["--work-offset", value]):
            out = tmp_path / f"p{len(results)}.csv"
            assert cli.main(["--config", DEMO, "plan", str(path_file), *option, "--out", str(out)]) == code
            results.append((capsys.readouterr().err, out.read_bytes() if out.exists() else None))
        assert results[0] == results[1] == results[2]
        assert (results[0][1] is not None) == (code == 0)

    def test_path_json_that_is_not_json_exits_3(self, tmp_path, capsys):
        """The text after the place is the json module's own."""
        path_file = tmp_path / "path.json"
        path_file.write_text("not json")
        code = cli.main(["--config", DEMO, "plan", str(path_file), "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {path_file}: path JSON")

    def test_missing_path_file_exits_3(self, tmp_path):
        code = cli.main(["--config", DEMO, "plan", str(tmp_path / "none.gcode"), "--out", str(tmp_path / "p.csv")])
        assert code == 3


class TestDeform:
    @pytest.fixture
    def program_file(self, tmp_path):
        out = tmp_path / "program.csv"
        assert cli.main(
            ["--config", DEMO, "plan", SLOT, *DEMO_PLAN_OPTIONS, "--out", str(out)]
        ) == 0
        return str(out)

    def test_deform_and_compensate(self, tmp_path, program_file):
        out = tmp_path / "deform_out"
        code = cli.main(
            ["--config", DEMO, "deform", program_file, "--compensate", *DEMO_NOISE_OPTIONS, "--out", str(out)]
        )
        assert code == 0
        before = read_rms(out / "residual_before.csv")
        after = read_rms(out / "residual_after.csv")
        assert before > 1e-4
        assert after < 5e-5

    def test_noise_at_its_bound_is_accepted(self, tmp_path, program_file):
        assert cli.main(["--config", DEMO, "deform", program_file, "--compensate", "--noise-sigma",
                         f"{cli.MAX_NOISE_SIGMA:g}", "--seed", "0", "--out", str(tmp_path / "o")]) == 0


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
        assert cli.main(["--config", DEMO, "plan", SLOT, *DEMO_PLAN_OPTIONS, "--out", str(out)]) == 0
        return out

    def test_demo_cell_matches_itself(self, tmp_path, program_file):
        cell = cell_sha256(config.load_config(DEMO_CONFIG).system)
        assert f"# cell_sha256={cell}\n" in program_file.read_text()
        assert cli.main(["--config", DEMO, "deform", str(program_file), "--out", str(tmp_path)]) == 0

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
        other = tmp_path / "system.json"
        other.write_text(json.dumps(json_replaced(demo_config_dict(), keys, value)))
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


def test_an_output_that_cannot_be_written_exits_3(tmp_path, capsys):
    out = tmp_path / "nodir" / "p.csv"
    code = cli.main(["--config", DEMO, "plan", SLOT, "--work-offset-mm", WORK_OFFSET_MM, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


PLAN_PATH_JSON = ["--config", DEMO, "plan", "{path.json}", "--out", "{out.csv}"]
DEFORM_PROGRAM = ["--config", DEMO, "deform", "{program.csv}", "--out", "{out}"]


def _no_files(program):
    return {}


def _config(keys, value):
    """The demo config's JSON text with the element at `keys` set to `value`."""
    return json.dumps(json_replaced(demo_config_dict(), keys, value))


def _pose(x):
    return {"position_m": [x, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}


def _arc(center, start_x):
    return {"type": "arc", "center_m": center, "normal": [0, 0, 1], "start": _pose(start_x), "sweep_rad": 1.0}


def _edited_program(program, edit):
    """The program's CSV with `edit(fields)` applied to the fields of each
    data row."""
    lines = program_to_csv(program).split("\n")
    for i, line in enumerate(lines):
        if line[:1].isdigit():
            fields = line.split(",")
            edit(fields)
            lines[i] = ",".join(fields)
    return "\n".join(lines)


def _index_plus_100(fields):
    fields[0] = str(int(fields[0]) + 100)


def _index_38_at_40(fields):
    if fields[0] == "40":
        fields[0] = "38"


def _tool_x_plus_5_mm_from_40(fields):
    if int(fields[0]) >= 40:
        fields[1] = "%.17g" % (float(fields[1]) + 0.005)


def _half_qw_at_setpoint_14(fields):
    if fields[0] == "14":
        fields[4] = "0.5"


def _q1_5_at_setpoint_7(fields):
    """Setpoint 7's q1 joint 5 (field 12) at 2.5 rad, beyond its 2.2 rad limit."""
    if fields[0] == "7":
        fields[12] = "2.5"


def _metadata(program, key, value):
    """The program's CSV with its `key` metadata line holding `value`."""
    return re.sub(rf"(?m)^# {key}=.*$", f"# {key}={value}", program_to_csv(program))


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


def _first_line_of(program):
    """The demo program cut to its first 17 setpoints, the ones of `G1 X40`:
    a straight line."""
    sp = program.pairs
    return program_to_csv(dataclasses.replace(program, pairs=Setpoints(sp.tool_pose[:17], sp.q1[:17], sp.q2[:17])))


def _without_cell(program):
    return "\n".join(line for line in program_to_csv(program).split("\n") if not line.startswith("# cell_sha256="))


# name: (files to write, by name, given the demo program; argv; exit code;
# stderr). In argv and stderr, a name in braces is that file's path under the
# test's directory, written or not.
REFUSALS = {
    "path JSON type []": (
        lambda p: {"path.json": json.dumps({"segments": [{"type": [], "start": _pose(0), "end": _pose(0.01)}]})},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: path JSON segments[0].type: unknown segment type []\n"),
    "path JSON type {}": (
        lambda p: {"path.json": json.dumps({"segments": [{"type": {}, "start": _pose(0), "end": _pose(0.01)}]})},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: path JSON segments[0].type: unknown segment type {}\n"),
    "path JSON {}": (
        lambda p: {"path.json": "{}"},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: path JSON missing segments\n"),
    "path JSON []": (
        lambda p: {"path.json": "[]"},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: path JSON document: expected an object\n"),
    "path JSON segment without a start": (
        lambda p: {"path.json": json.dumps({"segments": [{"type": "linear", "end": _pose(0)}]})},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: path JSON missing segments[0].start\n"),
    "path JSON feed of a string": (
        lambda p: {"path.json": '{"feed_mm_min": "fast", "segments": []}'},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: path JSON feed_mm_min: expected a finite number, got 'fast'\n"),
    "path JSON position of a string": (
        lambda p: {"path.json": json.dumps({"segments": [
            {"type": "linear", "start": _pose("0"), "end": _pose(0.01)}]})},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: path JSON segments[0].start.position_m[0]: expected a finite number, got '0'\n"),
    "path JSON repeated key": (
        lambda p: {"path.json": json_with_a_repeated_key(json.loads(SLOT_JSON), ("segments", 0, "end"), "position_m",
                                                         [0, 0, 0])},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: path JSON segments[0].end.position_m: repeated key\n"),
    "path JSON line past the float range": (
        lambda p: {"path.json": json.dumps({"segments": [
            {"type": "linear", "start": _pose(-1e308), "end": _pose(1e308)}]})},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: segments[0]: the segment takes the path past 1048576 samples "
        "(chord_tol 1e-05 m, max_step 0.005 m)\n"),
    # Coordinates near the float range are refused with no numpy warning,
    # which the tests' filterwarnings = error would raise instead.
    "path JSON arc center at -1e200": (
        lambda p: {"path.json": json.dumps({"segments": [_arc([-1e200, 0, 0], 0)]})},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: segments[0]: the segment takes the path past 1048576 samples "
        "(chord_tol 1e-05 m, max_step 0.005 m)\n"),
    "path JSON arc start at 1e200": (
        lambda p: {"path.json": json.dumps({"segments": [_arc([0, 0, 0], 1e200)]})},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: segments[0]: the segment takes the path past 1048576 samples "
        "(chord_tol 1e-05 m, max_step 0.005 m)\n"),
    "path JSON arc start 3e308 from its center": (
        lambda p: {"path.json": json.dumps({"segments": [_arc([-1.5e308, 0, 0], 1.5e308)]})},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: path JSON segments[0]: arc start-to-center vector overflows the float range\n"),
    "path JSON lines ending at 1e200 and starting at -1e200": (
        lambda p: {"path.json": json.dumps({"segments": [
            {"type": "linear", "start": _pose(0), "end": _pose(1e200)},
            {"type": "linear", "start": _pose(-1e200), "end": _pose(0)}]})},
        PLAN_PATH_JSON, 3,
        "error: {path.json}: path JSON segments[1]: toolpath is not C0-continuous (gap inf m)\n"),
    "G-code word": (
        lambda p: {"slot.gcode": "G1 X10\nG1 X20 Q5\n"},
        ["--config", DEMO, "plan", "{slot.gcode}", "--out", "{out.csv}"], 3,
        "error: {slot.gcode}: line 2: unsupported word Q5\n"),
    "G-code helix": (
        lambda p: {"helix.gcode": "G1 X10 Y0\nG3 X0 Y0 Z-0.3 I-5\n"},
        ["--config", DEMO, "plan", "{helix.gcode}", "--work-offset-mm", WORK_OFFSET_MM, "--out", "{out.csv}"], 3,
        "error: {helix.gcode}: line 2: helical arcs are not supported (Z moves from 0 mm to -0.3 mm)\n"),
    "plan outside the workspace": (
        _no_files, ["--config", DEMO, "plan", SLOT, "--out", "{out.csv}"], 3,
        "error: tool pose 0 at [0. 0. 0.] lies outside the workspace box\n"),
    # A tension whose square overflows is refused where it enters, before
    # any IK and with no numpy warning.
    "plan tension 1e200": (
        _no_files,
        ["--config", DEMO, "plan", SLOT, "--tension", "1e200", "--work-offset-mm", WORK_OFFSET_MM, "--out",
         "{out.csv}"], 3,
        "error: --tension 1e+200: wrench force/torque must be finite 3-vectors of norm below about 1.341e+154\n"),
    # 40 kN asks for about 11 mm of arm-2 offset, more than `deform` accepts.
    "plan tension over the offset bound": (
        _no_files,
        ["--config", DEMO, "plan", SLOT, "--tension", "40000", "--work-offset-mm", WORK_OFFSET_MM, "--out",
         "{out.csv}"], 3,
        "error: setpoint 0: commanded arm-2 flange is 1.092e-02 m from the nominal one\n"),
    "config of a schema version alone": (
        lambda p: {"system.json": '{"schema_version": 1}'},
        ["--config", "{system.json}", "modal", "--tensions", "0,500", "--out", "{out}"], 2,
        "config error: missing config.dh_convention\n"),
    "config repeated key": (
        lambda p: {"system.json": json_with_a_repeated_key(demo_config_dict(), (), "spring_matrix", [[1]])},
        ["--config", "{system.json}", "modal", "--tensions", "0", "--out", "{out}"], 2,
        "config error: config.spring_matrix: repeated key\n"),
    "config spring entry 1e308": (
        lambda p: {"system.json": _config(("spring_matrix", 3, 3), 1e308)},
        ["--config", "{system.json}", "modal", "--tensions", "0", "--out", "{out}"], 2,
        "config error: config.spring_matrix: spring matrix must be a 6x6 array of finite entries, "
        "each of size <= 8.988e+307\n"),
    **{f"config default {key} {value}": (
        lambda p, key=key, value=value: {"system.json": _config(("defaults", key), value)},
        ["--config", "{system.json}", "plan", SLOT, *DEMO_PLAN_OPTIONS, "--out", "{out.csv}"], 2,
        f"config error: config.defaults.{key}: expected {expected}, got {value}\n")
       for key, value, expected in [("max_iter", float("nan"), "an integer >= 1"), ("max_iter", 2.7, "an integer >= 1"),
                                    ("tol_pos_m", float("nan"), "a positive finite number"),
                                    ("max_step_m", float("inf"), "a positive finite number")]},
    "config null IK seed": (
        lambda p: {"system.json": _config(("ik_seed2_rad", 3), None)},
        ["--config", "{system.json}", "plan", SLOT, "--out", "{out.csv}"], 2,
        "config error: config.ik_seed2_rad[3]: expected a finite number, got None\n"),
    "config IK seed outside its joint limits": (
        lambda p: {"system.json": _config(("ik_seed1_rad", 4), 3.0)},
        ["--config", "{system.json}", "plan", SLOT, "--work-offset-mm", WORK_OFFSET_MM, "--out", "{out.csv}"], 3,
        "error: ik_seeds[0] (arm 1): seed violates joint limits: q5 = 3 rad outside [-2.2, 2.2] rad\n"),
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
    "impact record with a truncated row": (
        lambda p: {"a.csv": edit_line(impact_text(), 10, truncate)},
        ["frf", "{a.csv}", "--out", "{out.csv}"], 3,
        ("error: {a.csv}: impact CSV line 10: expected 2 comma-separated finite numbers, "
         "found '7.3564563599667734'\n")),
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
    "frf nfft over the cap": (
        lambda p: {"a.csv": _impact(0.0)},
        ["frf", "{a.csv}", "--nfft", "1000000000", "--out", "{out.csv}"], 3,
        "error: nfft 1000000000 exceeds both 4194304 and the longest record (102)\n"),
    "program with shifted indices": (
        lambda p: {"program.csv": _edited_program(p, _index_plus_100)},
        DEFORM_PROGRAM, 3,
        "error: {program.csv}: program CSV line 7: indices must count 0, 1, 2, ... in order, "
        "found 100 where 0 is due\n"),
    # Setpoint 40 is on line 47; index 38 there is out of order.
    "program with index 38 at setpoint 40": (
        lambda p: {"program.csv": _edited_program(p, _index_38_at_40)},
        DEFORM_PROGRAM, 3,
        ("error: {program.csv}: program CSV line 47: indices must count 0, 1, 2, ... in order, "
         "found 38 where 40 is due\n")),
    # Line 21 holds setpoint 14; field 4 is its tool_qw.
    "program with a bad tool quaternion": (
        lambda p: {"program.csv": _edited_program(p, _half_qw_at_setpoint_14)},
        DEFORM_PROGRAM, 3,
        "error: {program.csv}: program CSV line 21: tool_pose: pose row 14: position must be finite and "
        "quaternion norm 1 within 1e-9\n"),
    # Tool rows moved 5 mm in x from setpoint 40 on no longer match q1.
    "program with its tool rows shifted": (
        lambda p: {"program.csv": _edited_program(p, _tool_x_plus_5_mm_from_40)},
        ["--config", DEMO, "deform", "{program.csv}", "--compensate", "--out", "{out}"], 3,
        "error: setpoint 40: arm-1 tool point is 5.000e-03 m from its planned position\n"),
    "program with arm 1 outside its joint limits": (
        lambda p: {"program.csv": _edited_program(p, _q1_5_at_setpoint_7)},
        DEFORM_PROGRAM, 3,
        "error: setpoint 7, arm 1: joint configuration violates joint limits: q5 = 2.5 rad outside [-2.2, 2.2] rad\n"),
    # The form that also held the flange frames has its header on line 5.
    "program of 41 columns": (
        lambda p: {"program.csv": forty_one_column_program(config.load_config(DEMO_CONFIG).system, p)},
        DEFORM_PROGRAM, 3,
        ("error: {program.csv}: program CSV line 5: expected header 'index,tool_x,tool_y,tool_z,tool_qw,tool_qx,"
         "tool_qy,tool_qz,q1_0,q1_1,q1_2,q1_3,q1_4,q1_5,q2_0,q2_1,q2_2,q2_3,q2_4,q2_5', found 'index,tool_x,tool_y,"
         "tool_z,tool_qw,tool_qx,tool_qy,tool_qz,r1_x,r1_y,r1_z,r1_qw,'\n")),
    # Without its cell_sha256 line the header is on line 5.
    "program without a cell_sha256": (
        lambda p: {"program.csv": _without_cell(p)},
        DEFORM_PROGRAM, 3,
        "error: {program.csv}: program CSV line 5: no cell_sha256 metadata before the header\n"),
    "program with a repeated metadata key": (
        lambda p: {"program.csv": program_to_csv(p).replace("# cell_sha256=", "# chord_tol_m=2e-05\n# cell_sha256=")},
        DEFORM_PROGRAM, 3,
        "error: {program.csv}: program CSV line 5: metadata chord_tol_m repeated, first given on line 3\n"),
    **{f"program feed {feed}": (
        lambda p, feed=feed: {"program.csv": _metadata(p, "feed_mm_min", feed)},
        DEFORM_PROGRAM, 3,
        f"error: {{program.csv}}: program CSV line 1: metadata feed_mm_min={feed!r} is negative\n")
       for feed in ["-100", "-1e-300"]},
    "program wrench of 5 numbers": (
        lambda p: {"program.csv": _metadata(p, "tension_wrench", "1000 0 0 0 0")},
        DEFORM_PROGRAM, 3,
        "error: {program.csv}: program CSV line 2: metadata tension_wrench='1000 0 0 0 0' is not 6 numbers\n"),
    # A wrench whose square overflows.
    "program tension 1e200": (
        lambda p: {"program.csv": _metadata(p, "tension_wrench", "1e200 0 0 0 0 0")},
        DEFORM_PROGRAM, 3,
        "error: {program.csv}: program CSV line 2: metadata tension_wrench='1e200 0 0 0 0 0' is refused: "
        "wrench force/torque must be finite 3-vectors of norm below about 1.341e+154\n"),
    # A refusal after the first result is computed still writes nothing.
    "modal with one tension": (
        _no_files, ["--config", DEMO, "modal", "--tensions", "500", "--out", "{out}"], 3,
        "error: at least two (tension, frequency) points are required\n"),
    "modal x damping ratio 0.9": (
        lambda p: {"system.json": _config(("modal_models", "x", "damping_ratio"), 0.9)},
        ["--config", "{system.json}", "modal", "--tensions", "0,1000", "--out", "{out}"], 3,
        "error: no compliance peak found at tension 0 N\n"),
    # 159 Hz, x's natural frequency at 0 N, lies on the 0.25 Hz grid.
    "modal x damping ratio 0": (
        lambda p: {"system.json": _config(("modal_models", "x", "damping_ratio"), 0.0)},
        ["--config", "{system.json}", "modal", "--tensions", "0,500", "--out", "{out}"], 3,
        "error: compliance is unbounded at 159.0 Hz at tension 0 N: k - m w^2 + i c w is 0 there\n"),
    "deform --compensate on one line": (
        lambda p: {"program.csv": _first_line_of(p)},
        ["--config", DEMO, "deform", "{program.csv}", "--compensate", "--out", "{out}"], 3,
        "error: reference points are collinear; the rotation is not unique\n"),
}

_NOISE = "expected a finite number >= 0 and <= 1e+06"

# name: (files to write, as in REFUSALS; argv; the last line of stderr)
USAGE = {
    "no arguments": (_no_files, [], "twinmill: error: the following arguments are required: command"),
    "no config": (_no_files, ["modal", "--tensions", "0,500", "--out", "{out}"],
                  "usage error: no config given (use --config or $TWINMILL_CONFIG)"),
    # Each FRF file is named by its tension as `%g`: two tensions that give
    # one name are refused too.
    **{f"modal {option} {value}": (
        _no_files, ["--config", DEMO, "modal", "--tensions", "0,500", option, value, "--out", "{out}"],
        f"twinmill modal: error: argument {option}: {message}")
       for option, value, message in [
           ("--df", "0", "expected a finite number > 0, got '0'"),
           ("--df", "nan", "expected a finite number > 0, got 'nan'"),
           ("--df", "-0.25", "expected a finite number > 0, got '-0.25'"),
           ("--df", "inf", "expected a finite number > 0, got 'inf'"),
           ("--tensions", ",", "tension list is empty"),
           ("--tensions", "0,inf", "expected a finite number >= 0, got 'inf'"),
           ("--tensions", "0,nan", "expected a finite number >= 0, got 'nan'"),
           ("--tensions", "0,-500", "expected a finite number >= 0, got '-500'"),
           ("--tensions", "0,500,500", "tensions '500' and '500' would both be written to frf_<axis>_500N.csv"),
           ("--tensions", "500,500.0000001",
            "tensions '500' and '500.0000001' would both be written to frf_<axis>_500N.csv")]},
    "modal --tensions 0,1e300": (
        _no_files, ["--config", DEMO, "modal", "--tensions", "0,1e300", "--out", "{out}"],
        "usage error: --tensions and --df give a frequency grid of 9.04e+298 points up to 2.26e+298 Hz, "
        "more than 1048576"),
    "modal --df 5e-324": (
        _no_files, ["--config", DEMO, "modal", "--tensions", "0,1000", "--df", "5e-324", "--out", "{out}"],
        "usage error: --tensions and --df give a frequency grid of inf points up to 381.6 Hz, more than 1048576"),
    # The upper bound, which needs the records, is h1_estimate's (exit 3).
    **{f"frf --nfft {nfft}": (
        lambda p: {"a.csv": _impact(0.0)}, ["frf", "{a.csv}", "--nfft", nfft, "--out", "{out.csv}"],
        f"twinmill frf: error: argument --nfft: expected an integer >= 2, got '{nfft}'")
       for nfft in ["0", "-3", "1", "1.5"]},
    **{f"plan --tension={value}": (
        _no_files, ["--config", DEMO, "plan", SLOT, f"--tension={value}", "--work-offset-mm", WORK_OFFSET_MM,
                    "--out", "{out.csv}"],
        f"twinmill plan: error: argument --tension: expected a finite number, got '{value}'")
       for value in ["nan", "inf", "-inf", "1e400"]},
    **{f"plan --work-offset-mm {value}": (
        _no_files, ["--config", DEMO, "plan", SLOT, "--work-offset-mm", value, "--out", "{out.csv}"],
        f"twinmill plan: error: argument --work-offset-mm: expected {message}")
       for value, message in [("1,2", "three comma-separated values x,y,z, got '1,2'"),
                              ("2105,-20,nan", "a finite number, got 'nan'"),
                              ("2105,-20,1e400", "a finite number, got '1e400'"),
                              ("a,b,c", "a finite number, got 'a'")]},
    # The config and the program do not exist, which would exit 2 and 3:
    # argparse refuses first.
    **{f"deform --noise-sigma {noise} --seed {seed}": (
        _no_files, ["--config", "{none.json}", "deform", "{none.csv}", "--noise-sigma", noise, "--seed", seed,
                    "--out", "{out}"],
        f"twinmill deform: error: argument {message}")
       for noise, seed, message in [
           ("nan", "7", f"--noise-sigma: {_NOISE}, got 'nan'"),
           ("-1", "7", f"--noise-sigma: {_NOISE}, got '-1'"),
           ("inf", "7", f"--noise-sigma: {_NOISE}, got 'inf'"),
           ("1e308", "1", f"--noise-sigma: {_NOISE}, got '1e308'"),
           ("1e-5", "-1", "--seed: expected a non-negative integer, got '-1'"),
           ("1e-5", "7.5", "--seed: expected a non-negative integer, got '7.5'")]},
    "deform --noise-sigma without --seed": (
        _no_files, ["--config", DEMO, "deform", "{program.csv}", "--noise-sigma", "1e-5", "--out", "{out}"],
        "usage error: --noise-sigma requires --seed for reproducibility"),
}


def _row_files(tmp_path, demo_program, files, argv, text):
    """Write a row's files under tmp_path. Returns its argv and `text`,
    each name in braces filled in with its path, and the names written."""
    written = files(demo_program)
    for name, content in written.items():
        (tmp_path / name).write_text(content)

    def fill(s):
        return re.sub(r"\{([\w.]+)\}", lambda m: str(tmp_path / m[1]), s)

    return [fill(arg) for arg in argv], fill(text), sorted(written)


@pytest.mark.parametrize("files, argv, code, stderr", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_exits_2_or_3_naming_its_place(tmp_path, demo_program, capsys, files, argv, code, stderr):
    """Each input exits with its code, never 1, and stderr is one line
    naming the line, the schema path or the file of the bad data. Nothing
    is written."""
    argv, stderr, written = _row_files(tmp_path, demo_program, files, argv, stderr)
    assert cli.main(argv) == code
    assert capsys.readouterr() == ("", stderr)
    assert sorted(os.listdir(tmp_path)) == written


@pytest.mark.parametrize("files, argv, code, stderr", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refusal_carries_as_data_each_place_its_stderr_names(tmp_path, demo_program, files, argv, code, stderr):
    """The error itself, caught in-process from the command, is the one
    `main` prints, and carries each place that line names: an input file
    as `file`, `line N` as `line`, a schema path as `path`, `setpoint k`
    as `index` and `arm n` as `arm`."""
    argv, stderr, written = _row_files(tmp_path, demo_program, files, argv, stderr)
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(TwinmillError) as exc:
        args.func(args)
    assert stderr == f"{'config error' if code == 2 else 'error'}: {exc.value}\n"
    named = [str(tmp_path / name) for name in written if str(tmp_path / name) in stderr]
    if named:
        assert [exc.value.file] == named
    if line := re.search(r"\bline (\d+)", stderr):
        assert exc.value.line == int(line[1])
    if path := re.search(r"\b((?:config\.|segments\[)\S*): ", stderr):
        assert exc.value.path == path[1]
    if setpoint := re.search(r"\bsetpoint (\d+)", stderr):
        assert exc.value.index == int(setpoint[1])
    if arm := re.search(r"\barm (\d)", stderr):
        assert exc.value.arm == int(arm[1])


@pytest.mark.parametrize("files, argv, line", USAGE.values(), ids=USAGE.keys())
def test_usage_error_exits_64_naming_the_option(tmp_path, demo_program, capsys, monkeypatch, files, argv, line):
    """Each command line exits 64. Its last stderr line is argparse's
    `twinmill <command>: error: ...`, after that command's usage, or the
    CLI's own `usage error: ...` alone. Nothing is written."""
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    argv, line, written = _row_files(tmp_path, demo_program, files, argv, line)
    assert cli.main(argv) == 64
    out, err = capsys.readouterr()
    usage = err.removesuffix(f"{line}\n")
    prog = line.split(": error: ")[0]
    assert (out, err) == ("", f"{usage}{line}\n")
    assert usage.startswith(f"usage: {prog} ") if prog != line else usage == ""
    assert sorted(os.listdir(tmp_path)) == written


def _run_cli(*args):
    """`python -m twinmill.cli *args` in a subprocess, on the twinmill
    source these tests import."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "twinmill.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("code, files, argv", [
    (0, _no_files, ["--config", DEMO, "modal", "--tensions", "0,500", "--out", "{out}"]),
    (2, *REFUSALS["config null IK seed"][:2]),
    (3, *REFUSALS["program with arm 1 outside its joint limits"][:2]),
    (64, *USAGE["plan --tension=nan"][:2]),
], ids=["0", "2", "3", "64"])
def test_the_command_line_exits_with_the_code_main_returns(tmp_path, demo_program, capsys, monkeypatch, code,
                                                           files, argv):
    """`python -m twinmill.cli`, run once per documented exit code, exits
    with the code `cli.main` returns and writes its stdout and stderr."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal width
    argv, _, _ = _row_files(tmp_path, demo_program, files, argv, "")
    assert cli.main(argv) == code
    run = _run_cli(*argv)
    assert (run.returncode, run.stdout, run.stderr) == (code, *capsys.readouterr())
