"""Every reader's refusal says where the bad data is as data, not only in
its message: `line` for G-code and CSV text, `path` for a JSON element;
the other locations stay None. Each message is pinned in full."""

import json
import re

import numpy as np
import pytest

from twinmill.compensation import PathTrace, trace_from_csv, trace_to_csv
from twinmill.config import parse_config
from twinmill.errors import ConfigError, InvalidInputError, MalformedArcError, UnsupportedGcodeError
from twinmill.modal import (
    FrfSeries,
    ModalModel,
    frf_from_csv,
    frf_to_csv,
    impact_record_from_csv,
    impact_record_to_csv,
    simulate_impact,
)
from twinmill.pathplan import parse_gcode, path_from_json, program_from_csv, program_to_csv

from conftest import demo_config_dict, json_with_a_repeated_key


def _short_row(text, lineno):
    """`text` with line `lineno` one field short."""
    lines = text.split("\n")
    lines[lineno - 1] = lines[lineno - 1].rsplit(",", 1)[0]
    return "\n".join(lines)


def _with_index(text, lineno, index):
    """`text` with the index field of line `lineno` set to `index`."""
    lines = text.split("\n")
    lines[lineno - 1] = index + lines[lineno - 1][lines[lineno - 1].index(","):]
    return "\n".join(lines)


def _with_field(text, lineno, column, value):
    """`text` with field `column` of line `lineno` set to `value`."""
    lines = text.split("\n")
    fields = lines[lineno - 1].split(",")
    fields[column] = value
    lines[lineno - 1] = ",".join(fields)
    return "\n".join(lines)


def _blank_lines_after(text, lineno, count):
    """`text` with `count` blank lines put in after line `lineno`."""
    lines = text.split("\n")
    return "\n".join(lines[:lineno] + [""] * count + lines[lineno:])


def _with_meta(text, key, value):
    """`text` with the value of metadata `key` set to `value`."""
    return re.sub(rf"(?m)^# {key}=.*$", f"# {key}={value}", text)


def _program_without_rows(program):
    """The program CSV cut after its header, line 6."""
    return "\n".join(program_to_csv(program).split("\n")[:6]) + "\n"


def _impact_text():
    model = ModalModel("x", 60.0, 0.015, 159.0, 0.0226)
    return impact_record_to_csv(simulate_impact(model, 500.0, sample_rate=2048.0, duration=0.05))


def _impact_text_without_rate():
    """The impact record with no sample_rate_hz line (line 4): its header is on line 4."""
    return "\n".join(line for line in _impact_text().split("\n") if not line.startswith("# sample_rate_hz="))


def _config_with_a_string_entry():
    doc = demo_config_dict()
    doc["arm1"]["dh_rows"][0][2] = "0.5"
    return json.dumps(doc)


def _path_json_with_a_string_coordinate():
    pose = {"position_m": [0, "0", 0], "quaternion_wxyz": [1, 0, 0, 0]}
    return json.dumps({"segments": [{"type": "linear", "start": pose, "end": pose}]})


def _frf_text():
    """An FRF at 1, 2, ..., 8 Hz: three metadata lines, the header on line 4."""
    return frf_to_csv(FrfSeries(np.arange(1.0, 9.0), np.full(8, 1e-6 + 0j)))


def _config_with_a_repeated_key():
    """The demo config text with `"spring_matrix": [[1]]` ahead of the real
    matrix, which json.loads alone would keep."""
    return json_with_a_repeated_key(demo_config_dict(), (), "spring_matrix", [[1]])


def _path_json_with_a_repeated_key():
    """A one-line path whose end pose gives position_m twice."""
    pose = {"position_m": [0.01, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}
    doc = {"segments": [{"type": "linear", "start": pose, "end": pose}]}
    return json_with_a_repeated_key(doc, ("segments", 0, "end"), "position_m", [0, 0, 0])


# name: (reader call on the demo program, error class, line, path, message)
LOCATED = {
    "G-code word": (lambda p: parse_gcode("G1 X10\nG1 X20 Q5\n"), UnsupportedGcodeError, 2, None,
                    "line 2: unsupported word Q5"),
    "G-code arc": (lambda p: parse_gcode("G1 X10 Y0\nG3 X0 Y0 I-3\n"), MalformedArcError, 2, None,
                   "line 2: arc radii differ by 4000.0 um (start 3.000 mm, end 7.000 mm)"),
    "program CSV row": (lambda p: program_from_csv(_short_row(program_to_csv(p), 20)),
                        InvalidInputError, 20, None,
                        "program CSV line 20: expected 20 comma-separated finite numbers, found "
                        "'13,2.1375000000000002,-0.02,1.1000000000000001,1,0,0,0,-0.011126105549387817,0.3'"),
    "program CSV header": (lambda p: program_from_csv(program_to_csv(p).replace("index,tool_x", "index,x")),
                           InvalidInputError, 6, None,
                           "program CSV line 6: expected header "
                           "'index,tool_x,tool_y,tool_z,tool_qw,tool_qx,tool_qy,tool_qz,q1_0,q1_1,q1_2,q1_3,q1_4,q1_5,"
                           "q2_0,q2_1,q2_2,q2_3,q2_4,q2_5', found "
                           "'index,x,tool_y,tool_z,tool_qw,tool_qx,tool_qy,tool_qz,q1_0,q1_1,q1_2,q1_3,q1_4,q'"),
    "program CSV without rows": (lambda p: program_from_csv(_program_without_rows(p)),
                                 InvalidInputError, 6, None,
                                 "program CSV: no data rows after the header on line 6"),
    # Line 20 holds setpoint 13: an index of 3 there follows 12.
    "program CSV index order": (lambda p: program_from_csv(_with_index(program_to_csv(p), 20, "3")),
                                InvalidInputError, 20, None,
                                "program CSV line 20: indices must count 0, 1, 2, ... in order, "
                                "found 3 where 13 is due"),
    "program CSV fractional index": (lambda p: program_from_csv(_with_index(program_to_csv(p), 20, "13.5")),
                                     InvalidInputError, 20, None,
                                     "program CSV line 20: indices must count 0, 1, 2, ... in order, found 13.5 "
                                     "where 13 is due"),
    # Blank lines count towards the line but hold no row.
    "program CSV index after blank lines": (
        lambda p: program_from_csv(_blank_lines_after(_with_index(program_to_csv(p), 20, "3"), 10, 2)),
        InvalidInputError, 22, None,
        "program CSV line 22: indices must count 0, 1, 2, ... in order, found 3 where 13 is due"),
    # Line 21 holds setpoint 14; field 4 is its tool_qw.
    "program CSV quaternion": (lambda p: program_from_csv(_with_field(program_to_csv(p), 21, 4, "0.5")),
                               InvalidInputError, 21, None,
                               "program CSV line 21: tool_pose: pose row 14: position must be finite and quaternion "
                               "norm 1 within 1e-9"),
    "trace CSV index": (lambda p: trace_from_csv(_with_index(trace_to_csv(PathTrace(np.zeros((10, 3)))), 7, "9")),
                        InvalidInputError, 7, None,
                        "trace CSV line 7: indices must count 0, 1, 2, ... in order, found 9 where 2 is due"),
    # The program's metadata are on lines 1-5: chord_tol_m, on line 3, given again on line 5.
    "program CSV repeated metadata key": (
        lambda p: program_from_csv(program_to_csv(p).replace("# cell_sha256=", "# chord_tol_m=2e-05\n# cell_sha256=")),
        InvalidInputError, 5, None,
        "program CSV line 5: metadata chord_tol_m repeated, first given on line 3"),
    # Line 8 holds the FRF's row 3: 1.5 Hz there follows 3 Hz.
    "FRF CSV frequency order": (lambda p: frf_from_csv(_with_field(_frf_text(), 8, 0, "1.5")),
                                InvalidInputError, 8, None,
                                "FRF CSV line 8: frequency grid must be strictly ascending, found 1.5 Hz after 3.0 Hz"),
    "trace CSV row": (lambda p: trace_from_csv(_short_row(trace_to_csv(PathTrace(np.zeros((10, 3)))), 7)),
                      InvalidInputError, 7, None,
                      "trace CSV line 7: expected 4 comma-separated finite numbers, found '2,0,0'"),
    "impact CSV row": (lambda p: impact_record_from_csv(_short_row(_impact_text(), 10)),
                       InvalidInputError, 10, None,
                       "impact CSV line 10: expected 3 comma-separated finite numbers, found "
                       "'0.001953125,7.3564563599667734'"),
    # Line 10 holds sample 4, at 4 / 2048 s.
    "impact CSV time": (lambda p: impact_record_from_csv(_with_field(_impact_text(), 10, 0, "0.5")),
                        InvalidInputError, 10, None,
                        "impact CSV line 10: time 0.5 s does not match sample_rate_hz=2048.0: sample 4 is at "
                        "0.001953125 s"),
    # Metadata values: the program's tension_wrench is on line 2 and its
    # cell_sha256 on line 5, the impact record's tension_N on line 3 and its
    # sample_rate_hz on line 4, the trace's tension_N on line 2.
    "program CSV tension_wrench": (lambda p: program_from_csv(_with_meta(program_to_csv(p), "tension_wrench",
                                                                         "1000 0 0 0 0")),
                                   InvalidInputError, 2, None,
                                   "program CSV line 2: metadata tension_wrench='1000 0 0 0 0' is not 6 numbers"),
    "program CSV cell_sha256": (lambda p: program_from_csv(_with_meta(program_to_csv(p), "cell_sha256", "abc")),
                                InvalidInputError, 5, None,
                                "program CSV line 5: metadata cell_sha256='abc' is not 64 lowercase hex digits"),
    # Without its cell_sha256 line the program's header moves up to line 5.
    "program CSV without cell_sha256": (
        lambda p: program_from_csv("\n".join(line for line in program_to_csv(p).split("\n")
                                             if not line.startswith("# cell_sha256="))),
        InvalidInputError, 5, None,
        "program CSV line 5: no cell_sha256 metadata before the header"),
    # A negative feed or step size, on lines 1, 3 and 4.
    "program CSV feed_mm_min": (lambda p: program_from_csv(_with_meta(program_to_csv(p), "feed_mm_min", "-300")),
                                InvalidInputError, 1, None,
                                "program CSV line 1: metadata feed_mm_min='-300' is negative"),
    "program CSV chord_tol_m": (lambda p: program_from_csv(_with_meta(program_to_csv(p), "chord_tol_m", "-1e-05")),
                                InvalidInputError, 3, None,
                                "program CSV line 3: metadata chord_tol_m='-1e-05' is negative"),
    "program CSV max_step_m": (lambda p: program_from_csv(_with_meta(program_to_csv(p), "max_step_m", "-0.005")),
                               InvalidInputError, 4, None,
                               "program CSV line 4: metadata max_step_m='-0.005' is negative"),
    "impact CSV tension_N": (lambda p: impact_record_from_csv(_with_meta(_impact_text(), "tension_N", "big")),
                             InvalidInputError, 3, None,
                             "impact CSV line 3: metadata tension_N='big' is not a finite number"),
    "impact CSV sample_rate_hz": (lambda p: impact_record_from_csv(_with_meta(_impact_text(), "sample_rate_hz",
                                                                              "fast")),
                                  InvalidInputError, 4, None,
                                  "impact CSV line 4: metadata sample_rate_hz='fast' is not a finite number"),
    **{f"impact CSV sample_rate_hz={rate}": (
        lambda p, rate=rate: impact_record_from_csv(_with_meta(_impact_text(), "sample_rate_hz", rate)),
        InvalidInputError, 4, None,
        f"impact CSV line 4: metadata sample_rate_hz='{rate}' is not positive") for rate in ("0", "-0", "-1")},
    "trace CSV tension_N": (lambda p: trace_from_csv(_with_meta(trace_to_csv(PathTrace(np.zeros((10, 3)))),
                                                                "tension_N", "big")),
                            InvalidInputError, 2, None,
                            "trace CSV line 2: metadata tension_N='big' is not a finite number"),
    # Without sample_rate_hz the time steps must be equal; line 9 holds
    # sample 4, whose step from sample 3 departs.
    "impact CSV time without a rate": (
        lambda p: impact_record_from_csv(_with_field(_impact_text_without_rate(), 9, 0, "0.0025")),
        InvalidInputError, 9, None,
        "impact CSV line 9: time column is not uniformly sampled: sample 4 is 0.00103515625 s after the one before, "
        "sample 1 0.00048828125 s"),
    "config": (lambda p: parse_config(_config_with_a_string_entry()),
               ConfigError, None, "config.arm1.dh_rows[0][2]",
               "config.arm1.dh_rows[0][2]: expected a finite number, got '0.5'"),
    "path JSON": (lambda p: path_from_json(_path_json_with_a_string_coordinate()),
                  InvalidInputError, None, "segments[0].start.position_m[1]",
                  "path JSON segments[0].start.position_m[1]: expected a finite number, got '0'"),
    "config repeated key": (lambda p: parse_config(_config_with_a_repeated_key()),
                            ConfigError, None, "config.spring_matrix",
                            "config.spring_matrix: repeated key"),
    "path JSON segment type": (lambda p: path_from_json(json.dumps({"segments": [{"type": []}]})),
                               InvalidInputError, None, "segments[0].type",
                               "path JSON segments[0].type: unknown segment type []"),
    "path JSON repeated key": (lambda p: path_from_json(_path_json_with_a_repeated_key()),
                               InvalidInputError, None, "segments[0].end.position_m",
                               "path JSON segments[0].end.position_m: repeated key"),
}


@pytest.mark.parametrize("read, cls, line, path, message", LOCATED.values(), ids=LOCATED.keys())
def test_refusal_carries_its_location(demo_program, read, cls, line, path, message):
    with pytest.raises(cls) as exc:
        read(demo_program)
    assert (exc.value.index, exc.value.line, exc.value.path) == (None, line, path)
    assert str(exc.value) == message
