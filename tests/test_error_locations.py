"""Every reader's refusal says where the bad data is as data, not only in
its message: `line` for G-code and CSV text, `path` for a JSON element;
the other locations stay None."""

import json
import re

import numpy as np
import pytest

from twinmill import jsondoc
from twinmill.compensation import PathTrace, trace_from_csv, trace_to_csv
from twinmill.config import parse_config
from twinmill.errors import ConfigError, InvalidInputError, MalformedArcError, UnsupportedGcodeError
from twinmill.modal import ModalModel, impact_record_from_csv, impact_record_to_csv, simulate_impact
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
    return doc


def _path_json_with_a_string_coordinate():
    pose = {"position_m": [0, "0", 0], "quaternion_wxyz": [1, 0, 0, 0]}
    return json.dumps({"segments": [{"type": "linear", "start": pose, "end": pose}]})


def _config_with_a_repeated_key():
    """The demo config text with `"spring_matrix": [[1]]` ahead of the real
    matrix, which json.loads alone would keep."""
    return json_with_a_repeated_key(demo_config_dict(), (), "spring_matrix", [[1]])


def _path_json_with_a_repeated_key():
    """A one-line path whose end pose gives position_m twice."""
    pose = {"position_m": [0.01, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}
    doc = {"segments": [{"type": "linear", "start": pose, "end": pose}]}
    return json_with_a_repeated_key(doc, ("segments", 0, "end"), "position_m", [0, 0, 0])


# name: (reader call on the demo program, error class, line, path)
LOCATED = {
    "G-code word": (lambda p: parse_gcode("G1 X10\nG1 X20 Q5\n"), UnsupportedGcodeError, 2, None),
    "G-code arc": (lambda p: parse_gcode("G1 X10 Y0\nG3 X0 Y0 I-3\n"), MalformedArcError, 2, None),
    "program CSV row": (lambda p: program_from_csv(_short_row(program_to_csv(p), 20)),
                        InvalidInputError, 20, None),
    "program CSV header": (lambda p: program_from_csv(program_to_csv(p).replace("index,tool_x", "index,x")),
                           InvalidInputError, 6, None),
    "program CSV without rows": (lambda p: program_from_csv(_program_without_rows(p)),
                                 InvalidInputError, 6, None),
    # Line 20 holds setpoint 13: an index of 3 there follows 12.
    "program CSV index order": (lambda p: program_from_csv(_with_index(program_to_csv(p), 20, "3")),
                                InvalidInputError, 20, None),
    "program CSV fractional index": (lambda p: program_from_csv(_with_index(program_to_csv(p), 20, "13.5")),
                                     InvalidInputError, 20, None),
    # Blank lines count towards the line but hold no row.
    "program CSV index after blank lines": (
        lambda p: program_from_csv(_blank_lines_after(_with_index(program_to_csv(p), 20, "3"), 10, 2)),
        InvalidInputError, 22, None),
    # Line 21 holds setpoint 14; field 4 is its tool_qw.
    "program CSV quaternion": (lambda p: program_from_csv(_with_field(program_to_csv(p), 21, 4, "0.5")),
                               InvalidInputError, 21, None),
    "trace CSV index": (lambda p: trace_from_csv(_with_index(trace_to_csv(PathTrace(np.zeros((10, 3)))), 7, "9")),
                        InvalidInputError, 7, None),
    "trace CSV row": (lambda p: trace_from_csv(_short_row(trace_to_csv(PathTrace(np.zeros((10, 3)))), 7)),
                      InvalidInputError, 7, None),
    "impact CSV row": (lambda p: impact_record_from_csv(_short_row(_impact_text(), 10)),
                       InvalidInputError, 10, None),
    # Line 10 holds sample 4, at 4 / 2048 s.
    "impact CSV time": (lambda p: impact_record_from_csv(_with_field(_impact_text(), 10, 0, "0.5")),
                        InvalidInputError, 10, None),
    # Metadata values: the program's tension_wrench is on line 2 and its
    # cell_sha256 on line 5, the impact record's tension_N on line 3 and its
    # sample_rate_hz on line 4, the trace's tension_N on line 2.
    "program CSV tension_wrench": (lambda p: program_from_csv(_with_meta(program_to_csv(p), "tension_wrench",
                                                                         "1000 0 0 0 0")),
                                   InvalidInputError, 2, None),
    "program CSV cell_sha256": (lambda p: program_from_csv(_with_meta(program_to_csv(p), "cell_sha256", "abc")),
                                InvalidInputError, 5, None),
    # Without its cell_sha256 line the program's header moves up to line 5.
    "program CSV without cell_sha256": (
        lambda p: program_from_csv("\n".join(line for line in program_to_csv(p).split("\n")
                                             if not line.startswith("# cell_sha256="))),
        InvalidInputError, 5, None),
    # A negative feed or step size, on lines 1, 3 and 4.
    "program CSV feed_mm_min": (lambda p: program_from_csv(_with_meta(program_to_csv(p), "feed_mm_min", "-300")),
                                InvalidInputError, 1, None),
    "program CSV chord_tol_m": (lambda p: program_from_csv(_with_meta(program_to_csv(p), "chord_tol_m", "-1e-05")),
                                InvalidInputError, 3, None),
    "program CSV max_step_m": (lambda p: program_from_csv(_with_meta(program_to_csv(p), "max_step_m", "-0.005")),
                               InvalidInputError, 4, None),
    "impact CSV tension_N": (lambda p: impact_record_from_csv(_with_meta(_impact_text(), "tension_N", "big")),
                             InvalidInputError, 3, None),
    "impact CSV sample_rate_hz": (lambda p: impact_record_from_csv(_with_meta(_impact_text(), "sample_rate_hz",
                                                                              "fast")),
                                  InvalidInputError, 4, None),
    "trace CSV tension_N": (lambda p: trace_from_csv(_with_meta(trace_to_csv(PathTrace(np.zeros((10, 3)))),
                                                                "tension_N", "big")),
                            InvalidInputError, 2, None),
    # Without sample_rate_hz the time steps must be equal; line 9 holds
    # sample 4, whose step from sample 3 departs.
    "impact CSV time without a rate": (
        lambda p: impact_record_from_csv(_with_field(_impact_text_without_rate(), 9, 0, "0.0025")),
        InvalidInputError, 9, None),
    "config": (lambda p: parse_config(_config_with_a_string_entry()),
               ConfigError, None, "config.arm1.dh_rows[0][2]"),
    "path JSON": (lambda p: path_from_json(_path_json_with_a_string_coordinate()),
                  InvalidInputError, None, "segments[0].start.position_m[1]"),
    "config repeated key": (lambda p: parse_config(jsondoc.loads(_config_with_a_repeated_key())),
                            ConfigError, None, "config.spring_matrix"),
    "path JSON repeated key": (lambda p: path_from_json(_path_json_with_a_repeated_key()),
                               InvalidInputError, None, "segments[0].end.position_m"),
}


@pytest.mark.parametrize("read, cls, line, path", LOCATED.values(), ids=LOCATED.keys())
def test_refusal_carries_its_location(demo_program, read, cls, line, path):
    with pytest.raises(cls) as exc:
        read(demo_program)
    assert (exc.value.index, exc.value.line, exc.value.path) == (None, line, path)
    message = str(exc.value)
    if line is not None:
        assert int(re.search(r"line (\d+)", message).group(1)) == line
    else:
        assert path in message
