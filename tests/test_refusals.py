"""Every refusal of the library, pinned once: one row per call of a reader
or an API function, given the demo config and the demo program (the slot
planned at 1000 N). A row pins the error's exact class, its whole message
and all five place fields (`index`, `line`, `path`, `arm`, `file`), each
None unless the row names it. The command line's refusals are pinned by
`REFUSALS` and `USAGE` in tests/test_cli.py."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from twinmill.compensation import (
    PathTrace,
    fit_rigid,
    residual_report,
    simulate_deformation,
    trace_from_csv,
    trace_to_csv,
)
from twinmill.config import parse_config
from twinmill.csvtable import read_table, write_table
from twinmill.errors import (
    ConfigError,
    DomainError,
    InvalidInputError,
    TwinmillError,
    UnreachableTargetError,
)
from twinmill.geometry import Pose, compose_rows, pose_rows
from twinmill.kinematics import (
    N_BRANCHES,
    ArmModel,
    closed_form_ik,
    forward_kinematics,
    ik_branch,
    inverse_kinematics,
)
from twinmill.modal import (
    FrfSeries,
    ImpactRecord,
    ModalModel,
    effective_stiffness,
    fit_shift,
    frf_from_csv,
    frf_synthesize,
    frf_to_csv,
    h1_estimate,
    impact_record_from_csv,
    natural_frequency,
    peak_pick,
    simulate_impact,
)
from twinmill.pathplan import (
    ArcSegment,
    LinearSegment,
    Setpoints,
    SyncProgram,
    ToolPath,
    discretize,
    parse_gcode,
    path_from_json,
    plan_sync,
    program_from_csv,
    program_to_csv,
    transform_path,
    translate_path,
)
from twinmill.stiffness import (
    _BLOCK_ROWS,
    Wrench,
    _spd_inverse,
    _stacked,
    cartesian_stiffness,
    cell_sha256,
    coupled_stiffness,
    predicted_tension,
    tension_offset,
)

from conftest import (
    JOINT_STIFFNESS,
    SLOT_GCODE,
    WORK_OFFSET,
    demo_config_dict,
    edit_line,
    forty_one_column_program,
    frf_text,
    impact_text,
    json_replaced,
    json_with_a_repeated_key,
    make_one_link_arm,
    make_test_arm,
    nominal_rows,
    random_nonsingular_q,
    reachable_stack,
    three_column_impact,
    trace_text,
    truncate,
    with_pair,
)

PLACES = ("index", "line", "path", "arm", "file")

ARM = make_test_arm()
LIMITS = np.tile([-3.0, 3.0], (6, 1))
Q = np.zeros((2, 6))
ROWS = np.tile([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], (2, 1))
MODEL = ModalModel("x", 60.0, 0.015, 159.0, 0.0226)
# A model whose natural frequency falls to 0 at 1000 N.
FALLING = ModalModel("x", 10.0, 0.05, 100.0, -0.1)
MODEL_REFUSALS = {"axis": "axis must be one of ('x', 'y', 'z')", "mass": "mass must be positive and finite",
                  "damping_ratio": "damping ratio must lie in [0, 1)",
                  "f0": "zero-tension natural frequency must be positive and finite",
                  "sensitivity": "tension sensitivity must be finite"}
SLOT_JSON = (Path(__file__).parent / "data" / "slot_path.json").read_text()
X = np.array([1.0, 0.0, 0.0])
# The program CSV's header, quoted as a refusal quotes it.
PROGRAM_HEADER = ("'index,tool_x,tool_y,tool_z,tool_qw,tool_qx,tool_qy,tool_qz,q1_0,q1_1,q1_2,q1_3,q1_4,q1_5,q2_0,q2_1,"
                  "q2_2,q2_3,q2_4,q2_5'")
IK_SHAPES = "IK takes targets [N, 7] with one seed (6,) or seeds [N, 6]"
IK_ONE_ARM = "IK takes one ArmModel; solve each arm with its own call"
# A stiffness stack of two blocks, and rows of it in the second block.
STACK = _BLOCK_ROWS + 44
ROW, LATER_ROW = _BLOCK_ROWS + 14, _BLOCK_ROWS + 24


def refused(call, message, cls=InvalidInputError, **place):
    """A row: `call(cfg, program)` raises exactly `cls` with the whole
    `message`, the place fields of `place` set and the others None."""
    assert place.keys() <= set(PLACES)
    return call, cls, message, place


def _numpy_broadcast_message(*shapes):
    """numpy's own text for leading shapes that do not broadcast."""
    try:
        np.broadcast_shapes(*shapes)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{shapes} broadcast")


def _with_line(text, lineno, line):
    """`text` with line `lineno` replaced by `line`."""
    return edit_line(text, lineno, lambda _: line)


def _with_index(text, lineno, index):
    """`text` with the index field of line `lineno` set to `index`."""
    return edit_line(text, lineno, lambda line: index + line[line.index(","):])


def _with_field(text, lineno, column, value):
    """`text` with field `column` of line `lineno` set to `value`."""
    def edit(line):
        fields = line.split(",")
        fields[column] = value
        return ",".join(fields)
    return edit_line(text, lineno, edit)


def _blank_lines_after(text, lineno, count):
    """`text` with `count` blank lines put in after line `lineno`."""
    lines = text.split("\n")
    return "\n".join(lines[:lineno] + [""] * count + lines[lineno:])


def _with_meta(text, key, value):
    """`text` with the value of metadata `key` set to `value`."""
    return re.sub(rf"(?m)^# {key}=.*$", f"# {key}={value}", text)


def _without_meta(text, key):
    """`text` without its metadata line of `key`."""
    return re.sub(rf"(?m)^# {key}=.*\n", "", text)


def _program_with_meta(program, key, value):
    return program_from_csv(_with_meta(program_to_csv(program), key, value))


def _program_without_rows(program):
    """The program CSV cut after its header, line 6."""
    return "\n".join(program_to_csv(program).split("\n")[:6]) + "\n"


def _impact(tension, duration=1.0):
    return simulate_impact(MODEL, tension, sample_rate=2048.0, duration=duration)


def _trace_of_zeros():
    """Ten points at the origin as a trace CSV: three metadata lines, the header on line 4."""
    return trace_to_csv(PathTrace(np.zeros((10, 3))))


def _frf_of_8_hz():
    """An FRF at 1, 2, ..., 8 Hz: three metadata lines, the header on line 4."""
    return frf_to_csv(FrfSeries(np.arange(1.0, 9.0), np.full(8, 1e-6 + 0j)))


def _config(keys, value):
    """`parse_config` of the demo config with the element at `keys` set (or added) as `value`."""
    return parse_config(json.dumps(json_replaced(demo_config_dict(), keys, value)))


def _config_edited(edit):
    """`parse_config` of the demo config after `edit(doc)`."""
    doc = demo_config_dict()
    edit(doc)
    return parse_config(json.dumps(doc))


def _zero_reach(arm):
    """Every |a| and |d| zero; the demo's arm-2 flange offset is zero too."""
    for row in arm["dh_rows"]:
        row[0] = row[2] = 0.0


def _pose(x):
    return {"position_m": [x, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}


def _path_json(*segments, **fields):
    return path_from_json(json.dumps({"segments": list(segments), **fields}))


def _slot_json(edit):
    """`path_from_json` of the slot's path JSON after `edit(doc)`."""
    doc = json.loads(SLOT_JSON)
    edit(doc)
    return path_from_json(json.dumps(doc))


def _arc_json(center, start, sweep=1.0, normal=(0, 0, 1)):
    """An arc about `center` from `start`, normal +z."""
    return {"type": "arc", "center_m": center, "normal": list(normal), "sweep_rad": sweep,
            "start": {"position_m": start, "quaternion_wxyz": [1, 0, 0, 0]}}


def _line(x0, x1, source=None):
    return LinearSegment(Pose(np.array([x0, 0.0, 0.0])), Pose(np.array([x1, 0.0, 0.0])), source=source)


def _arc(center=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0), start=(0.01, 0.0, 0.0), sweep=1.0):
    return ArcSegment(np.array(center), np.array(normal), Pose(np.array(start)), sweep)


def _plan(c, gcode=SLOT_GCODE, tension=0.0, **kw):
    """The demo cell's plan of `gcode` at the work offset, with an x tension of `tension` N."""
    return plan_sync(c.system, transform_path(parse_gcode(gcode), Pose(WORK_OFFSET)), Wrench(tension * X),
                     (c.ik_seed1, c.ik_seed2), **kw)


def _program_with_joint(c, p, arm, joint, value, k=7):
    """The demo program with joint `joint` of arm `arm` at setpoint `k` set to `value`."""
    pair = p.pairs[k]
    q = getattr(pair, f"q{arm}").copy()
    q[joint] = value
    return with_pair(p, k, dataclasses.replace(pair, **{f"q{arm}": q}))


def _shifted_tool_rows(p, k=40):
    """The demo program with its tool rows moved 5 mm along x from setpoint `k` on."""
    sp = p.pairs
    tool = sp.tool_pose.copy()
    tool[k:, 0] += 0.005
    return dataclasses.replace(p, pairs=Setpoints(tool, sp.q1, sp.q2))


def _stiffness_stack(c, p, row, joint, value):
    """STACK closed demo rows with joint `joint` of arm 1 at `row` set to `value`."""
    q1, q2 = nominal_rows(c, p)
    idx = np.arange(STACK) % len(q1)
    q1, q2 = q1[idx], q2[idx]
    q1[row, joint] = value
    return q1, q2


def _singular_pairs(c, p):
    """STACK closed demo rows whose row ROW has arm 2's wrist at q5 = 0 and arm 1 full rank."""
    sys_ = c.system
    q1, q2 = nominal_rows(c, p)
    idx = np.arange(STACK) % len(q1)
    q1, q2 = q1[idx], q2[idx]
    q2[ROW, 4] = 0.0
    q1[ROW] = inverse_kinematics(sys_.arm1, forward_kinematics(sys_.arm2, q2[ROW]) @ sys_.flange2_offset.inverse(),
                                 q1[ROW])
    return q1, q2


def _singular_program(c, p):
    sys_ = c.system
    q1, q2 = _singular_pairs(c, p)
    tool = compose_rows(forward_kinematics(sys_.arm1, q1), sys_.tool_offset)
    return SyncProgram(Setpoints(tool, q1, q2), tension=Wrench(1000.0 * X), cell_sha256=cell_sha256(sys_))


def _rank_stack():
    """STACK in-limits configurations of the test arm, its row ROW with q5 = 0, which aligns joints 4 and 6."""
    rng = np.random.default_rng(41)
    stack = np.array([random_nonsingular_q(ARM, rng) for _ in range(STACK)])
    stack[ROW, 4] = 0.0
    return stack


def _spd_stack_refused():
    """`_stacked` over STACK positive definite matrices, row ROW not positive definite."""
    A = np.random.default_rng(42).normal(size=(STACK, 6, 6))
    spd = A @ np.swapaxes(A, -1, -2) + 0.5 * np.eye(6)
    spd[ROW, 3, 3] = -1.0
    return _stacked(lambda m: _spd_inverse(m.reshape(-1, 6, 6), "M"), (6, 6), spd.reshape(STACK, 36))


def _ik_out_of_reach(n, row, **kw):
    """IK of the first `n` rows of the test arm's reachable stack, row `row` moved out of reach."""
    targets, seeds = reachable_stack(ARM, 257)
    targets = targets[:n].copy()
    targets[row, :3] = [10.0, 0.0, 0.0]
    return inverse_kinematics(ARM, targets, seeds[:n], **kw)


def _ik_after_solved_rows(n, m, unreachable=None):
    """IK with one step allowed of rows 0 to m - 1 of the test arm's
    reachable stack, the first `n` targeting and seeded at their single
    solves, which converge without a step; row `unreachable`, if given,
    targets the pose 10 m along x."""
    targets, seeds = reachable_stack(ARM, 257)
    single = np.array([inverse_kinematics(ARM, Pose(t[:3], t[3:]), s) for t, s in zip(targets[:n], seeds[:n])])
    targets, seeds = targets[:m].copy(), seeds[:m].copy()
    targets[:n], seeds[:n] = forward_kinematics(ARM, single), single
    if unreachable is not None:
        targets[unreachable] = [10.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    return inverse_kinematics(ARM, targets, seeds, max_iter=1)


def _ik_stuck(stuck_rows):
    """IK of six reachable rows from their solutions, one step allowed, the rows `stuck_rows` moved 0.3 m."""
    targets, seeds = reachable_stack(ARM, 257)
    solved = inverse_kinematics(ARM, targets[:6], seeds[:6])
    stuck = forward_kinematics(ARM, solved)
    stuck[list(stuck_rows), :3] += 0.3
    return inverse_kinematics(ARM, stuck, solved, max_iter=1)


def _set(a, where, value):
    """A copy of `a` with the element at `where` set to `value`."""
    a = np.array(a)
    a[where] = value
    return a


def _ik_seeds(edit, n=6):
    """IK of the test arm's first `n` reachable rows from their seeds after `edit(seeds)`."""
    targets, seeds = reachable_stack(ARM, 257)
    return inverse_kinematics(ARM, targets[:n], edit(seeds))


def _arm_with(arm, **entries):
    """`arm`'s DH rows with some entries changed, e.g. d5=1e-3, its joint limits and springs."""
    rows = arm.dh_rows.copy()
    for name, value in entries.items():
        rows[int(name[-1]) - 1, ("a", "alpha", "d").index(name[:-1])] = value
    return ArmModel(rows, arm.joint_limits, joint_stiffness=arm.joint_stiffness)


# Metadata values, one a line: "bad" is on line 3, "two" on line 4.
METADATA = {"x": "2.5", "v": "1 -0 3e300", "bad": "2,5", "two": "1 2", "empty": "", "inf": "inf", "nan": "1 nan"}


def _meta():
    """METADATA written with a table and read back."""
    return read_table(write_table(METADATA, ("a", "b", "c"), [[1.0, 2.0, 3.0]]), ("a", "b", "c"), "T")[0]


REFUSED = {
    # G-code: `line` is the 1-based line of the refused text.
    "G-code word Q5": refused(lambda c, p: parse_gcode("G1 X10\nG1 X20 Q5\n"), "line 2: unsupported word Q5", line=2),
    "G-code word M3": refused(lambda c, p: parse_gcode("G1 X10\nM3 S2000\n"), "line 2: unsupported word M3", line=2),
    "G-code word m3": refused(lambda c, p: parse_gcode("g1 x10\nm3 s2000\n"), "line 2: unsupported word M3", line=2),
    "G-code G17": refused(lambda c, p: parse_gcode("G17 X10\n"), "line 1: unsupported G17", line=1),
    "G-code coordinates before motion": refused(lambda c, p: parse_gcode("X10\n"),
                                                "line 1: coordinates before any motion word", line=1),
    "G-code I/J/K with G1": refused(lambda c, p: parse_gcode("G1 X10\nG1 X20 I5\n"),
                                    "line 2: I/J/K only valid with G2/G3", line=2),
    "G-code arc radii": refused(lambda c, p: parse_gcode("G1 X10 Y0\nG3 X0 Y0 I-3\n"),
                                "line 2: arc radii differ by 4000.0 um (start 3.000 mm, end 7.000 mm)", line=2),
    "G-code full-circle radii": refused(lambda c, p: parse_gcode("G2 X10 Y0 I-50\n"),
                                        "line 1: arc radii differ by 10000.0 um (start 50.000 mm, end 60.000 mm)",
                                        line=1),
    "G-code arc without center": refused(lambda c, p: parse_gcode("G2 X10 Y0\n"), "line 1: arc without I/J/K center",
                                         line=1),
    "G-code blank": refused(lambda c, p: parse_gcode("  \n"), "G-code text is empty"),
    "G-code zero-length move": refused(lambda c, p: parse_gcode("G1 X0\n"), "G-code produced no motion segments"),
    "G-code 400-digit number": refused(lambda c, p: parse_gcode("G1 X10\nG1 X" + "9" * 400 + "\n"),
                                       "line 2: X value out of range (|value| > 1e+09)", line=2),
    "G-code negative feed": refused(lambda c, p: parse_gcode("G1 X10 F100\nG1 X20 F-100\n"),
                                    "line 2: negative feed F-100", line=2),
    # An arc with a Z move is refused, not planned flat (Z-0.3) or as an arc of mismatched radii (Z-5).
    **{f"G-code helix Z{z}": refused(lambda c, p, z=z: parse_gcode(f"G1 X10 Y0\nG3 X0 Y0 Z{z} I-5\n"),
                                     f"line 2: helical arcs are not supported (Z moves from 0 mm to {z} mm)", line=2)
       for z in ("-0.3", "-5")},
    "G-code arc center off its plane": refused(lambda c, p: parse_gcode("G1 Y1\n\nG3 X2 Y1 I1 J0 K5\n"),
                                               "line 3: arc start does not lie in the plane through the center",
                                               line=3),
    **{f"G-code text {text!r}": refused(lambda c, p, text=text: parse_gcode(text), message, line=line)
       for text, line, message in [
           ("G1 X10\nfoo G1 X20\n", 2, "line 2: unparseable text 'foo '"),
           ("G1 X10 ?? Y5\n", 1, "line 1: unparseable text ' ?? '"),
           ("G1 X10 Y5 junk\n", 1, "line 1: unparseable text ' junk'"),
           ("G1 X10 Q\n", 1, "line 1: unparseable text ' Q'"),
           ("G1 X1.2.3\n", 1, "line 1: unparseable text '.3'"),
           ("G1 X1 (c) Z\n", 1, "line 1: unparseable text '   Z'"),
           # The text before a word, then its range, then the text after the last word.
           ("G1 X9999999999 junk\n", 1, "line 1: X value out of range (|value| > 1e+09)"),
           ("G1 X10 Y9999999999 junk\n", 1, "line 1: Y value out of range (|value| > 1e+09)"),
           ("junk G1 X9999999999\n", 1, "line 1: unparseable text 'junk '"),
           # A range refusal keeps the word's case.
           ("g1 x9999999999\n", 1, "line 1: x value out of range (|value| > 1e+09)"),
       ]},

    # Segments and paths built in code.
    "arc start off its plane": refused(lambda c, p: _arc(start=(0.02, 0.0, 0.01)),
                                       "arc start does not lie in the plane through the center"),
    "arc normal of length 2": refused(lambda c, p: _arc(normal=(0.0, 0.0, 2.0)),
                                      "arc normal must be unit length (1e-9)"),
    "arc center nan": refused(lambda c, p: _arc(center=(np.nan, 0.0, 0.0)),
                              "arc center and normal must be 3-vectors, the center finite"),
    "arc normal nan": refused(lambda c, p: _arc(normal=(np.nan, 0.0, 1.0)), "arc normal must be unit length (1e-9)"),
    "arc sweep nan": refused(lambda c, p: _arc(sweep=np.nan), "arc sweep must be finite"),
    # A gap is refused at the later segment, named by where it was read.
    "path gap": refused(lambda c, p: ToolPath((_line(0.0, 0.01), _line(0.02, 0.03))),
                        "toolpath is not C0-continuous (gap 1.000e-02 m)"),
    **{f"path gap after a segment read from {where}": refused(
        lambda c, p, source=source: ToolPath((_line(0.0, 0.01, source=1), _line(0.02, 0.03, source=source))),
        f"{prefix}toolpath is not C0-continuous (gap 1.000e-02 m)", **place)
       for where, source, prefix, place in [("nowhere", None, "", {}), ("G-code", 3, "line 3: ", {"line": 3}),
                                            ("path JSON", "segments[1]", "segments[1]: ", {"path": "segments[1]"})]},
    **{f"path feed {feed}": refused(lambda c, p, feed=feed: ToolPath((_line(0.0, 0.01),), feed_mm_min=feed),
                                    f"toolpath feed_mm_min must be finite and >= 0, got {feed:g}")
       for feed in (-100.0, -5e-324, np.nan, np.inf, -np.inf)},
    **{f"path translated by {delta}": refused(lambda c, p, delta=delta: translate_path(parse_gcode(SLOT_GCODE), delta),
                                              "pose position must be a finite 3-vector")
       for delta in ([0.5], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]], [1.0, np.nan, 0.0],
                     [np.inf, 0.0, 0.0])},

    # Path JSON: `path` is the schema path of the refused element.
    "path JSON {}": refused(lambda c, p: path_from_json("{}"), "path JSON missing segments", path="segments"),
    "path JSON []": refused(lambda c, p: path_from_json("[]"), "path JSON document: expected an object", path=""),
    "path JSON line without start": refused(lambda c, p: _slot_json(lambda d: d["segments"][0].pop("start")),
                                            "path JSON missing segments[0].start", path="segments[0].start"),
    # A number is shown by its first 40 characters.
    **{f"path JSON feed {feed!r:.20}": refused(lambda c, p, feed=feed: _slot_json(lambda d: d.update(feed_mm_min=feed)),
                                              f"path JSON feed_mm_min: expected {expected}", path="feed_mm_min")
       for feed, expected in [("fast", "a finite number, got 'fast'"), (True, "a finite number, got True"),
                              (10**400, "a finite number, got 1" + "0" * 39), (-100, "a feed >= 0, got -100")]},
    "path JSON segments 5": refused(lambda c, p: _slot_json(lambda d: d.update(segments=5)),
                                    "path JSON segments: expected a list", path="segments"),
    "path JSON segments [7]": refused(lambda c, p: _slot_json(lambda d: d.update(segments=[7])),
                                      "path JSON segments[0]: expected an object", path="segments[0]"),
    "path JSON segments []": refused(lambda c, p: _slot_json(lambda d: d.update(segments=[])),
                                     "path JSON segments: toolpath has no segments", path="segments"),
    **{f"path JSON segment type {kind!r}": refused(
        lambda c, p, kind=kind: _slot_json(lambda d: d["segments"][0].update(type=kind)),
        f"path JSON segments[0].type: unknown segment type {kind!r}", path="segments[0].type")
       for kind in ("spline", [], {})},
    "path JSON segment type [] alone": refused(lambda c, p: path_from_json(json.dumps({"segments": [{"type": []}]})),
                                               "path JSON segments[0].type: unknown segment type []",
                                               path="segments[0].type"),
    **{f"path JSON end {end}": refused(
        lambda c, p, end=end: _slot_json(lambda d: d["segments"][0].update(end=end)), f"path JSON {at}: {message}",
        path=at)
       for end, at, message in [
           ({"position_m": [0, 0], "quaternion_wxyz": [1, 0, 0, 0]}, "segments[0].end.position_m",
            "expected a list of 3 numbers"),
           ({"position_m": [0, 0, None], "quaternion_wxyz": [1, 0, 0, 0]}, "segments[0].end.position_m[2]",
            "expected a finite number, got None"),
           ({"position_m": [0, 0, 0], "quaternion_wxyz": [2, 0, 0, 0]}, "segments[0].end",
            "quaternion norm 2.0 deviates from 1 by more than 1e-9"),
       ]},
    "path JSON position of a string": refused(
        lambda c, p: _path_json({"type": "linear",
                                 "start": {"position_m": [0, "0", 0], "quaternion_wxyz": [1, 0, 0, 0]},
                                 "end": {"position_m": [0, "0", 0], "quaternion_wxyz": [1, 0, 0, 0]}}),
        "path JSON segments[0].start.position_m[1]: expected a finite number, got '0'",
        path="segments[0].start.position_m[1]"),
    "path JSON repeated key": refused(
        lambda c, p: path_from_json(json_with_a_repeated_key(
            {"segments": [{"type": "linear", "start": _pose(0.01), "end": _pose(0.01)}]}, ("segments", 0, "end"),
            "position_m", [0, 0, 0])),
        "path JSON segments[0].end.position_m: repeated key", path="segments[0].end.position_m"),
    "path JSON arc start off its plane": refused(lambda c, p: _path_json(_arc_json([0, 0, 0], [1, 0, 1])),
                                                 "path JSON segments[0]: arc start does not lie in the plane through "
                                                 "the center", path="segments[0]"),
    # The center and the start, each finite, lie 3e308 m apart.
    "path JSON arc start-to-center overflow": refused(
        lambda c, p: _path_json(_arc_json([-1.5e308, 0, 0], [1.5e308, 0, 0])),
        "path JSON segments[0]: arc start-to-center vector overflows the float range", path="segments[0]"),
    # The start lies 1e199 m off the plane, 2e200 m from the center: the
    # norm of that vector is finite, though its sum of squares is not.
    "path JSON arc start off a far plane": refused(
        lambda c, p: _path_json(_arc_json([-1e200, 0, 0], [1e200, 0, 1e199])),
        "path JSON segments[0]: arc start does not lie in the plane through the center", path="segments[0]"),
    "path JSON gap": refused(
        lambda c, p: _path_json({"type": "linear", "start": _pose(0), "end": _pose(0.01)},
                                {"type": "linear", "start": _pose(0.02), "end": _pose(0.03)}),
        "path JSON segments[1]: toolpath is not C0-continuous (gap 1.000e-02 m)", path="segments[1]"),

    # discretize
    "discretize chord_tol 0": refused(lambda c, p: discretize(parse_gcode("G1 X10\n"), 0.0, 0.01),
                                      "chord_tol and max_step must be positive"),
    "discretize max_step 0": refused(lambda c, p: discretize(parse_gcode("G1 X10\n"), 1e-5, 0.0),
                                     "chord_tol and max_step must be positive"),
    # A segment that was not read has no line or element to name.
    "discretize past the sample cap": refused(
        lambda c, p: discretize(ToolPath((_line(0.0, 0.01), _line(0.01, 1e6))), 1e-5, 5e-3),
        "segment 1 takes the path past 1048576 samples (chord_tol 1e-05 m, max_step 0.005 m)"),

    # plan_sync, on the demo slot at the work offset.
    **{f"plan seeds {name}": refused(lambda c, p, seeds=seeds: plan_sync(
        c.system, parse_gcode("G1 X4\n"), Wrench(np.zeros(3)), seeds(c)),
        "ik_seeds must be two configurations of 6 joints")
       for name, seeds in [("of one arm", lambda c: (c.ik_seed1,)),
                           ("of 5 joints", lambda c: (c.ik_seed1, c.ik_seed2[:5])),
                           ("of three arms", lambda c: (c.ik_seed1,) * 3)]},
    "plan workspace box nan": refused(lambda c, p: _plan(c, workspace_box=(np.full(3, np.nan), np.ones(3))),
                                      "tool pose 0 at [ 2.105 -0.02   1.1  ] lies outside the workspace box", index=0),
    "plan outside the workspace": refused(lambda c, p: _plan(c, workspace_box=(np.zeros(3), np.full(3, 0.1))),
                                          "tool pose 0 at [ 2.105 -0.02   1.1  ] lies outside the workspace box",
                                          index=0),
    "plan joint jump nan": refused(lambda c, p: _plan(c, gcode="G1 X4\n", joint_jump_max=np.nan),
                                   "joint jump 0.005 rad at setpoint 1 exceeds nan rad", index=1),
    # A single 0.4 m hop moves several joints well past the jump limit.
    "plan joint jump": refused(lambda c, p: _plan(c, gcode="G1 X400\n", max_step=1.0),
                               "joint jump 0.457 rad at setpoint 1 exceeds 0.2 rad", index=1),
    "plan joint jump mid path": refused(
        lambda c, p: _plan(c, gcode="G1 X20\nG1 X40\nG1 X60\nG1 X80\nG0 X480\n", max_step=1.0, tension=1000.0),
        "joint jump 0.484 rad at setpoint 5 exceeds 0.2 rad", index=5),
    "plan out of reach": refused(
        lambda c, p: plan_sync(c.system, transform_path(parse_gcode("G1 X40\n"), Pose(np.array([20.0, 0.0, 0.0]))),
                               Wrench(np.zeros(3)), (c.ik_seed1, c.ik_seed2)),
        "IK failed at setpoint 0 (arm 1): target 19.902 m from base exceeds the arm's extent 4.090 m "
        "(reach + |flange offset|)", index=0, arm=1),

    # Setpoints and programs built in code.
    "program of a tuple of pairs": refused(lambda c, p: dataclasses.replace(p, pairs=tuple(p.pairs)),
                                           "sync program pairs must be Setpoints, got tuple"),
    "program of no setpoints": refused(lambda c, p: dataclasses.replace(
        p, pairs=Setpoints(p.pairs.tool_pose[:0], p.pairs.q1[:0], p.pairs.q2[:0])), "sync program has no setpoints"),
    **{f"program feed {feed}": refused(lambda c, p, feed=feed: dataclasses.replace(p, feed_mm_min=feed),
                                       f"sync program feed_mm_min must be finite and >= 0, got {feed:g}")
       for feed in (-100.0, -5e-324, np.nan, np.inf)},
    **{f"program {field} {value}": refused(lambda c, p, field=field, value=value: dataclasses.replace(
        p, **{field: value}), f"sync program {field} must be finite and >= 0, got {value:g}")
       for field in ("chord_tol", "max_step") for value in (-1e-5, -5e-324, np.nan, np.inf)},
    **{f"program cell_sha256 {cell!r}": refused(
        lambda c, p, cell=cell: dataclasses.replace(p, cell_sha256=cell),
        f"sync program cell_sha256 must be 64 lowercase hex digits, got {cell!r}")
       for cell in (None, "", "abc", "B" * 64, "0" * 63 + "g", "0" * 65)},
    "setpoints of one pose": refused(lambda c, p: Setpoints(p.pairs.tool_pose[0], p.pairs.q1[:1], p.pairs.q2[:1]),
                                     "tool_pose must hold one 7-value pose per setpoint"),
    "setpoints q1 of 5 joints": refused(lambda c, p: Setpoints(ROWS, Q[:, :5], Q),
                                        "q1 must hold 6 finite joint values per setpoint"),
    "setpoints tool quaternion of norm 2": refused(
        lambda c, p: Setpoints(p.pairs.tool_pose * np.where(np.arange(7) < 3, 1.0, [[1.0]] * 3 + [[2.0]] +
                                                            [[1.0]] * (len(p.pairs) - 4)),
                               p.pairs.q1, p.pairs.q2),
        "tool_pose: pose row 3: position must be finite and quaternion norm 1 within 1e-9", index=3),
    "pose_rows quaternion of norm 1.1": refused(
        lambda c, p: pose_rows([[0.0] * 3 + [1.0, 0.0, 0.0, 0.0], [0.0] * 3 + [1.1, 0.0, 0.0, 0.0]]),
        "pose row 1: position must be finite and quaternion norm 1 within 1e-9", index=1),
    "pose_rows position nan": refused(lambda c, p: pose_rows([[np.nan, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]]),
                                      "pose row 0: position must be finite and quaternion norm 1 within 1e-9", index=0),
    "pose_rows of 6 values": refused(lambda c, p: pose_rows(np.zeros((2, 6))),
                                     "stacked poses must have 7 values per row (x, y, z, qw, qx, qy, qz)"),
    "Pose quaternion of 3": refused(lambda c, p: Pose(np.zeros(3), np.zeros(3)),
                                    "quaternion must have 4 components (w, x, y, z)"),
    "Pose quaternion nan": refused(lambda c, p: Pose(np.zeros(3), np.array([np.nan, 0.0, 0.0, 0.0])),
                                   "quaternion norm nan deviates from 1 by more than 1e-9"),

    # Program CSV: the demo program has five metadata lines (feed_mm_min,
    # tension_wrench, chord_tol_m, max_step_m, cell_sha256), its header on
    # line 6 and setpoint k on line k + 7.
    "program CSV row": refused(lambda c, p: program_from_csv(edit_line(program_to_csv(p), 20, truncate)),
                               "program CSV line 20: expected 20 comma-separated finite numbers, found "
                               "'13,2.1375000000000002,-0.02,1.1000000000000001,1,0,0,0,-0.011126105549387817,0.3'",
                               line=20),
    "program CSV row three fields short": refused(
        lambda c, p: program_from_csv(edit_line(program_to_csv(p), 8, lambda line: line.rsplit(",", 3)[0])),
        "program CSV line 8: expected 20 comma-separated finite numbers, found "
        "'1,2.1074999999999999,-0.02,1.1000000000000001,1,0,0,0,-0.011314934356125463,0.37'", line=8),
    "program CSV header": refused(
        lambda c, p: program_from_csv(program_to_csv(p).replace("index,tool_x", "index,x")),
        f"program CSV line 6: expected header {PROGRAM_HEADER}, found "
        "'index,x,tool_y,tool_z,tool_qw,tool_qx,tool_qy,tool_qz,q1_0,q1_1,q1_2,q1_3,q1_4,q'", line=6),
    "program CSV header of col0-col19": refused(
        lambda c, p: program_from_csv(_with_line(program_to_csv(p), 6, ",".join(f"col{i}" for i in range(20)))),
        f"program CSV line 6: expected header {PROGRAM_HEADER}, found "
        "'col0,col1,col2,col3,col4,col5,col6,col7,col8,col9,col10,col11,col12,col13,col14,'", line=6),
    # The form that also held the three flange frames has no reader: its header, on line 5, is refused.
    "program CSV of 41 columns": refused(lambda c, p: program_from_csv(forty_one_column_program(c.system, p)),
                                         f"program CSV line 5: expected header {PROGRAM_HEADER}, found "
                                         "'index,tool_x,tool_y,tool_z,tool_qw,tool_qx,tool_qy,tool_qz,r1_x,r1_y,r1_z,"
                                         "r1_qw,'", line=5),
    "program CSV without rows": refused(lambda c, p: program_from_csv(_program_without_rows(p)),
                                        "program CSV: no data rows after the header on line 6", line=6),
    # Line 20 holds setpoint 13: an index of 3 there follows 12.
    **{f"program CSV index {index} at setpoint {k}": refused(
        lambda c, p, k=k, index=index: program_from_csv(_with_index(program_to_csv(p), k + 7, index)),
        f"program CSV line {k + 7}: indices must count 0, 1, 2, ... in order, found {found} where {k} is due",
        line=k + 7)
       for k, index, found in [(13, "3", "3"), (13, "13.5", "13.5"), (1, "2.5", "2.5"), (1, "1e300", "1e+300"),
                               (1, "0", "0"), (1, "2", "2"), (1, "-1", "-1")]},
    # Blank lines count towards the line but hold no row.
    "program CSV index after blank lines": refused(
        lambda c, p: program_from_csv(_blank_lines_after(_with_index(program_to_csv(p), 20, "3"), 10, 2)),
        "program CSV line 22: indices must count 0, 1, 2, ... in order, found 3 where 13 is due", line=22),
    # Indices 100, 101, ... are refused at setpoint 0's line.
    "program CSV indices from 100": refused(
        lambda c, p: program_from_csv(re.sub(r"(?m)^(\d+),", lambda m: f"{int(m[1]) + 100},", program_to_csv(p))),
        "program CSV line 7: indices must count 0, 1, 2, ... in order, found 100 where 0 is due", line=7),
    # An index out of order is refused ahead of a bad metadata value.
    "program CSV chord_tol_m -1": refused(lambda c, p: _program_with_meta(p, "chord_tol_m", "-1"),
                                          "program CSV line 3: metadata chord_tol_m='-1' is negative", line=3),
    "program CSV chord_tol_m -1 and index 5 at setpoint 1": refused(
        lambda c, p: program_from_csv(_with_index(_with_meta(program_to_csv(p), "chord_tol_m", "-1"), 8, "5")),
        "program CSV line 8: indices must count 0, 1, 2, ... in order, found 5 where 1 is due", line=8),
    # Line 21 holds setpoint 14; field 4 is its tool_qw.
    "program CSV quaternion": refused(lambda c, p: program_from_csv(_with_field(program_to_csv(p), 21, 4, "0.5")),
                                      "program CSV line 21: tool_pose: pose row 14: position must be finite and "
                                      "quaternion norm 1 within 1e-9", line=21),
    # The program's chord_tol_m, on line 3, given again on line 5.
    "program CSV repeated metadata key": refused(
        lambda c, p: program_from_csv(program_to_csv(p).replace("# cell_sha256=",
                                                                "# chord_tol_m=2e-05\n# cell_sha256=")),
        "program CSV line 5: metadata chord_tol_m repeated, first given on line 3", line=5),
    **{f"program CSV tension_wrench {wrench!r}": refused(
        lambda c, p, wrench=wrench: _program_with_meta(p, "tension_wrench", wrench),
        f"program CSV line 2: metadata tension_wrench='{wrench}' is not 6 numbers", line=2)
       for wrench in ("1000 0 0 0 0", "1000 0 0 0 0 0 0")},
    # The square of a 1e200 N force overflows.
    "program CSV tension past the float range": refused(
        lambda c, p: _program_with_meta(p, "tension_wrench", "1e200 0 0 0 0 0"),
        "program CSV line 2: metadata tension_wrench='1e200 0 0 0 0 0' is refused: wrench force/torque must be "
        "finite 3-vectors of norm below about 1.341e+154", line=2),
    **{f"program CSV cell_sha256 {cell!r}": refused(
        lambda c, p, cell=cell: _program_with_meta(p, "cell_sha256", cell),
        f"program CSV line 5: metadata cell_sha256={cell!r} is not 64 lowercase hex digits", line=5)
       for cell in ("", "abc", "B" * 64, "0" * 63 + "g", "0" * 65)},
    # Without its cell_sha256 line the program's header moves up to line 5.
    "program CSV without cell_sha256": refused(lambda c, p: program_from_csv(_without_meta(program_to_csv(p),
                                                                                           "cell_sha256")),
                                               "program CSV line 5: no cell_sha256 metadata before the header", line=5),
    **{f"program CSV {key} {value}": refused(
        lambda c, p, key=key, value=value: _program_with_meta(p, key, value),
        f"program CSV line {line}: metadata {key}='{value}' is negative", line=line)
       for key, value, line in [("feed_mm_min", "-300", 1), ("chord_tol_m", "-1e-05", 3), ("max_step_m", "-0.005", 4)]},

    # simulate_deformation: a program whose joints or tool rows no longer
    # match, as a hand-edited program CSV can be, is refused at its setpoint.
    **{f"deform arm {arm} outside its joint limits": refused(
        lambda c, p, arm=arm: simulate_deformation(c.system, _program_with_joint(c, p, arm, 4, 2.5)),
        f"setpoint 7, arm {arm}: joint configuration violates joint limits: q5 = 2.5 rad outside [-2.2, 2.2] rad",
        index=7, arm=arm)
       for arm in (1, 2)},
    "deform tool rows shifted": refused(lambda c, p: simulate_deformation(c.system, _shifted_tool_rows(p)),
                                        "setpoint 40: arm-1 tool point is 5.000e-03 m from its planned position",
                                        DomainError, index=40),

    # Traces and their CSV: three metadata lines (label, tension_N,
    # noise_sigma_m), the header on line 4 and point k on line k + 5.
    "trace of no points": refused(lambda c, p: PathTrace(np.zeros((0, 3))),
                                  "trace points must be a finite Nx3 array, N >= 1"),
    **{f"trace {field} {value}": refused(
        lambda c, p, field=field, value=value: PathTrace(np.zeros((3, 3)), **{field: value}),
        "trace tension and noise sigma must be finite")
       for field in ("tension", "noise_sigma") for value in (np.nan, np.inf)},
    "fit of collinear points": refused(
        lambda c, p: fit_rigid(*[PathTrace(np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0]))] * 2),
        "reference points are collinear; the rotation is not unique"),
    "fit of two points": refused(lambda c, p: fit_rigid(*[PathTrace(np.eye(2, 3))] * 2),
                                 "at least 3 point pairs are required for a rigid fit"),
    "fit of 4 and 5 points": refused(lambda c, p: fit_rigid(PathTrace(np.zeros((4, 3))), PathTrace(np.zeros((5, 3)))),
                                     "reference and measured traces must have equal point counts"),
    "report of 3 and 4 points": refused(
        lambda c, p: residual_report(PathTrace(np.zeros((3, 3))), PathTrace(np.zeros((4, 3)))),
        "traces must have equal point counts"),
    "trace CSV header x,y,z": refused(lambda c, p: trace_from_csv("x,y,z\n1,2,3\n"),
                                      "trace CSV line 1: expected header 'index,x_m,y_m,z_m', found 'x,y,z'", line=1),
    **{f"trace CSV indices {indices}": refused(
        lambda c, p, indices=indices: trace_from_csv("index,x_m,y_m,z_m\n" + "".join(f"{i},1,2,3\n" for i in indices)),
        f"trace CSV line {line}: indices must count 0, 1, 2, ... in order, found {indices[line - 2]} where "
        f"{line - 2} is due", line=line) for indices, line in [((5, 5), 2), ((0, 2), 3), ((1, 0), 2), ((0, 0.5), 3)]},
    "trace CSV index": refused(lambda c, p: trace_from_csv(_with_index(_trace_of_zeros(), 7, "9")),
                               "trace CSV line 7: indices must count 0, 1, 2, ... in order, found 9 where 2 is due",
                               line=7),
    "trace CSV row": refused(lambda c, p: trace_from_csv(edit_line(_trace_of_zeros(), 7, truncate)),
                             "trace CSV line 7: expected 4 comma-separated finite numbers, found '2,0,0'", line=7),
    "trace CSV tension_N": refused(lambda c, p: trace_from_csv(_with_meta(_trace_of_zeros(), "tension_N", "big")),
                                   "trace CSV line 2: metadata tension_N='big' is not a finite number", line=2),
    "labelled trace CSV row": refused(lambda c, p: trace_from_csv(edit_line(trace_text(), 7, truncate)),
                                      "trace CSV line 7: expected 4 comma-separated finite numbers, found '2,6,7'",
                                      line=7),
    "labelled trace CSV tension_N": refused(lambda c, p: trace_from_csv(_with_line(trace_text(), 2, "# tension_N=big")),
                                            "trace CSV line 2: metadata tension_N='big' is not a finite number",
                                            line=2),

    # Modal models, records and FRFs.
    "natural frequency at -1 N": refused(lambda c, p: natural_frequency(MODEL, -1.0), "tension must be non-negative"),
    **{f"{name} at {tension:g} N of a falling model": refused(
        lambda c, p, call=call, tension=tension: call(FALLING, tension),
        f"natural frequency at tension {tension:g} N is {100 - 0.1 * tension:g} Hz, not positive")
       for name, call in [("natural frequency", natural_frequency), ("effective stiffness", effective_stiffness),
                          ("FRF", lambda m, tension: frf_synthesize(m, tension, np.arange(1.0, 10.0)))]
       for tension in (1000.0, 2000.0)},
    **{f"modal model {field} {value}": refused(lambda c, p, field=field, value=value: dataclasses.replace(
        MODEL, **{field: value}), MODEL_REFUSALS[field])
       for field, value in [("axis", "q"), ("mass", 0.0), ("damping_ratio", 1.0), ("f0", 0.0), ("mass", np.inf),
                            ("mass", np.nan), ("f0", np.inf), ("f0", np.nan), ("sensitivity", np.nan),
                            ("sensitivity", np.inf), ("sensitivity", -np.inf)]},
    # Undamped, at 159 Hz on the 0.25 Hz grid, k - m w^2 + i c w is exactly 0.
    "FRF of an undamped model at its natural frequency": refused(
        lambda c, p: frf_synthesize(dataclasses.replace(MODEL, damping_ratio=0.0), 0.0, np.arange(1.0, 400.0, 0.25)),
        "compliance is unbounded at 159.0 Hz at tension 0 N: k - m w^2 + i c w is 0 there"),
    "FRF of an empty grid": refused(lambda c, p: frf_synthesize(MODEL, 0.0, np.array([])), "frequency grid is empty"),
    "FRF of a repeated frequency": refused(lambda c, p: frf_synthesize(MODEL, 0.0, np.array([1.0, 1.0])),
                                           "frequency grid must be positive and strictly ascending"),
    "FRF of no points": refused(lambda c, p: FrfSeries(np.zeros(0), np.zeros(0)),
                                "frequencies and values must be 1-D, non-empty and the same length"),
    **{f"FRF tension {value}": refused(
        lambda c, p, value=value: FrfSeries(np.arange(1.0, 4.0), np.ones(3), tension=value),
        "FRF contains non-finite entries or tension")
       for value in (np.nan, np.inf)},
    "FRF position with a line break": refused(
        lambda c, p: frf_to_csv(FrfSeries(np.arange(1.0, 4.0), np.ones(3), position="p1\n9,9")),
        "metadata 'position': 'p1\\n9,9' holds a line break or surrounding whitespace"),
    "impact of zero force": refused(lambda c, p: ImpactRecord(1000.0, np.zeros(16), np.zeros(16)),
                                    "force signal is identically zero"),
    "impact of constant force": refused(lambda c, p: ImpactRecord(1000.0, np.ones(16), np.zeros(16)),
                                        "force signal lacks a dominant transient"),
    **{f"impact sample rate {rate}": refused(lambda c, p, rate=rate: ImpactRecord(rate, np.eye(16)[3], np.zeros(16)),
                                             "sample rate must be positive and finite")
       for rate in (0.0, np.inf, np.nan)},
    "impact of 10 and 9 samples": refused(lambda c, p: ImpactRecord(100.0, np.ones(10), np.ones(9)),
                                          "force and acceleration must be equal-length series of >= 2 samples"),
    **{f"impact tension {value}": refused(lambda c, p, value=value: ImpactRecord(
        100.0, np.array([0.0, 1.0, 0.0]), np.zeros(3), tension=value),
        "impact record contains non-finite samples or tension") for value in (np.nan, np.inf)},
    **{f"simulated impact {name}={value}": refused(lambda c, p, name=name, value=value: simulate_impact(
        MODEL, 0.0, **{name: value}), "sample rate, duration and impact width must be positive and finite")
       for name, value in [("sample_rate", np.nan), ("sample_rate", np.inf), ("duration", np.nan),
                           ("duration", np.inf), ("impact_width", np.nan), ("impact_width", np.inf),
                           ("sample_rate", 0.0), ("duration", -1.0), ("impact_width", 0.0)]},
    **{f"simulated impact of {rate:g} Hz for {duration:g} s": refused(
        lambda c, p, rate=rate, duration=duration: simulate_impact(MODEL, 0.0, sample_rate=rate, duration=duration),
        f"sample rate x duration is {rate * duration:g} samples, need a finite count >= 2")
       for rate, duration in [(1.0, 1.0), (4096.0, 1e-4), (1e200, 1e200)]},
    # Every sample after the first is force: no dominant transient.
    "simulated impact of a pulse to the record end": refused(
        lambda c, p: simulate_impact(MODEL, 0.0, sample_rate=1.0, duration=3.0, impact_width=10.0),
        "force signal lacks a dominant transient"),
    "H1 of no records": refused(lambda c, p: h1_estimate([]), "at least one impact record is required"),
    "H1 of records at 0 and 500 N": refused(lambda c, p: h1_estimate([_impact(0.0), _impact(500.0)]),
                                            "impact record 1 differs from record 0 in tension: 500.0, not 0.0",
                                            index=1),
    **{f"H1 of records differing in {field}": refused(
        lambda c, p, field=field, value=value: h1_estimate([_impact(0.0)] * 2 + [
            dataclasses.replace(_impact(0.0), **{field: value})]),
        f"impact record 2 differs from record 0 in {field}: {value!r}, not {was!r}", index=2)
       for field, value, was in [("sample_rate", 4096.0, 2048.0), ("axis", "y", "x"), ("position", "p2", "")]},
    # A force of two equal samples has a windowed spectrum of exactly 0 at half the sample rate.
    "H1 of a force without a kept bin": refused(
        lambda c, p: h1_estimate([ImpactRecord(1000.0, np.repeat([0.0, 100.0, 0.0], [3, 2, 59]),
                                               np.sin(np.arange(64.0)))]),
        "force auto-spectrum is zero at 500.0 Hz"),
    **{f"H1 nfft {nfft!r}": refused(lambda c, p, nfft=nfft: h1_estimate(
        [_impact(0.0, duration=0.25)], nfft=nfft), f"nfft must be an integer >= 2, got {nfft!r}")
       for nfft in (0, -8, 1, 2.5, 256.0, True)},
    "peak band 300-100 Hz": refused(
        lambda c, p: peak_pick(frf_synthesize(MODEL, 0.0, np.arange(50.0, 400.0, 0.25)), 300.0, 100.0),
        "requested band contains no grid points"),
    **{f"peak prominence factor {factor}": refused(lambda c, p, factor=factor: peak_pick(
        frf_synthesize(MODEL, 0.0, np.arange(50.0, 400.0, 0.25)), 0.0, 200.0, prominence_factor=factor),
        "prominence factor must be positive and finite")
       for factor in (-1.0, np.nan, np.inf)},
    "shift fit of one tension": refused(lambda c, p: fit_shift([(500.0, 160.0), (500.0, 161.0)]),
                                        "all tensions identical: the line fit is rank deficient"),
    "shift fit of one point": refused(lambda c, p: fit_shift([(0.0, 159.0)]),
                                      "at least two (tension, frequency) points are required"),
    **{f"shift fit point {point}": refused(lambda c, p, point=point: fit_shift([(0.0, 159.0), (500.0, 165.0), point]),
                                           "(tension, frequency) points must be finite")
       for point in [(np.nan, 190.0), (1400.0, np.inf), (-np.inf, 190.0)]},

    # Impact and FRF CSV. The impact record has four metadata lines (axis,
    # position, tension_N, sample_rate_hz), its header on line 5; the FRF
    # three, its header on line 4.
    "impact CSV row": refused(lambda c, p: impact_record_from_csv(edit_line(impact_text(), 10, truncate)),
                              "impact CSV line 10: expected 2 comma-separated finite numbers, found "
                              "'7.3564563599667734'", line=10),
    "impact CSV abc in a force cell": refused(
        lambda c, p: impact_record_from_csv(edit_line(impact_text(), 8, lambda line: "abc," + line.split(",")[1])),
        "impact CSV line 8: expected 2 comma-separated finite numbers, found 'abc,1.2711535985803444'", line=8),
    # The layout of earlier versions, with a time_s column, is refused at the header.
    "impact CSV with a time column": refused(
        lambda c, p: impact_record_from_csv(three_column_impact(_impact(500.0, duration=0.05))),
        "impact CSV line 5: expected header 'force_N,accel_ms2', found 'time_s,force_N,accel_ms2'", line=5),
    "impact CSV without sample_rate_hz": refused(
        lambda c, p: impact_record_from_csv(_without_meta(impact_text(), "sample_rate_hz")),
        "impact CSV line 4: no sample_rate_hz metadata before the header", line=4),
    "impact CSV tension_N": refused(lambda c, p: impact_record_from_csv(_with_meta(impact_text(), "tension_N", "big")),
                                    "impact CSV line 3: metadata tension_N='big' is not a finite number", line=3),
    "impact CSV tension_N 5OO": refused(
        lambda c, p: impact_record_from_csv(_with_meta(impact_text(), "tension_N", "5OO")),
        "impact CSV line 3: metadata tension_N='5OO' is not a finite number", line=3),
    "impact CSV sample_rate_hz": refused(
        lambda c, p: impact_record_from_csv(_with_meta(impact_text(), "sample_rate_hz", "fast")),
        "impact CSV line 4: metadata sample_rate_hz='fast' is not a finite number", line=4),
    **{f"impact CSV sample_rate_hz={rate}": refused(
        lambda c, p, rate=rate: impact_record_from_csv(_with_meta(impact_text(), "sample_rate_hz", rate)),
        f"impact CSV line 4: metadata sample_rate_hz='{rate}' is not positive", line=4) for rate in ("0", "-0", "-1")},
    "impact CSV with one sample": refused(
        lambda c, p: impact_record_from_csv("# sample_rate_hz=100\nforce_N,accel_ms2\n1,0\n"),
        "impact CSV line 3: needs at least two samples, found one", line=3),
    "FRF CSV header a,b,c": refused(lambda c, p: frf_from_csv("a,b,c\n1,2,3\n"),
                                    "FRF CSV line 1: expected header 'freq_hz,re,im', found 'a,b,c'", line=1),
    "FRF CSV with only a header": refused(lambda c, p: frf_from_csv("# axis=x\nfreq_hz,re,im\n"),
                                          "FRF CSV: no data rows after the header on line 2", line=2),
    "FRF CSV row": refused(lambda c, p: frf_from_csv(edit_line(frf_text(), 9, truncate)),
                           "FRF CSV line 9: expected 3 comma-separated finite numbers, found "
                           "'102,2.2681920757224574e-08'", line=9),
    # Line 8 holds the FRF's row 3: 1.5 Hz there follows 3 Hz.
    "FRF CSV frequency order": refused(lambda c, p: frf_from_csv(_with_field(_frf_of_8_hz(), 8, 0, "1.5")),
                                       "FRF CSV line 8: frequency grid must be strictly ascending, found 1.5 Hz after "
                                       "3.0 Hz", line=8),
    "FRF CSV frequency 0.5 Hz on line 9": refused(lambda c, p: frf_from_csv(_with_field(frf_text(), 9, 0, "0.5")),
                                                  "FRF CSV line 9: frequency grid must be strictly ascending, found "
                                                  "0.5 Hz after 101.5 Hz", line=9),
    "FRF CSV tension_N inf": refused(lambda c, p: frf_from_csv(_with_line(frf_text(), 3, "# tension_N=inf")),
                                     "FRF CSV line 3: metadata tension_N='inf' is not a finite number", line=3),

    # The CSV codec, on a table named T of columns a, b and c.
    **{f"table of data {name}": refused(lambda c, p, columns=columns, data=data: write_table({}, columns, data),
                                        message)
       for name, columns, data, message in [
           ("with an index passed by the caller", ("index", "x"), [[0, 1], [7, 2]],
            "header 'index,x' takes 1 data columns, got shape (2, 2)"),
           ("a column short", ("a", "b"), [[1.0], [2.0]], "header 'a,b' takes 2 data columns, got shape (2, 1)"),
           ("one-dimensional", ("a",), [1.0, 2.0], "header 'a' takes 1 data columns, got shape (2,)"),
       ]},
    # Metadata the reader could not give back; "a\rb" turns into a line break in a file read as text.
    **{f"table metadata {key!r}: {value!r}": refused(
        lambda c, p, key=key, value=value: write_table({key: value}, ("a", "b", "c"), [[1.0, 2.0, 3.0]]),
        f"metadata {key!r}: {bad!r} holds a line break or surrounding whitespace")
       for key, value, bad in [("position", "p1\n9,9", "p1\n9,9"), ("k", " padded ", " padded "), ("k", "v\r", "v\r"),
                               ("k", "a\rb", "a\rb"), (" k", "v", " k"), ("k\n", "v", "k\n")]},
    **{f"table metadata key {key!r}": refused(lambda c, p, key=key: write_table({key: "v"}, ("a", "b", "c"),
                                                                                [[1.0, 2.0, 3.0]]),
                                              f"metadata {key!r}: a key must be non-empty and hold no '='")
       for key in ("", "a=b")},
    "table without a header": refused(lambda c, p: read_table("# a=1\n", ("a", "b", "c"), "T"),
                                      "T: no header line 'a,b,c'"),
    "table header a,b": refused(lambda c, p: read_table("# a=1\n\na,b\n1,2\n", ("a", "b", "c"), "T"),
                                "T line 3: expected header 'a,b,c', found 'a,b'", line=3),
    "table without rows": refused(lambda c, p: read_table("a,b,c\n", ("a", "b", "c"), "T"),
                                  "T: no data rows after the header on line 1", line=1),
    **{f"table row {row!r} on line {line}": refused(lambda c, p, text=text: read_table(text, ("a", "b", "c"), "T"),
                                                  f"T line {line}: expected 3 comma-separated finite numbers, found "
                                                  f"{row!r}", line=line)
       for text, line, row in [("a,b,c\n1,2,3\n\n\n4,5\n", 5, "4,5"), ("a,b,c\n1,2,3\n1,2,3,4\n", 3, "1,2,3,4"),
                               ("a,b,c\n1,2,3,4\n1,2,3,4\n", 2, "1,2,3,4"), ("a,b,c\n1,2,3\n4,abc,6\n", 3, "4,abc,6"),
                               ("a,b,c\n1,2,3\n# late=1\n4,5,6\n", 3, "# late=1"), ("a,b,c\n1,2,inf\n", 2, "1,2,inf"),
                               ("a,b,c\n" + "1,2,3\n" * 1000 + "1,2\n" + "1,2,3\n" * 50, 1002, "1,2")]},
    **{f"table metadata a repeated on line {line}": refused(
        lambda c, p, text=text: read_table(text, ("a", "b", "c"), "T"),
        f"T line {line}: metadata a repeated, first given on line 1", line=line)
       for text, line in [("# a=1\n# b=2\n#  a = 3\na,b,c\n1,2,3\n", 3), ("# a=1\n# a=1\na,b,c\n1,2,3\n", 2)]},
    **{f"table index column {text!r}": refused(lambda c, p, text=text: read_table(text, ("index", "x"), "T"), message,
                                               line=int(message.split()[2][:-1]))
       for text, message in [
           ("index,x\n0,1\n1,2\n3,4\n", "T line 4: indices must count 0, 1, 2, ... in order, found 3 where 2 is due"),
           ("index,x\n1,1\n", "T line 2: indices must count 0, 1, 2, ... in order, found 1 where 0 is due"),
           ("index,x\n0,1\n\n0.5,2\n", "T line 4: indices must count 0, 1, 2, ... in order, found 0.5 where 1 is due"),
       ]},
    **{f"table metadata number {key}": refused(
        lambda c, p, key=key: _meta().numbers(key, None),
        f"T line {line}: metadata {key}='{METADATA[key]}' is not a finite number", line=line)
       for line, key in enumerate(METADATA, start=1) if key in ("bad", "inf", "nan")},
    **{f"table metadata one number {key}": refused(
        lambda c, p, key=key: _meta().number(key, 0.0),
        f"T line {line}: metadata {key}='{METADATA[key]}' is not one number", line=line)
       for line, key in enumerate(METADATA, start=1) if key in ("two", "empty")},

    # The system config: `path` is the schema path of the refused element.
    "config unknown key": refused(lambda c, p: _config(("extra",), 1),
                                  "config.extra: unknown key", ConfigError, path="config.extra"),
    "config unknown arm key": refused(lambda c, p: _config(("arm1", "payload_kg"), 100),
                                      "config.arm1.payload_kg: unknown key",
                                      ConfigError, path="config.arm1.payload_kg"),
    "config without spring_matrix": refused(lambda c, p: _config_edited(lambda d: d.pop("spring_matrix")),
                                            "missing config.spring_matrix", ConfigError, path="config.spring_matrix"),
    "config schema version 99": refused(lambda c, p: _config(("schema_version",), 99),
                                        "config.schema_version: expected 1, got 99",
                                        ConfigError, path="config.schema_version"),
    "config modified DH convention": refused(lambda c, p: _config(("dh_convention",), "modified"),
                                             "config.dh_convention: only 'standard' Denavit-Hartenberg is supported",
                                             ConfigError, path="config.dh_convention"),
    "config asymmetric spring matrix": refused(lambda c, p: _config(("spring_matrix", 0, 1), 1e3),
                                               "config.spring_matrix: spring matrix must be symmetric (1e-9 relative)",
                                               ConfigError, path="config.spring_matrix"),
    # A 1e308 diagonal entry is finite, but K + K.T is not.
    **{f"config spring matrix entry ({i}, {i}) of 1e308": refused(
        lambda c, p, i=i: _config(("spring_matrix", i, i), 1e308),
        "config.spring_matrix: spring matrix must be a 6x6 array of finite entries, each of size <= 8.988e+307",
        ConfigError, path="config.spring_matrix") for i in range(6)},
    "config negative modal mass": refused(lambda c, p: _config(("modal_models", "y", "mass_kg"), -1.0),
                                          "config.modal_models.y: mass must be positive and finite",
                                          ConfigError, path="config.modal_models.y"),
    "config workspace of zero size": refused(lambda c, p: _config(("workspace_box", "size_m"), [1.0, 0.0, 1.0]),
                                             "config.workspace_box.size_m[1]: expected a positive finite number, got "
                                             "0.0", ConfigError, path="config.workspace_box.size_m[1]"),
    **{f"config workspace {key} {value}": refused(
        lambda c, p, key=key, value=value: _config(("workspace_box", key, 1), value),
        f"config.workspace_box.{key}[1]: expected {expected}, got {value!r}", ConfigError,
        path=f"config.workspace_box.{key}[1]")
       for key, value, expected in [("center_m", np.nan, "a finite number"), ("center_m", np.inf, "a finite number"),
                                    ("center_m", -np.inf, "a finite number"),
                                    ("size_m", np.nan, "a positive finite number")]},
    **{f"config {at} of a string": refused(lambda c, p, keys=keys: _config(keys, "abc"),
                                           f"{at}: expected {expected}, got 'abc'", ConfigError, path=at)
       for keys, at, expected in [
           (("workspace_box", "center_m", 0), "config.workspace_box.center_m[0]", "a finite number"),
           (("workspace_box", "size_m", 2), "config.workspace_box.size_m[2]", "a positive finite number"),
           (("modal_models", "x", "mass_kg"), "config.modal_models.x.mass_kg", "a finite number"),
           (("ik_seed2_rad", 3), "config.ik_seed2_rad[3]", "a finite number"),
       ]},
    "config string DH entry": refused(lambda c, p: _config(("arm1", "dh_rows", 0, 2), "0.5"),
                                      "config.arm1.dh_rows[0][2]: expected a finite number, got '0.5'", ConfigError,
                                      path="config.arm1.dh_rows[0][2]"),
    **{f"config modal {key} {value}": refused(
        lambda c, p, key=key, value=value: _config(("modal_models", "z", key), value),
        f"config.modal_models.z.{key}: expected a finite number, got {value!r}", ConfigError,
        path=f"config.modal_models.z.{key}")
       for key in ("mass_kg", "f0_hz", "sensitivity_hz_per_n") for value in (np.nan, np.inf)},
    **{f"config default {key} {value!r}": refused(
        lambda c, p, key=key, value=value: _config(("defaults", key), value),
        f"config.defaults.{key}: expected a positive finite number, got {value!r}", ConfigError,
        path=f"config.defaults.{key}")
       for key in ("tol_pos_m", "tol_rot_rad", "chord_tol_m", "max_step_m", "joint_jump_max_rad")
       for value in (np.nan, np.inf, 0.0, -1e-6, "1e-6", True, None)},
    **{f"config default max_iter {value!r}": refused(
        lambda c, p, value=value: _config(("defaults", "max_iter"), value),
        f"config.defaults.max_iter: expected an integer >= 1, got {value!r}", ConfigError,
        path="config.defaults.max_iter")
       for value in (np.nan, np.inf, 2.7, 0, -3, True, "200")},
    # An arm's own refusals name the arm.
    "config arm of an empty joint range": refused(lambda c, p: _config(("arm2", "joint_limits_rad", 3), [1.0, 1.0]),
                                                  "config.arm2: each joint limit must satisfy lo < hi", ConfigError,
                                                  path="config.arm2"),
    "config arm of zero reach": refused(lambda c, p: _config_edited(lambda d: _zero_reach(d["arm2"])),
                                        "config.arm2: arm reach (sum of |a| + |d|) must be positive and finite",
                                        ConfigError, path="config.arm2"),
    "config zero joint spring": refused(lambda c, p: _config(("arm2", "joint_stiffness_nm_per_rad", 3), 0),
                                        "config.arm2: joint stiffness entries must be positive", ConfigError,
                                        path="config.arm2"),
    "config arms on one base": refused(
        lambda c, p: _config_edited(lambda d: d["arm2"].update(base_pose=d["arm1"]["base_pose"])),
        "config: the two arm base poses must be distinct", ConfigError, path="config"),
    "config IK seed of 2 joints": refused(lambda c, p: _config(("ik_seed1_rad",), [0.0, 0.0]),
                                          "config.ik_seed1_rad: expected a list of 6 numbers",
                                          ConfigError, path="config.ik_seed1_rad"),
    # A spring matrix of [[1]] ahead of the real one, which json.loads alone would keep.
    "config repeated key": refused(
        lambda c, p: parse_config(json_with_a_repeated_key(demo_config_dict(), (), "spring_matrix", [[1]])),
        "config.spring_matrix: repeated key", ConfigError, path="config.spring_matrix"),

    # Kinematics, on the test arm (joint limits +-2.9 rad) unless the row says otherwise.
    "FK of q3 nan": refused(lambda c, p: forward_kinematics(ARM, [0, 0, np.nan, 0, 0, 0]),
                            "joint configuration contains non-finite values: q3 = nan"),
    "FK of q1 3.5": refused(lambda c, p: forward_kinematics(ARM, [3.5, 0, 0, 0, 0, 0]),
                            "joint configuration violates joint limits: q1 = 3.5 rad outside [-2.9, 2.9] rad"),
    "FK of a 2x3 stack": refused(
        lambda c, p: forward_kinematics(ARM, np.random.default_rng(14).uniform(
        ARM.joint_limits[:, 0], ARM.joint_limits[:, 1], (2, 3, 6))),
        "forward_kinematics takes q of shape (6,) or (N, 6)"),
    "arm of 5 DH rows": refused(lambda c, p: ArmModel(ARM.dh_rows[:5], LIMITS, joint_stiffness=JOINT_STIFFNESS),
                                "dh_rows must be a finite 6x4 array (a, alpha, d, theta_offset)"),
    "arm of a joint limit nan": refused(
        lambda c, p: ArmModel(ARM.dh_rows, np.vstack([LIMITS[:5], [np.nan, 3.0]]), joint_stiffness=JOINT_STIFFNESS),
        "joint_limits must be a finite 6x2 array"),
    **{f"arm joint springs {springs}": refused(
        lambda c, p, springs=springs: dataclasses.replace(ARM, joint_stiffness=np.array(springs)), message)
       for springs, message in [
           ([1.0, 1, 1, 0, 1, 1], "joint stiffness entries must be positive"),
           ([1.0, 1, 1, -0.0, 1, 1], "joint stiffness entries must be positive"),
           ([1.0, 1, 1, -2, 1, 1], "joint stiffness entries must be positive"),
           ([1.0, 1, 1, np.nan, 1, 1], "joint stiffness must be 6 finite values"),
           ([1.0, 1, 1, np.inf, 1, 1], "joint stiffness must be 6 finite values"),
           ([1.0] * 5, "joint stiffness must be 6 finite values"),
       ]},
    "IK out of reach": refused(lambda c, p: inverse_kinematics(ARM, Pose(np.array([10.0, 0.0, 0.0])), np.zeros(6)),
                               "target 10.000 m from base exceeds the arm's extent 1.940 m (reach + |flange offset|)",
                               UnreachableTargetError, index=0),
    "IK tol_pos 0": refused(lambda c, p: inverse_kinematics(ARM, forward_kinematics(ARM, np.zeros(6)), np.zeros(6),
                                                            tol_pos=0.0), "IK tol_pos must be finite and > 0, got 0.0"),
    "IK seed of 5 rad": refused(
        lambda c, p: inverse_kinematics(ARM, forward_kinematics(ARM, np.zeros(6)),
                                                                np.full(6, 5.0)),
        "IK seed violates joint limits: q1 = 5 rad outside [-2.9, 2.9] rad"),
    # A NaN tolerance would fail a reachable target, a fractional or NaN
    # max_iter lift the iteration cap, infinite tolerances return the seed
    # and an array has no truth value: IK refuses each, and plan_sync, which
    # forwards it. On the demo cell's arm 1.
    **{f"{name} {arg} {value}": refused(
        lambda c, p, call=call, arg=arg, value=value: call(c, **{arg: value}),
        f"IK {arg} must be {'an integer >= 1' if arg == 'max_iter' else 'finite and > 0'}, got {value}")
       for name, call in [("IK", lambda c, **kw: inverse_kinematics(
           c.system.arm1, forward_kinematics(c.system.arm1, c.ik_seed1 + 0.5), c.ik_seed1, **kw)),
                          ("plan", lambda c, **kw: _plan(c, gcode="G1 X10\n", **kw))]
       for arg, value in [("tol_pos", np.nan), ("tol_pos", np.inf), ("tol_pos", -1e-6), ("tol_rot", np.nan),
                          ("tol_rot", np.inf), ("tol_rot", 0.0), ("max_iter", 2.5), ("max_iter", np.nan),
                          ("max_iter", np.inf), ("max_iter", 0), ("tol_pos", np.array([1e-6, 1e-6])),
                          ("tol_rot", [1e-6]), ("max_iter", np.array([50, 50]))]},
    "IK of row 5 of 8 out of reach": refused(lambda c, p: _ik_out_of_reach(8, 5),
                                             "target 10.000 m from base exceeds the arm's extent 1.940 m (reach + "
                                             "|flange offset|)", UnreachableTargetError, index=5),
    # A row that fails while iterating is named before a later row that fails the reach check.
    "IK of row 4 of 6 out of reach in 1 step": refused(lambda c, p: _ik_out_of_reach(6, 4, max_iter=1),
                                                       "IK did not converge in 1 iterations (best residual 3.782e-04 "
                                                       "m, 1.526e-04 rad)", UnreachableTargetError, index=0),
    # A later row that would fail too cannot displace the first one.
    "IK of row 1 out of reach after a solved row": refused(lambda c, p: _ik_after_solved_rows(1, 4, unreachable=1),
                                                           "target 10.000 m from base exceeds the arm's extent 1.940 m "
                                                           "(reach + |flange offset|)",
                                                           UnreachableTargetError, index=1),
    "IK of a row after three solved rows in 1 step": refused(lambda c, p: _ik_after_solved_rows(3, 4),
                                                             "IK did not converge in 1 iterations (best residual "
                                                             "5.628e-03 m, 7.046e-03 rad)",
                                                             UnreachableTargetError, index=3),
    # With one step allowed, the rows moved 0.3 m fail in the same step, and the earliest is named.
    **{f"IK of rows {rows} moved 0.3 m in 1 step": refused(
        lambda c, p, rows=rows: _ik_stuck(rows), f"IK did not converge in 1 iterations (best residual {residuals})",
        UnreachableTargetError, index=rows[0])
       for rows, residuals in [((2, 3), "4.802e-01 m, 4.978e-02 rad"), ((4,), "4.625e-01 m, 9.535e-02 rad")]},
    **{f"IK of {name}": refused(lambda c, p, call=call: call(*reachable_stack(ARM, 257)), message)
       for name, call, message in [
           ("3 targets and 4 seeds", lambda t, s: inverse_kinematics(ARM, t[:3], s[:4]), IK_SHAPES),
           ("a 2x2 stack of targets", lambda t, s: inverse_kinematics(ARM, t[:4].reshape(2, 2, 7), s[0]), IK_SHAPES),
           ("a 2x2 stack of seeds", lambda t, s: inverse_kinematics(ARM, t[:4], s[:4].reshape(2, 2, 6)), IK_SHAPES),
           ("seeds of 5 joints", lambda t, s: inverse_kinematics(ARM, t[:3], s[:3, :5]),
            "joint configuration must have 6 entries"),
           ("a tuple of arms", lambda t, s: inverse_kinematics((ARM, ARM), np.stack([t[:3]] * 2),
                                                               np.stack([s[:3]] * 2)), IK_ONE_ARM),
           ("a list of arms", lambda t, s: inverse_kinematics([ARM, ARM], np.stack([t[:3]] * 2),
                                                              np.stack([s[:3]] * 2)), IK_ONE_ARM),
       ]},
    "IK seed row 1 beyond its limit": refused(lambda c, p: _ik_seeds(lambda s: _set(s[:2], (1, 0), 3.0), n=2),
                                              "IK seed violates joint limits: q1 = 3 rad outside [-2.9, 2.9] rad at "
                                              "seed row 1"),
    "IK shared seed beyond its lower limit": refused(lambda c, p: _ik_seeds(lambda s: _set(s[0], 5, -3.0), n=2),
                                                     "IK seed violates joint limits: q6 = -3 rad outside [-2.9, 2.9] "
                                                     "rad"),
    **{f"IK seed {where} q{joint + 1} {value}": refused(
        lambda c, p, seed=seed: _ik_seeds(seed), message)
       for where, joint, value, seed, message in [
           ("row 1", 0, 3.0, lambda s: _set(s[:6], (1, 0), 3.0),
            "IK seed violates joint limits: q1 = 3 rad outside [-2.9, 2.9] rad at seed row 1"),
           ("row 4", 5, -7.25, lambda s: _set(s[:6], (4, 5), -7.25),
            "IK seed violates joint limits: q6 = -7.25 rad outside [-2.9, 2.9] rad at seed row 4"),
           ("shared", 2, 3.5, lambda s: _set(s[0], 2, 3.5),
            "IK seed violates joint limits: q3 = 3.5 rad outside [-2.9, 2.9] rad"),
       ]},
    **{f"{function} of {name}": refused(lambda c, p, call=call, arm=arm: call(arm(c)),
                                        "closed-form IK needs d2 = d3 = a4 = a5 = d5 = 0, twists "
                                        "(+-pi/2, 0, +-pi/2, +-pi/2, +-pi/2) on joints 1-5 and a2 > 0")
       for name, arm in [("a one-link arm", lambda c: make_one_link_arm()),
                         *((f"the demo arm with {key}={value}", lambda c, key=key, value=value: _arm_with(
                             c.system.arm1, **{key: value}))
                           for key, value in [("d5", 1e-3), ("a4", 1e-3), ("d2", 0.1), ("alpha2", 0.1), ("alpha4", 1.0),
                                              ("a2", -1.25)])]
       for function, call in [
           ("closed_form_ik", lambda arm: closed_form_ik(arm, forward_kinematics(arm, np.zeros((1, 6))), 0)),
           ("ik_branch", lambda arm: ik_branch(arm, np.zeros(6))),
       ]},
    **{f"closed_form_ik branch {branch}": refused(lambda c, p, branch=branch: closed_form_ik(
        c.system.arm1, forward_kinematics(c.system.arm1, np.zeros((2, 6))), branch),
        "IK branch must be an integer in 0..7")
       for branch in (-1, N_BRANCHES, 1.0, [0, 9])},
    "closed_form_ik of one pose": refused(lambda c, p: closed_form_ik(
        c.system.arm1, forward_kinematics(c.system.arm1, np.zeros(6)), 0), "closed-form IK takes pose rows [N, 7]"),

    # Stiffness. `index` is the row of a stack of STACK demo rows, in its
    # second block of _BLOCK_ROWS rows.
    "wrench force of 2": refused(lambda c, p: Wrench(np.zeros(2)), "wrench force/torque must be finite 3-vectors"),
    # A force or torque is refused once its squared norm overflows.
    **{f"wrench {force} {torque}": refused(
        lambda c, p, force=force, torque=torque: Wrench(np.array(force), np.array(torque)),
        "wrench force/torque must be finite 3-vectors of norm below about 1.341e+154")
       for force, torque in [([1.3e154, 1.3e154, 0.0], [0.0, 0.0, 0.0]), ([0.0, 0.0, 0.0], [1e200, 0.0, 0.0]),
                             ([np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]), ([0.0, 0.0, 0.0], [0.0, -np.inf, 0.0])]},
    "stack of a scalar": refused(lambda c, p: cartesian_stiffness(c.system.arm1, 0.0),
                                 "stacked arguments do not broadcast: a scalar is not a stack of vectors"),
    "stacks of 3 and 2 rows": refused(lambda c, p: coupled_stiffness(c.system, np.zeros((3, 6)), Q),
                                      f"stacked arguments do not broadcast: {_numpy_broadcast_message((3,), (2,))}"),
    "predicted tension of an offset of 5": refused(lambda c, p: predicted_tension(c.system, Q, Q, np.zeros(5)),
                                                   "offset must be a finite 6-vector"),
    **{f"{name} of arm 1 q{joint + 1} {value}": refused(
        lambda c, p, call=call, row=row, joint=joint, value=value: call(c, *_stiffness_stack(c, p, row, joint, value)),
        message, index=row)
       for name, call in [("coupled stiffness", lambda c, q1, q2: coupled_stiffness(c.system, q1, q2)),
                          ("tension offset", lambda c, q1, q2: tension_offset(c.system, q1, q2, Wrench(1000.0 * X))),
                          ("Cartesian stiffness", lambda c, q1, q2: cartesian_stiffness(c.system.arm1, q1))]
       for row, joint, value, message in [
           (ROW, 4, 2.5, "joint configuration violates joint limits: q5 = 2.5 rad outside [-2.2, 2.2] rad"),
           (LATER_ROW, 2, np.nan, "joint configuration contains non-finite values: q3 = nan"),
           (LATER_ROW, 2, np.inf, "joint configuration contains non-finite values: q3 = inf"),
       ]},
    "Cartesian stiffness of a singular row": refused(lambda c, p: cartesian_stiffness(ARM, _rank_stack()),
                                                     "Jacobian is rank deficient (smallest singular value 1.069e-17); "
                                                     "deficient direction dominated by axis 'z'",
                                                     DomainError, index=ROW),
    "Cartesian stiffness of a singular configuration": refused(
        lambda c, p: cartesian_stiffness(ARM, _rank_stack()[ROW]),
        "Jacobian is rank deficient (smallest singular value 1.069e-17); deficient direction dominated by axis 'z'",
        DomainError, index=0),
    "tension offset of an arm-2 singular pair": refused(
        lambda c, p: tension_offset(c.system, *(q[ROW] for q in _singular_pairs(c, p)), Wrench(1000.0 * X)),
        "Jacobian is rank deficient (smallest singular value 1.038e-17); deficient direction dominated by axis 'rz'",
        DomainError, index=0),
    "tension offset of an arm-2 singular row": refused(
        lambda c, p: tension_offset(c.system, *_singular_pairs(c, p), Wrench(1000.0 * X)),
        "Jacobian is rank deficient (smallest singular value 1.038e-17); deficient direction dominated by axis 'rz'",
        DomainError, index=ROW),
    "coupled stiffness of an arm-2 singular row": refused(
        lambda c, p: coupled_stiffness(c.system, *_singular_pairs(c, p)),
        "Jacobian is rank deficient (smallest singular value 1.038e-17); deficient direction dominated by axis 'rz'",
        DomainError, index=ROW),
    "deform an arm-2 singular setpoint": refused(lambda c, p: simulate_deformation(c.system, _singular_program(c, p)),
                                                 "setpoint 526: Jacobian is rank deficient (smallest singular value "
                                                 "1.038e-17); deficient direction dominated by axis 'rz'",
                                                 DomainError, index=ROW),
    "stacked inverse of a row not positive definite": refused(lambda c, p: _spd_stack_refused(),
                                                              "M is not positive definite: Matrix is not positive "
                                                              "definite", DomainError, index=ROW),
}


@pytest.mark.parametrize("call, cls, message, place", REFUSED.values(), ids=REFUSED.keys())
def test_refused(cfg, demo_program, call, cls, message, place):
    with pytest.raises(TwinmillError) as exc:
        call(cfg, demo_program)
    assert type(exc.value) is cls
    assert str(exc.value) == message
    assert {name: getattr(exc.value, name) for name in PLACES} == {**dict.fromkeys(PLACES), **place}


class TestWithin:
    """`TwinmillError.within` puts a prefix in front of the message as given
    and sets the place fields it is given, on the error itself."""

    def test_keeps_the_type_the_other_fields_and_the_cause(self):
        cause = ValueError("inner")
        exc = UnreachableTargetError("target out of reach", pos_residual=0.5, index=3, solved="rows")
        exc.__cause__ = cause
        assert exc.within("path JSON ", file="p.json", arm=2) is exc
        assert type(exc) is UnreachableTargetError and exc.__cause__ is cause
        assert str(exc) == "path JSON target out of reach"
        assert (exc.index, exc.line, exc.path, exc.arm, exc.file) == (3, None, None, 2, "p.json")
        assert (exc.pos_residual, exc.rot_residual, exc.solved) == (0.5, None, "rows")

    def test_sets_only_the_fields_given(self):
        exc = DomainError("gap", gap=1.0, index=4).within(line=7)
        assert str(exc) == "gap"
        assert (exc.index, exc.line, exc.path, exc.arm, exc.file, exc.gap) == (4, 7, None, None, None, 1.0)
        assert exc.within("setpoint 4: ", index=None).index is None

    def test_refuses_a_name_that_is_no_place(self):
        exc = TwinmillError("x")
        with pytest.raises(TypeError, match=r"^within\(\) takes only the places index, line, path, arm, file, "
                                            r"not lines$"):
            exc.within("a: ", lines=3)
        assert (str(exc), exc.line, "lines" in vars(exc)) == ("x", None, False)

    def test_each_call_prefixes_the_message_once(self):
        exc = TwinmillError("bad").within("b: ").within("a: ")
        assert (str(exc), exc.args) == ("a: b: bad", ("a: b: bad",))


def test_no_source_rewrites_an_error_message_in_place():
    """A place is added by `TwinmillError.within`, never by assigning an
    error's `args`."""
    src = Path(__file__).resolve().parent.parent / "src"
    found = [f"{path.relative_to(src)}:{n}" for path in sorted(src.rglob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
             if re.search(r"\.args\s*=(?!=)", line)]
    assert found == []
