import dataclasses
import functools
import json
import math
import operator
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill import kinematics, pathplan, stiffness
from twinmill.errors import (
    DomainError,
    InvalidInputError,
    UnreachableTargetError,
)
from twinmill.geometry import (
    Pose,
    compose_rows,
    pose_error,
    pose_rows,
    quat_conjugate,
    quat_from_rotvec,
    quat_multiply,
    rotvec_from_quat,
)
from twinmill.kinematics import (
    DEFAULT_TOL_POS,
    DEFAULT_TOL_ROT,
    closed_form_ik,
    forward_kinematics,
    ik_branch,
    inverse_kinematics,
)
from twinmill.pathplan import (
    ArcSegment,
    LinearSegment,
    Setpoints,
    ToolPath,
    _subdivisions,
    discretize,
    parse_gcode,
    path_from_json,
    plan_sync,
    program_from_csv,
    program_to_csv,
    transform_path,
    translate_path,
)
from twinmill.stiffness import MAX_OFFSET, Wrench, cell_sha256, predicted_tension

from conftest import (
    RASTER_GCODE,
    RASTER_OFFSET,
    SLOT_GCODE,
    SLOT_JSON,
    TINY_RASTER_GCODE,
    WORK_OFFSET,
    arm2_targets,
    demo_plan,
    json_numbers,
    json_elements,
    json_objects,
    json_replaced,
    json_with_a_repeated_key,
    path_bits,
    path_numbers,
    planned_flanges,
    workloads,
)

# SLOT_GCODE's two straight cuts and semicircle, hand-checked
SLOT_LENGTH = 0.040 + math.pi * 0.020 + 0.040


class TestParser:
    def test_single_linear_move(self):
        path = parse_gcode("G1 X100 F300\n")
        assert len(path.segments) == 1
        seg = path.segments[0]
        assert isinstance(seg, LinearSegment)
        np.testing.assert_allclose(seg.end.position, [0.1, 0.0, 0.0])
        assert seg.length == pytest.approx(0.1)
        assert path.feed_mm_min == 300.0

    def test_full_circle(self):
        path = parse_gcode("G2 X0 Y0 I-50\n")
        seg = path.segments[0]
        assert isinstance(seg, ArcSegment)
        assert seg.sweep == pytest.approx(-2 * math.pi)
        assert seg.radius == pytest.approx(0.050)
        assert path.length == pytest.approx(2 * math.pi * 0.050)

    def test_ccw_sign_convention(self):
        path = parse_gcode("G3 X0 Y100 I0 J50\n")
        assert path.segments[0].sweep > 0

    def test_slot_path_length(self):
        path = parse_gcode(SLOT_GCODE)
        assert len(path.segments) == 3
        assert path.length == pytest.approx(SLOT_LENGTH, abs=1e-6)
        np.testing.assert_allclose(path.segments[-1].end.position, [0.0, 0.040, 0.0], atol=1e-12)

    def test_modal_motion_word(self):
        path = parse_gcode("G1 X10\nX20 Y5\n")
        assert len(path.segments) == 2
        np.testing.assert_allclose(path.segments[1].end.position, [0.020, 0.005, 0.0])

    def test_comments_ignored(self):
        path = parse_gcode("(header) G1 X10 ; trailing\n; full comment line\n")
        assert len(path.segments) == 1


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _line(start, end):
    return LinearSegment(Pose(np.array(start)), Pose(np.array(end)))


def _arc(start, center, sweep):
    return ArcSegment(np.array(center), np.array([0.0, 0.0, 1.0]), Pose(np.array(start)), sweep)


class TestParserPins:
    """How `parse_gcode` reads a line, pinned: each accepted line's segments
    bit for bit (signed zeros too). Its refusals are rows of
    tests/test_refusals.py."""

    @pytest.mark.parametrize("text, segments", [
        # The last word of a letter wins.
        ("G1 X10 X20\n", [_line([0, 0, 0], [0.02, 0, 0])]),
        ("G1 X10 Y5 X20 Y6 X30\n", [_line([0, 0, 0], [0.03, 0.006, 0])]),
        ("G1 X10\nG3 X0 Y0 I-3 I-5\n", [_line([0, 0, 0], [0.01, 0, 0]),
                                         _arc([0.01, 0, 0], [0.005, 0, 0], 3.141592653589793)]),
        # Full circles.
        ("G2 X0 Y0 I-50\n", [_arc([0, 0, 0], [-0.05, 0, 0], -6.283185307179586)]),
        ("G3 X0 Y0 I-50\n", [_arc([0, 0, 0], [-0.05, 0, 0], 6.283185307179586)]),
        # Start and end angles about the center on both sides of +-pi.
        ("G1 Y1\nG3 X0 Y-1 I10 J-1\n", [_line([0, 0, 0], [0, 0.001, 0]),
                                         _arc([0, 0.001, 0], [0.01, 0, 0], 0.19933730498232372)]),
        ("G1 Y1\nG2 X0 Y-1 I10 J-1\n", [_line([0, 0, 0], [0, 0.001, 0]),
                                         _arc([0, 0.001, 0], [0.01, 0, 0], -6.0838480021972625)]),
        ("G1 Y-1\nG3 X0 Y1 I10 J1\n", [_line([0, 0, 0], [0, -0.001, 0]),
                                        _arc([0, -0.001, 0], [0.01, 0, 0], 6.0838480021972625)]),
        ("G1 Y-1\nG2 X0 Y1 I10 J1\n", [_line([0, 0, 0], [0, -0.001, 0]),
                                        _arc([0, -0.001, 0], [0.01, 0, 0], -0.19933730498232372)]),
        ("G3 X4 Y-8 I10\n", [_arc([0, 0, 0], [0.01, 0, 0], 0.9272952180016123)]),
        ("G2 X4 Y-8 I10\n", [_arc([0, 0, 0], [0.01, 0, 0], -5.355890089177974)]),
        ("G2 X4 Y8 I10\n", [_arc([0, 0, 0], [0.01, 0, 0], -0.9272952180016123)]),
        ("G3 X4 Y8 I10\n", [_arc([0, 0, 0], [0.01, 0, 0], 5.355890089177974)]),
        # A start on the -0.0 side of the center's y: a J0 word gives the
        # center y +0.0, no J word keeps the start's -0.0.
        ("G1 X10 Y-0\nG3 X14 Y-8 I10 J0\n", [_line([0, 0, 0], [0.01, -0.0, 0]),
                                              _arc([0.01, -0.0, 0], [0.02, 0, 0], 0.9272952180016123)]),
        ("G1 X10 Y-0\nG3 X14 Y-8 I10\n", [_line([0, 0, 0], [0.01, -0.0, 0]),
                                           _arc([0.01, -0.0, 0], [0.02, -0.0, 0], 0.9272952180016123)]),
        ("G1 X10 Y-0\nG2 X14 Y-8 I10 J0\n", [_line([0, 0, 0], [0.01, -0.0, 0]),
                                              _arc([0.01, -0.0, 0], [0.02, 0, 0], -5.355890089177974)]),
        ("G1 X10 Y-0\nG2 X14 Y-8 I10\n", [_line([0, 0, 0], [0.01, -0.0, 0]),
                                           _arc([0.01, -0.0, 0], [0.02, -0.0, 0], -5.355890089177974)]),
        # A K offset inside the plane tolerance moves the center off z = 0.
        ("G1 Y1\nG3 X2 Y1 I1 J0 K0.0000005\n", [_line([0, 0, 0], [0, 0.001, 0]),
                                                 _arc([0, 0.001, 0], [0.001, 0.001, 5e-10], 3.141592653589793)]),
    ])
    def test_segments(self, text, segments):
        path = parse_gcode(text)
        assert [type(s) for s in path.segments] == [type(s) for s in segments]
        for got, want in zip(path.segments, segments):
            assert _bits(got.start.position) == _bits(want.start.position)
            assert _bits(got.end.position) == _bits(want.end.position)
            if isinstance(want, ArcSegment):
                assert _bits([*got.center, got.sweep]) == _bits([*want.center, want.sweep])


class TestSegments:
    def test_arc_end_and_length(self):
        arc = ArcSegment(
            center=np.array([0.0, 0.02, 0.0]),
            normal=np.array([0.0, 0.0, 1.0]),
            start=Pose(np.zeros(3)),
            sweep=math.pi,
        )
        np.testing.assert_allclose(arc.end.position, [0.0, 0.04, 0.0], atol=1e-15)
        assert arc.length == pytest.approx(math.pi * 0.02)

    @settings(max_examples=60)
    @given(
        arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)),
        arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
        arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
        st.floats(-10.0, 10.0),
        arrays(np.float64, st.integers(1, 5), elements=st.floats(-10.0, 10.0)),
    )
    def test_point_at_is_the_cross_product_formula_bit_for_bit(self, center, normal, radial, sweep, angles):
        """`point_at` writes normal x u out term by term; its points are
        those of np.cross, to the bit, at one angle and at a stack."""
        length = np.linalg.norm(normal)
        assume(length > 0.1)
        normal = normal / length
        assume(abs(np.linalg.norm(normal) - 1.0) <= 1e-9)
        radial = radial - np.dot(radial, normal) * normal
        assume(np.linalg.norm(radial) > 1e-6)
        try:
            arc = ArcSegment(center, normal, Pose(center + radial), sweep)
        except InvalidInputError:
            assume(False)
        u = arc.start.position - arc.center
        expected = arc.center + np.cos(angles[:, None]) * u + np.sin(angles[:, None]) * np.cross(arc.normal, u)
        assert arc.point_at(angles).tobytes() == expected.tobytes()
        assert arc.point_at(angles[0]).tobytes() == expected[0].tobytes()

    # (the later segment's source, the refusal's message prefix, `line`, `path`)

    def test_translate_preserves_shape(self):
        path = parse_gcode(SLOT_GCODE)
        moved = translate_path(path, np.array([1.0, -2.0, 3.0]))
        assert moved.length == pytest.approx(path.length, rel=1e-12)
        np.testing.assert_allclose(
            moved.segments[0].start.position, path.segments[0].start.position + [1.0, -2.0, 3.0]
        )


class TestJson:
    def test_round_trip_bitwise(self):
        """The fixture's 17-digit floats and json.dumps' shortest ones read
        to the same bits."""
        text = json.dumps(json.loads(SLOT_JSON))
        assert text != SLOT_JSON.rstrip("\n")
        assert path_bits(path_from_json(text)) == path_bits(path_from_json(SLOT_JSON))

    def test_a_negative_zero_written_by_json_dumps_keeps_its_sign_bit(self):
        """Every zero of the slot made -0.0 reads back as -0.0; the slot has
        no negative number, so the sign bits are set exactly at its zeros."""
        doc = json.loads(SLOT_JSON)
        zeros = [keys for _, keys, value in json_elements(doc) if isinstance(value, (int, float)) and value == 0]
        for keys in zeros:
            doc = json_replaced(doc, keys, -0.0)
        text = json.dumps(doc)
        assert text.count("-0.0") == len(zeros) > 0
        read = zip(path_numbers(path_from_json(SLOT_JSON)), path_numbers(path_from_json(text)))
        for (_, numbers), (_, signed) in read:
            assert not np.signbit(numbers).any()
            assert np.array_equal(np.signbit(signed), numbers == 0)
            assert np.array_equal(signed, numbers)


class TestJsonErrors:
    @pytest.mark.parametrize("text, cause", [("not json", json.JSONDecodeError), ("[" * 100000, RecursionError)],
                             ids=["not json", "100000 brackets"])
    def test_text_that_is_not_json_is_refused_with_the_decoder_s_message(self, text, cause):
        with pytest.raises(InvalidInputError) as exc:
            path_from_json(text)
        assert type(exc.value.__cause__) is cause
        assert str(exc.value) == f"path JSON is not valid JSON: {exc.value.__cause__}"
        assert (exc.value.index, exc.value.line, exc.value.path, exc.value.arm, exc.value.file) == (None,) * 5

    @pytest.mark.parametrize("bad", [True, "1", None, float("nan"), float("inf")])
    def test_every_number_refuses_a_non_number(self, bad):
        doc = json.loads(SLOT_JSON)
        numbers = json_numbers(doc)
        assert len(numbers) == 43
        for path, keys in numbers:
            with pytest.raises(InvalidInputError, match=f"^path JSON {re.escape(path)}: "):
                path_from_json(json.dumps(json_replaced(doc, keys, bad)))

    def test_every_object_refuses_an_unknown_key(self):
        doc = json.loads(SLOT_JSON)
        objects = json_objects(doc)
        assert len(objects) == 9
        for path, keys in objects:
            where = f"{path}.bogus" if path else "bogus"
            with pytest.raises(InvalidInputError, match=f"^path JSON {re.escape(where)}: unknown key"):
                path_from_json(json.dumps(json_replaced(doc, keys + ("bogus",), 1)))

    def test_every_object_refuses_a_repeated_key(self):
        doc = json.loads(SLOT_JSON)
        objects = json_objects(doc)
        assert len(objects) == 9
        for path, keys in objects:
            key = next(iter(functools.reduce(operator.getitem, keys, doc)))
            where = f"{path}.{key}" if path else key
            with pytest.raises(InvalidInputError, match=f"^path JSON {re.escape(where)}: repeated key") as exc:
                path_from_json(json_with_a_repeated_key(doc, keys, key, 1))
            assert exc.value.path == where


def per_pose_samples(path, chord_tol, max_step):
    """The sampler discretize replaced, one Pose per sample, kept as a
    reference; its samples as pose rows."""
    poses = [path.segments[0].start]
    for seg in path.segments:
        if isinstance(seg, LinearSegment):
            n = _subdivisions(seg.length / max_step)
            for j in range(1, n):
                p = seg.start.position + (j / n) * (seg.end.position - seg.start.position)
                poses.append(Pose(p, seg.start.quaternion))
            poses.append(seg.end)
        else:
            if seg.sweep == 0.0:
                continue
            r = seg.radius
            dtheta_chord = 2 * math.acos(1 - chord_tol / r) if chord_tol < r else math.pi
            n = _subdivisions(abs(seg.sweep) / min(dtheta_chord, max_step / r))
            for j in range(1, n):
                poses.append(Pose(seg.point_at(seg.sweep * j / n), seg.start.quaternion))
            poses.append(seg.end)
    return np.array([np.concatenate([p.position, p.quaternion]) for p in poses])


TILTED = quat_from_rotvec(np.array([0.3, -0.2, 0.1]))


def _oriented(path, quaternion):
    """`path` with every pose at orientation `quaternion`."""
    segments = []
    for s in path.segments:
        start = Pose(s.start.position, quaternion)
        if isinstance(s, LinearSegment):
            segments.append(LinearSegment(start, Pose(s.end.position, quaternion)))
        else:
            segments.append(ArcSegment(s.center, s.normal, start, s.sweep))
    return ToolPath(tuple(segments), path.feed_mm_min)


def _lines_turning():
    a, b, c = np.zeros(3), np.array([0.031, 0.007, -0.002]), np.array([0.05, 0.1, 0.0])
    return ToolPath((LinearSegment(Pose(a), Pose(b, TILTED)), LinearSegment(Pose(b, TILTED), Pose(c))))


def _zero_sweep_between_lines():
    line = LinearSegment(Pose(np.zeros(3)), Pose(np.array([0.02, 0.0, 0.0])))
    arc = ArcSegment(np.array([0.02, 0.01, 0.0]), np.array([0.0, 0.0, 1.0]),
                     Pose(np.array([0.02, 0.0, 0.0])), 0.0)
    back = LinearSegment(Pose(np.array([0.02, 0.0, 0.0])), Pose(np.array([0.0, 0.003, 0.0])))
    return ToolPath((line, arc, back))


# The benchmark's raster cut after its first two turns.
RASTER_TWO_TURNS = dataclasses.replace(workloads.SIZES["full"][0], passes=3)


class TestDiscretizeRows:
    """discretize equals the per-Pose sampler it replaced, bit for bit."""

    @pytest.mark.parametrize("path", [
        transform_path(parse_gcode(SLOT_GCODE), Pose(WORK_OFFSET)),
        transform_path(parse_gcode(workloads.raster_gcode(RASTER_TWO_TURNS)), Pose(RASTER_OFFSET)),
        _oriented(parse_gcode("G2 X0 Y0 I-50\nG3 X10 Y10 I5 J5\n"), TILTED),
        _lines_turning(),
        _zero_sweep_between_lines(),
    ], ids=["slot", "raster", "g2-g3-tilted", "lines", "zero-sweep"])
    @pytest.mark.parametrize("chord_tol, max_step", [(1e-5, 5e-3), (1e-3, 0.004), (1e-2, 1.0), (1e-6, 3e-4)])
    def test_rows_equal_the_per_pose_sampler(self, path, chord_tol, max_step):
        rows = discretize(path, chord_tol, max_step)
        assert rows.dtype == np.float64
        np.testing.assert_array_equal(rows, per_pose_samples(path, chord_tol, max_step))

    def test_rows_are_pose_rows(self):
        rows = discretize(_oriented(parse_gcode(SLOT_GCODE), -TILTED), 1e-5, 0.005)
        np.testing.assert_array_equal(pose_rows(rows), rows)


# Sample counts far from a power of two (7.4, 45.8, 0.6 before rounding
# up), so roundoff from a rigid motion cannot change them.
_ROUNDOFF_SAFE_PATH = _oriented(parse_gcode("G1 X37 F300\nG3 X37 Y34 J17\nG1 X3\n"), TILTED)


class TestTransformPath:
    @settings(max_examples=40)
    @given(arrays(np.float64, 3, elements=st.floats(-1.7, 1.7)),
           arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
           st.sampled_from([_ROUNDOFF_SAFE_PATH, _lines_turning()]))
    def test_discretized_rows_move_with_the_path(self, rotvec, position, path):
        """Discretizing a path moved by P gives the path's rows moved by P:
        the same row count, and every row within 1e-12."""
        pose = Pose(position, quat_from_rotvec(rotvec))
        rows = discretize(path, pathplan.DEFAULT_CHORD_TOL, pathplan.DEFAULT_MAX_STEP)
        moved = discretize(transform_path(path, pose), pathplan.DEFAULT_CHORD_TOL, pathplan.DEFAULT_MAX_STEP)
        assert moved.shape == rows.shape
        np.testing.assert_allclose(moved, compose_rows(pose, rows), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("offset", [WORK_OFFSET, np.array([1.0 / 3.0, math.pi, -1e-7])],
                             ids=["demo", "awkward"])
    def test_a_translation_adds_the_offset_exactly(self, offset):
        """A translation moves every segment position and arc center by
        exactly `+ offset` and leaves orientations, normals, sweeps and the
        feed as they are, so a work-offset plan does not depend on how the
        path is moved."""
        path = parse_gcode(SLOT_GCODE)
        moved = transform_path(path, Pose(offset))
        assert moved.feed_mm_min == path.feed_mm_min
        for a, b in zip(path.segments, moved.segments, strict=True):
            assert type(b) is type(a)
            poses = [(a.start, b.start)] + ([(a.end, b.end)] if isinstance(a, LinearSegment) else [])
            for p, m in poses:
                np.testing.assert_array_equal(m.position, p.position + offset)
                np.testing.assert_array_equal(m.quaternion, p.quaternion)
            if isinstance(a, ArcSegment):
                np.testing.assert_array_equal(b.center, a.center + offset)
                np.testing.assert_array_equal(b.normal, a.normal)
                assert b.sweep == a.sweep


class TestDiscretize:
    def test_subdivision_counts(self):
        assert _subdivisions(0.5) == 1
        assert _subdivisions(1.0) == 1
        assert _subdivisions(1.1) == 2
        assert _subdivisions(4.0) == 4
        assert _subdivisions(5.0) == 8

    def test_linear_even_spacing(self):
        path = parse_gcode("G1 X40\n")
        rows = discretize(path, 1e-5, 0.010)
        assert rows.shape == (5, 7)
        pts = rows[:, :3]
        np.testing.assert_allclose(np.diff(pts[:, 0]), 0.010, atol=1e-15)

    def test_endpoints_exact(self):
        path = parse_gcode(SLOT_GCODE)
        rows = discretize(path, 1e-5, 0.005)
        np.testing.assert_array_equal(rows[0, :3], path.segments[0].start.position)
        np.testing.assert_array_equal(rows[-1, :3], path.segments[-1].end.position)

    def test_step_bound(self):
        path = parse_gcode(SLOT_GCODE)
        pts = discretize(path, 1e-5, 0.004)[:, :3]
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.max(steps) <= 0.004 + 1e-12

    def test_chordal_deviation_bound(self):
        path = parse_gcode("G3 X0 Y40 J20\n")
        arc = path.segments[0]
        for tol in (1e-3, 1e-4, 1e-5):
            pts = discretize(path, tol, 1.0)[:, :3]
            mids = 0.5 * (pts[:-1] + pts[1:])
            sagitta = arc.radius - np.linalg.norm(mids - arc.center, axis=1)
            assert np.max(sagitta) <= tol + 1e-12

    def test_refinement_doubles_intervals(self):
        # loose chord tolerance so max_step is the binding constraint
        path = parse_gcode(SLOT_GCODE)
        for step in (0.008, 0.002):
            n_coarse = len(discretize(path, 1e-2, step)) - 1
            n_fine = len(discretize(path, 1e-2, step / 2)) - 1
            assert n_fine == 2 * n_coarse

    def test_zero_sweep_arc_contributes_nothing(self):
        line = LinearSegment(Pose(np.zeros(3)), Pose(np.array([0.02, 0.0, 0.0])))
        arc = ArcSegment(
            np.array([0.02, 0.01, 0.0]), np.array([0.0, 0.0, 1.0]),
            Pose(np.array([0.02, 0.0, 0.0])), 0.0,
        )
        poses = discretize(ToolPath((line, arc)), 1e-5, 0.02)
        assert len(poses) == 2

    # (path, the refusal's location: its message prefix, `line`, `path`)
    @pytest.mark.parametrize("path, where", [
        # A 10 mm arc swept 1e9 rad asks for 2**34 samples.
        (lambda: path_from_json(json.dumps({"segments": [
            {"type": "linear", "start": {"position_m": [0, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]},
             "end": {"position_m": [0.01, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}},
            {"type": "arc", "center_m": [0, 0, 0], "normal": [0, 0, 1],
             "start": {"position_m": [0.01, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}, "sweep_rad": 1e9},
        ]})), ("segments[1]: the segment ", None, "segments[1]")),
        # About 1000 km of line at 5 mm steps asks for 2**28 samples.
        (lambda: parse_gcode("G1 X999999999\n"), ("line 1: the segment ", 1, None)),
        # A line to x = 1e308 m is infinitely long.
        (lambda: path_from_json(json.dumps({"segments": [
            {"type": "linear", "start": {"position_m": [-1e308, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]},
             "end": {"position_m": [1e308, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}},
        ]})), ("segments[0]: the segment ", None, "segments[0]")),
        # On a 1e20 m radius neither tolerance resolves an angle step.
        (lambda: path_from_json(json.dumps({"segments": [
            {"type": "arc", "center_m": [-1e20, 0, 0], "normal": [0, 0, 1],
             "start": {"position_m": [0, 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}, "sweep_rad": 0.1},
        ]})), ("segments[0]: the segment ", None, "segments[0]")),
    ], ids=["arc-sweep-1e9", "gcode-x999999999", "line-past-the-float-range", "arc-radius-1e20"])
    def test_sample_cap_names_the_segment_before_allocating(self, path, where):
        prefix, line, at = where
        path = path()
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError) as exc:
                discretize(path, 1e-5, 5e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(exc.value).startswith(f"{prefix}takes the path past {pathplan.MAX_SAMPLES} ")
        assert (exc.value.index, exc.value.line, exc.value.path) == (None, line, at)

    def test_a_moved_path_keeps_the_sources_of_its_segments(self):
        gcode = transform_path(parse_gcode(SLOT_GCODE), Pose(WORK_OFFSET))
        assert [s.source for s in gcode.segments] == [2, 3, 4]
        moved = translate_path(path_from_json(SLOT_JSON), [0.0, 1.0, 0.0])
        assert [s.source for s in moved.segments] == [f"segments[{k}]" for k in range(len(moved.segments))]

    def test_sample_cap_counts_every_row(self, monkeypatch):
        # Two 40 mm lines at 5 mm steps: 1 + 8 + 8 rows.
        path = parse_gcode("G1 X40\nG1 X80\n")
        monkeypatch.setattr(pathplan, "MAX_SAMPLES", 17)
        assert len(discretize(path, 1e-5, 5e-3)) == 17
        monkeypatch.setattr(pathplan, "MAX_SAMPLES", 16)
        with pytest.raises(InvalidInputError, match="^line 2: the segment takes ") as exc:
            discretize(path, 1e-5, 5e-3)
        assert exc.value.line == 2


class TestPlanSync:
    def test_zero_tension_commanded_equals_nominal(self, cfg):
        """At zero tension the commanded arm-2 flange rows `plan_sync`
        solves for are the nominal ones bit for bit, those derived from the
        tool rows, and arm 2's joints reach them within the IK tolerances."""
        prog, nominal, commanded = arm2_targets(lambda: demo_plan(cfg, gcode="G1 X40 F300\n"))
        np.testing.assert_array_equal(commanded, nominal)
        np.testing.assert_array_equal(nominal, planned_flanges(cfg.system, prog)[1])
        err = pose_error(forward_kinematics(cfg.system.arm2, prog.pairs.q2), nominal)
        assert np.all(np.linalg.norm(err[:, :3], axis=1) <= DEFAULT_TOL_POS)
        assert np.all(np.linalg.norm(err[:, 3:], axis=1) <= DEFAULT_TOL_ROT)

    def test_geometry_chain(self, cfg):
        prog = demo_plan(cfg, gcode="G1 X40\n")
        sys_ = cfg.system
        flanges, nominal = planned_flanges(sys_, prog)
        for i in range(0, len(prog.pairs), max(1, len(prog.pairs) // 5)):
            pair = prog.pairs[i]
            r1 = pair.tool_pose @ sys_.tool_offset.inverse()
            np.testing.assert_allclose(flanges[i, :3], r1.position, atol=1e-12)
            r2n = r1 @ sys_.flange2_offset
            np.testing.assert_allclose(nominal[i, :3], r2n.position, atol=1e-12)
            fk1 = forward_kinematics(sys_.arm1, pair.q1)
            assert np.linalg.norm(fk1.position - r1.position) < 1e-6
            # At zero tension the commanded arm-2 flange is the nominal one.
            fk2 = forward_kinematics(sys_.arm2, pair.q2)
            assert np.linalg.norm(fk2.position - r2n.position) < 1e-6

    def test_tension_offset_consistent(self, cfg):
        w = Wrench(np.array([1000.0, 0.0, 0.0]))
        prog = demo_plan(cfg, gcode="G1 X40\n", tension=w)
        sys_ = cfg.system
        _, nominal_rows = planned_flanges(sys_, prog)
        for i in range(0, len(prog.pairs), max(1, len(prog.pairs) // 4)):
            pair = prog.pairs[i]
            nominal = Pose(nominal_rows[i, :3], nominal_rows[i, 3:])
            commanded = forward_kinematics(sys_.arm2, pair.q2)
            q2n = inverse_kinematics(sys_.arm2, nominal, pair.q2)
            dq = quat_multiply(commanded.quaternion, quat_conjugate(nominal.quaternion))
            offset = np.concatenate([commanded.position - nominal.position, rotvec_from_quat(dq)])
            back = predicted_tension(sys_, pair.q1, q2n, offset)
            # IK converges to 1e-6 in pose; the stiff branch magnifies that
            np.testing.assert_allclose(back.as_vector(), w.as_vector(), rtol=1e-6, atol=1e-3)

    @pytest.mark.parametrize("k, value", [(0, 10.0), (1, 10.0), (1, np.nan)])
    def test_a_seed_outside_its_arm_s_limits_is_named(self, cfg, monkeypatch, k, value):
        """The demo slot planned with one arm's q1 seed at 10 rad, or NaN,
        is refused before any IK call, naming the seed, its arm and joint."""
        seeds = [cfg.ik_seed1.copy(), cfg.ik_seed2.copy()]
        seeds[k][0] = value
        lo, hi = (cfg.system.arm1, cfg.system.arm2)[k].joint_limits[0]

        def no_ik(*args, **kwargs):
            raise AssertionError("IK ran on an out-of-limits seed")

        monkeypatch.setattr(pathplan, "inverse_kinematics", no_ik)
        with pytest.raises(InvalidInputError) as exc:
            demo_plan(dataclasses.replace(cfg, ik_seed1=seeds[0], ik_seed2=seeds[1]))
        assert str(exc.value) == (f"ik_seeds[{k}] (arm {k + 1}): seed violates joint limits: "
                                  f"q1 = {value:g} rad outside [{lo:g}, {hi:g}] rad")

    def test_inside_demo_workspace(self, cfg):
        prog = demo_plan(cfg, workspace_box=cfg.workspace_box)
        assert len(prog.pairs) > 10

    def test_ik_failure_mid_path_reports_its_setpoint(self, cfg):
        # The second move leaves the arms' reach at setpoint 135.
        with pytest.raises(InvalidInputError) as exc:
            demo_plan(cfg, gcode="G1 X20\nG1 X-2500\n", tension=Wrench(np.array([1000.0, 0.0, 0.0])))
        cause = exc.value.__cause__
        assert isinstance(cause, UnreachableTargetError)
        assert str(exc.value) == f"IK failed at setpoint 135 (arm 2 nominal): {NOT_CONVERGED.format(cause)}"
        assert (exc.value.index, exc.value.arm) == (135, 2)

    def test_offset_beyond_the_bound_reports_setpoint_0(self, cfg):
        """40 kN asks for about 11 mm of arm-2 offset on the demo slot,
        more than `simulate_deformation` accepts."""
        with pytest.raises(DomainError) as exc:
            demo_plan(cfg, tension=Wrench(np.array([40000.0, 0.0, 0.0])))
        assert exc.value.index == 0
        assert exc.value.gap > MAX_OFFSET
        assert str(exc.value) == f"setpoint 0: commanded arm-2 flange is {exc.value.gap:.3e} m from the nominal one"

    def test_offset_bound_reports_the_first_setpoint_over_it(self, cfg, monkeypatch):
        """Along this line the arm-2 offset grows from row to row; with the
        bound between those of rows 8 and 9, the plan fails at setpoint 9.
        The gaps are those of the commanded and nominal arm-2 flange rows
        that `plan_sync` hands to `check_closure`."""
        plan = functools.partial(demo_plan, cfg, gcode="G1 X-40\n", tension=Wrench(np.array([1000.0, 0.0, 0.0])),
                                 offset=WORK_OFFSET + [0.04, 0.0, 0.0])
        checked = []
        real = pathplan.check_closure

        def check_closure(actual, planned, *args):
            checked.append(np.linalg.norm(actual - planned, axis=-1))
            return real(actual, planned, *args)

        monkeypatch.setattr(pathplan, "check_closure", check_closure)
        plan()
        [gaps] = checked
        assert np.all(np.diff(gaps) > 0)
        monkeypatch.setattr(pathplan, "MAX_OFFSET", (gaps[8] + gaps[9]) / 2)
        with pytest.raises(DomainError) as exc:
            plan()
        assert exc.value.index == 9
        assert exc.value.gap == gaps[9]

    def test_a_tension_offset_refusal_names_its_setpoint(self, cfg, monkeypatch):
        """A Jacobian refused as rank deficient in pass 2 names its
        setpoint, as `simulate_deformation` does, and keeps its type and
        `index`."""
        monkeypatch.setattr(stiffness, "_MIN_SINGULAR_VALUE", 1e9)
        with pytest.raises(DomainError) as exc:
            demo_plan(cfg, tension=Wrench(np.array([1000.0, 0.0, 0.0])))
        assert type(exc.value) is DomainError
        assert (exc.value.index, exc.value.gap) == (0, None)
        assert str(exc.value) == ("setpoint 0: Jacobian is rank deficient (smallest singular value 5.410e-01); "
                                  "deficient direction dominated by axis 'x'")

    def test_two_pass_2_refusals_in_one_block_name_the_first_setpoint(self, cfg, monkeypatch):
        """A nominal closure gap planted at setpoint 30 and a rank-deficient
        arm-2 Jacobian at setpoint 20 of one stiffness block: `_branch`
        checks closure first, so the gap is found first. The pass runs
        again over setpoints 0-29, and the rank deficiency found then is
        raised with its setpoint too."""
        real_closure, real_compliance = stiffness.check_closure, stiffness._compliance_from_jacobian

        def gap_at_30(actual, planned, tol, message):
            actual = np.array(actual)
            if len(actual) > 30:
                actual[30] += [1e-3, 0.0, 0.0]
            return real_closure(actual, planned, tol, message)

        def deficient_at_20(J, k_diag):
            if len(J) > 20:
                raise DomainError("planted rank deficiency", index=20)
            return real_compliance(J, k_diag)

        monkeypatch.setattr(stiffness, "check_closure", gap_at_30)
        monkeypatch.setattr(stiffness, "_compliance_from_jacobian", deficient_at_20)
        with pytest.raises(DomainError) as exc:
            demo_plan(cfg, gcode="G1 X200\n", tension=Wrench(np.array([1000.0, 0.0, 0.0])))
        assert type(exc.value) is DomainError
        assert (exc.value.index, exc.value.gap) == (20, None)
        assert str(exc.value) == "setpoint 20: planted rank deficiency"


# The `_solve` calls of plan_sync, in order: pass 1 of arm 1 and of arm 2's
# nominal pose, pass 3 of arm 2's commanded pose.
ARM1, ARM2_NOMINAL, ARM2_COMMANDED = range(3)
# IK's refusal, by arm, of a target the spy below moves to (10, 0, 0) m.
OUT_OF_REACH = {arm: f"target {dist} m from base exceeds the arm's extent 4.090 m (reach + |flange offset|)"
                for arm, dist in ((1, "10.000"), (2, "5.750"))}
# IK's refusal of a row that ran out of iterations, from its cause.
NOT_CONVERGED = "IK did not converge in 200 iterations (best residual {0.pos_residual:.3e} m, {0.rot_residual:.3e} rad)"


class SeedingCalls:
    """Spies on the IK calls of plan_sync."""

    @staticmethod
    def spy(monkeypatch, plant=None):
        """Record (solve, arm, target shape, seed) of every IK call plan_sync
        makes, `solve` being the `_solve` call it belongs to (ARM1,
        ARM2_NOMINAL or ARM2_COMMANDED). `plant` maps a solve to setpoints
        whose targets are moved out of reach for it."""
        calls, solves = [], []
        real_ik, real_solve = pathplan.inverse_kinematics, pathplan._solve

        def solve(arm, targets, *args):
            rows = [i for i in (plant or {}).get(len(solves), ()) if i < len(targets)]
            solves.append(arm)
            if rows:
                targets = targets.copy()
                targets[rows, :3] = [10.0, 0.0, 0.0]
            return real_solve(arm, targets, *args)

        def ik(arm, target, seed, *args):
            calls.append((len(solves) - 1, arm, np.shape(target), np.array(seed)))
            return real_ik(arm, target, seed, *args)

        monkeypatch.setattr(pathplan, "_solve", solve)
        monkeypatch.setattr(pathplan, "inverse_kinematics", ik)
        return calls

    @staticmethod
    def jacobian_spy(monkeypatch):
        """Record (iterating, shared, jacobian_rows) of every IK call
        plan_sync makes: the rows whose seed misses the tolerance, and so
        take damped least-squares steps; whether one (6,) seed is shared by
        the call's targets; and the rows of the `kinematics.jacobian` calls
        made during the call."""
        calls, jacobian_rows = [], [0]
        real_ik, real_jacobian = pathplan.inverse_kinematics, kinematics.jacobian

        def jacobian(arm, q):
            jacobian_rows[0] += int(np.prod(np.shape(q)[:-1]))
            return real_jacobian(arm, q)

        def ik(arm, target, seed, tol_pos=DEFAULT_TOL_POS, tol_rot=DEFAULT_TOL_ROT, *args):
            err = pose_error(forward_kinematics(arm, np.atleast_2d(seed)), target)
            iterating = np.sum((np.linalg.norm(err[:, :3], axis=1) > tol_pos)
                               | (np.linalg.norm(err[:, 3:], axis=1) > tol_rot))
            before = jacobian_rows[0]
            q = real_ik(arm, target, seed, tol_pos, tol_rot, *args)
            calls.append((int(iterating), np.ndim(seed) == 1, jacobian_rows[0] - before))
            return q

        monkeypatch.setattr(kinematics, "jacobian", jacobian)
        monkeypatch.setattr(pathplan, "inverse_kinematics", ik)
        return calls

    @staticmethod
    def solve_calls(calls, solve):
        """(target shape, seed) of the IK calls of one `_solve`, in order."""
        return [(shape, seed) for k, _, shape, seed in calls if k == solve]

    @staticmethod
    def path_lengths(tool):
        return np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(tool[:, :3], axis=0), axis=1))])


class TestPassOneSeeding(SeedingCalls):
    def test_demo_raster_is_one_call_per_pass(self, cfg, monkeypatch):
        calls = self.spy(monkeypatch)
        prog = demo_plan(cfg, gcode=RASTER_GCODE, tension=Wrench(np.array([1000.0, 0.0, 0.0])),
                         offset=RASTER_OFFSET)
        n = len(prog.pairs)
        assert n == 1345
        arm1, arm2, pass3 = (self.solve_calls(calls, k) for k in (ARM1, ARM2_NOMINAL, ARM2_COMMANDED))
        assert len(arm1) + len(arm2) + len(pass3) == len(calls)
        assert [arm for _, arm, _, _ in calls] == [cfg.system.arm1] * len(arm1) + [cfg.system.arm2] * (
            len(arm2) + len(pass3))
        # Per arm, one call for all 1345 setpoints, every row seeded in
        # closed form on the branch of the caller's seed: it waits for no
        # solution.
        assert pathplan._BLOCK_ROWS >= n
        flanges, nominal = planned_flanges(cfg.system, prog)
        for pass1, arm, seed, targets in ((arm1, cfg.system.arm1, cfg.ik_seed1, flanges),
                                          (arm2, cfg.system.arm2, cfg.ik_seed2, nominal)):
            assert [shape for shape, _ in pass1] == [(n, 7)]
            np.testing.assert_array_equal(pass1[0][1], closed_form_ik(arm, targets, ik_branch(arm, seed), near=seed))
        seeds1, seeds2 = (pass1[0][1] for pass1 in (arm1, arm2))
        # Exact seeds need no DLS step: pass 1 returns them as they are.
        np.testing.assert_array_equal(seeds1, prog.pairs.q1)
        # Arm 2's seeds are its nominal solutions, 0.2 mm from the commanded.
        np.testing.assert_allclose(seeds2, prog.pairs.q2, rtol=0, atol=1e-3)
        # Pass 3: arm 2's commanded pose in one call, seeded in closed form
        # too, so each seed is its solution.
        assert [shape for shape, _ in pass3] == [(n, 7)]
        np.testing.assert_array_equal(np.concatenate([seed for _, seed in pass3]), prog.pairs.q2)

    def test_demo_raster_evaluates_jacobians_only_for_rows_that_iterate(self, cfg, monkeypatch):
        calls = self.jacobian_spy(monkeypatch)
        demo_plan(cfg, gcode=RASTER_GCODE, tension=Wrench(np.array([1000.0, 0.0, 0.0])), offset=RASTER_OFFSET)
        for iterating, shared, rows in calls:
            assert rows == (min(iterating, 1) if shared else iterating)
        # No row iterates: the closed-form seeds of every row, setpoint 0
        # included, meet the tolerance, so IK evaluates no Jacobian.
        assert len(calls) == 3
        assert not any(call[0] for call in calls)
        assert sum(rows for *_, rows in calls) == 0

    @staticmethod
    def wrist_flip(cfg, wrist_limit):
        """The system and a path on which arm 1's wrist passes through q5 =
        0 at the middle setpoint, with arm 1's q4 and q6 limits set to
        +-wrist_limit unless it is None."""
        if wrist_limit is not None:
            limits = cfg.system.arm1.joint_limits.copy()
            limits[[3, 5]] = [-wrist_limit, wrist_limit]
            arm1 = dataclasses.replace(cfg.system.arm1, joint_limits=limits)
            cfg = dataclasses.replace(cfg, system=dataclasses.replace(cfg.system, arm1=arm1))
        tool = compose_rows(forward_kinematics(cfg.system.arm1, np.array([[-0.01, 0.47, 0.128, -1.8, 0.0, 1.8]])),
                            cfg.system.tool_offset)[0]
        path = transform_path(_oriented(parse_gcode("G1 Z40\nG1 Z80\n"), tool[3:]), Pose(tool[:3] - [0.0, 0.0, 0.04]))
        return cfg, path

    @pytest.mark.parametrize("wrist_limit", [None, np.pi + 1.0], ids=["demo", "wide-wrist"])
    def test_a_wrist_flip_falls_back_to_the_block_chain(self, cfg, monkeypatch, wrist_limit):
        """Arm 1's wrist passes through q5 = 0 at the middle setpoint, where
        its closed-form branch turns q4 and q6 by pi: out of the demo arm's
        limits, and with limits of pi + 1 a jump. Either way arm 1's pass 1
        runs the `_seed_blocks` chain, which plans as it does without
        closed-form seeds."""
        cfg, path = self.wrist_flip(cfg, wrist_limit)
        arm1 = cfg.system.arm1
        tension = Wrench(np.array([1000.0, 0.0, 0.0]))
        calls = self.spy(monkeypatch)
        prog = plan_sync(cfg.system, path, tension, (cfg.ik_seed1, cfg.ik_seed2))
        q1 = prog.pairs.q1
        assert np.min(q1[:, 4]) < 0.0 < np.max(q1[:, 4])
        flip = closed_form_ik(arm1, planned_flanges(cfg.system, prog)[0][1:], ik_branch(arm1, q1[0]), near=q1[0])
        within = np.all((flip >= arm1.joint_limits[:, 0]) & (flip <= arm1.joint_limits[:, 1]))
        assert within == (wrist_limit is not None)
        assert np.max(np.abs(np.diff(flip, axis=0))) > pathplan.DEFAULT_JOINT_JUMP_MAX
        blocks = list(pathplan._seed_blocks(prog.pairs.tool_pose[:, :3]))
        pass1 = self.solve_calls(calls, ARM1)
        assert [shape for shape, _ in pass1] == [(b - a, 7) for a, b in blocks]
        for (_, seed), (start, _) in zip(pass1[1:], blocks[1:]):
            np.testing.assert_array_equal(seed, q1[start - 1])
        # Arm 1 without closed-form seeds; arm 2 keeps them.
        real = pathplan._branch_seeds
        monkeypatch.setattr(pathplan, "_branch_seeds",
                            lambda arm, *args: None if arm is arm1 else real(arm, *args))
        again = plan_sync(cfg.system, path, tension, (cfg.ik_seed1, cfg.ik_seed2))
        assert program_to_csv(again) == program_to_csv(prog)

    def test_a_wrist_flip_on_arm_1_leaves_arm_2_its_closed_form_seeds(self, cfg, monkeypatch):
        """Only arm 1's pass 1 goes to `_seed_blocks`; arm 2's nominal pose
        is seeded in closed form on the branch of its `ik_seeds` entry, in
        one call."""
        cfg, path = self.wrist_flip(cfg, None)
        arm2 = cfg.system.arm2
        chains = []
        real = pathplan._seed_blocks

        def seed_blocks(positions):
            chains.append(len(positions))
            return real(positions)

        monkeypatch.setattr(pathplan, "_seed_blocks", seed_blocks)
        calls = self.spy(monkeypatch)
        prog = plan_sync(cfg.system, path, Wrench(np.zeros(3)), (cfg.ik_seed1, cfg.ik_seed2))
        n = len(prog.pairs)
        # One `_seed_blocks` chain, arm 1's.
        assert chains == [n]
        assert len(self.solve_calls(calls, ARM1)) == len(list(real(prog.pairs.tool_pose[:, :3])))
        pass1 = self.solve_calls(calls, ARM2_NOMINAL)
        assert [shape for shape, _ in pass1] == [(n, 7)]
        _, nominal = planned_flanges(cfg.system, prog)
        seeds = closed_form_ik(arm2, nominal, ik_branch(arm2, cfg.ik_seed2), near=cfg.ik_seed2)
        np.testing.assert_array_equal(pass1[0][1], seeds)
        # At zero tension q2 is the nominal solution; its seeds were exact.
        np.testing.assert_array_equal(prog.pairs.q2, seeds)

    @pytest.mark.parametrize("plant, gcode, index, cause", [
        ("unreachable", "G1 X200\n", 40,
         "target 9.905 m from base exceeds the arm's extent 4.090 m (reach + |flange offset|)"),
        ("joint-limit", "G1 Y200\n", 35, NOT_CONVERGED),
    ])
    def test_a_row_without_a_branch_fails_as_the_fallback_does(self, cfg, monkeypatch, plant, gcode, index, cause):
        """A row with no closed-form solution within the joint limits:
        tool row 40 moved out of both arms' reach, or arm 1's q1 capped at
        0.05 rad on a move that turns it further. Arm 1's pass 1 runs the
        `_seed_blocks` chain and raises its refusal, for the first row that
        has none."""
        if plant == "unreachable":
            real_discretize = pathplan.discretize

            def planted(*args):
                tool = real_discretize(*args)
                tool[40, :3] = [10.0, 0.0, 0.0]
                return tool

            monkeypatch.setattr(pathplan, "discretize", planted)
        else:
            limits = cfg.system.arm1.joint_limits.copy()
            limits[0, 1] = 0.05
            arm1 = dataclasses.replace(cfg.system.arm1, joint_limits=limits)
            cfg = dataclasses.replace(cfg, system=dataclasses.replace(cfg.system, arm1=arm1))
        spans, errors = [], []
        for closed_form in (True, False):
            if not closed_form:
                monkeypatch.setattr(pathplan, "_branch_seeds", lambda *args: None)
            calls = self.spy(monkeypatch)
            with pytest.raises(InvalidInputError) as exc:
                demo_plan(cfg, gcode=gcode)
            spans.append([shape[0] for shape, _ in self.solve_calls(calls, ARM1)])
            errors.append((exc.value.index, exc.value.arm, str(exc.value), exc.value.__cause__.index))
        assert spans[0] == spans[1] and spans[0][:2] == [1, 25]
        assert errors[0] == errors[1]
        message = f"IK failed at setpoint {index} (arm 1): {cause.format(exc.value.__cause__)}"
        assert errors[0][:3] == (index, 1, message)

    def test_arm_2_pass_one_stops_at_the_first_failing_setpoint_of_arm_1(self, cfg, monkeypatch):
        """Arm 2's nominal pose is solved only for the setpoints before arm
        1's first failure, so a later failure of arm 2 cannot be named."""
        calls = self.spy(monkeypatch, plant={ARM1: [40], ARM2_NOMINAL: [45]})
        with pytest.raises(InvalidInputError) as exc:
            demo_plan(cfg, gcode="G1 X200\n")
        assert str(exc.value) == f"IK failed at setpoint 40 (arm 1): {OUT_OF_REACH[1]}"
        assert (exc.value.index, exc.value.arm) == (40, 1)
        for solve in (ARM2_NOMINAL, ARM2_COMMANDED):
            # Each solve re-solves the rows before its failing one, if any.
            shapes = [shape for shape, _ in self.solve_calls(calls, solve)]
            assert sum(rows for rows, _ in shapes) == 40
        assert [shape for shape, _ in self.solve_calls(calls, ARM2_NOMINAL)] == [(40, 7)]

    def test_a_seed_off_the_paths_wrist_branch_solves_setpoint_0_first(self, cfg, monkeypatch):
        """Arm 1's seed at q5 = 0, a home pose, lies on wrist branch 0; the
        slot needs branch 1, and branch 0 puts setpoint 0's q4 past its
        limit of 3 rad. So arm 1's pass 1 solves setpoint 0 from the seed
        by damped least squares, then the other rows in one call seeded in
        closed form on the branch of that solution."""
        seed = cfg.ik_seed1.copy()
        seed[4] = 0.0
        cfg = dataclasses.replace(cfg, ik_seed1=seed)
        arm1 = cfg.system.arm1
        calls = self.spy(monkeypatch)
        prog = demo_plan(cfg)
        flanges, _ = planned_flanges(cfg.system, prog)
        q1 = prog.pairs.q1
        assert (ik_branch(arm1, seed) & 1, ik_branch(arm1, q1[0]) & 1) == (0, 1)
        first = closed_form_ik(arm1, flanges[:1], ik_branch(arm1, seed), near=seed)[0]
        assert first[3] > arm1.joint_limits[3, 1]
        pass1 = self.solve_calls(calls, ARM1)
        assert [shape for shape, _ in pass1] == [(1, 7), (96, 7)]
        np.testing.assert_array_equal(pass1[0][1], seed)
        np.testing.assert_array_equal(q1[0], inverse_kinematics(arm1, flanges[:1], seed)[0])
        np.testing.assert_array_equal(
            pass1[1][1], pathplan._branch_seeds(arm1, flanges[1:], q1[0], pathplan.DEFAULT_JOINT_JUMP_MAX))

    @pytest.mark.parametrize("gcode, offset", [(SLOT_GCODE, WORK_OFFSET), (TINY_RASTER_GCODE, RASTER_OFFSET)],
                             ids=["slot", "tiny-raster"])
    def test_pass_one_returns_the_closed_form_solutions_bit_for_bit(self, cfg, gcode, offset):
        """Setpoint 0 included, so FK of it meets its target to rounding,
        not only to tol_pos."""
        arm1 = cfg.system.arm1
        prog = demo_plan(cfg, gcode=gcode, offset=offset, tension=Wrench(np.array([1000.0, 0.0, 0.0])))
        flanges, _ = planned_flanges(cfg.system, prog)
        expected = closed_form_ik(arm1, flanges, ik_branch(arm1, cfg.ik_seed1), near=cfg.ik_seed1)
        np.testing.assert_array_equal(prog.pairs.q1, expected)
        err = pose_error(forward_kinematics(arm1, prog.pairs.q1[:1]), flanges[:1])
        assert np.linalg.norm(err[0, :3]) <= 1e-12

    def test_a_row_exactly_80_mm_after_its_seed_row_belongs_to_the_block(self):
        # 0.04 + 0.04 == 0.08 in floating point: row 2 lies exactly
        # _SEED_SPAN_M after row 0, the seed row of the second block.
        x = np.array([0.0, 0.04, 0.08, 0.1, 0.2, 0.3])
        assert x[2] - x[1] + x[1] - x[0] == pathplan._SEED_SPAN_M
        blocks = list(pathplan._seed_blocks(np.column_stack([x, np.zeros((6, 2))])))
        assert blocks == [(0, 1), (1, 3), (3, 4), (4, 5), (5, 6)]

    @pytest.mark.parametrize("gcode, index, arm, stage", [
        ("G1 X20\nG1 X2500\n", 192, 1, ""),
        ("G1 X20\nG1 X-2500\n", 135, 2, " nominal"),
    ])
    def test_failure_names_the_setpoint_and_the_arm(self, cfg, gcode, index, arm, stage):
        with pytest.raises(InvalidInputError) as exc:
            demo_plan(cfg, gcode=gcode, tension=Wrench(np.array([1000.0, 0.0, 0.0])))
        cause = exc.value.__cause__
        assert isinstance(cause, UnreachableTargetError)
        assert str(exc.value) == f"IK failed at setpoint {index} (arm {arm}{stage}): {NOT_CONVERGED.format(cause)}"
        assert (exc.value.index, exc.value.arm) == (index, arm)

    @pytest.mark.parametrize("bad, index, arm, stage", [
        ({ARM1: 40}, 40, 1, ""),
        ({ARM2_NOMINAL: 40}, 40, 2, " nominal"),
        ({ARM1: 40, ARM2_NOMINAL: 40}, 40, 1, ""),
        ({ARM1: 41, ARM2_NOMINAL: 40}, 40, 2, " nominal"),
        ({ARM1: 40, ARM2_NOMINAL: 41}, 40, 1, ""),
    ])
    def test_first_failing_setpoint_wins_arm_1_on_a_tie(self, cfg, monkeypatch, bad, index, arm, stage):
        """Setpoints are moved out of reach per pass-1 solve (solve:
        setpoint); the earliest setpoint is named, arm 1 before arm 2 when
        both fail there."""
        self.spy(monkeypatch, plant={solve: [i] for solve, i in bad.items()})
        with pytest.raises(InvalidInputError) as exc:
            demo_plan(cfg, gcode="G1 X200\n")
        assert str(exc.value) == f"IK failed at setpoint {index} (arm {arm}{stage}): {OUT_OF_REACH[arm]}"
        assert (exc.value.index, exc.value.arm) == (index, arm)

    def test_commanded_failure_in_a_later_block_reports_its_setpoint(self, cfg, monkeypatch):
        """Pass 3 solves one IK call per _BLOCK_ROWS rows, here 64; a row
        that fails in the second call is named by its setpoint, not its
        row in the call, and that call is not made again for the rows
        before its failing one."""
        monkeypatch.setattr(pathplan, "_BLOCK_ROWS", 64)
        calls = self.spy(monkeypatch, plant={ARM2_COMMANDED: [pathplan._BLOCK_ROWS + 10]})
        with pytest.raises(InvalidInputError) as exc:
            demo_plan(cfg, gcode="G1 X200\nG1 Y20\n", max_step=0.001,
                      tension=Wrench(np.array([1000.0, 0.0, 0.0])))
        # Two blocks, one IK call each.
        pass3 = [shape for shape, _ in self.solve_calls(calls, ARM2_COMMANDED)]
        assert pass3 == [(pathplan._BLOCK_ROWS, 7)] * 2
        assert (exc.value.index, exc.value.arm) == (pathplan._BLOCK_ROWS + 10, 2)
        assert str(exc.value) == f"IK failed at setpoint {exc.value.index} (arm 2 commanded): {OUT_OF_REACH[2]}"


class TestSolveChunks:
    """`_solve` cuts a block into IK calls of at most _BLOCK_ROWS rows."""

    @staticmethod
    def solve(arm, targets, seeds, chunk):
        """`_solve` with IK calls of at most `chunk` rows over three blocks:
        row 0 from seeds[0], rows 1-4 from row 0's solution and the rest
        each from its own seed."""

        def blocks(q):
            yield 0, 1, seeds[0]
            yield 1, 5, q[0]
            yield 5, len(targets), seeds[5:]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pathplan, "_BLOCK_ROWS", chunk)
            return pathplan._solve(arm, targets, blocks, (DEFAULT_TOL_POS, DEFAULT_TOL_ROT, 200), 1)

    @settings(max_examples=12)
    @given(st.data())
    def test_q_is_bit_identical_for_every_chunk_size(self, cfg, demo_program, data):
        """IK solves its rows independently, so q, and a failure, are the
        same for any chunk size from 1 to N: arm 1's flanges of the demo
        slot, seeds 0.01 rad off the program's solutions so that every row
        iterates, and perhaps one row moved out of reach."""
        arm = cfg.system.arm1
        targets, _ = planned_flanges(cfg.system, demo_program)
        n = len(targets)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
        seeds = np.clip(demo_program.pairs.q1 + rng.normal(0.0, 0.01, (n, 6)), *arm.joint_limits.T)
        unreachable = data.draw(st.none() | st.integers(0, n - 1), label="unreachable row")
        if unreachable is not None:
            targets = targets.copy()
            targets[unreachable, :3] = [10.0, 0.0, 0.0]
        chunk = data.draw(st.integers(1, n), label="chunk")
        (q, failure), (q_chunked, failure_chunked) = (self.solve(arm, targets, seeds, k) for k in (n, chunk))
        assert q.shape == q_chunked.shape and q.tobytes() == q_chunked.tobytes()
        assert (failure is None) == (unreachable is None)
        if failure is not None:
            assert failure.index == failure_chunked.index == unreachable
            assert str(failure) == str(failure_chunked)


class TestFallbackSeeding(SeedingCalls):
    """The `_seed_blocks` chain of pass 1, on the demo cell with d5 = 1 mm:
    arms without a closed-form IK."""

    @pytest.fixture(scope="class")
    def cfg(self, cfg):
        arms = []
        for arm in (cfg.system.arm1, cfg.system.arm2):
            rows = arm.dh_rows.copy()
            rows[4, 2] = 1e-3
            arms.append(dataclasses.replace(arm, dh_rows=rows))
        assert not any(arm.has_closed_form_ik for arm in arms)
        return dataclasses.replace(cfg, system=dataclasses.replace(cfg.system, arm1=arms[0], arm2=arms[1]))

    def test_blocks_seeded_by_the_block_before(self, cfg, monkeypatch):
        calls = self.spy(monkeypatch)
        prog = demo_plan(cfg, gcode="G1 X200\n")
        # 65 setpoints 3.125 mm apart: setpoint 0 alone, then every row at
        # most 80 mm of path after the last row of the block before.
        bounds = [(0, 1), (1, 26), (26, 51), (51, 65)]
        assert len(prog.pairs) == 65
        arm1, arm2 = self.solve_calls(calls, ARM1), self.solve_calls(calls, ARM2_NOMINAL)
        assert len(arm1) + len(arm2) == len(calls) - 1  # and one pass-3 call
        s = self.path_lengths(prog.pairs.tool_pose)
        # q2 is the nominal solution at zero tension.
        for pass1, seed, q in ((arm1, cfg.ik_seed1, prog.pairs.q1), (arm2, cfg.ik_seed2, prog.pairs.q2)):
            assert [shape for shape, _ in pass1] == [(stop - start, 7) for start, stop in bounds]
            np.testing.assert_array_equal(pass1[0][1], seed)
            for (_, seed), (start, stop) in zip(pass1[1:], bounds[1:]):
                np.testing.assert_array_equal(seed, q[start - 1])
                assert s[stop - 1] - s[start - 1] <= pathplan._SEED_SPAN_M
                assert stop == len(s) or s[stop] - s[start - 1] > pathplan._SEED_SPAN_M

    def test_a_shared_seed_gets_one_jacobian_row(self, cfg, monkeypatch):
        calls = self.jacobian_spy(monkeypatch)
        prog = demo_plan(cfg, gcode="G1 X200\n", tension=Wrench(np.array([1000.0, 0.0, 0.0])))
        # Pass 1: setpoint 0 and three blocks per arm, each seeded by one
        # shared seed, from which every row iterates; pass 3: one seed per
        # row, each row's nominal solution, off its commanded target.
        assert [(iterating, shared) for iterating, shared, _ in calls] == (
            [(1, True), (25, True), (25, True), (14, True)] * 2 + [(len(prog.pairs), False)])
        assert [rows for *_, rows in calls] == [1] * 8 + [len(prog.pairs)]

    def test_arc_samples_do_not_cut_blocks_short(self, cfg, monkeypatch):
        calls = self.spy(monkeypatch)
        prog = demo_plan(cfg)
        s = self.path_lengths(prog.pairs.tool_pose)
        sizes = [shape[0] for shape, _ in self.solve_calls(calls, ARM1)]
        assert [shape[0] for shape, _ in self.solve_calls(calls, ARM2_NOMINAL)] == sizes
        assert sum(sizes) == len(s) and sizes[0] == 1
        stops = np.cumsum(sizes)
        for start, stop in zip(stops[:-1], stops[1:]):
            assert s[stop - 1] - s[start - 1] <= pathplan._SEED_SPAN_M
            assert stop == len(s) or s[stop] - s[start - 1] > pathplan._SEED_SPAN_M
        # The semicircle's short chords put more rows in a block than
        # 80 mm / max_step.
        assert max(sizes) > pathplan._SEED_SPAN_M // pathplan.DEFAULT_MAX_STEP

    def test_falls_back_to_row_by_row(self, cfg, monkeypatch):
        calls = self.spy(monkeypatch)
        prog = demo_plan(cfg, gcode="G1 X400\n", max_step=pathplan._SEED_SPAN_M)
        monkeypatch.undo()
        arm1, arm2 = self.solve_calls(calls, ARM1), self.solve_calls(calls, ARM2_NOMINAL)
        assert len(arm1) == len(arm2) == len(prog.pairs) > 2
        assert all(shape == (1, 7) for shape, _ in arm1 + arm2)
        q1, q2 = prog.pairs.q1, prog.pairs.q2  # q2 is the nominal solution at zero tension
        flanges, nominal = (
            [Pose(row[:3], row[3:]) for row in rows] for rows in planned_flanges(cfg.system, prog))
        for i in range(1, len(prog.pairs)):
            np.testing.assert_array_equal(arm1[i][1], q1[i - 1])
            np.testing.assert_array_equal(arm2[i][1], q2[i - 1])
            np.testing.assert_array_equal(q1[i], inverse_kinematics(cfg.system.arm1, flanges[i], q1[i - 1]))
            np.testing.assert_array_equal(q2[i], inverse_kinematics(cfg.system.arm2, nominal[i], q2[i - 1]))
        # Pass 3 seeds each commanded solve with its nominal solution; at
        # zero tension the commanded pose is the nominal one.
        q2n = inverse_kinematics(cfg.system.arm2, nominal[2], q2[1])
        np.testing.assert_array_equal(q2[2], inverse_kinematics(cfg.system.arm2, nominal[2], q2n))


# The failure sources of plan_sync in pass order: the `_solve` calls, whose
# targets a spy moves out of reach; TENSION_OFFSETS, planted at setpoint k
# by a `tension_offset` that refuses row k as rank deficient; and
# OFFSET_BOUND, planted at setpoint k by setting MAX_OFFSET between the gaps
# of setpoints k - 1 and k; each with the type, `arm` and message of the
# error it raises at setpoint k, whose arm-2 offset gap is `gap`. The two
# DomainError sources differ in message and `gap`, which only OFFSET_BOUND's
# carries.
TENSION_OFFSETS = "tension offsets"
OFFSET_BOUND = "offset bound"
PASS_ORDER = [
    (ARM1, InvalidInputError, 1, "IK failed at setpoint {k} (arm 1): " + OUT_OF_REACH[1]),
    (ARM2_NOMINAL, InvalidInputError, 2, "IK failed at setpoint {k} (arm 2 nominal): " + OUT_OF_REACH[2]),
    (TENSION_OFFSETS, DomainError, None, "setpoint {k}: planted rank deficiency"),
    (OFFSET_BOUND, DomainError, None, "setpoint {k}: commanded arm-2 flange is {gap:.3e} m from the nominal one"),
    (ARM2_COMMANDED, InvalidInputError, 2, "IK failed at setpoint {k} (arm 2 commanded): " + OUT_OF_REACH[2]),
]
# Setpoints a failure is planted at, few so that sources often tie.
PLANTED_SETPOINTS = (0, 1, 9, 16)


class TestCrossPassPrecedence(SeedingCalls):
    """Failures planted in several passes of one plan, along the line of
    `test_offset_bound_reports_the_first_setpoint_over_it`, whose arm-2
    offset gap grows from row to row."""

    W = Wrench(np.array([1000.0, 0.0, 0.0]))

    @staticmethod
    def refusing_row(i, sys, q1, q2, desired):
        """`tension_offset`, refusing row i of the stack as rank deficient."""
        if i < len(q1):
            raise DomainError("planted rank deficiency", index=i)
        return stiffness.tension_offset(sys, q1, q2, desired)

    @pytest.fixture(scope="class")
    def path(self):
        return transform_path(parse_gcode("G1 X-40\n"), Pose(WORK_OFFSET + [0.04, 0.0, 0.0]))

    @pytest.fixture(scope="class")
    def gaps(self, cfg, path):
        """The arm-2 offset gap of each setpoint: the distance between its
        commanded and nominal flange positions."""
        program, nominal, commanded = arm2_targets(
            lambda: plan_sync(cfg.system, path, self.W, (cfg.ik_seed1, cfg.ik_seed2)))
        gaps = np.linalg.norm(commanded[:, :3] - nominal[:, :3], axis=1)
        assert len(gaps) == len(program.pairs) == PLANTED_SETPOINTS[-1] + 1
        assert np.all(np.diff(gaps) > 0)
        return gaps

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.integers(0, len(PASS_ORDER) - 1), st.sampled_from(PLANTED_SETPOINTS), min_size=1))
    @example({0: 9, 1: 9, 2: 9, 3: 9, 4: 9})
    @example({1: 1, 3: 1, 4: 1})
    @example({3: 16, 4: 16})
    @example({0: 16, 4: 0})
    @example({1: 9, 3: 1})
    @example({2: 9, 3: 9, 4: 9})
    @example({1: 9, 2: 9})
    @example({0: 9, 2: 1})
    def test_first_failing_setpoint_wins_the_earlier_pass_on_a_tie(self, cfg, path, gaps, planted):
        """`planted` maps a source (its position in PASS_ORDER) to the
        setpoint it fails at. The error is the smallest setpoint's, the
        earliest source's in pass order when several fail there."""
        k, first = min((k, source) for source, k in planted.items())
        _, error, arm, message = PASS_ORDER[first]
        plant = {PASS_ORDER[source][0]: [i] for source, i in planted.items()}
        with pytest.MonkeyPatch.context() as mp:
            if OFFSET_BOUND in plant:
                [i] = plant.pop(OFFSET_BOUND)
                mp.setattr(pathplan, "MAX_OFFSET", (gaps[i - 1] + gaps[i]) / 2 if i else gaps[0] / 2)
            if TENSION_OFFSETS in plant:
                [i] = plant.pop(TENSION_OFFSETS)
                mp.setattr(pathplan, "tension_offset", functools.partial(self.refusing_row, i))
            self.spy(mp, plant=plant)
            with pytest.raises(error) as exc:
                plan_sync(cfg.system, path, self.W, (cfg.ik_seed1, cfg.ik_seed2))
        assert type(exc.value) is error
        assert (exc.value.index, exc.value.arm) == (k, arm)
        assert getattr(exc.value, "gap", None) == (gaps[k] if PASS_ORDER[first][0] == OFFSET_BOUND else None)
        assert str(exc.value) == message.format(k=k, gap=gaps[k])


class TestProgramCsv:
    def test_round_trip_bitwise(self, cfg):
        prog = demo_plan(
            cfg, gcode="G1 X20 F250\n", tension=Wrench(np.array([500.0, -20.0, 3.0]))
        )
        text = program_to_csv(prog)
        back = program_from_csv(text)
        assert program_to_csv(back) == text
        assert back.feed_mm_min == prog.feed_mm_min
        np.testing.assert_array_equal(back.tension.as_vector(), prog.tension.as_vector())
        for a, b in zip(prog.pairs, back.pairs):
            assert a.index == b.index
            np.testing.assert_array_equal(a.q1, b.q1)
            np.testing.assert_array_equal(a.q2, b.q2)
            np.testing.assert_array_equal(a.tool_pose.position, b.tool_pose.position)
            np.testing.assert_array_equal(a.tool_pose.quaternion, b.tool_pose.quaternion)
        assert back.cell_sha256 == prog.cell_sha256 == cell_sha256(cfg.system)


class TestSetpoints:
    def test_pairs_round_trip_through_the_stack(self, demo_program):
        sp = demo_program.pairs
        pairs = list(sp)
        assert len(pairs) == len(sp)
        for i, pair in enumerate(pairs):
            assert pair.index == i
            np.testing.assert_array_equal(pair.tool_pose.position, sp.tool_pose[i, :3])
            np.testing.assert_array_equal(pair.tool_pose.quaternion, sp.tool_pose[i, 3:])
            np.testing.assert_array_equal(pair.q1, sp.q1[i])
            np.testing.assert_array_equal(pair.q2, sp.q2[i])

    def test_indexing_and_slicing(self, demo_program):
        sp = demo_program.pairs
        n = len(sp)
        assert sp[-1].index == sp[n - 1].index == n - 1
        assert sp[-n].index == 0
        np.testing.assert_array_equal(sp[-1].q1, sp.q1[n - 1])
        assert [sp[i].index for i in range(2, 9, 3)] == [2, 5, 8]
        for key in (n, -n - 1):
            with pytest.raises(IndexError):
                sp[key]
        with pytest.raises(TypeError):
            sp[1:3]

    def test_a_setpoint_index_is_its_row(self, demo_program):
        """Setpoints hold three arrays and no index; a fourth array is refused."""
        sp = demo_program.pairs
        assert not hasattr(sp, "index")
        with pytest.raises(TypeError):
            Setpoints(np.arange(len(sp)), sp.tool_pose, sp.q1, sp.q2)

    def test_a_zero_feed_is_taken(self, demo_program):
        assert parse_gcode("G1 X10 F0\n").feed_mm_min == 0.0
        line = LinearSegment(Pose(np.zeros(3)), Pose(np.array([0.01, 0.0, 0.0])))
        assert ToolPath((line,), feed_mm_min=0.0).feed_mm_min == 0.0
        assert dataclasses.replace(demo_program, feed_mm_min=-0.0).feed_mm_min == 0.0

    def test_pose_rows_check_and_sign_as_pose(self):
        q = np.array([-0.5, 0.5, -0.5, 0.5])
        rows = pose_rows([[0.1, 0.2, 0.3, *q], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
        pose = Pose(np.array([0.1, 0.2, 0.3]), q)
        np.testing.assert_array_equal(rows[0, 3:], pose.quaternion)


class TestProgramCsvRows:

    def test_twenty_columns_and_the_cell(self, cfg, demo_program):
        lines = program_to_csv(demo_program).splitlines()
        assert lines[4] == f"# cell_sha256={cell_sha256(cfg.system)}"
        assert lines[5] == ",".join(pathplan._COLUMNS)
        assert len(pathplan._COLUMNS) == 20
        assert all(len(line.split(",")) == 20 for line in lines[6:])
