"""Toolpaths (linear + circular segments), a minimal G-code subset parser,
chord-tolerance discretization and synchronized dual-robot setpoint
generation with tension offsets.

G-code is parsed in mm / mm/min; everything internal is m / rad. The tool
orientation is held fixed along the path (3-axis milling).
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .csvtable import meta_float, meta_floats, read_table, write_table
from .errors import (
    ClosureError,
    ContinuityError,
    InvalidInputError,
    MalformedArcError,
    PlanError,
    SingularConfigurationError,
    UnreachableTargetError,
    UnsupportedGcodeError,
    WorkspaceError,
)
from .geometry import Pose, pose_rows, quat_from_rotvec, quat_multiply
from .kinematics import DEFAULT_MAX_ITER, DEFAULT_TOL_POS, DEFAULT_TOL_ROT, inverse_kinematics
from .stiffness import CoupledSystem, Wrench, tension_offset

_POSITION_TOL = 1e-9
_ARC_RADIUS_TOL = 10e-6  # 10 um start/end radius mismatch
DEFAULT_CHORD_TOL = 1e-5  # m
DEFAULT_MAX_STEP = 5e-3  # m
DEFAULT_JOINT_JUMP_MAX = 0.2  # rad, guards against IK branch flips


@dataclass(frozen=True)
class LinearSegment:
    start: Pose
    end: Pose

    @property
    def length(self):
        return float(np.linalg.norm(self.end.position - self.start.position))


@dataclass(frozen=True)
class ArcSegment:
    """Circular arc about `center` in the plane normal to `normal`,
    starting at `start` and sweeping `sweep` rad (sign by right-hand rule
    about the normal)."""

    center: np.ndarray
    normal: np.ndarray
    start: Pose
    sweep: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        n = np.asarray(self.normal, dtype=float)
        if c.shape != (3,) or n.shape != (3,):
            raise InvalidInputError("arc center and normal must be 3-vectors")
        if abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise InvalidInputError("arc normal must be unit length (1e-9)")
        r = self.start.position - c
        if abs(float(np.dot(r, n))) > _POSITION_TOL + 1e-12 * np.linalg.norm(r):
            raise InvalidInputError("arc start does not lie in the plane through the center")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "normal", n)

    @property
    def radius(self):
        return float(np.linalg.norm(self.start.position - self.center))

    def point_at(self, angle):
        u = self.start.position - self.center
        v = np.cross(self.normal, u)
        return self.center + math.cos(angle) * u + math.sin(angle) * v

    def pose_at(self, angle):
        return Pose(self.point_at(angle), self.start.quaternion)

    @property
    def end(self) -> Pose:
        return self.pose_at(self.sweep)

    @property
    def length(self):
        return self.radius * abs(self.sweep)


@dataclass(frozen=True)
class ToolPath:
    segments: tuple
    feed_mm_min: float = 0.0

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise InvalidInputError("toolpath has no segments")
        for prev, cur in zip(segs, segs[1:]):
            gap = np.linalg.norm(cur.start.position - prev.end.position)
            if gap > _POSITION_TOL:
                raise InvalidInputError(f"toolpath is not C0-continuous (gap {gap:.3e} m)")
        object.__setattr__(self, "segments", segs)

    @property
    def length(self):
        return sum(s.length for s in self.segments)


# ---------------------------------------------------------------------------
# G-code subset parser

_WORD_RE = re.compile(r"([A-Za-z])\s*([+-]?(?:\d+\.?\d*|\.\d+))")
_SUPPORTED_LETTERS = set("GXYZIJKF")
_MM = 1e-3


def _strip_comments(line):
    line = re.sub(r"\([^)]*\)", " ", line)
    return line.split(";", 1)[0]


def parse_gcode(text, orientation=None) -> ToolPath:
    """Parse the supported G-code subset into a ToolPath.

    Supported words: G0/G1 (linear), G2/G3 (cw/ccw arc with I/J/K center
    offsets), X/Y/Z coordinates in mm, F feed in mm/min. Motion words are
    modal. Anything else raises with the offending line number.
    """
    if not text or not text.strip():
        raise InvalidInputError("G-code text is empty")
    if orientation is None:
        orientation = np.array([1.0, 0.0, 0.0, 0.0])
    pos = np.zeros(3)
    motion = None
    feed = 0.0
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comments(raw).strip()
        if not line:
            continue
        words = []
        consumed = 0
        for m in _WORD_RE.finditer(line):
            if line[consumed : m.start()].strip():
                raise UnsupportedGcodeError(
                    f"line {lineno}: unparseable text {line[consumed:m.start()]!r}", line=lineno
                )
            words.append((m.group(1).upper(), float(m.group(2))))
            consumed = m.end()
        if line[consumed:].strip():
            raise UnsupportedGcodeError(
                f"line {lineno}: unparseable text {line[consumed:]!r}", line=lineno
            )
        coords = {}
        center_offset = {}
        for letter, value in words:
            if letter not in _SUPPORTED_LETTERS:
                raise UnsupportedGcodeError(f"line {lineno}: unsupported word {letter}{value:g}", line=lineno)
            if letter == "G":
                if value not in (0.0, 1.0, 2.0, 3.0):
                    raise UnsupportedGcodeError(f"line {lineno}: unsupported G{value:g}", line=lineno)
                motion = int(value)
            elif letter == "F":
                feed = value
            elif letter in "XYZ":
                coords["XYZ".index(letter)] = value * _MM
            else:
                center_offset["IJK".index(letter)] = value * _MM
        if not coords and not center_offset:
            continue
        if motion is None:
            raise UnsupportedGcodeError(
                f"line {lineno}: coordinates before any motion word", line=lineno
            )
        target = pos.copy()
        for axis, value in coords.items():
            target[axis] = value
        if motion in (0, 1):
            if center_offset:
                raise UnsupportedGcodeError(
                    f"line {lineno}: I/J/K only valid with G2/G3", line=lineno
                )
            if np.linalg.norm(target - pos) > 0:
                segments.append(LinearSegment(Pose(pos, orientation), Pose(target, orientation)))
        else:
            if not center_offset:
                raise UnsupportedGcodeError(f"line {lineno}: arc without I/J/K center", line=lineno)
            center = pos.copy()
            for axis, value in center_offset.items():
                center[axis] += value
            r_start = np.linalg.norm(pos - center)
            r_end = np.linalg.norm(target - center)
            if abs(r_start - r_end) > _ARC_RADIUS_TOL:
                raise MalformedArcError(
                    f"line {lineno}: arc radii differ by {abs(r_start - r_end) * 1e6:.1f} um "
                    f"(start {r_start * 1e3:.3f} mm, end {r_end * 1e3:.3f} mm)",
                    line=lineno,
                )
            if r_start == 0:
                raise MalformedArcError(f"line {lineno}: arc has zero radius", line=lineno)
            theta_s = math.atan2(pos[1] - center[1], pos[0] - center[0])
            theta_e = math.atan2(target[1] - center[1], target[0] - center[0])
            if motion == 3:  # counter-clockwise about +Z
                sweep = (theta_e - theta_s) % (2 * math.pi)
                if sweep == 0.0:
                    sweep = 2 * math.pi
            else:  # clockwise
                sweep = -((theta_s - theta_e) % (2 * math.pi))
                if sweep == 0.0:
                    sweep = -2 * math.pi
            segments.append(
                ArcSegment(center, np.array([0.0, 0.0, 1.0]), Pose(pos, orientation), sweep)
            )
            # Snap the running position to the arc's computed endpoint so the
            # chain stays continuous to machine precision.
            target = segments[-1].end.position
        pos = target
    if not segments:
        raise InvalidInputError("G-code produced no motion segments")
    return ToolPath(tuple(segments), feed_mm_min=feed)


def translate_path(path: ToolPath, delta) -> ToolPath:
    """Shift a whole path by a world-frame vector (work offset)."""
    delta = np.asarray(delta, dtype=float)
    segments = []
    for s in path.segments:
        if isinstance(s, LinearSegment):
            segments.append(
                LinearSegment(
                    Pose(s.start.position + delta, s.start.quaternion),
                    Pose(s.end.position + delta, s.end.quaternion),
                )
            )
        else:
            segments.append(
                ArcSegment(
                    s.center + delta,
                    s.normal,
                    Pose(s.start.position + delta, s.start.quaternion),
                    s.sweep,
                )
            )
    return ToolPath(tuple(segments), feed_mm_min=path.feed_mm_min)


# ---------------------------------------------------------------------------
# Native JSON format (17-significant-digit floats, bit-exact round trip)


def _fmt(x):
    return format(float(x), ".17g")


def _dump_json(obj):
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int,)):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    return json.dumps(obj)


def _pose_to_dict(p: Pose):
    return {"position_m": list(p.position), "quaternion_wxyz": list(p.quaternion)}


def _pose_from_dict(d):
    return Pose(np.array(d["position_m"], dtype=float), np.array(d["quaternion_wxyz"], dtype=float))


def path_to_json(path: ToolPath) -> str:
    segs = []
    for s in path.segments:
        if isinstance(s, LinearSegment):
            segs.append({"type": "linear", "start": _pose_to_dict(s.start), "end": _pose_to_dict(s.end)})
        else:
            segs.append(
                {
                    "type": "arc",
                    "center_m": list(s.center),
                    "normal": list(s.normal),
                    "start": _pose_to_dict(s.start),
                    "sweep_rad": float(s.sweep),
                }
            )
    return _dump_json({"feed_mm_min": float(path.feed_mm_min), "segments": segs}) + "\n"


def path_from_json(text) -> ToolPath:
    doc = json.loads(text)
    segments = []
    for s in doc["segments"]:
        if s["type"] == "linear":
            segments.append(LinearSegment(_pose_from_dict(s["start"]), _pose_from_dict(s["end"])))
        elif s["type"] == "arc":
            segments.append(
                ArcSegment(
                    np.array(s["center_m"], dtype=float),
                    np.array(s["normal"], dtype=float),
                    _pose_from_dict(s["start"]),
                    float(s["sweep_rad"]),
                )
            )
        else:
            raise InvalidInputError(f"unknown segment type {s['type']!r}")
    return ToolPath(tuple(segments), feed_mm_min=float(doc.get("feed_mm_min", 0.0)))


# ---------------------------------------------------------------------------
# Discretization


def _subdivisions(x):
    """Smallest power of two >= x (>= 1), so that refinement by halving the
    step exactly doubles the interval count."""
    if x <= 1.0:
        return 1
    return 1 << math.ceil(math.log2(x))


def discretize(path: ToolPath, chord_tol, max_step):
    """Sample poses along the path: chordal deviation on arcs <= chord_tol,
    consecutive samples <= max_step apart, endpoints exact."""
    if chord_tol <= 0 or max_step <= 0:
        raise InvalidInputError("chord_tol and max_step must be positive")
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
            if chord_tol < r:
                dtheta_chord = 2 * math.acos(1 - chord_tol / r)
            else:
                dtheta_chord = math.pi
            dtheta = min(dtheta_chord, max_step / r)
            n = _subdivisions(abs(seg.sweep) / dtheta)
            for j in range(1, n):
                poses.append(seg.pose_at(seg.sweep * j / n))
            poses.append(seg.end)
    return poses


# ---------------------------------------------------------------------------
# Synchronized dual-robot planning


@dataclass(frozen=True)
class SetpointPair:
    """One synchronized program index: tool pose, both flange targets and
    the joint solutions realizing them."""

    index: int
    tool_pose: Pose
    robot1_flange: Pose
    robot2_flange_nominal: Pose
    robot2_flange_commanded: Pose
    q1: np.ndarray
    q2: np.ndarray


_POSE_NAMES = ("tool_pose", "robot1_flange", "robot2_flange_nominal", "robot2_flange_commanded")


def _pose_stack(poses):
    """(N, 7) rows of x, y, z, qw, qx, qy, qz."""
    return np.reshape(np.hstack([[p.position for p in poses], [p.quaternion for p in poses]]), (-1, 7))


class Setpoints:
    """The setpoint pairs of a program, held as stacked arrays under the
    field names of SetpointPair: `index` (N,) ints; `tool_pose`,
    `robot1_flange`, `robot2_flange_nominal` and `robot2_flange_commanded`
    (N, 7) rows of (x, y, z, qw, qx, qy, qz); `q1` and `q2` (N, 6).

    Indexing with an int builds that row's SetpointPair, with a slice the
    Setpoints of those rows; no object per setpoint is kept. The arrays
    are read-only.
    """

    __slots__ = ("index",) + _POSE_NAMES + ("q1", "q2")

    def __init__(self, index, tool_pose, robot1_flange, robot2_flange_nominal,
                 robot2_flange_commanded, q1, q2):
        index = np.array(index)
        if index.ndim != 1 or not (index.size == 0 or np.issubdtype(index.dtype, np.integer)):
            raise InvalidInputError("setpoint indices must be a 1-D array of integers")
        index = index.astype(np.int64)
        if np.any(np.diff(index) <= 0):
            raise InvalidInputError("setpoint indices must be strictly increasing")
        n = len(index)
        fields = {"index": index}
        for name, rows in zip(_POSE_NAMES, (tool_pose, robot1_flange, robot2_flange_nominal,
                                            robot2_flange_commanded)):
            rows = pose_rows(rows)
            if rows.shape != (n, 7):
                raise InvalidInputError(f"{name} must hold one 7-value pose per setpoint")
            fields[name] = rows
        for name, q in (("q1", q1), ("q2", q2)):
            q = np.array(q, dtype=float)
            if q.shape != (n, 6) or not np.all(np.isfinite(q)):
                raise InvalidInputError(f"{name} must hold 6 finite joint values per setpoint")
            fields[name] = q
        for name, value in fields.items():
            value.flags.writeable = False
            setattr(self, name, value)

    @classmethod
    def from_pairs(cls, pairs):
        pairs = tuple(pairs)
        return cls(
            [p.index for p in pairs],
            *(_pose_stack([getattr(p, name) for p in pairs]) for name in _POSE_NAMES),
            np.reshape([p.q1 for p in pairs], (-1, 6)),
            np.reshape([p.q2 for p in pairs], (-1, 6)),
        )

    def __len__(self):
        return len(self.index)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Setpoints(self.index[key], *(getattr(self, name)[key] for name in _POSE_NAMES),
                             self.q1[key], self.q2[key])
        i = operator.index(key)
        poses = [Pose(rows[i, :3], rows[i, 3:]) for rows in (getattr(self, name) for name in _POSE_NAMES)]
        return SetpointPair(int(self.index[i]), *poses, self.q1[i], self.q2[i])

    def __repr__(self):
        return f"Setpoints(<{len(self)} setpoints>)"


@dataclass(frozen=True)
class SyncProgram:
    """A synchronized program; `pairs` may be given as any sequence of
    SetpointPair and is held as Setpoints."""

    pairs: Setpoints
    tension: Wrench
    feed_mm_min: float = 0.0
    chord_tol: float = 0.0
    max_step: float = 0.0

    def __post_init__(self):
        pairs = self.pairs if isinstance(self.pairs, Setpoints) else Setpoints.from_pairs(self.pairs)
        if not len(pairs):
            raise InvalidInputError("sync program has no setpoints")
        object.__setattr__(self, "pairs", pairs)


def apply_world_offset(pose: Pose, offset) -> Pose:
    """Apply a 6-D world-frame displacement (3 translations, 3 rotations as
    a rotation vector) to a pose."""
    offset = np.asarray(offset, dtype=float)
    return Pose(
        pose.position + offset[:3],
        quat_multiply(quat_from_rotvec(offset[3:]), pose.quaternion),
    )


def _in_box(p, box):
    center, size = box
    return bool(np.all(np.abs(p - center) <= size / 2 + 1e-12))


def plan_sync(
    sys: CoupledSystem,
    path: ToolPath,
    tension: Wrench,
    ik_seeds,
    chord_tol=DEFAULT_CHORD_TOL,
    max_step=DEFAULT_MAX_STEP,
    workspace_box=None,
    joint_jump_max=DEFAULT_JOINT_JUMP_MAX,
    tol_pos=DEFAULT_TOL_POS,
    tol_rot=DEFAULT_TOL_ROT,
    max_iter=DEFAULT_MAX_ITER,
) -> SyncProgram:
    """Generate synchronized setpoint pairs along the path.

    Three passes: IK of arm 1 and of arm 2's nominal (untensioned) flange
    pose, each seeded with its previous solution so the joint
    trajectories stay on one branch; one stacked tension-offset
    evaluation from the local configurations; then IK of arm 2's
    commanded pose, seeded with its nominal solution. A joint jump above
    `joint_jump_max` between consecutive pairs aborts planning. Failures
    are raised for the first setpoint at which they occur.

    workspace_box: optional (center, size) arrays in m; every discretized
    tool position must lie inside.
    """
    poses = discretize(path, chord_tol, max_step)
    if workspace_box is not None:
        box = (np.asarray(workspace_box[0], dtype=float), np.asarray(workspace_box[1], dtype=float))
        for i, pose in enumerate(poses):
            if not _in_box(pose.position, box):
                raise WorkspaceError(
                    f"tool pose {i} at {pose.position} lies outside the workspace box", index=i
                )
    seed1, seed2 = (np.asarray(s, dtype=float) for s in ik_seeds)
    tool_inv = sys.tool_offset.inverse()
    r1 = [tool_pose @ tool_inv for tool_pose in poses]
    r2_nominal = [r @ sys.flange2_offset for r in r1]

    # A failure found in one pass is raised only after the later passes have
    # covered the setpoints before it, so the first failing setpoint is the
    # one reported, whichever pass finds it.
    failure = None
    # Pass 1: warm-started IK of arm 1 and of arm 2's nominal pose.
    q1, q2_nominal = [], []
    for i in range(len(poses)):
        try:
            seed1 = inverse_kinematics(sys.arm1, r1[i], seed1, tol_pos, tol_rot, max_iter)
            seed2 = inverse_kinematics(sys.arm2, r2_nominal[i], seed2, tol_pos, tol_rot, max_iter)
        except UnreachableTargetError as exc:
            failure = PlanError(f"IK failed at setpoint {i}: {exc}", index=i)
            failure.__cause__ = exc
            break
        q1.append(seed1)
        q2_nominal.append(seed2)

    # Pass 2: every tension offset in one stacked evaluation.
    q1_all, q2_nominal_all = np.reshape(q1, (-1, 6)), np.reshape(q2_nominal, (-1, 6))
    try:
        offsets = tension_offset(sys, q1_all, q2_nominal_all, tension)
    except (SingularConfigurationError, ClosureError) as exc:
        failure = exc
        offsets = tension_offset(sys, q1_all[: exc.index], q2_nominal_all[: exc.index], tension)

    # Pass 3: IK of arm 2's commanded pose and the continuity guard.
    r2_commanded, q2 = [], []
    for i, offset in enumerate(offsets):
        target = apply_world_offset(r2_nominal[i], offset)
        try:
            q = inverse_kinematics(sys.arm2, target, q2_nominal[i], tol_pos, tol_rot, max_iter)
        except UnreachableTargetError as exc:
            raise PlanError(f"IK failed at setpoint {i}: {exc}", index=i) from exc
        if i:
            jump = max(np.max(np.abs(q1[i] - q1[i - 1])), np.max(np.abs(q - q2[-1])))
            if jump > joint_jump_max:
                raise ContinuityError(
                    f"joint jump {jump:.3f} rad at setpoint {i} exceeds {joint_jump_max} rad",
                    index=i,
                )
        r2_commanded.append(target)
        q2.append(q)
    if failure is not None:
        raise failure
    pose_stacks = (_pose_stack(stack) for stack in (poses, r1, r2_nominal, r2_commanded))
    return SyncProgram(
        Setpoints(np.arange(len(poses)), *pose_stacks, q1, q2),
        tension=tension, feed_mm_min=path.feed_mm_min, chord_tol=chord_tol, max_step=max_step,
    )


# ---------------------------------------------------------------------------
# SyncProgram CSV interchange

_POSE_FIELDS = ("x", "y", "z", "qw", "qx", "qy", "qz")
_POSE_COLS = ("tool", "r1", "r2_nominal", "r2_commanded")


_COLUMNS = ["index"] + [f"{name}_{f}" for name in _POSE_COLS for f in _POSE_FIELDS] + [
    f"q{arm}_{i}" for arm in (1, 2) for i in range(6)
]
_ROW_FMT = "%d" + ",%.17g" * (len(_COLUMNS) - 1) + "\n"


def program_to_csv(program: SyncProgram) -> str:
    meta = {
        "feed_mm_min": _fmt(program.feed_mm_min),
        "tension_wrench": " ".join(_fmt(x) for x in program.tension.as_vector()),
        "chord_tol_m": _fmt(program.chord_tol),
        "max_step_m": _fmt(program.max_step),
    }
    sp = program.pairs
    table = np.column_stack([sp.index] + [getattr(sp, name) for name in _POSE_NAMES] + [sp.q1, sp.q2])
    return write_table(meta, _COLUMNS, table, _ROW_FMT)


def program_from_csv(text) -> SyncProgram:
    meta, table = read_table(text, _COLUMNS, "program CSV")
    index = table[:, 0]
    if not np.all((index == np.trunc(index)) & (np.abs(index) <= 2.0**53)):
        raise InvalidInputError("program CSV setpoint indices must be integers within +-2**53")
    return SyncProgram(
        Setpoints(index.astype(np.int64), *(table[:, 1 + 7 * k : 8 + 7 * k] for k in range(4)),
                  table[:, 29:35], table[:, 35:41]),
        tension=Wrench.from_vector(meta_floats(meta, "tension_wrench", [0.0] * 6, "program CSV")),
        feed_mm_min=meta_float(meta, "feed_mm_min", 0.0, "program CSV"),
        chord_tol=meta_float(meta, "chord_tol_m", 0.0, "program CSV"),
        max_step=meta_float(meta, "max_step_m", 0.0, "program CSV"),
    )
