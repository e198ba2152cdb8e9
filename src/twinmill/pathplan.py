"""Toolpaths (linear + circular segments), a minimal G-code subset parser,
chord-tolerance discretization and synchronized dual-robot setpoint
generation with tension offsets.

G-code is parsed in mm / mm/min; everything internal is m / rad. The tool
orientation is held fixed along the path (3-axis milling).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from . import jsondoc
from .csvtable import read_table, write_table
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
from .geometry import Pose, compose_rows, frozen, pose_rows, quat_canonical, quat_from_rotvec, quat_multiply
from .kinematics import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL_POS,
    DEFAULT_TOL_ROT,
    _limit_violation,
    closed_form_ik,
    ik_branch,
    inverse_kinematics,
)
from .stiffness import MAX_OFFSET, CoupledSystem, Wrench, cell_sha256, check_closure, tension_offset

_POSITION_TOL = 1e-9
_ARC_RADIUS_TOL = 10e-6  # 10 um start/end radius mismatch
DEFAULT_CHORD_TOL = 1e-5  # m
DEFAULT_MAX_STEP = 5e-3  # m
DEFAULT_JOINT_JUMP_MAX = 0.2  # rad, guards against IK branch flips
_SEED_SPAN_M = 0.08  # m of path at most between a fallback pass-1 IK seed and its target
_BLOCK_ROWS = 2048  # rows per IK call at most: bounds the state of the rows that iterate, about 1.5 KB each
MAX_SAMPLES = 1 << 20  # pose rows at most from `discretize`, 56 MiB of them


@dataclass(frozen=True)
class LinearSegment:
    start: Pose
    end: Pose

    @property
    def length(self):
        with np.errstate(over="ignore"):  # inf past the float range, which `discretize` refuses
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
        c = frozen(self.center)
        n = frozen(self.normal)
        if c.shape != (3,) or n.shape != (3,) or not np.all(np.isfinite(c)):
            raise InvalidInputError("arc center and normal must be 3-vectors, the center finite")
        if not abs(np.linalg.norm(n) - 1.0) <= 1e-9:
            raise InvalidInputError("arc normal must be unit length (1e-9)")
        if not math.isfinite(self.sweep):
            raise InvalidInputError("arc sweep must be finite")
        # A radius past the float range is inf, which `discretize` refuses; a
        # start-to-center vector past it is inf and out of the plane (nan).
        with np.errstate(over="ignore", invalid="ignore"):
            r = self.start.position - c
            in_plane = abs(float(np.dot(r, n))) <= _POSITION_TOL + 1e-12 * np.linalg.norm(r)
        if not in_plane:
            raise InvalidInputError("arc start does not lie in the plane through the center")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "normal", n)

    @property
    def radius(self):
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.start.position - self.center))

    def point_at(self, angle):
        """The point `angle` rad along the arc from its start, or the points
        [N, 3] at angles [N]."""
        angle = np.asarray(angle, dtype=float)[..., None]
        u = self.start.position - self.center
        # normal x u, each product and difference in np.cross's order, so the
        # bits are its own, without its per-call overhead.
        (n0, n1, n2), (u0, u1, u2) = self.normal.tolist(), u.tolist()
        v = np.array([n1 * u2 - n2 * u1, n2 * u0 - n0 * u2, n0 * u1 - n1 * u0])
        return self.center + np.cos(angle) * u + np.sin(angle) * v

    @property
    def end(self) -> Pose:
        return Pose(self.point_at(self.sweep), self.start.quaternion)

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
        if not 0.0 <= self.feed_mm_min < math.inf:
            raise InvalidInputError(f"toolpath feed_mm_min must be finite and >= 0, got {self.feed_mm_min:g}")
        for prev, cur in zip(segs, segs[1:]):
            with np.errstate(over="ignore"):  # inf past the float range, refused as a gap
                gap = np.linalg.norm(cur.start.position - prev.end.position)
            if not gap <= _POSITION_TOL:
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
_MAX_WORD_VALUE = 1e9  # mm; a word beyond 1000 km is a typo, and squares of it overflow


def _strip_comments(line):
    line = re.sub(r"\([^)]*\)", " ", line)
    return line.split(";", 1)[0]


def parse_gcode(text) -> ToolPath:
    """Parse the supported G-code subset into a ToolPath at the identity
    tool orientation.

    Supported words: G0/G1 (linear), G2/G3 (cw/ccw arc in the XY plane
    with I/J/K center offsets), X/Y/Z coordinates in mm, F feed in mm/min.
    Motion words are modal. Anything else, a helical arc (G2/G3 with a
    Z move) too, raises with the offending line number.
    """
    if not text or not text.strip():
        raise InvalidInputError("G-code text is empty")
    pos = np.zeros(3)
    motion = None
    feed = 0.0
    segments = []

    def refusal(cls, message):
        return cls(f"line {lineno}: {message}", line=lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comments(raw).strip()
        if not line:
            continue
        words = []
        consumed = 0
        for m in _WORD_RE.finditer(line):
            if line[consumed : m.start()].strip():
                raise refusal(UnsupportedGcodeError, f"unparseable text {line[consumed:m.start()]!r}")
            value = float(m.group(2))
            if not abs(value) <= _MAX_WORD_VALUE:
                raise refusal(UnsupportedGcodeError,
                              f"{m.group(1)} value out of range (|value| > {_MAX_WORD_VALUE:g})")
            words.append((m.group(1).upper(), value))
            consumed = m.end()
        if line[consumed:].strip():
            raise refusal(UnsupportedGcodeError, f"unparseable text {line[consumed:]!r}")
        coords = {}
        center_offset = {}
        for letter, value in words:
            if letter not in _SUPPORTED_LETTERS:
                raise refusal(UnsupportedGcodeError, f"unsupported word {letter}{value:g}")
            if letter == "G":
                if value not in (0.0, 1.0, 2.0, 3.0):
                    raise refusal(UnsupportedGcodeError, f"unsupported G{value:g}")
                motion = int(value)
            elif letter == "F":
                if value < 0:
                    raise refusal(UnsupportedGcodeError, f"negative feed F{value:g}")
                feed = value
            elif letter in "XYZ":
                coords["XYZ".index(letter)] = value * _MM
            else:
                center_offset["IJK".index(letter)] = value * _MM
        if not coords and not center_offset:
            continue
        if motion is None:
            raise refusal(UnsupportedGcodeError, "coordinates before any motion word")
        target = pos.copy()
        for axis, value in coords.items():
            target[axis] = value
        if motion in (0, 1):
            if center_offset:
                raise refusal(UnsupportedGcodeError, "I/J/K only valid with G2/G3")
            if np.linalg.norm(target - pos) > 0:
                segments.append(LinearSegment(Pose(pos), Pose(target)))
        else:
            if not center_offset:
                raise refusal(UnsupportedGcodeError, "arc without I/J/K center")
            if target[2] != pos[2]:
                raise refusal(UnsupportedGcodeError, f"helical arcs are not supported (Z moves from "
                                                     f"{pos[2] / _MM:g} mm to {target[2] / _MM:g} mm)")
            center = pos.copy()
            for axis, value in center_offset.items():
                center[axis] += value
            r_start = np.linalg.norm((pos - center)[:2])
            r_end = np.linalg.norm((target - center)[:2])
            if not abs(r_start - r_end) <= _ARC_RADIUS_TOL:
                raise refusal(MalformedArcError, f"arc radii differ by {abs(r_start - r_end) * 1e6:.1f} um "
                                                 f"(start {r_start * 1e3:.3f} mm, end {r_end * 1e3:.3f} mm)")
            if r_start == 0:
                raise refusal(MalformedArcError, "arc has zero radius")
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
            try:
                arc = ArcSegment(center, np.array([0.0, 0.0, 1.0]), Pose(pos), sweep)
                # Snap the running position to the arc's computed endpoint so
                # the chain stays continuous to machine precision.
                target = arc.end.position
            except InvalidInputError as exc:
                raise refusal(MalformedArcError, exc) from exc
            segments.append(arc)
        pos = target
    if not segments:
        raise InvalidInputError("G-code produced no motion segments")
    return ToolPath(tuple(segments), feed_mm_min=feed)


def transform_path(path: ToolPath, pose: Pose) -> ToolPath:
    """The path moved by the rigid motion `pose` (p -> R p + t): every
    segment pose composed with it, as `compose_rows(pose, ...)` moves pose
    rows, and each arc's center and normal moved with it."""
    R = pose.rotation()
    Q = quat_multiply(pose.quaternion, np.eye(4))  # q @ Q is the product pose.quaternion * q

    def move(p):
        return Pose(pose.position + R @ p.position, p.quaternion @ Q)

    return ToolPath(tuple(LinearSegment(move(s.start), move(s.end)) if isinstance(s, LinearSegment)
                          else ArcSegment(pose.position + R @ s.center, R @ s.normal, move(s.start), s.sweep)
                          for s in path.segments), feed_mm_min=path.feed_mm_min)


def translate_path(path: ToolPath, delta) -> ToolPath:
    """Shift a whole path by a world-frame vector (work offset)."""
    return transform_path(path, Pose(delta))


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


_SEGMENT_KEYS = {"linear": ("type", "start", "end"),
                 "arc": ("type", "center_m", "normal", "start", "sweep_rad")}


def _json_segment(s, where):
    kind = jsondoc.obj(s, where, ("type",), ("start", "end", "center_m", "normal", "sweep_rad"))["type"]
    if not isinstance(kind, str) or kind not in _SEGMENT_KEYS:
        raise InvalidInputError(f"{where}.type: unknown segment type {kind!r:.40}", path=f"{where}.type")
    jsondoc.obj(s, where, _SEGMENT_KEYS[kind])
    if kind == "linear":
        return jsondoc.build(LinearSegment, where, jsondoc.pose(s["start"], f"{where}.start"),
                             jsondoc.pose(s["end"], f"{where}.end"))
    return jsondoc.build(ArcSegment, where,
                         jsondoc.array(s["center_m"], (3,), f"{where}.center_m"),
                         jsondoc.array(s["normal"], (3,), f"{where}.normal"),
                         jsondoc.pose(s["start"], f"{where}.start"),
                         jsondoc.number(s["sweep_rad"], f"{where}.sweep_rad"))


def path_from_json(text) -> ToolPath:
    """Read the native JSON path format. Bad input raises
    InvalidInputError whose `path` names the element, e.g. `segments[0].start`."""
    try:
        doc = jsondoc.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"path JSON is not valid JSON: {exc}") from exc
    try:
        jsondoc.obj(doc, "", ("segments",), ("feed_mm_min",))
        segs = doc["segments"]
        if not isinstance(segs, list):
            raise InvalidInputError("segments: expected a list", path="segments")
        feed = jsondoc.number(doc.get("feed_mm_min", 0.0), "feed_mm_min")
        if feed < 0:
            raise InvalidInputError(f"feed_mm_min: expected a feed >= 0, got {feed:g}", path="feed_mm_min")
        return jsondoc.build(ToolPath, "segments",
                             tuple(_json_segment(s, f"segments[{k}]") for k, s in enumerate(segs)), feed)
    except InvalidInputError as exc:
        raise InvalidInputError(f"path JSON {exc}", path=exc.path) from exc


# ---------------------------------------------------------------------------
# Discretization


def _subdivisions(x):
    """Smallest power of two >= x (>= 1), so that refinement by halving the
    step exactly doubles the interval count; inf for an x past MAX_SAMPLES,
    an infinite or NaN one too."""
    if x <= 1.0:
        return 1
    if not x <= MAX_SAMPLES:
        return math.inf
    return 1 << math.ceil(math.log2(x))


def _rows(positions, quaternion):
    """Pose rows [N, 7] of positions [N, 3] sharing one quaternion."""
    rows = np.empty((len(positions), 7))
    rows[:, :3], rows[:, 3:] = positions, quaternion
    return rows


def _samples(seg, chord_tol, max_step):
    """Rows a segment adds to `discretize`: its intervals, a power of two,
    or 0 for an arc of zero sweep."""
    if isinstance(seg, LinearSegment):
        return _subdivisions(seg.length / max_step)
    if seg.sweep == 0.0:
        return 0
    r = seg.radius
    dtheta_chord = 2 * math.acos(1 - chord_tol / r) if chord_tol < r else math.pi
    step = min(dtheta_chord, max_step / r)  # 0 on a radius too large for either to resolve
    return _subdivisions(abs(seg.sweep) / step) if step else math.inf


def discretize(path: ToolPath, chord_tol, max_step):
    """Sample the path as pose rows [N, 7] of (x, y, z, qw, qx, qy, qz):
    chordal deviation on arcs <= chord_tol, consecutive samples <= max_step
    apart, endpoints exact.

    A line's inner samples take its start orientation and its end sample
    its end pose; an arc's samples all take its start orientation. A path
    of more than MAX_SAMPLES samples, or with a segment too long to count
    its samples, raises InvalidInputError naming the segment that crosses
    the cap, before any row is allocated.
    """
    if not (chord_tol > 0 and max_step > 0):
        raise InvalidInputError("chord_tol and max_step must be positive")
    counts, total = [], 1
    for k, seg in enumerate(path.segments):
        counts.append(_samples(seg, chord_tol, max_step))
        total += counts[-1]
        if total > MAX_SAMPLES:
            raise InvalidInputError(f"segment {k} takes the path past {MAX_SAMPLES} samples "
                                    f"(chord_tol {chord_tol:g} m, max_step {max_step:g} m)")
    start = path.segments[0].start
    parts = [_rows(start.position[None], start.quaternion)]
    for seg, n in zip(path.segments, counts):
        if isinstance(seg, LinearSegment):
            t = (np.arange(1, n) / n)[:, None]
            parts.append(_rows(seg.start.position + t * (seg.end.position - seg.start.position),
                               seg.start.quaternion))
            parts.append(_rows(seg.end.position[None], seg.end.quaternion))
        elif n:
            # n is a power of two, so the last angle is the sweep exactly
            # and the last sample, from the same point_at, is seg.end.
            parts.append(_rows(seg.point_at(seg.sweep * np.arange(1, n + 1) / n), seg.start.quaternion))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# Synchronized dual-robot planning


@dataclass(frozen=True)
class SetpointPair:
    """One setpoint of a program: its row `index`, the tool pose and the
    joint solutions of both arms realizing it."""

    index: int
    tool_pose: Pose
    q1: np.ndarray
    q2: np.ndarray


class Setpoints:
    """The setpoint pairs of a program, held as stacked arrays under the
    field names of SetpointPair: `tool_pose` (N, 7) rows of (x, y, z, qw,
    qx, qy, qz); `q1` and `q2` (N, 6). A setpoint's index is its row. The
    flange frames are not held: arm 1's is `compose_rows(tool_pose,
    tool_offset.inverse())` and arm 2's nominal one that composed with
    `flange2_offset`, as `plan_sync` derives them, or FK of the joints.

    Indexing with an int builds that row's SetpointPair (a negative int
    counts from the end); no object per setpoint is kept. The arrays are
    read-only.
    """

    __slots__ = ("tool_pose", "q1", "q2")

    def __init__(self, tool_pose, q1, q2):
        try:
            tool_pose = pose_rows(tool_pose)
        except InvalidInputError as exc:
            raise InvalidInputError(f"tool_pose: {exc}", index=exc.index) from exc
        if tool_pose.ndim != 2:
            raise InvalidInputError("tool_pose must hold one 7-value pose per setpoint")
        n = len(tool_pose)
        fields = {"tool_pose": tool_pose}
        for name, q in (("q1", q1), ("q2", q2)):
            q = np.array(q, dtype=float)
            if q.shape != (n, 6) or not np.all(np.isfinite(q)):
                raise InvalidInputError(f"{name} must hold 6 finite joint values per setpoint")
            fields[name] = q
        for name, value in fields.items():
            value.flags.writeable = False
            setattr(self, name, value)

    def __len__(self):
        return len(self.tool_pose)

    def __getitem__(self, key):
        i = range(len(self))[operator.index(key)]  # past the end raises IndexError, which ends iteration
        return SetpointPair(i, Pose(self.tool_pose[i, :3], self.tool_pose[i, 3:]), self.q1[i], self.q2[i])

    def __repr__(self):
        return f"Setpoints(<{len(self)} setpoints>)"


_SHA256 = re.compile(r"[0-9a-f]{64}")


@dataclass(frozen=True)
class SyncProgram:
    """A synchronized program: its setpoints, the tension they were
    planned for, the `stiffness.cell_sha256` of the cell it was planned
    on, without which its joints mean nothing, and the feed and step
    sizes it was discretized with."""

    pairs: Setpoints
    tension: Wrench
    cell_sha256: str
    feed_mm_min: float = 0.0
    chord_tol: float = 0.0
    max_step: float = 0.0

    def __post_init__(self):
        if not isinstance(self.pairs, Setpoints):
            raise InvalidInputError(f"sync program pairs must be Setpoints, got {type(self.pairs).__name__}")
        if not len(self.pairs):
            raise InvalidInputError("sync program has no setpoints")
        for name in ("feed_mm_min", "chord_tol", "max_step"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise InvalidInputError(f"sync program {name} must be finite and >= 0, got {value:g}")
        if not (isinstance(self.cell_sha256, str) and _SHA256.fullmatch(self.cell_sha256)):
            raise InvalidInputError(f"sync program cell_sha256 must be 64 lowercase hex digits, "
                                    f"got {self.cell_sha256!r:.80}")


def apply_world_offset(rows, offsets):
    """Apply 6-D world-frame displacements offsets[..., 6] (3 translations,
    3 rotations as a rotation vector) to pose rows[..., 7]."""
    rows, offsets = pose_rows(rows), np.asarray(offsets, dtype=float)
    q = quat_canonical(quat_multiply(quat_from_rotvec(offsets[..., 3:]), rows[..., 3:]))
    return np.concatenate([rows[..., :3] + offsets[..., :3], q], axis=-1)


def _solve(arm, targets, blocks, tol, what):
    """Stacked IK of one arm's targets (rows [N, 7]) by the blocks (start,
    stop, seeds) of `blocks(q)`, in order, `seeds` one (6,) for the block
    or one per row; when a block is asked for, q[:start] holds the
    solutions of the blocks before. Each block is one IK call, or one per
    _BLOCK_ROWS rows of a longer block; IK solves its rows independently,
    so q is bit-identical wherever a block is cut. Returns the solutions
    of the targets before the first failing one and a PlanError naming
    its setpoint and `what`, caused by the UnreachableTargetError; or
    (all of them, None)."""
    q = np.empty((len(targets), 6))
    for start, stop, seeds in blocks(q):
        for first in range(start, stop, _BLOCK_ROWS):
            last = min(first + _BLOCK_ROWS, stop)
            seed = seeds if np.ndim(seeds) == 1 else seeds[first - start : last - start]
            try:
                q[first:last] = inverse_kinematics(arm, targets[first:last], seed, *tol)
            except UnreachableTargetError as exc:
                last = first + exc.index
                seed = seed if np.ndim(seed) == 1 else seed[: exc.index]
                q[first:last] = inverse_kinematics(arm, targets[first:last], seed, *tol)
                failure = PlanError(f"IK failed at setpoint {last} ({what}): {exc}", index=last)
                failure.__cause__ = exc
                return q[:last], failure
    return q, None


def _seed_blocks(positions):
    """Bounds (start, stop) of the pass-1 blocks of the tool positions
    [N, 3]. The first block is row 0, seeded by the caller's seed. Every
    later block is seeded by the last row of the block before and holds
    the rows that lie at most _SEED_SPAN_M of path (cumulative chord
    length) after that seed row, at least one."""
    s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(positions, axis=0), axis=1))])
    start, stop = 0, 1
    while start < len(s):
        yield start, stop
        start = stop
        stop = max(start + 1, int(np.searchsorted(s, s[start - 1] + _SEED_SPAN_M, side="right")))


def _branch_seeds(arm, targets, q_before, joint_jump_max):
    """Closed-form IK seeds [N, 6] of one arm's targets [N, 7] that follow
    its solution q_before (6,) along the path, on the branch of q_before.
    None if the arm has no closed-form IK, a row has no solution within
    the joint limits on that branch, or consecutive seeds, q_before first,
    jump by more than joint_jump_max (as across a wrist flip near q5 = 0)."""
    if not arm.has_closed_form_ik:
        return None
    seeds = closed_form_ik(arm, targets, ik_branch(arm, q_before), near=q_before)
    path = np.vstack([q_before, seeds])
    if _limit_violation(arm, path, "seed")[0] is None and np.all(np.abs(np.diff(path, axis=0)) <= joint_jump_max):
        return seeds
    return None


def _pass_one_blocks(arm, targets, positions, seed, joint_jump_max, q):
    """The pass-1 blocks of one arm's targets [N, 7], as `_solve` takes
    them. Setpoint 0 comes first, seeded with `seed`. The rest are one
    block with closed-form seeds on the branch of setpoint 0's solution
    or, where `_branch_seeds` gives none, the `_seed_blocks` of the tool
    positions [N, 3], each seeded with the last solution of the block
    before."""
    yield 0, 1, seed
    if len(targets) < 2:  # no setpoint after 0, or none at all
        return
    row_seeds = _branch_seeds(arm, targets[1:], q[0], joint_jump_max)
    if row_seeds is not None:
        yield 1, len(targets), row_seeds
        return
    for start, stop in itertools.islice(_seed_blocks(positions), 1, None):
        yield start, stop, q[start - 1]


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

    Three passes of stacked IK; each arm is solved on its own. Pass 1
    solves arm 1, then arm 2's nominal (untensioned) flange pose, one
    stacked IK per block of setpoints. Setpoint 0 comes first, seeded with
    that arm's `ik_seeds` entry. Where the arm has a closed-form IK, every
    later setpoint is seeded with its closed-form solution on the branch
    of the arm's setpoint-0 solution, in one block that needs no solution
    but setpoint 0's, solved by one IK call per _BLOCK_ROWS rows; the
    damped least-squares IK certifies each row's tolerance and joint
    limits. Otherwise, or where a row has no solution within the limits
    on that branch, or consecutive seeds jump by more than
    `joint_jump_max` (a wrist passing through q5 = 0), every later block
    of that arm is seeded with the last solution of the block before and
    holds the setpoints that lie at most _SEED_SPAN_M of path after that
    seed setpoint (at least one), so the joint trajectory stays on one
    branch (with max_step >= _SEED_SPAN_M each block is one setpoint on
    straight moves). Pass 2 is one stacked
    tension-offset evaluation from the local configurations; a commanded
    arm-2 flange more than MAX_OFFSET from its nominal one raises
    ClosureError, as `simulate_deformation` would on the program. Pass 3
    solves arm 2's commanded pose as one block, one IK call per
    _BLOCK_ROWS rows, seeded in closed form as pass 1 is or, where that
    gives no seeds, each row with its nominal solution. A joint jump above
    `joint_jump_max` between consecutive pairs aborts planning.

    One rule picks the failure raised: each pass runs only over the
    setpoints that every pass before it solved, and a failure cuts those
    to the ones before its setpoint. So the error raised is that of the
    first failing setpoint and, on a tie, of the earliest pass, in the
    order arm 1, arm 2 nominal, the tension offsets, the MAX_OFFSET bound,
    arm 2 commanded, the continuity guard.

    An `ik_seeds` entry outside its arm's joint limits, or NaN, raises
    InvalidInputError naming the entry, the arm and the joint before any
    IK runs.

    workspace_box: optional (center, size) arrays in m; every discretized
    tool position must lie inside.
    """
    seeds = [np.asarray(s, dtype=float) for s in ik_seeds]
    if len(seeds) != 2 or any(s.shape != (6,) for s in seeds):
        raise InvalidInputError("ik_seeds must be two configurations of 6 joints")
    for k, (arm, seed) in enumerate(zip((sys.arm1, sys.arm2), seeds)):
        _, violation = _limit_violation(arm, seed, "seed")
        if violation:
            raise InvalidInputError(f"ik_seeds[{k}] (arm {k + 1}): {violation}")
    seeds = np.stack(seeds)
    tool = discretize(path, chord_tol, max_step)
    if workspace_box is not None:
        center, size = (np.asarray(v, dtype=float) for v in workspace_box)
        outside = np.flatnonzero(~np.all(np.abs(tool[:, :3] - center) <= size / 2 + 1e-12, axis=1))
        if outside.size:
            i = int(outside[0])
            raise WorkspaceError(f"tool pose {i} at {tool[i, :3]} lies outside the workspace box", index=i)
    tol = (tol_pos, tol_rot, max_iter)
    r1 = compose_rows(tool, sys.tool_offset.inverse())
    r2_nominal = compose_rows(r1, sys.flange2_offset)

    # Each pass runs over [:n], the setpoints every pass before it solved;
    # `stop` keeps a failure and cuts n to its setpoint, which a later pass
    # can only lower, so the failure kept last is the one to raise.
    n, failure = len(tool), None

    def stop(exc):
        nonlocal n, failure
        if exc is not None:
            n, failure = exc.index, exc

    # Pass 1: IK of arm 1, then of arm 2's nominal pose.
    q1, exc = _solve(sys.arm1, r1, lambda q: _pass_one_blocks(
        sys.arm1, r1, tool[:, :3], seeds[0], joint_jump_max, q), tol, "arm 1")
    stop(exc)
    q2_nominal, exc = _solve(sys.arm2, r2_nominal[:n], lambda q: _pass_one_blocks(
        sys.arm2, r2_nominal[:n], tool[:n, :3], seeds[1], joint_jump_max, q), tol, "arm 2 nominal")
    stop(exc)

    # Pass 2: every tension offset in one stacked evaluation, then the bound
    # on the commanded arm-2 flange's distance from its nominal one.
    try:
        offsets = tension_offset(sys, q1[:n], q2_nominal[:n], tension)
    except (SingularConfigurationError, ClosureError) as exc:
        stop(exc)
        offsets = tension_offset(sys, q1[:n], q2_nominal[:n], tension)
    r2_commanded = apply_world_offset(r2_nominal[:n], offsets)
    try:
        check_closure(r2_commanded[:, :3], r2_nominal[:n, :3], MAX_OFFSET,
                      "setpoint {index}: commanded arm-2 flange is {gap:.3e} m from the nominal one")
    except ClosureError as exc:
        stop(exc)

    # Pass 3: IK of arm 2's commanded pose, each row seeded in closed form
    # on the branch of setpoint 0's nominal solution or, where
    # `_branch_seeds` gives none, with its nominal solution.
    seeds2 = _branch_seeds(sys.arm2, r2_commanded[:n], q2_nominal[0], joint_jump_max) if n else None
    seeds2 = q2_nominal[:n] if seeds2 is None else seeds2
    q2, exc = _solve(sys.arm2, r2_commanded[:n], lambda q: [(0, n, seeds2)], tol, "arm 2 commanded")
    stop(exc)

    # Continuity guard between consecutive pairs.
    jumps = np.max(np.abs(np.hstack([np.diff(q1[:n], axis=0), np.diff(q2[:n], axis=0)])), axis=1)
    over = np.flatnonzero(~(jumps <= joint_jump_max))
    if over.size:
        i = int(over[0]) + 1
        stop(ContinuityError(f"joint jump {jumps[i - 1]:.3f} rad at setpoint {i} exceeds {joint_jump_max} rad",
                             index=i))
    if failure is not None:
        raise failure
    return SyncProgram(
        Setpoints(tool, q1, q2), tension=tension, feed_mm_min=path.feed_mm_min,
        chord_tol=chord_tol, max_step=max_step, cell_sha256=cell_sha256(sys),
    )


# ---------------------------------------------------------------------------
# SyncProgram CSV interchange

_COLUMNS = ["index"] + [f"tool_{f}" for f in ("x", "y", "z", "qw", "qx", "qy", "qz")] + [
    f"q{arm}_{i}" for arm in (1, 2) for i in range(6)
]


def program_to_csv(program: SyncProgram) -> str:
    """The program as CSV: the tension, feed and step sizes and the cell's
    sha256 as metadata, then per setpoint its index, tool pose, q1 and q2."""
    meta = {
        "feed_mm_min": _fmt(program.feed_mm_min),
        "tension_wrench": " ".join(_fmt(x) for x in program.tension.as_vector()),
        "chord_tol_m": _fmt(program.chord_tol),
        "max_step_m": _fmt(program.max_step),
        "cell_sha256": program.cell_sha256,
    }
    sp = program.pairs
    return write_table(meta, _COLUMNS, np.column_stack([np.arange(len(sp)), sp.tool_pose, sp.q1, sp.q2]))


def program_from_csv(text) -> SyncProgram:
    """Read a program CSV. A bad setpoint row, one whose index is not its
    row too, raises InvalidInputError naming its line, and a bad metadata
    value naming its key and line, in the message and as `line`. A program
    without cell_sha256, or of any other columns, is refused at its header
    line."""
    meta, table = read_table(text, _COLUMNS, "program CSV")
    wrench = meta.numbers("tension_wrench", [0.0] * 6)
    if len(wrench) != 6:
        raise meta.error("tension_wrench", "is not 6 numbers")
    if "cell_sha256" not in meta:
        raise meta.line_error(meta.header_line, "no cell_sha256 metadata before the header")
    cell = meta["cell_sha256"]
    if not _SHA256.fullmatch(cell):
        raise meta.error("cell_sha256", "is not 64 lowercase hex digits")
    pairs = meta.build(Setpoints, table[:, 1:8], table[:, 8:14], table[:, 14:20])
    steps = {key: meta.number(key, 0.0) for key in ("feed_mm_min", "chord_tol_m", "max_step_m")}
    for key, value in steps.items():
        if value < 0:
            raise meta.error(key, "is negative")
    return SyncProgram(pairs, Wrench.from_vector(wrench), cell, *steps.values())
