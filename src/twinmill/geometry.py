"""Poses, quaternions and 6-D rigid transport helpers.

Quaternions are stored (w, x, y, z) and canonicalized to w >= 0 so that
equal rotations compare equal. All 6-D vectors stack translation before
rotation: twists are [v; omega], wrenches [f; tau], both in world axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

_QUAT_NORM_TOL = 1e-9


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0 or not np.isfinite(n):
        raise InvalidInputError("quaternion has zero or non-finite norm")
    q = q / n
    if q[0] < 0.0:
        q = -q
    return q


def quat_multiply(q1, q2):
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_conjugate(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_from_matrix(R):
    R = np.asarray(R, dtype=float)
    # Shepperd's method: pick the largest diagonal combination for stability.
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


def quat_from_rotvec(rv):
    rv = np.asarray(rv, dtype=float)
    angle = np.linalg.norm(rv)
    if angle < 1e-300:
        return np.array([1.0, 0.0, 0.0, 0.0])
    axis = rv / angle
    half = 0.5 * angle
    q = np.concatenate([[np.cos(half)], np.sin(half) * axis])
    if q[0] < 0.0:
        q = -q
    return q


def rotvec_from_quat(q):
    # Pick the short-way representative of the double cover.
    if q[0] < 0.0:
        q = -np.asarray(q, dtype=float)
    w = min(1.0, max(-1.0, float(q[0])))
    v = np.asarray(q[1:], dtype=float)
    s = np.linalg.norm(v)
    if s < 1e-300:
        return np.zeros(3)
    angle = 2.0 * np.arctan2(s, w)
    return (angle / s) * v


def skew(v):
    """Cross-product matrices [v]x of 3-vectors v[..., 3]."""
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1], S[..., 0, 2] = -v[..., 2], v[..., 1]
    S[..., 1, 0], S[..., 1, 2] = v[..., 2], -v[..., 0]
    S[..., 2, 0], S[..., 2, 1] = -v[..., 1], v[..., 0]
    return S


@dataclass(frozen=True)
class Pose:
    """Rigid placement: position (m) and unit quaternion (w, x, y, z)."""

    position: np.ndarray
    quaternion: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        q = np.asarray(self.quaternion, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise InvalidInputError("pose position must be a finite 3-vector")
        if q.shape != (4,):
            raise InvalidInputError("quaternion must have 4 components (w, x, y, z)")
        n = np.linalg.norm(q)
        if abs(n - 1.0) > _QUAT_NORM_TOL:
            raise InvalidInputError(f"quaternion norm {n} deviates from 1 by more than 1e-9")
        if q[0] < 0.0:
            q = -q
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "quaternion", q)

    @staticmethod
    def identity():
        return Pose(np.zeros(3))

    @staticmethod
    def from_matrix(T):
        T = np.asarray(T, dtype=float)
        return Pose(T[:3, 3].copy(), quat_from_matrix(T[:3, :3]))

    def matrix(self):
        T = np.eye(4)
        T[:3, :3] = quat_to_matrix(self.quaternion)
        T[:3, 3] = self.position
        return T

    def rotation(self):
        return quat_to_matrix(self.quaternion)

    def compose(self, other: "Pose") -> "Pose":
        """self followed by other (other expressed in self's frame)."""
        R = self.rotation()
        return Pose(self.position + R @ other.position, quat_multiply(self.quaternion, other.quaternion))

    def inverse(self) -> "Pose":
        qi = quat_conjugate(self.quaternion)
        return Pose(-(quat_to_matrix(qi) @ self.position), qi)

    def transform_point(self, p):
        return self.position + self.rotation() @ np.asarray(p, dtype=float)

    def __matmul__(self, other):
        return self.compose(other)


def pose_rows(rows):
    """Stacked poses as rows[..., 7] of (x, y, z, qw, qx, qy, qz), checked
    as Pose checks one (finite position, unit quaternion) and with its
    sign convention qw >= 0. Returns a new array; a bad row raises
    InvalidInputError naming it."""
    rows = np.array(rows, dtype=float)
    if rows.shape[-1:] != (7,):
        raise InvalidInputError("stacked poses must have 7 values per row (x, y, z, qw, qx, qy, qz)")
    norm = np.linalg.norm(rows[..., 3:], axis=-1)
    good = np.all(np.isfinite(rows[..., :3]), axis=-1) & (np.abs(norm - 1.0) <= _QUAT_NORM_TOL)
    bad = np.flatnonzero(~good)
    if bad.size:
        raise InvalidInputError(
            f"pose row {int(bad[0])}: position must be finite and quaternion norm 1 within 1e-9"
        )
    rows[..., 3:] *= np.where(rows[..., 3:4] < 0.0, -1.0, 1.0)
    return rows


def pose_error(actual: Pose, target: Pose):
    """6-D error twist [dp; rotvec] taking `actual` to `target`, world axes."""
    dp = target.position - actual.position
    dq = quat_multiply(target.quaternion, quat_conjugate(actual.quaternion))
    return np.concatenate([dp, rotvec_from_quat(dq)])


def rotate6(R):
    """Block-diagonal 6x6 rotations for twists/wrenches, from R[..., 3, 3]."""
    R = np.asarray(R, dtype=float)
    M = np.zeros(R.shape[:-2] + (6, 6))
    M[..., :3, :3] = R
    M[..., 3:, 3:] = R
    return M


def point_shift_adjoint(r):
    """Maps a twist at point A (world axes) to the twist of the rigidly
    attached point B with r = p_B - p_A: v_B = v_A + omega x r.
    Stacked r[..., 3] gives stacked [..., 6, 6] maps."""
    r = np.asarray(r, dtype=float)
    A = np.zeros(r.shape[:-1] + (6, 6))
    A[..., range(6), range(6)] = 1.0
    A[..., :3, 3:] = -skew(r)
    return A


def transport_stiffness(K, r):
    """Stiffness known at point A (world axes) re-expressed at rigidly
    attached point B, r = p_B - p_A."""
    Ai = point_shift_adjoint(-np.asarray(r, dtype=float))  # twist at B -> twist at A
    return np.swapaxes(Ai, -1, -2) @ K @ Ai


def transport_compliance(C, r):
    """Compliance known at point A re-expressed at point B, r = p_B - p_A."""
    A = point_shift_adjoint(r)
    return A @ C @ np.swapaxes(A, -1, -2)
