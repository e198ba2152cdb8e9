"""Poses, quaternions and 6-D rigid transport helpers.

Quaternions are stored (w, x, y, z) and canonicalized to w >= 0 so that
equal rotations compare equal. All 6-D vectors stack translation before
rotation: twists are [v; omega], wrenches [f; tau], both in world axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

_QUAT_NORM_TOL = 1e-9
_IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


def frozen(a, dtype=float):
    """A read-only copy of `a` as `dtype`: a value object's arrays cannot
    change after their checks, and the caller's array is never frozen."""
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def quat_canonical(q):
    """Quaternions q[..., 4] (an array) with the sign that makes w >= 0."""
    return np.where(q[..., :1] < 0.0, -q, q)


def quat_multiply(q1, q2):
    """Hamilton products of quaternions q1[..., 4] and q2[..., 4]."""
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    w1, x1, y1, z1 = (q1[..., i] for i in range(4))
    w2, x2, y2, z2 = (q2[..., i] for i in range(4))
    out = np.empty(np.broadcast_shapes(q1.shape, q2.shape))
    out[..., 0] = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    out[..., 1] = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    out[..., 2] = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    out[..., 3] = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    return out


def quat_conjugate(q):
    return np.asarray(q, dtype=float) * _CONJUGATE


def quat_to_matrix(q):
    """Rotation matrices R[..., 3, 3] of unit quaternions q[..., 4]."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = (q[..., i] for i in range(4))
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


# Shepperd's method: with d = (1 + t, 1 + r00 - r11 - r22, 1 + r11 - r00 - r22,
# 1 + r22 - r00 - r11) and the off-diagonal combinations (r21 - r12, r02 - r20,
# r10 - r01, r01 + r10, r02 + r20, r12 + r21), row k of the symmetric matrix
# 4 q q^T, picked from these ten values by _SHEPPERD_ROWS[k], is q scaled by
# 4 q_k; the branch with the largest q_k is the stable one.
_SHEPPERD_ROWS = np.array([[0, 4, 5, 6], [4, 1, 7, 8], [5, 7, 2, 9], [6, 8, 9, 3]])


def quat_from_matrix(R):
    """Unit quaternions (w >= 0) of rotation matrices R[..., 3, 3]."""
    R = np.asarray(R, dtype=float)
    r00, r11, r22 = R[..., 0, 0], R[..., 1, 1], R[..., 2, 2]
    t = r00 + r11 + r22
    V = np.stack([
        1.0 + t, 1.0 + r00 - r11 - r22, 1.0 + r11 - r00 - r22, 1.0 + r22 - r00 - r11,
        R[..., 2, 1] - R[..., 1, 2], R[..., 0, 2] - R[..., 2, 0], R[..., 1, 0] - R[..., 0, 1],
        R[..., 0, 1] + R[..., 1, 0], R[..., 0, 2] + R[..., 2, 0], R[..., 1, 2] + R[..., 2, 1],
    ], axis=-1)
    branch = np.where(t > 0, 0, np.where((r00 >= r11) & (r00 >= r22), 1, np.where(r11 >= r22, 2, 3)))
    q = np.take_along_axis(V, _SHEPPERD_ROWS[branch], axis=-1)
    q /= np.sqrt(np.sum(q * q, axis=-1, keepdims=True))
    return quat_canonical(q)


def quat_from_rotvec(rv):
    """Unit quaternions (w >= 0) of rotation vectors rv[..., 3]."""
    rv = np.asarray(rv, dtype=float)
    angle = np.sqrt(np.sum(rv * rv, axis=-1, keepdims=True))
    tiny = angle < 1e-300
    half = 0.5 * angle
    q = np.concatenate([np.cos(half), np.sin(half) * (rv / np.where(tiny, 1.0, angle))], axis=-1)
    return quat_canonical(np.where(tiny, _IDENTITY_QUAT, q))


def rotvec_from_quat(q):
    """Rotation vectors of quaternions q[..., 4], taking the short-way
    representative of the double cover."""
    q = quat_canonical(np.asarray(q, dtype=float))
    w = np.clip(q[..., 0], -1.0, 1.0)
    v = q[..., 1:]
    s = np.sqrt(np.sum(v * v, axis=-1))
    tiny = s < 1e-300
    angle = 2.0 * np.arctan2(s, w)
    return np.where(tiny, 0.0, angle / np.where(tiny, 1.0, s))[..., None] * v


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
        p = frozen(self.position)
        q = np.asarray(self.quaternion, dtype=float)
        if p.shape != (3,) or not np.isfinite(p).all():
            raise InvalidInputError("pose position must be a finite 3-vector")
        if q.shape != (4,):
            raise InvalidInputError("quaternion must have 4 components (w, x, y, z)")
        n = math.sqrt(q @ q)
        if not abs(n - 1.0) <= _QUAT_NORM_TOL:
            raise InvalidInputError(f"quaternion norm {n} deviates from 1 by more than 1e-9")
        if q[0] < 0.0:  # quat_canonical of one quaternion
            q = -q
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "quaternion", frozen(q))

    @staticmethod
    def identity():
        return Pose(np.zeros(3))

    def matrix(self):
        T = np.eye(4)
        T[:3, :3] = quat_to_matrix(self.quaternion)
        T[:3, 3] = self.position
        return T

    def rotation(self):
        return quat_to_matrix(self.quaternion)

    def inverse(self) -> "Pose":
        qi = quat_conjugate(self.quaternion)
        return Pose(-(quat_to_matrix(qi) @ self.position), qi)

    def __matmul__(self, other: "Pose") -> "Pose":
        """self followed by other (other expressed in self's frame)."""
        row = compose_rows(self, other)
        return Pose(row[:3], row[3:])


def _row(pose):
    """A Pose as its (7,) row; rows[..., 7] pass through."""
    if isinstance(pose, Pose):
        return np.concatenate([pose.position, pose.quaternion])
    return np.asarray(pose, dtype=float)


def pose_rows(rows):
    """Stacked poses as rows[..., 7] of (x, y, z, qw, qx, qy, qz), checked
    as Pose checks one (finite position, unit quaternion) and with its
    sign convention qw >= 0; a Pose gives its (7,) row. Returns a new
    array; a bad row raises InvalidInputError naming it."""
    rows = np.array(_row(rows), dtype=float)
    if rows.shape[-1:] != (7,):
        raise InvalidInputError("stacked poses must have 7 values per row (x, y, z, qw, qx, qy, qz)")
    norm = np.linalg.norm(rows[..., 3:], axis=-1)
    good = np.all(np.isfinite(rows[..., :3]), axis=-1) & (np.abs(norm - 1.0) <= _QUAT_NORM_TOL)
    bad = np.flatnonzero(~good)
    if bad.size:
        raise InvalidInputError(
            f"pose row {int(bad[0])}: position must be finite and quaternion norm 1 within 1e-9"
        )
    rows[..., 3:] = quat_canonical(rows[..., 3:])
    return rows


def matrix_pose_rows(T):
    """Pose rows[..., 7] of homogeneous transforms T[..., 4, 4]."""
    T = np.asarray(T, dtype=float)
    return np.concatenate([T[..., :3, 3], quat_from_matrix(T[..., :3, :3])], axis=-1)


def compose_rows(a, b):
    """Stacked compositions a ∘ b (b expressed in a's frame) as pose rows,
    qw >= 0; a and b are Poses or pose rows[..., 7] and broadcast."""
    a, b = _row(a), _row(b)
    p = a[..., :3] + (quat_to_matrix(a[..., 3:]) @ b[..., :3, None])[..., 0]
    return np.concatenate([p, quat_canonical(quat_multiply(a[..., 3:], b[..., 3:]))], axis=-1)


def pose_error(actual, target):
    """6-D error twists [dp; rotvec] taking `actual` to `target`, world
    axes. Each argument is a Pose or pose rows[..., 7]; two Poses give a
    (6,) twist, rows give twists[..., 6]."""
    a, t = _row(actual), _row(target)
    dp = t[..., :3] - a[..., :3]
    rv = rotvec_from_quat(quat_multiply(t[..., 3:], quat_conjugate(a[..., 3:])))
    return np.concatenate(np.broadcast_arrays(dp, rv), axis=-1)


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
