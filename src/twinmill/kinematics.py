"""Serial 6-DOF arm: standard DH forward kinematics, geometric Jacobian
and damped least-squares inverse kinematics.

DH convention is standard Denavit-Hartenberg (RotZ(theta) TransZ(d)
TransX(a) RotX(alpha)); all joints revolute. One kernel evaluates the
flange transform and the Jacobian of stacked configurations q[..., 6]
from one frame pass; a flange-only kernel, behind forward kinematics and
`flange_transform`, runs the same products without the frames and the
Jacobian. A single (6,) configuration is their unstacked case. Inverse
kinematics solves the stacked targets of one arm in lockstep; one target
is its N=1 case, and each arm is solved on its own. It is the only
solver that certifies a tolerance and the joint limits. Ortho-parallel
arms with a spherical wrist, such as both demo arms, also have a
closed-form IK of 8 branches for stacked targets, which gives path
planning exact seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, UnreachableTargetError
from .geometry import Pose, frozen, matrix_pose_rows, pose_error, pose_rows, quat_to_matrix

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
        # Read-only copies: the chain constants below are cached from them.
        rows = frozen(self.dh_rows)
        lims = frozen(self.joint_limits)
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
        # RotX(alpha). Flattened to 16 entries it is (cos(theta), sin(theta), 1)
        # @ parts[i], whose rows are the cos, sin and fixed parts [6, 3, 16]:
        # only the first two rows of L_i turn with theta, and every entry has
        # exactly one nonzero part.
        a, alpha, d = rows[:, 0], rows[:, 1], rows[:, 2]
        L = np.zeros((N_JOINTS, 4, 4))
        L[:, 0, 0], L[:, 0, 3] = 1.0, a
        L[:, 1, 1], L[:, 1, 2] = np.cos(alpha), -np.sin(alpha)
        L[:, 2, 1], L[:, 2, 2], L[:, 2, 3] = np.sin(alpha), np.cos(alpha), d
        L[:, 3, 3] = 1.0
        parts = np.zeros((N_JOINTS, 3, 4, 4))
        parts[:, 0, :2] = L[:, :2]
        parts[:, 1, 0], parts[:, 1, 1] = -L[:, 1], L[:, 0]
        parts[:, 2, 2:] = L[:, 2:]
        # The constants of _chain: theta offsets, the link parts, the base and
        # the flange transform.
        object.__setattr__(self, "_chain_consts", (
            rows[:, 3], parts.reshape(N_JOINTS, 3, 16), self.base_pose.matrix(), self.flange_offset.matrix()))
        object.__setattr__(self, "_closed_form", _closed_form_consts(self, L[5]))

    @property
    def has_closed_form_ik(self):
        """Whether `closed_form_ik` applies: an ortho-parallel arm with a
        spherical wrist (see there)."""
        return self._closed_form is not None

    @property
    def reach(self):
        return float(np.sum(np.abs(self.dh_rows[:, 0])) + np.sum(np.abs(self.dh_rows[:, 2])))


def _first_false(ok):
    """(row, joint) of the first False entry of a mask (6,) or [..., 6],
    flattened to rows; None if every entry is True."""
    ok = np.reshape(ok, (-1, N_JOINTS))
    if ok.all():
        return None
    return tuple(int(k) for k in np.argwhere(~ok)[0])


def _limit_violation(arm, q, what):
    """The first row of q (6,) or q[..., 6], flattened, that leaves the
    arm's joint limits (a NaN lies outside), and a message saying that
    `what` violates them, naming the joint, its value and its limits;
    (None, "") if no row does."""
    rows = np.reshape(q, (-1, N_JOINTS))
    lo, hi = arm.joint_limits[:, 0], arm.joint_limits[:, 1]
    first = _first_false((rows >= lo) & (rows <= hi))
    if first is None:
        return None, ""
    row, j = first
    return row, (f"{what} violates joint limits: q{j + 1} = {rows[row, j]:.6g} rad "
                 f"outside [{lo[j]:.6g}, {hi[j]:.6g}] rad")


def _joint_array(arm, q, allow_out_of_limits, stacked=True):
    """Validated joint configurations: (6,) or, with `stacked`, q[..., 6].
    A non-finite entry, or one outside the limits, is named with its
    joint; for stacked q its row of the flattened stack is `index`."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (N_JOINTS,) or not (stacked or q.ndim == 1):
        raise InvalidInputError(f"joint configuration must have {N_JOINTS} entries")
    first = _first_false(np.isfinite(q))
    if first is not None:
        row, j = first
        raise InvalidInputError(
            f"joint configuration contains non-finite values: q{j + 1} = {q.reshape(-1, N_JOINTS)[row, j]}",
            index=row if q.ndim > 1 else None)
    if not allow_out_of_limits:
        row, violation = _limit_violation(arm, q, "joint configuration")
        if violation:
            raise InvalidInputError(violation, index=row if q.ndim > 1 else None)
    return q


def _links(consts, q):
    """The link matrices A[6, N, 4, 4] of the N rows of stacked
    configurations q[..., 6], one [N, 16] product per joint: trig [6, N, 3]
    holds (cos(theta), sin(theta), 1) of each joint and row.

    `consts` are one arm's `_chain_consts`.
    """
    offset, parts = consts[:2]
    theta = (q.reshape(-1, N_JOINTS) + offset).T
    trig = np.empty(theta.shape + (3,))
    np.cos(theta, out=trig[..., 0])
    np.sin(theta, out=trig[..., 1])
    trig[..., 2] = 1.0
    return (trig @ parts).reshape(N_JOINTS, -1, 4, 4)


def _chain(consts, q):
    """Flange transforms T[..., 4, 4] and geometric Jacobians J[..., 6, 6]
    of stacked configurations q[..., 6], both from one pass over the frames.

    `consts` are one arm's `_chain_consts`.
    """
    base, flange = consts[2:]
    lead = q.shape[:-1]
    A = _links(consts, q)
    # F[:, i] is the world frame of joint i's axis; F[:, 6] the last link.
    F = np.empty((A.shape[1], N_JOINTS + 1, 4, 4))
    F[:, 0] = base
    for i in range(N_JOINTS):
        np.matmul(F[:, i], A[i], out=F[:, i + 1])
    F = F.reshape(lead + F.shape[1:])
    T = F[..., N_JOINTS, :, :] @ flange
    z = F[..., :N_JOINTS, :3, 2]
    r = T[..., None, :3, 3] - F[..., :N_JOINTS, :3, 3]
    J = np.empty(lead + (6, N_JOINTS))
    # Linear rows z_i x (p_flange - p_i), angular rows z_i.
    J[..., 0, :] = z[..., 1] * r[..., 2] - z[..., 2] * r[..., 1]
    J[..., 1, :] = z[..., 2] * r[..., 0] - z[..., 0] * r[..., 2]
    J[..., 2, :] = z[..., 0] * r[..., 1] - z[..., 1] * r[..., 0]
    J[..., 3:, :] = np.swapaxes(z, -1, -2)
    return T, J


def _flange(consts, q):
    """Flange transforms T[..., 4, 4] of stacked configurations q[..., 6]:
    the link matrices and the left-to-right products of `_chain`, without
    its frame stack and Jacobian, so T is bit-identical to `_chain`'s."""
    base, flange = consts[2:]
    A = _links(consts, q)
    M = base @ A[0]
    for i in range(1, N_JOINTS):
        M = M @ A[i]
    return (M @ flange).reshape(q.shape[:-1] + (4, 4))


def _frames(arm: ArmModel, q):
    """Flange transforms T[..., 4, 4] and Jacobians J[..., 6, 6] of stacked
    configurations q[..., 6] within the joint limits, from one `_chain`
    call, for callers that need both; `flange_transform` evaluates the
    flange alone."""
    return _chain(arm._chain_consts, _joint_array(arm, q, allow_out_of_limits=False))


def flange_transform(arm: ArmModel, q):
    """World-frame 4x4 flange transforms of stacked configurations q[..., 6]
    within the joint limits, from the flange-only kernel: no frame stack,
    no Jacobian."""
    return _flange(arm._chain_consts, _joint_array(arm, q, allow_out_of_limits=False))


def forward_kinematics(arm: ArmModel, q):
    """World-frame flange pose: base ∘ DH chain ∘ flange offset.

    One configuration q (6,) gives a Pose; stacked configurations q[N, 6]
    within the joint limits give pose rows [N, 7] of (x, y, z, qw, qx, qy,
    qz), qw >= 0.
    """
    q = _joint_array(arm, q, allow_out_of_limits=False)
    if q.ndim > 2:
        raise InvalidInputError("forward_kinematics takes q of shape (6,) or (N, 6)")
    rows = matrix_pose_rows(_flange(arm._chain_consts, q))
    return rows if q.ndim == 2 else Pose(rows[:3], rows[3:])


def jacobian(arm: ArmModel, q):
    """Geometric Jacobian at the flange, world frame, for q of shape (6,)
    or stacked q[..., 6] (result [..., 6, 6]).

    Rows 0-2 map joint rates to flange linear velocity, rows 3-5 to
    angular velocity.
    """
    return _frames(arm, q)[1]


# Twists within this of their nominal value, and offsets within this of
# zero, count as exact when an arm is checked for the closed-form IK.
_CLOSED_FORM_TOL = 1e-12
N_BRANCHES = 8
_TWO_PI = 2.0 * np.pi


class _ClosedForm(NamedTuple):
    """The constants of `closed_form_ik` for one arm."""

    base_inv: np.ndarray  # inverse base transform
    tail: np.ndarray  # inverse of link 6 (past its RotZ) and the flange offset
    a1: float
    d1: float
    s1: float  # sign of the twist of joint 1, and so on
    s3: float
    a2: float
    r: float  # forearm length, from joint 3 to the wrist centre
    gamma: float  # theta3 of a straight elbow, the forearm along link 2
    s4: float
    s5: float
    offset: np.ndarray  # theta offsets
    mid: np.ndarray  # middle of the joint limits
    wide: np.ndarray  # joints whose limits span more than 2 pi


def _closed_form_consts(arm, last_link):
    """The `_ClosedForm` of `arm`, or None where it does not apply.
    `last_link` is link 6 without its joint rotation."""
    a, alpha, d, offset = arm.dh_rows.T
    quarter = np.abs(np.abs(alpha[[0, 2, 3, 4]]) - np.pi / 2)
    zero = np.abs([d[1], d[2], a[3], a[4], d[4], alpha[1]])
    if not (np.all(quarter <= _CLOSED_FORM_TOL) and np.all(zero <= _CLOSED_FORM_TOL) and a[1] > 0
            and np.hypot(a[2], d[3]) > 0):
        return None
    s1, s3, s4, s5 = np.sign(alpha[[0, 2, 3, 4]])
    lo, hi = arm.joint_limits.T
    tail = np.linalg.inv(last_link @ arm.flange_offset.matrix())
    return _ClosedForm(np.linalg.inv(arm.base_pose.matrix()), tail, a[0], d[0], s1, s3, a[1],
                       np.hypot(a[2], d[3]), np.arctan2(s3 * d[3], a[2]), s4, s5,
                       offset, (lo + hi) / 2, hi - lo > _TWO_PI)


def _unturn(angle, R):
    """RotZ(angle)^T R of rotations R[N, 3, 3]."""
    c, s = np.cos(angle)[:, None], np.sin(angle)[:, None]
    return np.stack([c * R[:, 0] + s * R[:, 1], c * R[:, 1] - s * R[:, 0], R[:, 2]], axis=1)


def _untwist(sign, R):
    """RotX(sign * pi/2)^T R of rotations R[N, 3, 3]."""
    return np.stack([R[:, 0], sign * R[:, 2], -sign * R[:, 1]], axis=1)


def _closed_form_arm(arm):
    consts = arm._closed_form
    if consts is None:
        raise InvalidInputError("closed-form IK needs d2 = d3 = a4 = a5 = d5 = 0, twists "
                                "(+-pi/2, 0, +-pi/2, +-pi/2, +-pi/2) on joints 1-5 and a2 > 0")
    return consts


def ik_branch(arm: ArmModel, q):
    """The closed-form IK branch (0-7) of configurations q[..., 6] of an
    arm with `has_closed_form_ik`: 4 if the wrist centre lies behind joint
    1's axis, plus 2 if the elbow bends the negative way, plus 1 if joint
    5's angle (q5 plus its theta offset) has a negative sine."""
    cf = _closed_form_arm(arm)
    theta = _joint_array(arm, q, allow_out_of_limits=True) + cf.offset
    elbow = theta[..., 2] - cf.gamma
    rho = cf.a1 + cf.a2 * np.cos(theta[..., 1]) + cf.r * np.cos(theta[..., 1] + elbow)
    return 4 * (rho < 0) + 2 * (np.sin(elbow) < 0) + (np.sin(theta[..., 4]) < 0)


def closed_form_ik(arm: ArmModel, target, branch, near=None):
    """Closed-form IK (Pieper 1968) of an ortho-parallel arm with a
    spherical wrist: d2 = d3 = a4 = a5 = d5 = 0, twists +-pi/2 on joints 1,
    3, 4 and 5 and 0 on joint 2, a2 > 0; link 6, the base pose and the
    flange offset are free. `has_closed_form_ik` tells whether an arm is
    one; this is decided once, from its DH rows.

    target: pose rows [N, 7] of a path; branch: one of the N_BRANCHES
    (see `ik_branch`), or one per row. Returns q[N, 6] reproducing each
    target to rounding, limits not checked. A row the branch cannot reach
    is NaN. Each joint takes the value nearest the middle of its limits,
    except a joint whose limits span more than 2 pi: that one is unwrapped
    along the path, its first row nearest `near` (6,) (default: the
    middle of its limits).
    """
    base_inv, tail, a1, d1, s1, s3, a2, r, gamma, s4, s5, offset, mid, wide = _closed_form_arm(arm)
    rows = pose_rows(target)
    if rows.ndim != 2:
        raise InvalidInputError("closed-form IK takes pose rows [N, 7]")
    start = mid if near is None else _joint_array(arm, near, allow_out_of_limits=True, stacked=False)
    branch = np.asarray(branch)
    if not (np.issubdtype(branch.dtype, np.integer) and np.all((branch >= 0) & (branch < N_BRANCHES))):
        raise InvalidInputError(f"IK branch must be an integer in 0..{N_BRANCHES - 1}")
    shoulder, elbow, wrist = (1 - 2 * ((branch >> k) & 1) for k in (2, 1, 0))
    # The wrist centre and the rotation of base^-1 T tail, for each target T.
    R = quat_to_matrix(rows[:, 3:])
    x, y, z = ((R @ tail[:3, 3] + rows[:, :3]) @ base_inv[:3, :3].T + base_inv[:3, 3]).T
    R = base_inv[:3, :3] @ R @ tail[:3, :3]
    theta = np.empty((len(rows), N_JOINTS))
    theta[:, 0] = np.arctan2(shoulder * y, shoulder * x)
    # The wrist centre in joint 2's plane, reached by the two links a2 and r.
    u, v = shoulder * np.hypot(x, y) - a1, s1 * (z - d1)
    with np.errstate(invalid="ignore"):
        psi = elbow * np.arccos((u * u + v * v - a2 * a2 - r * r) / (2 * a2 * r))
    theta[:, 1] = np.arctan2(v, u) - np.arctan2(r * np.sin(psi), a2 + r * np.cos(psi))
    theta[:, 2] = psi + gamma
    # Less joints 1-3, RotZ(t1) RotX(+-pi/2) RotZ(t2 + t3) RotX(+-pi/2), R is
    # the wrist's RotZ(t4) RotX(+-pi/2) RotZ(t5) RotX(+-pi/2) RotZ(t6).
    R = _untwist(s3, _unturn(theta[:, 1] + theta[:, 2], _untwist(s1, _unturn(theta[:, 0], R))))
    sin5 = wrist * np.hypot(R[:, 0, 2], R[:, 1, 2])
    theta[:, 4] = np.arctan2(sin5, -s4 * s5 * R[:, 2, 2])
    theta[:, 3] = np.arctan2(s5 * wrist * R[:, 1, 2], s5 * wrist * R[:, 0, 2])
    # t6 from the first column of R, which also holds where q5 = 0 leaves
    # t4 free.
    c4, n4, c5 = np.cos(theta[:, 3]), np.sin(theta[:, 3]), np.cos(theta[:, 4])
    theta[:, 5] = np.arctan2(s4 * s5 * (n4 * R[:, 0, 0] - c4 * R[:, 1, 0]),
                             c4 * c5 * R[:, 0, 0] + n4 * c5 * R[:, 1, 0] + s4 * sin5 * R[:, 2, 0])
    found = ~np.isnan(psi)
    q = np.where(found[:, None], theta - offset, np.nan)
    q += _TWO_PI * np.round((mid - q) / _TWO_PI)
    if np.any(wide):
        path = np.unwrap(q[found][:, wide], axis=0)
        q[np.ix_(found, wide)] = path + _TWO_PI * np.round((start[wide] - path[:1]) / _TWO_PI)
    return q


def _residuals(err):
    """Position and rotation norms of error twists err[N, 6], as [N, 2]."""
    sq = err * err
    return np.sqrt(np.stack([sq[:, :3].sum(axis=1), sq[:, 3:].sum(axis=1)], axis=1))


def _norm(err):
    return np.sqrt(np.sum(err * err, axis=1))


def inverse_kinematics(
    arm: ArmModel,
    target,
    seed,
    tol_pos=DEFAULT_TOL_POS,
    tol_rot=DEFAULT_TOL_ROT,
    max_iter=DEFAULT_MAX_ITER,
):
    """Damped least-squares IK on the 6-D pose error twist of one arm.

    `target` is one Pose or stacked pose rows [N, 7]; `seed` is (6,),
    shared by every target, or one seed per target [N, 6]. A Pose with a
    (6,) seed gives q (6,), anything else q [N, 6]. Each arm is solved on
    its own call.

    The rows are solved in lockstep: each step evaluates one trial per
    row still iterating, with one kernel call and one batched solve. Each
    row keeps its own schedule: damping starts at _LAMBDA0 and grows 10x
    per rejected trial, a trial is accepted when it does not increase the
    residual, and a row stops after _MAX_RETRIES rejected trials in a row
    or `max_iter` accepted steps. Joint limits are enforced by clamping
    every trial, so solutions are always feasible. Deterministic:
    identical inputs give bit-identical outputs, and a row's solution
    does not depend on the other rows.

    A row that fails raises UnreachableTargetError for the first failing
    row, with its best residual and that row as `index`. A tolerance that
    is not finite and > 0, or a `max_iter` that is not an integer >= 1,
    raises InvalidInputError naming it.
    """
    if not isinstance(arm, ArmModel):
        raise InvalidInputError("IK takes one ArmModel; solve each arm with its own call")
    for name, tol in (("tol_pos", tol_pos), ("tol_rot", tol_rot)):
        if not 0 < tol < np.inf:
            raise InvalidInputError(f"IK {name} must be finite and > 0, got {tol}")
    if not (max_iter >= 1 and max_iter % 1 == 0):  # NaN fails both, inf the second
        raise InvalidInputError(f"IK max_iter must be an integer >= 1, got {max_iter}")
    targets = pose_rows(target)
    seeds = _joint_array(arm, seed, allow_out_of_limits=True)
    if targets.ndim > 2 or seeds.ndim > 2 or (targets.ndim == seeds.ndim == 2 and len(targets) != len(seeds)):
        raise InvalidInputError("IK takes targets [N, 7] with one seed (6,) or seeds [N, 6]")
    row, violation = _limit_violation(arm, seeds, "seed")
    if violation:
        raise InvalidInputError(f"IK {violation}" + (f" at seed row {row}" if seeds.ndim == 2 else ""))
    lo, hi = arm.joint_limits[:, 0], arm.joint_limits[:, 1]
    lead = targets.shape[:-1] or seeds.shape[:-1]
    targets = np.broadcast_to(targets, (lead[0] if lead else 1, 7))
    seeds = seeds.reshape(-1, 6)
    q = np.broadcast_to(seeds, (len(targets), 6)).copy()

    # The first failing row: (index, message, position and rotation residual).
    # Rows after it no longer matter and are not iterated.
    failure = (len(q), None, None, None)
    # The flange lies within reach + |flange offset| of the base origin.
    extent = arm.reach + np.linalg.norm(arm.flange_offset.position)
    dist = np.linalg.norm(targets[:, :3] - arm.base_pose.position, axis=1)
    far = np.flatnonzero(dist > extent)
    if far.size:
        i = int(far[0])
        failure = (i, f"target {dist[i]:.3f} m from base exceeds the arm's extent {extent:.3f} m "
                      f"(reach + |flange offset|)", dist[i] - extent, None)

    # The seeds' poses come from one forward_kinematics call (on the one
    # shared seed, if so given). Only the rows they leave outside the
    # tolerance iterate, and only those get a Jacobian: one jacobian call
    # on their seeds, or on the one shared seed. Both are the public
    # functions, which the benchmark's span tracer (perfbench/spans.py)
    # counts. Each trial step evaluates its pose and Jacobian in one kernel
    # call, and the Jacobian of an accepted step is reused by the next.
    err = pose_error(forward_kinematics(arm, seeds), targets)
    res = _residuals(err)
    # Per row still iterating (`rows` holds their indices, ascending): its
    # q, error, Jacobian, residuals, best residual, target, damping,
    # rejected trials in a row and accepted steps.
    rows = np.flatnonzero((res[:, 0] > tol_pos) | (res[:, 1] > tol_rot))
    rows = rows[rows < failure[0]]
    q_a, err_a, res_a, tgt_a = (x[rows] for x in (q, err, res, targets))
    if len(rows):
        J_a = np.broadcast_to(jacobian(arm, seeds if len(seeds) == 1 else seeds[rows]), (len(rows), 6, N_JOINTS))
    best_a = res_a.copy()
    lam_a = np.full(len(rows), _LAMBDA0)
    retries_a = np.zeros(len(rows), dtype=int)
    steps_a = np.zeros(len(rows), dtype=int)
    while len(rows):
        Jt = np.swapaxes(J_a, 1, 2)
        A = J_a @ Jt + (lam_a**2)[:, None, None] * _EYE6
        dq = (Jt @ np.linalg.solve(A, err_a[:, :, None]))[:, :, 0]
        q_new = np.clip(q_a + dq, lo, hi)
        T_new, J_new = _chain(arm._chain_consts, q_new)
        err_new = pose_error(matrix_pose_rows(T_new), tgt_a)
        ok = _norm(err_new) <= _norm(err_a)
        res_new = _residuals(err_new)
        q_a = np.where(ok[:, None], q_new, q_a)
        err_a = np.where(ok[:, None], err_new, err_a)
        J_a = np.where(ok[:, None, None], J_new, J_a)
        res_a = np.where(ok[:, None], res_new, res_a)
        # Best residual: the lexicographic minimum of (position, rotation).
        better = ok & ((res_new[:, 0] < best_a[:, 0])
                       | ((res_new[:, 0] == best_a[:, 0]) & (res_new[:, 1] < best_a[:, 1])))
        best_a = np.where(better[:, None], res_new, best_a)
        # Damped step; on residual increase back off with 10x damping.
        lam_a = np.where(ok, _LAMBDA0, 10.0 * lam_a)
        retries_a = np.where(ok, 0, retries_a + 1)
        steps_a = steps_a + ok
        done = ok & (res_a[:, 0] <= tol_pos) & (res_a[:, 1] <= tol_rot)
        q[rows[done]] = q_a[done]
        # No damping reduces the residual: q is a local minimum of it.
        stalled = retries_a == _MAX_RETRIES
        spent = ~done & (steps_a == max_iter)
        failed = np.flatnonzero(stalled | spent)
        if failed.size:
            k = failed[0]
            failure = (int(rows[k]), (
                f"IK stalled: no damped step reduced the residual after {_MAX_RETRIES} retries"
                if stalled[k] else f"IK did not converge in {max_iter} iterations"
            ) + f" (best residual {best_a[k, 0]:.3e} m, {best_a[k, 1]:.3e} rad)", *best_a[k])
        keep = ~(done | stalled | spent) & (rows < failure[0])
        if not np.all(keep):
            rows, q_a, err_a, J_a, res_a, tgt_a, best_a, lam_a, retries_a, steps_a = (
                x[keep] for x in (rows, q_a, err_a, J_a, res_a, tgt_a, best_a, lam_a, retries_a, steps_a)
            )
    row, message, pos_residual, rot_residual = failure
    if message is not None:
        raise UnreachableTargetError(message, pos_residual=pos_residual, rot_residual=rot_residual, index=row)
    return q.reshape(lead + (6,))
