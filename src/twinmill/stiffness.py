"""Static stiffness of one arm and of the coupled two-arm system.

The arms are treated as rigid links with linear torsional springs in the
joints; the coupling module between the flanges is a six-dimensional
linear spring. The tool sits rigidly on the arm-1 side of the module, so
the tool-point stiffness is arm 1 in parallel with the series combination
of the spring and arm 2.

Every function of joint configurations refuses joints outside their
limits, and also takes stacks q[..., 6] (the leading axes of q1 and q2
broadcast) and returns stacked results. Stacks are evaluated in blocks of
_BLOCK_ROWS rows, so peak memory does not grow with their length; an
error raised for one row carries that row of the flattened stack as
`index`. One block kernel, `_branch`, builds the arm-2 branch from arm
1's flange, evaluated without a Jacobian (`kinematics.flange_transform`),
and one frame pass of arm 2 (`kinematics._frames`); arm 1's Jacobian is
built only where its stiffness is (`cartesian_stiffness`). It refuses a
pair whose arm-2 flange lies more than MAX_OFFSET from its attachment
frame in `coupled_stiffness`, which takes commanded (tensioned) pairs,
and more than CLOSURE_TOL in `tension_offset` and `predicted_tension`,
which take nominal ones.

A Jacobian is rank deficient when its smallest singular value is at most
_MIN_SINGULAR_VALUE. A screen certifies most rows of a block full rank;
only the rows it cannot certify get an SVD, which decides and names the
first deficient row. The Cartesian stiffness of an arm (arm 1's, in the
coupled chain) screens with one batched inverse, since sigma_min(J) >=
1 / ||J^-1||_F, and reuses its J^-1: J^-T K_joint J^-1, with no
compliance to invert; every row of a block on which that inverse fails
gets the SVD. That is the only batched inverse of a Jacobian. The arm-2
branch, a compliance J K_joint^-1 J^T, screens with one batched
determinant, since sigma_min(J) >= |det J| / ||J||_F^(n-1). Symmetric
positive definite matrices are inverted through their Cholesky factor L,
whose inverse is taken by forward substitution.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ClosureError, InvalidInputError, SingularConfigurationError, TwinmillError
from .geometry import Pose, frozen, rotate6, transport_compliance, transport_stiffness
from .kinematics import ArmModel, _frames, flange_transform, jacobian

CLOSURE_TOL = 1e-4
MAX_OFFSET = 0.01  # m, commanded arm-2 flange from its nominal position
_MIN_SINGULAR_VALUE = 1e-8
_BLOCK_ROWS = 256

_AXES = ("x", "y", "z", "rx", "ry", "rz")


@dataclass(frozen=True)
class JointStiffness:
    """Diagonal joint stiffness, N·m/rad per joint."""

    diag: np.ndarray

    def __post_init__(self):
        d = frozen(self.diag)
        if d.shape != (6,) or not np.all(np.isfinite(d)):
            raise InvalidInputError("joint stiffness must be 6 finite values")
        if np.any(d <= 0):
            raise InvalidInputError("joint stiffness entries must be positive")
        object.__setattr__(self, "diag", d)


@dataclass(frozen=True)
class SpringModel:
    """6x6 stiffness of the coupling module, expressed in its attachment
    frame: translations N/m, rotations N·m/rad, coupling blocks N."""

    K: np.ndarray

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        if K.shape != (6, 6) or not np.all(np.isfinite(K)):
            raise InvalidInputError("spring matrix must be a finite 6x6 array")
        scale = np.max(np.abs(K))
        if scale == 0 or np.max(np.abs(K - K.T)) > 1e-9 * scale:
            raise InvalidInputError("spring matrix must be symmetric (1e-9 relative)")
        if np.min(np.linalg.eigvalsh(K)) <= 0:
            raise InvalidInputError("spring matrix must be positive definite")
        K = 0.5 * (K + K.T)
        K.flags.writeable = False  # `compliance` is cached from it
        object.__setattr__(self, "K", K)

    @cached_property
    def compliance(self):
        C = _spd_inverse(self.K, "coupling-module spring stiffness")
        C.flags.writeable = False
        return C


@dataclass(frozen=True)
class Wrench:
    """Force (N) and torque (N·m) in the world frame; stacked wrenches hold
    force[..., 3] and torque[..., 3]."""

    force: np.ndarray
    torque: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        f = frozen(self.force)
        t = frozen(self.torque)
        if f.shape[-1:] != (3,) or t.shape[-1:] != (3,) or not (
            np.all(np.isfinite(f)) and np.all(np.isfinite(t))
        ):
            raise InvalidInputError("wrench force/torque must be finite 3-vectors")
        f, t = np.broadcast_arrays(f, t)
        object.__setattr__(self, "force", f)
        object.__setattr__(self, "torque", t)

    @staticmethod
    def from_vector(v):
        v = np.asarray(v, dtype=float)
        return Wrench(v[..., :3], v[..., 3:])

    def as_vector(self):
        return np.concatenate([self.force, self.torque], axis=-1)


@dataclass(frozen=True)
class CoupledSystem:
    """Both arms, their joint springs, the coupling-module spring and the
    module geometry (tool point and arm-2 attachment, both relative to the
    arm-1 flange)."""

    arm1: ArmModel
    arm2: ArmModel
    joint_stiffness1: JointStiffness
    joint_stiffness2: JointStiffness
    spring: SpringModel
    tool_offset: Pose = field(default_factory=Pose.identity)
    flange2_offset: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        if np.array_equal(self.arm1.base_pose.position, self.arm2.base_pose.position) and np.array_equal(
            self.arm1.base_pose.quaternion, self.arm2.base_pose.quaternion
        ):
            raise InvalidInputError("the two arm base poses must be distinct")


def cell_sha256(sys: CoupledSystem) -> str:
    """The sha256 (hex) of the parsed cell in one canonical byte form,
    float64 little-endian in this order: per arm, 1 then 2, the DH rows,
    the joint limits, the base pose and the flange offset; the joint
    stiffnesses of arm 1 and arm 2; the spring K; `tool_offset` and
    `flange2_offset`. A pose is its position and its quaternion, signed so
    that its first nonzero component is positive (qw > 0 where qw != 0,
    as `Pose` keeps it), and -0.0 is hashed as 0.0. The same cell written
    with other key order, layout or signs of zero hashes the same."""

    def quat(q):
        return -q if q[np.flatnonzero(q)[0]] < 0.0 else q

    parts = []
    for arm in (sys.arm1, sys.arm2):
        parts += [arm.dh_rows, arm.joint_limits, arm.base_pose.position, quat(arm.base_pose.quaternion),
                  arm.flange_offset.position, quat(arm.flange_offset.quaternion)]
    parts += [sys.joint_stiffness1.diag, sys.joint_stiffness2.diag, sys.spring.K,
              sys.tool_offset.position, quat(sys.tool_offset.quaternion),
              sys.flange2_offset.position, quat(sys.flange2_offset.quaternion)]
    data = np.concatenate([np.ravel(a) for a in parts]).astype("<f8") + 0.0
    return hashlib.sha256(data.tobytes()).hexdigest()


def _spd_inverse(M, what):
    """Inverses of stacked symmetric positive definite matrices M[..., n, n]:
    M^-1 = L^-T L^-1 of the Cholesky factor L, with L^-1 by forward
    substitution, one row of every matrix per step."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        # Find the failing row to report it.
        for index, m in enumerate(M.reshape((-1,) + M.shape[-2:])):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError as exc:
                raise SingularConfigurationError(
                    f"{what} is not positive definite: {exc}", index=index
                ) from exc
        raise
    d = 1.0 / np.diagonal(L, axis1=-2, axis2=-1)
    Li = np.zeros_like(L)
    Li[..., 0, 0] = d[..., 0]
    for i in range(1, L.shape[-1]):
        Li[..., i, :i] = np.einsum("...j,...jk->...k", L[..., i, :i], Li[..., :i, :i]) * -d[..., i, None]
        Li[..., i, i] = d[..., i]
    return np.swapaxes(Li, -1, -2) @ Li


def _uncertified_by_inverse(J):
    """The inverses of the finite square matrices J[m, n, n] (None where the
    inverse of the stack fails) and the indices of the matrices whose
    smallest singular value the screen cannot put above
    _MIN_SINGULAR_VALUE. sigma_min(J) >= 1 / ||J^-1||_F, so a matrix with
    1 / ||J^-1||_F > 2 _MIN_SINGULAR_VALUE has full rank; the factor 2
    covers the rounding of the computed inverse. A NaN bound, and every
    matrix of a stack on which the inverse fails, is uncertified."""
    try:
        Ji = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        return None, np.arange(len(J))
    with np.errstate(over="ignore"):
        bound = 1.0 / np.sqrt(np.sum(Ji * Ji, axis=(-2, -1)))
    return Ji, np.flatnonzero(~(bound > 2 * _MIN_SINGULAR_VALUE))


def _uncertified_by_det(J):
    """The indices of the finite square matrices J[m, n, n] whose smallest
    singular value the screen cannot put above _MIN_SINGULAR_VALUE. |det
    J| is the product of the singular values, and each of the n - 1 others
    is at most ||J||_F, so sigma_min(J) >= |det J| / ||J||_F^(n-1); a
    matrix whose bound exceeds 2 _MIN_SINGULAR_VALUE has full rank, the
    factor 2 covering the rounding of the LU determinant. A NaN bound (0 /
    0, inf / inf) is uncertified, and so is a zero one."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bound = np.abs(np.linalg.det(J)) / np.sum(J * J, axis=(-2, -1)) ** (0.5 * (J.shape[-1] - 1))
    return np.flatnonzero(~(bound > 2 * _MIN_SINGULAR_VALUE))


def _refuse_rank_deficient(flat, unsure):
    """Raise SingularConfigurationError for the first of the finite square
    matrices flat[unsure] whose smallest singular value is at most
    _MIN_SINGULAR_VALUE, with its row of flat[m, n, n] as `index`;
    `unsure` holds the ascending indices of the rows a screen could not
    certify, and their SVD decides."""
    if not unsure.size:
        return
    bad = unsure[np.linalg.svd(flat[unsure], compute_uv=False)[:, -1] <= _MIN_SINGULAR_VALUE]
    if bad.size:
        index = int(bad[0])
        u, svi, _ = np.linalg.svd(flat[index])
        dir6 = u[:, -1]
        axis = _AXES[int(np.argmax(np.abs(dir6[: len(_AXES)])))] if len(dir6) >= 6 else "n/a"
        raise SingularConfigurationError(
            f"Jacobian is rank deficient (smallest singular value {svi[-1]:.3e}); "
            f"deficient direction dominated by axis '{axis}'",
            index=index,
        )


def _full_rank_inverse(J):
    """J^-1 of stacked finite square Jacobians J[..., n, n], rejecting
    rank-deficient ones. The inverse is the screen's
    (`_uncertified_by_inverse`); only the rows it leaves get an SVD
    (`_refuse_rank_deficient`). A stack whose inverse fails though every
    row has full rank is inverted through its SVD."""
    flat = J.reshape((-1,) + J.shape[-2:])
    Ji, unsure = _uncertified_by_inverse(flat)
    _refuse_rank_deficient(flat, unsure)
    if Ji is None:
        u, sv, vt = np.linalg.svd(flat)
        Ji = (np.swapaxes(vt, -1, -2) / sv[:, None, :]) @ np.swapaxes(u, -1, -2)
    return Ji.reshape(J.shape)


def _compliance_from_jacobian(J, k_diag):
    """J K_joint^-1 J^T for stacked finite square Jacobians J[..., n, n],
    rejecting rank-deficient ones: the determinant screen
    (`_uncertified_by_det`), then the SVD of the rows it leaves
    (`_refuse_rank_deficient`). No inverse of J is taken."""
    flat = J.reshape((-1,) + J.shape[-2:])
    _refuse_rank_deficient(flat, _uncertified_by_det(flat))
    return (J * (1.0 / k_diag)) @ np.swapaxes(J, -1, -2)


def _symmetric(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _stiffness_from_jacobian(J, k_diag):
    """Cartesian stiffness J^-T K_joint J^-1 = (J K_joint^-1 J^T)^-1 for
    stacked finite square Jacobians J[..., n, n] and positive joint
    stiffnesses k_diag[n], from the rank screen's J^-1
    (`_full_rank_inverse`)."""
    Ji = _full_rank_inverse(J)
    return _symmetric((np.swapaxes(Ji, -1, -2) * k_diag) @ Ji)


def _stacked(fn, out_shape, *stacks):
    """fn over stacks [..., n] whose leading axes broadcast, flattened to
    rows and taken in blocks of at most _BLOCK_ROWS rows. The result gets
    the common leading shape back; an error's index is the row of the
    flattened stack."""
    arrays = [np.asarray(a, dtype=float) for a in stacks]
    try:
        if any(a.ndim < 1 for a in arrays):
            raise ValueError("a scalar is not a stack of vectors")
        lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    except ValueError as exc:
        raise InvalidInputError(f"stacked arguments do not broadcast: {exc}") from exc
    rows = [np.broadcast_to(a, lead + a.shape[-1:]).reshape(-1, a.shape[-1]) for a in arrays]
    out = np.empty((len(rows[0]),) + out_shape)
    for start in range(0, len(out), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        try:
            out[block] = fn(*(r[block] for r in rows))
        except TwinmillError as exc:
            if exc.index is not None:
                exc.index += start
            raise
    return out.reshape(lead + out_shape)


def cartesian_stiffness(arm: ArmModel, q, k_joint: JointStiffness):
    """Configuration-dependent 6x6 Cartesian stiffness at the flange,
    world frame."""
    return _stacked(
        lambda qb: _stiffness_from_jacobian(jacobian(arm, qb), k_joint.diag),
        (6, 6), q,
    )


def _position(T):
    return T[..., :3, 3]


def check_closure(actual, planned, tol, message):
    """Raise ClosureError for the first row of stacked positions [..., 3]
    at which `actual` lies more than `tol` m (or a NaN distance) from
    `planned`. `message` is formatted with that row's `index` and `gap`
    (m)."""
    gaps = np.linalg.norm(np.asarray(actual) - planned, axis=-1).reshape(-1)
    bad = np.flatnonzero(~(gaps <= tol))
    if bad.size:
        i = int(bad[0])
        raise ClosureError(message.format(index=i, gap=gaps[i]), gap=float(gaps[i]), index=i)


def _branch(sys: CoupledSystem, q1, q2, closure_tol=CLOSURE_TOL):
    """The arm-2 branch of a block of configuration pairs: arm 1's flange
    transforms, the attachment frames of arm 2 on them and the series
    compliance of arm 2 and the spring at the attachment point, not yet
    symmetrized. Checks closure first. Arm 1's flange comes from the
    flange-only kernel, arm 2's flange and Jacobian from one frame pass."""
    fk1 = flange_transform(sys.arm1, q1)
    fk2, J2 = _frames(sys.arm2, q2)
    attach = fk1 @ sys.flange2_offset.matrix()
    check_closure(_position(fk2), _position(attach), closure_tol,
                  "kinematic closure violated: arm-2 flange is {gap:.3e} m from its attachment frame")
    C2 = _compliance_from_jacobian(J2, sys.joint_stiffness2.diag)
    C2 = transport_compliance(C2, _position(attach) - _position(fk2))
    R6 = rotate6(attach[:, :3, :3])
    return fk1, attach, C2 + R6 @ sys.spring.compliance @ np.swapaxes(R6, -1, -2)


def _coupled_block(sys, q1, q2):
    fk1, attach, C_branch2 = _branch(sys, q1, q2, MAX_OFFSET)
    tool = _position(fk1 @ sys.tool_offset.matrix())
    K1 = cartesian_stiffness(sys.arm1, q1, sys.joint_stiffness1)
    K1_tool = transport_stiffness(K1, tool - _position(fk1))
    C_branch2_tool = transport_compliance(C_branch2, tool - _position(attach))
    return _symmetric(K1_tool + _spd_inverse(C_branch2_tool, "arm-2 branch compliance"))


def coupled_stiffness(sys: CoupledSystem, q1, q2):
    """6x6 stiffness of the closed chain at the tool point, world frame.

    The pairs may be commanded (tensioned) ones, whose arm-2 flange lies
    the setpoint offset from its attachment frame; a gap above MAX_OFFSET
    raises ClosureError.
    """
    return _stacked(lambda a, b: _coupled_block(sys, a, b), (6, 6), q1, q2)


def _matvec(M, v):
    return (M @ v[..., None])[..., 0]


def tension_offset(sys: CoupledSystem, q1, q2, desired: Wrench):
    """Setpoint offset for robot 2 (3 translations m, 3 rotations rad,
    world axes) that makes the coupling module carry `desired`."""
    return _stacked(
        lambda a, b, w: _matvec(_symmetric(_branch(sys, a, b)[2]), w),
        (6,), q1, q2, desired.as_vector(),
    )


def predicted_tension(sys: CoupledSystem, q1, q2, offset) -> Wrench:
    """Internal wrench produced by commanding robot 2 to nominal ⊕ offset;
    exact inverse of tension_offset in the linear model."""
    offset = np.asarray(offset, dtype=float)
    if offset.shape[-1:] != (6,) or not np.all(np.isfinite(offset)):
        raise InvalidInputError("offset must be a finite 6-vector")
    return Wrench.from_vector(_stacked(
        lambda a, b, d: _matvec(_spd_inverse(_symmetric(_branch(sys, a, b)[2]),
                                             "arm-2 branch compliance"), d),
        (6,), q1, q2, offset,
    ))
