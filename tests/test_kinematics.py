import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill.errors import InvalidInputError, UnreachableTargetError
from twinmill.geometry import Pose, matrix_pose_rows, pose_error, pose_rows, quat_from_rotvec, rotvec_from_quat
from twinmill.kinematics import ArmModel, _chain, _flange, forward_kinematics, inverse_kinematics, jacobian

from conftest import DEMO_CONFIG, JOINT_STIFFNESS, make_one_link_arm, make_test_arm, reachable_stack


def dh_frames(arm, q):
    """Independent FK oracle: the base and the 6 joint frames of one q (6,)
    from explicit per-link RotZ(theta) TransZ(d) TransX(a) RotX(alpha)
    4x4 products, and the flange transform."""
    def rz(t):
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    def rx(t):
        c, s = np.cos(t), np.sin(t)
        return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]])

    def trans(x, y, z):
        T = np.eye(4)
        T[:3, 3] = (x, y, z)
        return T

    frames = [arm.base_pose.matrix()]
    for (a, alpha, d, off), qi in zip(arm.dh_rows, q):
        frames.append(frames[-1] @ rz(qi + off) @ trans(0, 0, d) @ trans(a, 0, 0) @ rx(alpha))
    return frames, frames[-1] @ arm.flange_offset.matrix()


def dh_oracle(arm, q):
    return dh_frames(arm, q)[1]


class TestForwardKinematics:
    def test_degenerate_arm_is_base_times_flange(self):
        base = Pose(np.array([0.3, -0.2, 1.0]), quat_from_rotvec([0.1, 0.2, 0.3]))
        flange = Pose(np.array([0.0, 0.0, 0.25]), quat_from_rotvec([0.0, 0.4, 0.0]))
        rows = np.zeros((6, 4))
        arm = ArmModel(rows, np.tile([-np.pi, np.pi], (6, 1)), base_pose=base, flange_offset=flange,
                       joint_stiffness=JOINT_STIFFNESS)
        pose = forward_kinematics(arm, np.zeros(6))
        expected = base @ flange
        np.testing.assert_allclose(pose.position, expected.position, atol=1e-15)
        np.testing.assert_allclose(pose.quaternion, expected.quaternion, atol=1e-15)

    def test_one_link_quarter_turn(self):
        arm = make_one_link_arm(a1=1.0)
        q = np.zeros(6)
        q[0] = np.pi / 2
        pose = forward_kinematics(arm, q)
        np.testing.assert_allclose(pose.position, [0.0, 1.0, 0.0], atol=1e-15)

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(7)
        arm = make_test_arm(
            base=Pose(np.array([0.5, 0.1, 0.0]), quat_from_rotvec([0.0, 0.0, 0.7])),
            flange=Pose(np.array([0.0, 0.0, 0.1])),
        )
        for _ in range(20):
            q = rng.uniform(arm.joint_limits[:, 0], arm.joint_limits[:, 1])
            T = dh_oracle(arm, q)
            pose = forward_kinematics(arm, q)
            np.testing.assert_allclose(pose.position, T[:3, 3], atol=1e-12)
            np.testing.assert_allclose(pose.rotation(), T[:3, :3], atol=1e-12)

    def test_base_composition(self):
        rng = np.random.default_rng(8)
        B = Pose(np.array([1.0, -0.5, 0.3]), quat_from_rotvec([0.2, -0.1, 0.9]))
        arm0 = make_test_arm()
        armB = make_test_arm(base=B)
        for _ in range(10):
            q = rng.uniform(arm0.joint_limits[:, 0], arm0.joint_limits[:, 1])
            composed = B @ forward_kinematics(arm0, q)
            direct = forward_kinematics(armB, q)
            np.testing.assert_allclose(direct.position, composed.position, atol=1e-12)
            np.testing.assert_allclose(direct.quaternion, composed.quaternion, atol=1e-12)


class TestJacobian:
    def test_one_link_analytic(self):
        arm = make_one_link_arm(a1=1.0)
        J = jacobian(arm, np.zeros(6))
        np.testing.assert_allclose(J[:3, 0], [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(J[3:, 0], [0.0, 0.0, 1.0], atol=1e-15)

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(9)
        arm = make_test_arm()
        h = 1e-6
        for _ in range(100):
            q = rng.uniform(arm.joint_limits[:, 0], arm.joint_limits[:, 1])
            J = jacobian(arm, q)
            for i in range(6):
                qp, qm = q.copy(), q.copy()
                qp[i] += h
                qm[i] -= h
                fp = matrix_pose_rows(_flange(arm._chain_consts, qp))
                fm = matrix_pose_rows(_flange(arm._chain_consts, qm))
                dlin = (fp[:3] - fm[:3]) / (2 * h)
                dang = pose_error(fm, fp)[3:] / (2 * h)
                np.testing.assert_allclose(J[:3, i], dlin, atol=1e-5)
                np.testing.assert_allclose(J[3:, i], dang, atol=1e-5)

    def test_stacked_configurations(self, test_arm):
        rng = np.random.default_rng(14)
        Q = rng.uniform(test_arm.joint_limits[:, 0], test_arm.joint_limits[:, 1], (2, 3, 6))
        J = jacobian(test_arm, Q)
        assert J.shape == (2, 3, 6, 6)
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(J[idx], jacobian(test_arm, Q[idx]), rtol=0, atol=1e-15)

    def test_singular_at_full_stretch(self):
        arm = make_one_link_arm(a1=1.0)
        sv = np.linalg.svd(jacobian(arm, np.zeros(6)), compute_uv=False)
        assert sv[-1] < 1e-9


def three_part_chain(arm, q):
    """Flange transforms and Jacobians of stacked q[N, 6] with each link
    matrix summed from its three parts, cos(theta) * C + sin(theta) * S +
    F, and the frames multiplied as in `_chain`."""
    a, alpha, d, offset = arm.dh_rows.T
    L = np.zeros((6, 4, 4))
    L[:, 0, 0], L[:, 0, 3] = 1.0, a
    L[:, 1, 1], L[:, 1, 2] = np.cos(alpha), -np.sin(alpha)
    L[:, 2, 1], L[:, 2, 2], L[:, 2, 3] = np.sin(alpha), np.cos(alpha), d
    L[:, 3, 3] = 1.0
    C, S, F = np.zeros_like(L), np.zeros_like(L), np.zeros_like(L)
    C[:, :2] = L[:, :2]
    S[:, 0], S[:, 1] = -L[:, 1], L[:, 0]
    F[:, 2:] = L[:, 2:]
    theta = (q + offset)[..., None, None]
    A = np.cos(theta) * C + np.sin(theta) * S + F
    frames = np.empty((len(q), 7, 4, 4))
    frames[:, 0] = arm.base_pose.matrix()
    for i in range(6):
        np.matmul(frames[:, i], A[:, i], out=frames[:, i + 1])
    T = frames[:, 6] @ arm.flange_offset.matrix()
    z = frames[:, :6, :3, 2]
    r = T[:, None, :3, 3] - frames[:, :6, :3, 3]
    J = np.empty((len(q), 6, 6))
    J[:, 0] = z[..., 1] * r[..., 2] - z[..., 2] * r[..., 1]
    J[:, 1] = z[..., 2] * r[..., 0] - z[..., 0] * r[..., 2]
    J[:, 2] = z[..., 0] * r[..., 1] - z[..., 1] * r[..., 0]
    J[:, 3:] = np.swapaxes(z, 1, 2)
    return T, J


def per_link_chain(arm, q):
    """Flange transform and Jacobian of one q (6,) from `dh_frames`."""
    frames, T = dh_frames(arm, q)
    z = np.array([f[:3, 2] for f in frames[:6]])
    p = np.array([f[:3, 3] for f in frames[:6]])
    return T, np.vstack([np.cross(z, T[:3, 3] - p).T, z.T])


def kernel_arms():
    from twinmill.config import load_config

    system = load_config(DEMO_CONFIG).system
    return {"demo arm 1": system.arm1, "demo arm 2": system.arm2, "test arm": make_test_arm(
        base=Pose(np.array([0.5, 0.1, 0.0]), quat_from_rotvec([0.0, 0.0, 0.7])),
        flange=Pose(np.array([0.0, 0.0, 0.1])))}


class TestChainKernel:
    """`_chain` builds every link matrix of a call with one product of
    (cos, sin, 1) and the arm's [6, 3, 16] link parts."""

    @pytest.mark.parametrize("name", sorted(kernel_arms()))
    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_equals_the_three_part_sum(self, name, n):
        arm = kernel_arms()[name]
        q = np.random.default_rng(n).uniform(arm.joint_limits[:, 0], arm.joint_limits[:, 1], (n, 6))
        T, J = _chain(arm._chain_consts, q)
        T_ref, J_ref = three_part_chain(arm, q)
        assert np.array_equal(T, T_ref) and np.array_equal(J, J_ref)

    @pytest.mark.parametrize("name", sorted(kernel_arms()))
    def test_matches_the_per_link_product(self, name):
        arm = kernel_arms()[name]
        q = np.random.default_rng(31).uniform(arm.joint_limits[:, 0], arm.joint_limits[:, 1], (300, 6))
        T, J = _chain(arm._chain_consts, q)
        for i, row in enumerate(q):
            T_ref, J_ref = per_link_chain(arm, row)
            # 1e-15 of the frame's largest entry, a few units of rounding.
            scale = np.max(np.abs(T_ref))
            assert np.max(np.abs(T[i] - T_ref)) <= 1e-15 * scale
            assert np.max(np.abs(J[i] - J_ref)) <= 1e-15 * scale


def flange_kernel_arms():
    """`kernel_arms` and both demo arms with d5 = 1 mm, which have no
    closed-form IK."""
    arms = kernel_arms()
    for k in (1, 2):
        arm = arms[f"demo arm {k}"]
        rows = arm.dh_rows.copy()
        rows[4, 2] = 1e-3
        arms[f"demo arm {k}, d5 = 1 mm"] = dataclasses.replace(arm, dh_rows=rows)
    return arms


FLANGE_ARMS = flange_kernel_arms()
STACK_SHAPES = st.one_of(st.just(()), st.tuples(st.integers(1, 64)), st.tuples(st.integers(1, 8), st.integers(1, 8)))


@settings(max_examples=60)
@given(st.sampled_from(sorted(FLANGE_ARMS)), STACK_SHAPES, st.data())
def test_the_flange_kernel_is_the_chain_transform(name, shape, data):
    """`_flange` runs `_chain`'s products without its frames and Jacobian:
    T is bit-identical on in-limits stacks q (6,), [N, 6] and [a, b, 6]."""
    arm = FLANGE_ARMS[name]
    share = data.draw(arrays(np.float64, shape + (6,), elements=st.floats(0.0, 1.0)))
    lo, hi = arm.joint_limits.T
    q = lo + share * (hi - lo)
    T = _flange(arm._chain_consts, q)
    assert T.shape == shape + (4, 4)
    assert np.array_equal(T, _chain(arm._chain_consts, q)[0])


class TestInverseKinematics:
    def test_fixed_point_returns_seed(self, test_arm):
        seed = np.array([0.2, -0.4, 0.6, 0.1, -0.5, 0.3])
        target = forward_kinematics(test_arm, seed)
        q = inverse_kinematics(test_arm, target, seed)
        np.testing.assert_array_equal(q, seed)

    def test_round_trip(self, test_arm):
        rng = np.random.default_rng(10)
        for _ in range(100):
            q_star = rng.uniform(test_arm.joint_limits[:, 0] * 0.8, test_arm.joint_limits[:, 1] * 0.8)
            target = forward_kinematics(test_arm, q_star)
            seed = np.clip(
                q_star + rng.uniform(-0.1, 0.1, 6),
                test_arm.joint_limits[:, 0],
                test_arm.joint_limits[:, 1],
            )
            q = inverse_kinematics(test_arm, target, seed)
            err = pose_error(forward_kinematics(test_arm, q), target)
            assert np.linalg.norm(err[:3]) < 1e-6
            assert np.linalg.norm(err[3:]) < 1e-6

    def test_out_of_workspace_error_carries_residual(self, test_arm):
        try:
            inverse_kinematics(test_arm, Pose(np.array([10.0, 0.0, 0.0])), np.zeros(6))
        except UnreachableTargetError as exc:
            assert exc.pos_residual is not None and exc.pos_residual > 0

    def test_respects_limits(self, test_arm):
        rng = np.random.default_rng(11)
        for _ in range(30):
            q_star = rng.uniform(test_arm.joint_limits[:, 0] * 0.8, test_arm.joint_limits[:, 1] * 0.8)
            target = forward_kinematics(test_arm, q_star)
            seed = np.clip(q_star + rng.uniform(-0.2, 0.2, 6),
                           test_arm.joint_limits[:, 0], test_arm.joint_limits[:, 1])
            q = inverse_kinematics(test_arm, target, seed)
            assert np.all((test_arm.joint_limits[:, 0] <= q) & (q <= test_arm.joint_limits[:, 1]))

    def test_deterministic(self, test_arm):
        seed = np.array([0.1, 0.2, 0.3, -0.2, 0.4, 0.0])
        target = forward_kinematics(test_arm, np.array([0.15, 0.25, 0.35, -0.25, 0.45, 0.05]))
        q1 = inverse_kinematics(test_arm, target, seed)
        q2 = inverse_kinematics(test_arm, target, seed)
        np.testing.assert_array_equal(q1, q2)

    def test_exhausted_retries_stop_with_best_residual(self, test_arm, monkeypatch):
        """When no damping reduces the residual, the solve stops at the
        current configuration instead of taking the worse step."""
        from twinmill import kinematics

        seed = np.array([0.2, -0.4, 0.6, 0.1, -0.5, 0.3])
        target = forward_kinematics(test_arm, seed + 0.05)
        seed_err = pose_error(forward_kinematics(test_arm, seed), target)
        calls = []

        def worse_first_step(actual, tgt):
            calls.append(actual)
            err = pose_error(actual, tgt)
            # Call 1 evaluates the seed; calls 2-9 are the damped trials of
            # the first step, all made to look worse than the seed.
            return err + 1.0 if 2 <= len(calls) <= 9 else err

        monkeypatch.setattr(kinematics, "pose_error", worse_first_step)
        with pytest.raises(UnreachableTargetError) as exc:
            inverse_kinematics(test_arm, target, seed)
        assert len(calls) == 9
        assert exc.value.pos_residual == pytest.approx(np.linalg.norm(seed_err[:3]), rel=1e-15)
        assert exc.value.rot_residual == pytest.approx(np.linalg.norm(seed_err[3:]), rel=1e-15)

    def test_a_rejected_trial_inside_both_tolerances_does_not_finish_the_row(self, test_arm, monkeypatch):
        """Every trial lands 0.9e-6 m and 0.9e-6 rad from the target: inside
        both tolerances, but with a larger error norm than the seed's, which
        is 1.05e-6 m off in position only. Each trial is rejected, so the
        row stalls instead of returning its out-of-tolerance seed."""
        from twinmill import kinematics

        seed = np.array([0.2, -0.4, 0.6, 0.1, -0.5, 0.3])
        reached = forward_kinematics(test_arm, seed)
        target = Pose(reached.position + [1.05e-6, 0.0, 0.0], reached.quaternion)
        trial = (target @ Pose(np.array([0.0, 0.9e-6, 0.0]), quat_from_rotvec(np.array([0.0, 0.0, 0.9e-6])))).matrix()
        real_chain = kinematics._chain

        def off_target(consts, q):
            T, J = real_chain(consts, q)
            return np.broadcast_to(trial, T.shape), J

        monkeypatch.setattr(kinematics, "_chain", off_target)
        with pytest.raises(UnreachableTargetError) as exc:
            inverse_kinematics(test_arm, target, seed)
        assert str(exc.value).startswith("IK stalled: ")
        assert exc.value.pos_residual == pytest.approx(1.05e-6, rel=1e-6)
        assert exc.value.rot_residual < 1e-12


class TestGeometryHelpers:

    def test_rotvec_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rv = rng.normal(size=3)
            rv *= rng.uniform(0, np.pi) / np.linalg.norm(rv)
            back = rotvec_from_quat(quat_from_rotvec(rv))
            np.testing.assert_allclose(back, rv, atol=1e-12)

    def test_pose_arrays_are_read_only_copies(self):
        p, q = np.array([0.1, 0.2, 0.3]), np.array([0.0, 1.0, 0.0, 0.0])
        pose = Pose(p, q)
        with pytest.raises(ValueError):
            pose.position[0] += 1.0
        with pytest.raises(ValueError):
            pose.quaternion[0] = 1.0
        p[0] = q[0] = 5.0  # the caller's arrays stay writeable and are not the Pose's
        np.testing.assert_array_equal(pose.position, [0.1, 0.2, 0.3])
        np.testing.assert_array_equal(pose.quaternion, [0.0, 1.0, 0.0, 0.0])

    def test_pose_compose_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = Pose(rng.normal(size=3), quat_from_rotvec(rng.normal(size=3)))
            ident = p @ p.inverse()
            np.testing.assert_allclose(ident.position, 0.0, atol=1e-12)
            np.testing.assert_allclose(ident.quaternion, [1, 0, 0, 0], atol=1e-12)


# Quaternion norms either side of the 1e-9 tolerance of Pose and pose_rows.
NORMS = (1.0, 1.0 - 0.9e-9, 1.0 + 0.9e-9, 1.0 - 1.1e-9, 1.0 + 1.1e-9)


@settings(max_examples=80)
@given(
    arrays(np.float64, 3, elements=st.floats()),
    arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)),
    st.sampled_from((None, 0.0, -0.0)),
    st.sampled_from(NORMS),
    st.integers(0, 3),
    st.sampled_from((None, np.nan, np.inf, -np.inf)),
)
@example(np.zeros(3), np.array([0.3, 0.5, -0.5, 0.5]), -0.0, 1.0, 0, None)
@example(np.zeros(3), np.array([-0.3, 0.5, -0.5, 0.5]), None, NORMS[1], 0, None)
@example(np.zeros(3), np.array([-0.3, 0.5, -0.5, 0.5]), None, NORMS[2], 0, None)
@example(np.zeros(3), np.array([-0.3, 0.5, -0.5, 0.5]), None, NORMS[3], 0, None)
@example(np.zeros(3), np.array([-0.3, 0.5, -0.5, 0.5]), None, NORMS[4], 0, None)
@example(np.zeros(3), np.array([-0.3, 0.5, -0.5, 0.5]), None, 1.0, 0, np.nan)
@example(np.zeros(3), np.array([-0.3, 0.5, -0.5, 0.5]), None, 1.0, 2, np.inf)
@example(np.array([0.0, np.nan, 0.0]), np.array([-0.3, 0.5, -0.5, 0.5]), None, 1.0, 0, None)
@example(np.array([0.0, 0.0, -np.inf]), np.array([-0.3, 0.5, -0.5, 0.5]), None, 1.0, 0, None)
def test_pose_and_pose_rows_accept_the_same_inputs(position, direction, w, norm, k, bad):
    """The scalar rule of Pose and the stacked rule of pose_rows: a finite
    position, a quaternion of norm 1 within 1e-9, the sign with w >= 0
    (w = -0.0 is kept), the same canonical row."""
    direction = direction.copy()
    if w is not None:
        direction[0] = w
    length = np.linalg.norm(direction)
    assume(length > 0.1)
    q = direction / length * norm
    if bad is not None:
        q[k] = bad
    row = np.concatenate([position, q])
    valid = bool(np.isfinite(position).all()) and bad is None and norm in NORMS[:3]
    try:
        pose = Pose(position, q)
        pose = np.concatenate([pose.position, pose.quaternion])
    except InvalidInputError:
        pose = None
    try:
        rows = pose_rows(row)
    except InvalidInputError:
        rows = None
    assert (pose is not None) == (rows is not None) == valid
    if valid:
        canonical = np.concatenate([position, -q if q[0] < 0.0 else q])
        assert rows[3] >= 0.0
        np.testing.assert_array_equal(rows.view(np.uint64), canonical.view(np.uint64))
        np.testing.assert_array_equal(pose.view(np.uint64), canonical.view(np.uint64))


def scalar_dls(arm, target, seed, tol_pos=1e-6, tol_rot=1e-6, max_iter=200):
    """Reference: the damped least-squares schedule one target at a time,
    as a plain loop (damping 1e-3, 10x per rejected trial, at most 8
    rejected trials in a row, accept when the residual does not grow).
    Returns q, or None when the solve fails."""
    lo, hi = arm.joint_limits[:, 0], arm.joint_limits[:, 1]
    q = np.array(seed, dtype=float)
    err = pose_error(forward_kinematics(arm, q), target)
    for _ in range(max_iter):
        if np.linalg.norm(err[:3]) <= tol_pos and np.linalg.norm(err[3:]) <= tol_rot:
            return q
        J = jacobian(arm, q)
        lam = 1e-3
        for _retry in range(8):
            dq = J.T @ np.linalg.solve(J @ J.T + lam**2 * np.eye(6), err)
            q_new = np.clip(q + dq, lo, hi)
            err_new = pose_error(forward_kinematics(arm, q_new), target)
            if np.linalg.norm(err_new) <= np.linalg.norm(err):
                break
            lam *= 10.0
        else:
            return None
        q, err = q_new, err_new
    if np.linalg.norm(err[:3]) <= tol_pos and np.linalg.norm(err[3:]) <= tol_rot:
        return q
    return None


class TestStackedInverseKinematics:
    @pytest.fixture(scope="class")
    def stack(self):
        arm = make_test_arm()
        targets, seeds = reachable_stack(arm, 257)
        single = np.array([inverse_kinematics(arm, Pose(t[:3], t[3:]), s) for t, s in zip(targets, seeds)])
        return arm, targets, seeds, single

    @pytest.mark.parametrize("n", [1, 255, 256, 257])
    def test_rows_equal_single_solves(self, stack, n):
        arm, targets, seeds, single = stack
        q = inverse_kinematics(arm, targets[:n], seeds[:n])
        assert q.shape == (n, 6)
        np.testing.assert_allclose(q, single[:n], rtol=0, atol=1e-12)

    def test_rows_follow_the_scalar_schedule(self, stack):
        """Far seeds need damped retries; every row still takes the steps
        of the one-target loop."""
        arm = stack[0]
        targets, seeds = reachable_stack(arm, 40, spread=0.6, seed=23)
        reference = [scalar_dls(arm, Pose(t[:3], t[3:]), s) for t, s in zip(targets, seeds)]
        assert all(q is not None for q in reference)
        q = inverse_kinematics(arm, targets, seeds)
        np.testing.assert_allclose(q, reference, rtol=0, atol=1e-12)

    def test_one_seed_is_shared(self, stack):
        arm, _, seeds, _ = stack
        targets = forward_kinematics(arm, seeds[0] + np.linspace(-0.04, 0.04, 5)[:, None])
        q = inverse_kinematics(arm, targets, seeds[0])
        for row, target in zip(q, targets):
            np.testing.assert_allclose(row, inverse_kinematics(arm, target, seeds[0]), rtol=0, atol=1e-12)

    def test_pose_target_with_stacked_seeds(self, stack):
        arm, targets, seeds, _ = stack
        q = inverse_kinematics(arm, Pose(targets[0, :3], targets[0, 3:]), seeds[:1])
        assert q.shape == (1, 6)

    def test_empty_stack(self, test_arm):
        assert inverse_kinematics(test_arm, np.empty((0, 7)), np.zeros(6)).shape == (0, 6)
        assert inverse_kinematics(test_arm, np.empty((0, 7)), np.empty((0, 6))).shape == (0, 6)

    @pytest.mark.parametrize("shared", [True, False], ids=["one-seed", "seed-per-row"])
    def test_a_failure_hands_back_the_rows_it_solved(self, stack, shared):
        """`solved` holds the rows before the failing one, bit for bit as a
        call on them alone solves them."""
        arm, targets, seeds, _ = stack
        if shared:
            seed = seeds[0]
            bad = forward_kinematics(arm, seed + np.linspace(-0.04, 0.04, 12)[:, None])
        else:
            seed, bad = seeds[:12], targets[:12].copy()
        bad[9, :3] = [10.0, 0.0, 0.0]
        with pytest.raises(UnreachableTargetError) as exc:
            inverse_kinematics(arm, bad, seed)
        assert exc.value.index == 9
        fresh = inverse_kinematics(arm, bad[:9], seed if shared else seed[:9])
        assert not np.array_equal(fresh, np.broadcast_to(seed, (12, 6))[:9])  # the rows iterated
        np.testing.assert_array_equal(exc.value.solved, fresh)

    def test_a_later_row_failing_later_cannot_displace_the_first(self, stack, monkeypatch):
        from twinmill import kinematics

        arm, targets, seeds, _ = stack
        calls = []

        def reject_row_1_twice(actual, tgt):
            calls.append(actual)
            err = pose_error(actual, tgt)
            # Calls 2 and 3 are the first two trial steps: row 1's trials
            # look worse, so it fails one step after row 0.
            if 2 <= len(calls) <= 3:
                err = err + np.all(tgt == targets[1], axis=-1)[:, None]
            return err

        monkeypatch.setattr(kinematics, "pose_error", reject_row_1_twice)
        with pytest.raises(UnreachableTargetError) as exc:
            inverse_kinematics(arm, targets[:2], seeds[:2], max_iter=1)
        assert exc.value.index == 0

    def test_exact_seeds_iterate_no_row(self, stack, monkeypatch):
        """Seeds that already reproduce their targets come back unchanged,
        and the lockstep loop, whose every step starts with one batched
        solve, takes no step."""
        arm, _, seeds, _ = stack
        targets = forward_kinematics(arm, seeds[:40])

        def no_step(*args, **kwargs):
            raise AssertionError("an IK row iterated")

        monkeypatch.setattr(np.linalg, "solve", no_step)
        np.testing.assert_array_equal(inverse_kinematics(arm, targets, seeds[:40]), seeds[:40])

    def test_forward_kinematics_rows(self, stack):
        arm, _, seeds, _ = stack
        rows = forward_kinematics(arm, seeds[:4])
        assert rows.shape == (4, 7)
        for row, q in zip(rows, seeds[:4]):
            pose = forward_kinematics(arm, q)
            np.testing.assert_allclose(row, np.concatenate([pose.position, pose.quaternion]),
                                       rtol=0, atol=1e-15)


class TestArmModel:
    def test_arrays_are_read_only_copies(self):
        rows, limits = np.array(make_test_arm().dh_rows), np.tile([-2.9, 2.9], (6, 1))
        springs = JOINT_STIFFNESS.copy()
        arm = ArmModel(rows, limits, base_pose=Pose(np.array([0.5, 0.0, 0.0])), joint_stiffness=springs)
        with pytest.raises(ValueError):
            arm.dh_rows[1, 0] += 0.1
        with pytest.raises(ValueError):
            arm.joint_limits[0, 0] = 0.0
        with pytest.raises(ValueError):
            arm.base_pose.position[0] += 1.0
        with pytest.raises(ValueError):
            arm.joint_stiffness[0] *= 2
        rows[1, 0] += 0.1  # the caller's arrays stay writeable and are not the arm's
        limits[0, 0] = 0.0
        springs[0] = 1.0
        np.testing.assert_array_equal(arm.dh_rows, make_test_arm().dh_rows)
        assert arm.joint_limits[0, 0] == -2.9
        assert arm.joint_stiffness[0] == 4e6

    def test_an_arm_needs_its_joint_stiffness_by_keyword(self):
        arm = make_test_arm()
        with pytest.raises(TypeError):
            ArmModel(arm.dh_rows, arm.joint_limits)
        with pytest.raises(TypeError):
            ArmModel(arm.dh_rows, arm.joint_limits, arm.base_pose, arm.flange_offset, JOINT_STIFFNESS)


class TestReachCheck:
    def test_flange_offset_counts_towards_the_extent(self):
        flange = Pose(np.array([0.0, 0.0, 0.25]))
        arm = make_test_arm(flange=flange)
        extent = arm.reach + 0.25
        with pytest.raises(UnreachableTargetError) as exc:
            inverse_kinematics(arm, Pose(np.array([3.0, 0.0, 0.0])), np.zeros(6))
        assert exc.value.pos_residual == pytest.approx(3.0 - extent, rel=1e-12)
        assert f"{extent:.3f} m" in str(exc.value)
        assert exc.value.index == 0

    def test_target_beyond_reach_within_extent_is_solved(self):
        # One link of 1 m and a 1 m flange offset: the flange point lies up
        # to 2 m from the base.
        rows = np.zeros((6, 4))
        rows[0, 0] = 1.0
        arm = ArmModel(rows, np.tile([-np.pi, np.pi], (6, 1)), flange_offset=Pose(np.array([1.0, 0.0, 0.0])),
                       joint_stiffness=JOINT_STIFFNESS)
        q_star = np.array([0.3, 0.0, 0.0, 0.0, 0.0, 0.0])
        target = forward_kinematics(arm, q_star)
        assert np.linalg.norm(target.position) > arm.reach
        q = inverse_kinematics(arm, target, np.full(6, 0.05))
        err = pose_error(forward_kinematics(arm, q), target)
        assert np.linalg.norm(err[:3]) < 1e-6 and np.linalg.norm(err[3:]) < 1e-6
