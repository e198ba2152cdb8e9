import numpy as np
import pytest

from twinmill.errors import InvalidInputError, UnreachableTargetError
from twinmill.geometry import Pose, pose_error, quat_from_rotvec, rotvec_from_quat
from twinmill.kinematics import ArmModel, forward_kinematics, inverse_kinematics, jacobian

from conftest import make_one_link_arm, make_test_arm


def dh_oracle(arm, q):
    """Independent FK oracle: explicit 4x4 homogeneous products."""
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

    T = arm.base_pose.matrix()
    for (a, alpha, d, off), qi in zip(arm.dh_rows, q):
        T = T @ rz(qi + off) @ trans(0, 0, d) @ trans(a, 0, 0) @ rx(alpha)
    return T @ arm.flange_offset.matrix()


class TestForwardKinematics:
    def test_degenerate_arm_is_base_times_flange(self):
        base = Pose(np.array([0.3, -0.2, 1.0]), quat_from_rotvec([0.1, 0.2, 0.3]))
        flange = Pose(np.array([0.0, 0.0, 0.25]), quat_from_rotvec([0.0, 0.4, 0.0]))
        rows = np.zeros((6, 4))
        arm = ArmModel(rows, np.tile([-np.pi, np.pi], (6, 1)), base_pose=base, flange_offset=flange)
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

    def test_nonfinite_q_rejected(self):
        arm = make_test_arm()
        with pytest.raises(InvalidInputError):
            forward_kinematics(arm, [0, 0, np.nan, 0, 0, 0])

    def test_out_of_limit_needs_flag(self):
        arm = make_test_arm()
        q = np.zeros(6)
        q[0] = 3.5
        with pytest.raises(InvalidInputError):
            forward_kinematics(arm, q)
        forward_kinematics(arm, q, allow_out_of_limits=True)


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
                fp = forward_kinematics(arm, qp, allow_out_of_limits=True)
                fm = forward_kinematics(arm, qm, allow_out_of_limits=True)
                dlin = (fp.position - fm.position) / (2 * h)
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
        with pytest.raises(InvalidInputError):
            forward_kinematics(test_arm, Q)

    def test_singular_at_full_stretch(self):
        arm = make_one_link_arm(a1=1.0)
        sv = np.linalg.svd(jacobian(arm, np.zeros(6)), compute_uv=False)
        assert sv[-1] < 1e-9


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

    def test_unreachable_target(self, test_arm):
        target = Pose(np.array([10.0, 0.0, 0.0]))
        with pytest.raises(UnreachableTargetError):
            inverse_kinematics(test_arm, target, np.zeros(6))

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
            assert test_arm.within_limits(q)

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

    def test_rejects_bad_arguments(self, test_arm):
        target = forward_kinematics(test_arm, np.zeros(6))
        with pytest.raises(InvalidInputError):
            inverse_kinematics(test_arm, target, np.zeros(6), tol_pos=0.0)
        with pytest.raises(InvalidInputError):
            inverse_kinematics(test_arm, target, np.full(6, 5.0))


class TestGeometryHelpers:
    def test_rotvec_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rv = rng.normal(size=3)
            rv *= rng.uniform(0, np.pi) / np.linalg.norm(rv)
            back = rotvec_from_quat(quat_from_rotvec(rv))
            np.testing.assert_allclose(back, rv, atol=1e-12)

    def test_pose_compose_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = Pose(rng.normal(size=3), quat_from_rotvec(rng.normal(size=3)))
            ident = p @ p.inverse()
            np.testing.assert_allclose(ident.position, 0.0, atol=1e-12)
            np.testing.assert_allclose(ident.quaternion, [1, 0, 0, 0], atol=1e-12)
