import dataclasses
import math

import numpy as np
import pytest

from twinmill.compensation import (
    PathTrace,
    RigidTransform,
    compensate,
    fit_rigid,
    nominal_trace,
    residual_report,
    report_to_csv,
    simulate_deformation,
    trace_from_csv,
    trace_to_csv,
)
from twinmill.errors import (
    ClosureError,
    DegenerateGeometryError,
    InvalidInputError,
    SingularConfigurationError,
)
from twinmill.geometry import quat_from_rotvec, quat_to_matrix
from twinmill.kinematics import forward_kinematics, inverse_kinematics
from twinmill.pathplan import apply_world_offset


def cloud(rng, n=100, scale=0.05):
    return PathTrace(rng.uniform(-scale, scale, (n, 3)))


def random_transform(rng, angle=0.02, shift=2e-3):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    q = quat_from_rotvec(angle * axis)
    return RigidTransform(q, rng.uniform(-shift, shift, 3))


class TestRigidTransform:
    def test_apply_inverse_is_exact(self):
        rng = np.random.default_rng(40)
        T = random_transform(rng)
        pts = rng.normal(size=(50, 3))
        np.testing.assert_allclose(T.apply_inverse(T.apply(pts)), pts, atol=1e-12)

    def test_identity(self):
        pts = np.eye(3)
        np.testing.assert_array_equal(RigidTransform.identity().apply(pts), pts)

    def test_quaternion_canonical_sign(self):
        q = -quat_from_rotvec(np.array([0.1, 0.0, 0.0]))
        T = RigidTransform(q, np.zeros(3))
        assert T.rotation[0] > 0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            RigidTransform(np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(3))

    def test_nan_quaternion_rejected(self):
        with pytest.raises(InvalidInputError, match="unit quaternion"):
            RigidTransform(np.array([np.nan, 0.0, 0.0, 0.0]), np.zeros(3))


class TestFitRigid:
    def test_identity_fit(self):
        rng = np.random.default_rng(41)
        ref = cloud(rng)
        T = fit_rigid(ref, ref)
        assert np.allclose(T.rotation, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(T.translation, 0.0, atol=1e-12)

    def test_exact_recovery(self):
        rng = np.random.default_rng(42)
        ref = cloud(rng)
        T_true = random_transform(rng)
        meas = PathTrace(T_true.apply(ref.points))
        T = fit_rigid(ref, meas)
        np.testing.assert_allclose(T.rotation, T_true.rotation, atol=1e-12)
        np.testing.assert_allclose(T.translation, T_true.translation, atol=1e-12)

    def test_pure_translation(self):
        rng = np.random.default_rng(43)
        ref = cloud(rng)
        shift = np.array([0.0, 2.0e-3, 1.2e-3])
        T = fit_rigid(ref, PathTrace(ref.points + shift))
        np.testing.assert_allclose(T.translation, shift, atol=1e-12)
        assert np.allclose(T.rotation, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_noisy_recovery_within_statistics(self):
        # sigma/sqrt(N) bound on the translation estimate
        rng = np.random.default_rng(44)
        ref = cloud(rng, n=100)
        T_true = random_transform(rng)
        sigma = 15e-6
        meas = PathTrace(T_true.apply(ref.points) + rng.normal(0.0, sigma, (100, 3)))
        T = fit_rigid(ref, meas)
        assert np.linalg.norm(T.translation - T_true.translation) < 5 * sigma / math.sqrt(100) * 3
        dR = quat_to_matrix(T.rotation) @ quat_to_matrix(T_true.rotation).T
        angle = math.acos(min(1.0, (np.trace(dR) - 1) / 2))
        assert angle < 1e-3

    def test_no_reflection(self):
        rng = np.random.default_rng(45)
        ref = cloud(rng)
        meas = PathTrace(ref.points * np.array([1.0, 1.0, -1.0]))  # mirrored
        T = fit_rigid(ref, meas)
        assert np.linalg.det(T.matrix()) == pytest.approx(1.0, abs=1e-9)

    def test_collinear_rejected(self):
        pts = np.outer(np.linspace(0, 1, 10), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateGeometryError):
            fit_rigid(PathTrace(pts), PathTrace(pts))

    def test_too_few_points(self):
        pts = np.eye(2, 3)
        with pytest.raises(InvalidInputError):
            fit_rigid(PathTrace(pts), PathTrace(pts))

    def test_invariant_under_common_rigid_motion(self):
        # moving both traces by the same motion must not change the residual
        rng = np.random.default_rng(46)
        ref = cloud(rng)
        T_true = random_transform(rng)
        meas = PathTrace(T_true.apply(ref.points) + rng.normal(0.0, 1e-5, ref.points.shape))
        G = random_transform(rng, angle=0.5, shift=0.3)
        r0 = residual_report(ref, compensate(meas, fit_rigid(ref, meas))).rms
        ref2 = PathTrace(G.apply(ref.points))
        meas2 = PathTrace(G.apply(meas.points))
        r1 = residual_report(ref2, compensate(meas2, fit_rigid(ref2, meas2))).rms
        assert r1 == pytest.approx(r0, rel=1e-6)


class TestCompensate:
    def test_exact_inverse(self):
        rng = np.random.default_rng(47)
        ref = cloud(rng)
        T_true = random_transform(rng)
        meas = PathTrace(T_true.apply(ref.points), label="run")
        comp = compensate(meas, fit_rigid(ref, meas))
        assert comp.label == "run_compensated"
        np.testing.assert_allclose(comp.points, ref.points, atol=1e-12)

    def test_rms_never_increases(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            ref = cloud(rng)
            meas = PathTrace(
                random_transform(rng).apply(ref.points)
                + rng.normal(0.0, 2e-5, ref.points.shape)
            )
            before = residual_report(ref, meas).rms
            after = residual_report(ref, compensate(meas, fit_rigid(ref, meas))).rms
            assert after <= before + 1e-15


def _with_pair(program, k, pair):
    pairs = list(program.pairs)
    pairs[k] = pair
    return dataclasses.replace(program, pairs=tuple(pairs))


class TestDeformation:
    def test_constant_offset_along_demo_path(self, cfg, demo_program):
        trace = simulate_deformation(cfg.system, demo_program)
        ref = nominal_trace(demo_program)
        dev = trace.points - ref.points
        assert np.linalg.norm(dev.mean(axis=0)) > 1e-4  # tension visibly deflects
        assert np.max(dev.std(axis=0)) < 1e-5           # and nearly uniformly

    def test_compensation_clears_deformation(self, cfg, demo_program):
        ref = nominal_trace(demo_program)
        meas = simulate_deformation(cfg.system, demo_program)
        before = residual_report(ref, meas).rms
        comp = compensate(meas, fit_rigid(ref, meas))
        after = residual_report(ref, comp).rms
        assert before > 1e-4
        assert after < 0.05 * before

    def test_open_chain_rejected(self, cfg, demo_program):
        """Arm-2 joints 5 mm off the commanded flange pose are a different
        program, not a tensioned one."""
        k = 7
        pair = demo_program.pairs[k]
        target = apply_world_offset(pair.robot2_flange_commanded, [0.005, 0.0, 0.0, 0.0, 0.0, 0.0])
        q2 = inverse_kinematics(cfg.system.arm2, target, pair.q2)
        program = _with_pair(demo_program, k, dataclasses.replace(pair, q2=q2))
        with pytest.raises(ClosureError) as exc:
            simulate_deformation(cfg.system, program)
        assert exc.value.index == k
        assert str(exc.value).startswith(f"setpoint {k}: ")
        assert exc.value.gap == pytest.approx(0.005, rel=1e-3)

    def test_commanded_offset_bounded(self, cfg, demo_program):
        """A commanded arm-2 flange 20 mm from the nominal one, with joints
        that reach it, is not a tension offset of this cell."""
        k = 11
        pair = demo_program.pairs[k]
        target = apply_world_offset(pair.robot2_flange_nominal, [0.0, 0.02, 0.0, 0.0, 0.0, 0.0])
        q2 = inverse_kinematics(cfg.system.arm2, target, pair.q2)
        moved = dataclasses.replace(pair, robot2_flange_commanded=target, q2=q2)
        with pytest.raises(ClosureError) as exc:
            simulate_deformation(cfg.system, _with_pair(demo_program, k, moved))
        assert exc.value.index == k
        assert str(exc.value).startswith(f"setpoint {k}: commanded arm-2 flange")
        assert exc.value.gap == pytest.approx(0.02, rel=1e-9)

    @pytest.mark.parametrize("arm", [1, 2])
    def test_joint_outside_limits_named(self, cfg, demo_program, arm):
        """A program whose joints leave an arm's limits, as a hand-edited
        program CSV can, is refused naming the setpoint, the arm and the
        joint with its value and limits."""
        k = 7
        pair = demo_program.pairs[k]
        q = (pair.q1 if arm == 1 else pair.q2).copy()
        q[4] = 2.5
        lo, hi = (cfg.system.arm1, cfg.system.arm2)[arm - 1].joint_limits[4]
        program = _with_pair(demo_program, k, dataclasses.replace(pair, **{f"q{arm}": q}))
        with pytest.raises(InvalidInputError) as exc:
            simulate_deformation(cfg.system, program)
        assert exc.value.index == k
        assert str(exc.value) == (f"setpoint {k}, arm {arm}: joint configuration violates joint limits: "
                                  f"q5 = 2.5 rad outside [{lo:g}, {hi:g}] rad")

    @pytest.mark.parametrize("arm", [1, 2])
    def test_non_finite_joint_named(self, cfg, demo_program, arm):
        """Setpoints refuse non-finite joints, so the NaN is put in after
        construction, as a caller editing the arrays could; the error
        still names the setpoint, the arm and the joint."""
        k = 7
        pairs = demo_program.pairs[:]
        q = getattr(pairs, f"q{arm}").copy()
        q[k, 4] = np.nan
        setattr(pairs, f"q{arm}", q)
        with pytest.raises(InvalidInputError) as exc:
            simulate_deformation(cfg.system, dataclasses.replace(demo_program, pairs=pairs))
        assert exc.value.index == k
        assert str(exc.value) == f"setpoint {k}, arm {arm}: joint configuration contains non-finite values: q5 = nan"

    def test_singular_setpoint_named(self, cfg, demo_program):
        # Arm 1's wrist stretched out (q5 = 0) aligns joints 4 and 6.
        k = 3
        sys_ = cfg.system
        pair = demo_program.pairs[k]
        q1 = pair.q1.copy()
        q1[4] = 0.0
        r1 = forward_kinematics(sys_.arm1, q1)
        r2 = r1 @ sys_.flange2_offset
        q2 = inverse_kinematics(sys_.arm2, r2, pair.q2)
        singular = dataclasses.replace(
            pair, tool_pose=r1 @ sys_.tool_offset, robot1_flange=r1, robot2_flange_nominal=r2,
            robot2_flange_commanded=r2, q1=q1, q2=q2,
        )
        with pytest.raises(SingularConfigurationError) as exc:
            simulate_deformation(sys_, _with_pair(demo_program, k, singular))
        assert exc.value.index == k
        assert str(exc.value).startswith(f"setpoint {k}: ")

    def test_report_statistics(self):
        ref = PathTrace(np.zeros((4, 3)))
        meas = PathTrace(np.tile([0.0, 2.0e-3, 1.2e-3], (4, 1)))
        rep = residual_report(ref, meas)
        assert rep.rms == pytest.approx(math.hypot(2.0e-3, 1.2e-3))
        np.testing.assert_allclose(rep.axis_mean, [0.0, 2.0e-3, 1.2e-3])
        np.testing.assert_allclose(rep.axis_std, 0.0, atol=1e-15)
        np.testing.assert_allclose(rep.axis_max_abs, [0.0, 2.0e-3, 1.2e-3])

    def test_report_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            residual_report(PathTrace(np.zeros((3, 3))), PathTrace(np.zeros((4, 3))))


class TestCsv:
    def test_trace_round_trip_bitwise(self):
        rng = np.random.default_rng(49)
        trace = PathTrace(rng.normal(size=(20, 3)), label="demo", tension=1000.0,
                          noise_sigma=15e-6)
        text = trace_to_csv(trace)
        back = trace_from_csv(text)
        np.testing.assert_array_equal(back.points, trace.points)
        assert (back.label, back.tension, back.noise_sigma) == ("demo", 1000.0, 15e-6)
        assert trace_to_csv(back) == text

    def test_trace_bad_header(self):
        with pytest.raises(InvalidInputError):
            trace_from_csv("x,y,z\n1,2,3\n")

    def test_trace_indices_must_count_rows(self):
        assert len(trace_from_csv("index,x_m,y_m,z_m\n0,1,2,3\n1,4,5,6\n")) == 2
        for indices in ((5, 5), (0, 2), (1, 0), (0, 0.5)):
            text = "index,x_m,y_m,z_m\n" + "".join(f"{i},1,2,3\n" for i in indices)
            with pytest.raises(InvalidInputError, match="indices"):
                trace_from_csv(text)

    def test_report_csv_contains_summary(self):
        ref = PathTrace(np.zeros((3, 3)))
        meas = PathTrace(np.full((3, 3), 1e-3))
        text = report_to_csv(residual_report(ref, meas))
        assert "# rms_m=" in text
        assert "index,dx_m,dy_m,dz_m" in text
        assert len(text.splitlines()) == 5 + 4
