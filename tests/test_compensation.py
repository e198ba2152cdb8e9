import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinmill import compensation, stiffness
from twinmill.compensation import (
    PathTrace,
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
    DomainError,
    InvalidInputError,
    TwinmillError,
)
from twinmill.geometry import Pose, compose_rows, pose_rows, quat_from_rotvec, quat_to_matrix
from twinmill.kinematics import DEFAULT_TOL_POS, forward_kinematics, inverse_kinematics
from twinmill.pathplan import (
    Setpoints,
    apply_world_offset,
    parse_gcode,
    plan_sync,
    transform_path,
)
from twinmill.stiffness import SpringModel, Wrench, coupled_stiffness

from conftest import WORK_OFFSET, arm2_targets, demo_plan, with_pair


def cloud(rng, n=100, scale=0.05):
    return PathTrace(rng.uniform(-scale, scale, (n, 3)))


def random_transform(rng, angle=0.02, shift=2e-3):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    q = quat_from_rotvec(angle * axis)
    return Pose(rng.uniform(-shift, shift, 3), q)


def apply(pose, pts):
    """The rigid motion p -> R p + t of `pose` applied to points [N, 3]."""
    return np.asarray(pts, dtype=float) @ pose.rotation().T + pose.position


class TestFitRigid:
    def test_identity_fit(self):
        rng = np.random.default_rng(41)
        ref = cloud(rng)
        T = fit_rigid(ref, ref)
        assert np.allclose(T.quaternion, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(T.position, 0.0, atol=1e-12)

    def test_exact_recovery(self):
        rng = np.random.default_rng(42)
        ref = cloud(rng)
        T_true = random_transform(rng)
        meas = PathTrace(apply(T_true, ref.points))
        T = fit_rigid(ref, meas)
        np.testing.assert_allclose(T.quaternion, T_true.quaternion, atol=1e-12)
        np.testing.assert_allclose(T.position, T_true.position, atol=1e-12)

    def test_pure_translation(self):
        rng = np.random.default_rng(43)
        ref = cloud(rng)
        shift = np.array([0.0, 2.0e-3, 1.2e-3])
        T = fit_rigid(ref, PathTrace(ref.points + shift))
        np.testing.assert_allclose(T.position, shift, atol=1e-12)
        assert np.allclose(T.quaternion, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_noisy_recovery_within_statistics(self):
        # sigma/sqrt(N) bound on the translation estimate
        rng = np.random.default_rng(44)
        ref = cloud(rng, n=100)
        T_true = random_transform(rng)
        sigma = 15e-6
        meas = PathTrace(apply(T_true, ref.points) + rng.normal(0.0, sigma, (100, 3)))
        T = fit_rigid(ref, meas)
        assert np.linalg.norm(T.position - T_true.position) < 5 * sigma / math.sqrt(100) * 3
        dR = quat_to_matrix(T.quaternion) @ quat_to_matrix(T_true.quaternion).T
        angle = math.acos(min(1.0, (np.trace(dR) - 1) / 2))
        assert angle < 1e-3

    def test_no_reflection(self):
        rng = np.random.default_rng(45)
        ref = cloud(rng)
        meas = PathTrace(ref.points * np.array([1.0, 1.0, -1.0]))  # mirrored
        T = fit_rigid(ref, meas)
        assert np.linalg.det(T.rotation()) == pytest.approx(1.0, abs=1e-9)

    def test_invariant_under_common_rigid_motion(self):
        # moving both traces by the same motion must not change the residual
        rng = np.random.default_rng(46)
        ref = cloud(rng)
        T_true = random_transform(rng)
        meas = PathTrace(apply(T_true, ref.points) + rng.normal(0.0, 1e-5, ref.points.shape))
        G = random_transform(rng, angle=0.5, shift=0.3)
        r0 = residual_report(ref, compensate(meas, fit_rigid(ref, meas))).rms
        ref2 = PathTrace(apply(G, ref.points))
        meas2 = PathTrace(apply(G, meas.points))
        r1 = residual_report(ref2, compensate(meas2, fit_rigid(ref2, meas2))).rms
        assert r1 == pytest.approx(r0, rel=1e-6)


class TestCompensate:
    def test_inverts_a_given_transform_exactly(self):
        rng = np.random.default_rng(40)
        T = random_transform(rng)
        pts = rng.normal(size=(50, 3))
        np.testing.assert_allclose(compensate(PathTrace(apply(T, pts)), T).points, pts, atol=1e-12)

    def test_identity_leaves_points_unchanged(self):
        pts = np.eye(3)
        np.testing.assert_array_equal(compensate(PathTrace(pts), Pose.identity()).points, pts)

    def test_exact_inverse(self):
        rng = np.random.default_rng(47)
        ref = cloud(rng)
        T_true = random_transform(rng)
        meas = PathTrace(apply(T_true, ref.points), label="run")
        comp = compensate(meas, fit_rigid(ref, meas))
        assert comp.label == "run_compensated"
        np.testing.assert_allclose(comp.points, ref.points, atol=1e-12)

    def test_rms_never_increases(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            ref = cloud(rng)
            meas = PathTrace(
                apply(random_transform(rng), ref.points)
                + rng.normal(0.0, 2e-5, ref.points.shape)
            )
            before = residual_report(ref, meas).rms
            after = residual_report(ref, compensate(meas, fit_rigid(ref, meas))).rms
            assert after <= before + 1e-15


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

    def test_commanded_offset_bounded(self, cfg, demo_program):
        """Arm-2 joints that reach 20 mm from the nominal arm-2 flange,
        FK1(q1) ∘ flange2_offset, are not a tension offset of this cell."""
        k = 11
        pair = demo_program.pairs[k]
        nominal = forward_kinematics(cfg.system.arm1, pair.q1) @ cfg.system.flange2_offset
        row = apply_world_offset(pose_rows(nominal), [0.0, 0.02, 0.0, 0.0, 0.0, 0.0])
        target = Pose(row[:3], row[3:])
        q2 = inverse_kinematics(cfg.system.arm2, target, pair.q2)
        moved = dataclasses.replace(pair, q2=q2)
        with pytest.raises(DomainError) as exc:
            simulate_deformation(cfg.system, with_pair(demo_program, k, moved))
        assert exc.value.index == k
        assert str(exc.value).startswith(f"setpoint {k}: commanded arm-2 flange")
        # The gap is that of the joints' flange, which IK put within its tolerance of the 20 mm target.
        reached = forward_kinematics(cfg.system.arm2, q2)
        assert exc.value.gap == pytest.approx(np.linalg.norm(reached.position - nominal.position), rel=1e-9)
        assert exc.value.gap == pytest.approx(0.02, abs=DEFAULT_TOL_POS)

    @pytest.mark.parametrize("refusal", ["commanded gap", "arm-2 joint", "rank deficiency"])
    def test_a_coupled_stiffness_refusal_is_re_raised_in_place(self, cfg, demo_program, monkeypatch, refusal):
        """`simulate_deformation` puts the setpoint in front of the refusal
        `coupled_stiffness` raised and raises that same object, with its
        type, `index` and `gap`. Each refusal is told apart by its whole
        message, `index` and `gap`: a rank deficiency has no gap, and with
        every singular value below the bound it is found at setpoint 0."""
        k = 11
        pair = demo_program.pairs[k]
        q2 = pair.q2.copy()
        if refusal == "commanded gap":
            q2[1] += 0.02  # the shoulder moves the flange about 20 mm
        elif refusal == "arm-2 joint":
            q2[4] = 2.5
        else:
            monkeypatch.setattr(stiffness, "_MIN_SINGULAR_VALUE", 1e9)
        program = with_pair(demo_program, k, dataclasses.replace(pair, q2=q2))
        raised = []

        def recording(*args):
            try:
                return coupled_stiffness(*args)
            except TwinmillError as exc:
                raised.append((exc, type(exc), exc.index, getattr(exc, "gap", None), str(exc)))
                raise

        monkeypatch.setattr(compensation, "coupled_stiffness", recording)
        with pytest.raises(TwinmillError) as exc:
            simulate_deformation(cfg.system, program)
        [(original, cls, index, gap, message)] = raised
        assert exc.value is original
        assert (type(exc.value), exc.value.index, getattr(exc.value, "gap", None)) == (cls, index, gap)
        if refusal == "commanded gap":
            nominal = forward_kinematics(cfg.system.arm1, pair.q1) @ cfg.system.flange2_offset
            reached = forward_kinematics(cfg.system.arm2, q2)
            assert gap == pytest.approx(np.linalg.norm(reached.position - nominal.position), rel=1e-9)
            assert (cls, index, message) == (DomainError, k, f"commanded arm-2 flange is {gap:.3e} m from the "
                                                             "nominal one")
        elif refusal == "arm-2 joint":
            lo, hi = cfg.system.arm2.joint_limits[4]
            assert (cls, index, gap, message) == (InvalidInputError, k, None, "joint configuration violates joint "
                                                  f"limits: q5 = 2.5 rad outside [{lo:g}, {hi:g}] rad")
        else:
            assert (cls, index, gap, message) == (DomainError, 0, None, "Jacobian is rank deficient (smallest "
                                                  "singular value 5.410e-01); deficient direction dominated by "
                                                  "axis 'x'")
        where = f"setpoint {index}, arm 2" if refusal == "arm-2 joint" else f"setpoint {index}"
        assert str(exc.value) == f"{where}: {message}"

    @pytest.mark.parametrize("arm", [1, 2])
    def test_non_finite_joint_named(self, cfg, demo_program, arm):
        """Setpoints refuse non-finite joints, so the NaN is put in after
        construction, as a caller editing the arrays could; the error
        still names the setpoint, the arm and the joint."""
        k = 7
        sp = demo_program.pairs
        pairs = Setpoints(sp.tool_pose, sp.q1, sp.q2)
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
        singular = dataclasses.replace(pair, tool_pose=r1 @ sys_.tool_offset, q1=q1, q2=q2)
        with pytest.raises(DomainError) as exc:
            simulate_deformation(sys_, with_pair(demo_program, k, singular))
        assert (exc.value.index, exc.value.gap) == (k, None)
        assert str(exc.value).startswith(f"setpoint {k}: Jacobian is rank deficient")

    def test_report_statistics(self):
        ref = PathTrace(np.zeros((4, 3)))
        meas = PathTrace(np.tile([0.0, 2.0e-3, 1.2e-3], (4, 1)))
        rep = residual_report(ref, meas)
        assert rep.rms == pytest.approx(math.hypot(2.0e-3, 1.2e-3))
        np.testing.assert_allclose(rep.axis_mean, [0.0, 2.0e-3, 1.2e-3])
        np.testing.assert_allclose(rep.axis_std, 0.0, atol=1e-15)
        np.testing.assert_allclose(rep.axis_max_abs, [0.0, 2.0e-3, 1.2e-3])


# A spring that is anisotropic within each block and couples force to
# moment, so a rotation of it in the wrong sense changes the deformation.
_ANISOTROPIC_SPRING = np.diag([5e7, 2e7, 8e6, 5e5, 2e5, 9e4])
_ANISOTROPIC_SPRING[0, 4] = _ANISOTROPIC_SPRING[4, 0] = 3e5
_ANISOTROPIC_SPRING[1, 3] = _ANISOTROPIC_SPRING[3, 1] = -2e5

# Its sample counts (7.4 and 45.8 before rounding up) are far from a power
# of two, so roundoff from a rigid motion cannot change them.
_RIGID_MOTION_PATH = transform_path(parse_gcode("G1 X37 F300\nG3 X37 Y34 J17\nG1 X3\n"),
                                    Pose(WORK_OFFSET))


def _moved_cell(system, G):
    """`system` with both arm bases moved by the rigid motion G."""
    return dataclasses.replace(
        system, **{name: dataclasses.replace(arm, base_pose=G @ arm.base_pose)
                   for name, arm in (("arm1", system.arm1), ("arm2", system.arm2))})


@pytest.fixture(scope="module")
def zero_tension_plan(cfg):
    """The demo slot planned at zero tension, with the arm-2 nominal and
    commanded flange rows that `plan_sync` solved for."""
    return arm2_targets(lambda: demo_plan(cfg))


class TestChainRelations:
    """Relations between whole plan-and-deform runs that hold whatever the
    model's numbers are."""

    @settings(max_examples=20)
    @given(st.floats(-4000.0, 4000.0))
    @example(1000.0)
    def test_zero_tension_moves_nothing(self, cfg, zero_tension_plan, tension):
        """At zero tension the commanded arm-2 flange is the nominal one,
        derived from the tool rows, arm 2's joints reach it within the IK
        tolerance, and nothing deforms. Planned at a tension T instead,
        only arm 2's joints change, and that program deformed with its
        tension set to zero does not move either."""
        zero_tension_program, planned_nominal, commanded = zero_tension_plan
        zero = zero_tension_program.pairs
        sys_ = cfg.system
        nominal = compose_rows(compose_rows(zero.tool_pose, sys_.tool_offset.inverse()), sys_.flange2_offset)
        np.testing.assert_array_equal(commanded, planned_nominal)
        np.testing.assert_array_equal(planned_nominal, nominal)
        gaps = np.linalg.norm(forward_kinematics(sys_.arm2, zero.q2)[:, :3] - nominal[:, :3], axis=1)
        assert np.all(gaps <= DEFAULT_TOL_POS)
        np.testing.assert_array_equal(simulate_deformation(cfg.system, zero_tension_program).points,
                                      zero.tool_pose[:, :3])
        program = demo_plan(cfg, tension=Wrench(np.array([tension, 0.0, 0.0])))
        sp = program.pairs
        for name in ("tool_pose", "q1"):
            np.testing.assert_array_equal(getattr(sp, name), getattr(zero, name))
        unloaded = dataclasses.replace(program, tension=Wrench(np.zeros(3)))
        np.testing.assert_array_equal(simulate_deformation(cfg.system, unloaded).points, sp.tool_pose[:, :3])

    @settings(max_examples=20)
    @given(st.floats(1.0, 4000.0), st.sampled_from([1.0, -1.0]))
    @example(500.0, 1.0)
    @example(2000.0, 1.0)
    @example(1000.0, -1.0)
    def test_displacement_scales_with_tension(self, cfg, demo_program, magnitude, sign):
        """disp(T) / T matches disp(1000 N) / 1000 N within 1e-3 of its
        largest component, for |T| from 1 N to 4 kN either way; not
        exactly, since K depends on the commanded arm-2 joints. Below 1 N
        the displacement is lost in the roundoff of the tool positions."""
        def per_newton(program, newtons):
            return (simulate_deformation(cfg.system, program).points - program.pairs.tool_pose[:, :3]) / newtons

        tension = sign * magnitude
        reference = per_newton(demo_program, 1000.0)
        scaled = per_newton(demo_plan(cfg, tension=Wrench(np.array([tension, 0.0, 0.0]))), tension)
        assert np.max(np.abs(scaled - reference)) <= 1e-3 * np.max(np.abs(reference))

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1000.0, -700.0, 2500.0]))
    @example(0, 2500.0)
    def test_whole_cell_rigid_motion(self, cfg, seed, tension):
        """Both arm bases, the path and the tension wrench moved by one
        rigid motion G (a random axis, so tilted off z, up to 1 rad and
        0.5 m) give the same joints, and the deformation rotated by G."""
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=3)
        rotvec = rng.uniform(0.0, 1.0) * axis / np.linalg.norm(axis)
        G = Pose(rng.uniform(-0.5, 0.5, 3) / math.sqrt(3), quat_from_rotvec(rotvec))
        system = dataclasses.replace(cfg.system, spring=SpringModel(_ANISOTROPIC_SPRING))
        force = np.array([tension, 0.0, 0.0])
        runs = []
        for sys_, path, wrench in ((system, _RIGID_MOTION_PATH, Wrench(force)),
                                   (_moved_cell(system, G), transform_path(_RIGID_MOTION_PATH, G),
                                    Wrench(G.rotation() @ force))):
            program = plan_sync(sys_, path, wrench, (cfg.ik_seed1, cfg.ik_seed2))
            disp = simulate_deformation(sys_, program).points - program.pairs.tool_pose[:, :3]
            runs.append((program.pairs, disp))
        (sp, disp), (sp_moved, disp_moved) = runs
        assert len(sp_moved) == len(sp)
        np.testing.assert_allclose(sp_moved.q1, sp.q1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sp_moved.q2, sp.q2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(disp_moved, disp @ G.rotation().T, rtol=0, atol=1e-9)

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

    def test_report_csv_contains_summary(self):
        ref = PathTrace(np.zeros((3, 3)))
        meas = PathTrace(np.full((3, 3), 1e-3))
        text = report_to_csv(residual_report(ref, meas))
        assert "# rms_m=" in text
        assert "index,dx_m,dy_m,dz_m" in text
        assert len(text.splitlines()) == 5 + 4
