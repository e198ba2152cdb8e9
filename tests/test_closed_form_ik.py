"""The closed-form IK of ortho-parallel arms with a spherical wrist:
property tests over random in-limits configurations of the demo arm and
the compact test arm, each with a non-identity base pose and flange
offset, and the arms it does not apply to."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill.config import load_config
from twinmill.errors import InvalidInputError
from twinmill.geometry import Pose, matrix_pose_rows, pose_error
from twinmill.kinematics import (
    N_BRANCHES,
    ArmModel,
    _flange,
    closed_form_ik,
    forward_kinematics,
    ik_branch,
    jacobian,
)

from conftest import DEMO_CONFIG, JOINT_STIFFNESS, make_one_link_arm, make_test_arm

BASE = Pose(np.array([0.3, -0.2, 0.1]), np.array([0.8, 0.2, -0.3, 0.4]) / np.linalg.norm([0.8, 0.2, -0.3, 0.4]))
FLANGE = Pose(np.array([0.01, 0.02, 0.1]), np.array([0.9, 0.1, 0.3, -0.3]) / np.linalg.norm([0.9, 0.1, 0.3, -0.3]))
DEMO = load_config(DEMO_CONFIG).system.arm1


def mirrored_test_arm():
    """The test arm with every twist negated and a skewed last link."""
    rows = make_test_arm().dh_rows.copy()
    rows[:, 1] *= -1
    rows[5, :2] = [0.05, 0.3]
    return ArmModel(rows, make_test_arm().joint_limits, BASE, FLANGE, joint_stiffness=JOINT_STIFFNESS)


ARMS = {
    "demo": ArmModel(DEMO.dh_rows, DEMO.joint_limits, BASE, FLANGE, joint_stiffness=DEMO.joint_stiffness),
    "test-arm": make_test_arm(base=BASE, flange=FLANGE),
    "mirrored": mirrored_test_arm(),
}


def configurations(arm, shares):
    lo, hi = arm.joint_limits.T
    q = lo + (0.5 + 0.5 * shares) * (hi - lo)
    # Clear of the shoulder, elbow and wrist singularities, where a branch
    # is not defined by its configuration.
    assume(np.all(np.linalg.svd(jacobian(arm, q), compute_uv=False)[:, -1] > 1e-2))
    return q


SHARES = arrays(np.float64, st.tuples(st.integers(1, 8), st.just(6)), elements=st.floats(-1.0, 1.0))


@pytest.mark.parametrize("name", sorted(ARMS))
def test_the_arms_under_test_have_a_closed_form(name):
    assert ARMS[name].has_closed_form_ik


@settings(max_examples=40)
@given(st.sampled_from(sorted(ARMS)), SHARES)
def test_the_branch_of_q_gives_q_back(name, shares):
    arm = ARMS[name]
    q = configurations(arm, shares)
    back = closed_form_ik(arm, forward_kinematics(arm, q), ik_branch(arm, q))
    np.testing.assert_allclose(back, q, rtol=0, atol=1e-9)


@settings(max_examples=40)
@given(st.sampled_from(sorted(ARMS)), SHARES)
def test_every_branch_that_exists_reaches_the_target(name, shares):
    arm = ARMS[name]
    q = configurations(arm, shares)
    targets = forward_kinematics(arm, q)
    missing = []
    for branch in range(N_BRANCHES):
        qb = closed_form_ik(arm, targets, branch)
        found = ~np.isnan(qb[:, 0])
        # A branch that does not exist is NaN in every joint.
        assert np.all(np.isnan(qb[~found])) and np.all(np.isfinite(qb[found]))
        err = pose_error(matrix_pose_rows(_flange(arm._chain_consts, qb[found])), targets[found])
        assert np.all(np.abs(err) <= 1e-9)
        # Each solution lies on the branch asked for.
        np.testing.assert_array_equal(ik_branch(arm, qb[found]), branch)
        missing.append(~found)
    missing = np.array(missing)
    # Only the shoulder decides whether a branch exists, and q's own does.
    np.testing.assert_array_equal(missing, missing[np.arange(N_BRANCHES) & 4])
    assert not np.any(missing[ik_branch(arm, q), np.arange(len(q))])


@pytest.mark.parametrize("name", sorted(ARMS))
def test_a_target_out_of_reach_has_no_branch(name):
    arm = ARMS[name]
    q = np.array([0.3, 0.2, -0.4, 0.5, 0.9, 0.2])
    targets = np.repeat(forward_kinematics(arm, q[None]), 3, axis=0)
    targets[1, :3] = BASE.position + [3 * arm.reach, 0.0, 0.0]
    for branch in range(N_BRANCHES):
        qb = closed_form_ik(arm, targets, branch)
        assert np.all(np.isnan(qb[1]))
        assert np.array_equal(np.isnan(qb[0]), np.isnan(qb[2]))
    np.testing.assert_allclose(closed_form_ik(arm, targets, ik_branch(arm, q))[[0, 2]], [q, q], rtol=0, atol=1e-9)


class TestUnwrapping:
    """Joints whose limits span more than 2 pi follow the path; the others
    take the value nearest the middle of their limits."""

    @pytest.fixture(scope="class")
    def arm(self):
        limits = make_test_arm().joint_limits.copy()
        limits[[3, 5]] = [-2 * np.pi - 1.0, 2 * np.pi + 1.0]
        return ArmModel(make_test_arm().dh_rows, limits, BASE, FLANGE, joint_stiffness=JOINT_STIFFNESS)

    @pytest.fixture(scope="class")
    def path(self):
        q = np.tile([0.3, 0.2, -0.4, 0.0, 0.9, 0.0], (41, 1))
        q[:, 3] = np.linspace(-4.0, 4.0, 41)
        q[:, 5] = np.linspace(5.0, -1.0, 41)
        return q

    def test_wide_joints_follow_the_path_from_near(self, arm, path):
        back = closed_form_ik(arm, forward_kinematics(arm, path), ik_branch(arm, path[0]), near=path[0])
        np.testing.assert_allclose(back, path, rtol=0, atol=1e-9)

    def test_the_first_row_defaults_to_the_middle_of_the_limits(self, arm, path):
        back = closed_form_ik(arm, forward_kinematics(arm, path), ik_branch(arm, path[0]))
        np.testing.assert_allclose(back[:, [3, 5]], path[:, [3, 5]] + [2 * np.pi, -2 * np.pi], rtol=0, atol=1e-9)
        np.testing.assert_allclose(back[:, :3], path[:, :3], rtol=0, atol=1e-9)

    def test_a_row_without_a_branch_does_not_break_the_path(self, arm, path):
        targets = forward_kinematics(arm, path)
        targets[20, :3] = BASE.position + [3 * arm.reach, 0.0, 0.0]
        back = closed_form_ik(arm, targets, ik_branch(arm, path[0]), near=path[0])
        assert np.all(np.isnan(back[20]))
        rest = np.arange(41) != 20
        np.testing.assert_allclose(back[rest], path[rest], rtol=0, atol=1e-9)

    def test_narrow_joints_take_the_value_within_their_limits(self):
        arm = make_test_arm()
        q = np.array([[2.8, 0.2, -0.4, -2.8, 0.9, 2.85]])
        np.testing.assert_allclose(closed_form_ik(arm, forward_kinematics(arm, q), ik_branch(arm, q), near=-q[0]),
                                   q, rtol=0, atol=1e-9)


def demo_with(**entries):
    """The demo arm with some DH entries changed, e.g. d5=1e-3."""
    rows = DEMO.dh_rows.copy()
    for name, value in entries.items():
        rows[int(name[-1]) - 1, ("a", "alpha", "d").index(name[:-1])] = value
    return ArmModel(rows, DEMO.joint_limits, joint_stiffness=DEMO.joint_stiffness)


@pytest.mark.parametrize("arm", [
    make_one_link_arm(),
    demo_with(d5=1e-3),
    demo_with(a4=1e-3),
    demo_with(d2=0.1),
    demo_with(alpha2=0.1),
    demo_with(alpha4=1.0),
    demo_with(a2=-1.25),
], ids=["one-link", "d5", "a4", "d2", "alpha2", "alpha4", "a2-negative"])
def test_other_arms_are_not_eligible(arm):
    assert not arm.has_closed_form_ik
    with pytest.raises(InvalidInputError, match="closed-form IK needs"):
        closed_form_ik(arm, forward_kinematics(arm, np.zeros((1, 6))), 0)
    with pytest.raises(InvalidInputError, match="closed-form IK needs"):
        ik_branch(arm, np.zeros(6))


@pytest.mark.parametrize("branch", [-1, N_BRANCHES, 1.0, [0, 9]])
def test_branch_must_be_an_index(branch):
    arm = ARMS["demo"]
    with pytest.raises(InvalidInputError, match="IK branch"):
        closed_form_ik(arm, forward_kinematics(arm, np.zeros((2, 6))), branch)


def test_targets_must_be_pose_rows():
    arm = ARMS["demo"]
    with pytest.raises(InvalidInputError, match=r"pose rows \[N, 7\]"):
        closed_form_ik(arm, forward_kinematics(arm, np.zeros(6)), 0)
