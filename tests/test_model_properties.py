"""Property tests of the physical models: the tension offset and the
predicted tension as an inverse pair over random configuration stacks,
the rank check of the stiffness layer against a plain SVD, the Cartesian
stiffness and the SPD inverse against plain inverses, and the rigid fit
recovering random proper rigid motions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill.compensation import PathTrace, RigidTransform, fit_rigid
from twinmill.config import default_config
from twinmill.errors import SingularConfigurationError
from twinmill.geometry import Pose
from twinmill.kinematics import jacobian
from twinmill.stiffness import (
    CoupledSystem,
    JointStiffness,
    SpringModel,
    Wrench,
    _compliance_from_jacobian,
    _spd_inverse,
    cartesian_stiffness,
    predicted_tension,
    tension_offset,
)

from conftest import make_test_arm, random_nonsingular_q

ARM = make_test_arm()
LO, HI = ARM.joint_limits[:, 0], ARM.joint_limits[:, 1]


def twin_system(k_joint):
    """Arm 2 is arm 1 with its base moved 1 um, attached at arm 1's flange:
    every configuration q closes the chain with q1 = q2 = q."""
    ks = JointStiffness(k_joint)
    return CoupledSystem(
        arm1=ARM, arm2=make_test_arm(base=Pose(np.array([1e-6, 0.0, 0.0]))),
        joint_stiffness1=ks, joint_stiffness2=ks,
        spring=SpringModel(np.diag([5e7, 5e7, 5e7, 5e5, 5e5, 5e5])),
        tool_offset=Pose(np.array([0.0, 0.0, 0.15])),
    )


def unit_quaternion(v):
    n = np.linalg.norm(v)
    assume(n > 0.1)
    return v / n


@settings(max_examples=30)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 8), st.just(6)), elements=st.floats(-0.9, 0.9)),
    arrays(np.float64, 6, elements=st.floats(np.log(5e5), np.log(5e6))),
    arrays(np.float64, 3, elements=st.floats(-2000.0, 2000.0)),
    arrays(np.float64, 3, elements=st.floats(-200.0, 200.0)),
)
def test_predicted_tension_inverts_tension_offset(shares, log_k, force, torque):
    q = LO + (0.5 + 0.5 * shares) * (HI - LO)
    # Keep clear of singular configurations, where the arm compliance diverges.
    assume(np.all(np.linalg.svd(jacobian(ARM, q), compute_uv=False)[:, -1] > 1e-2))
    sys_, w = twin_system(np.exp(log_k)), Wrench(force, torque)
    offset = tension_offset(sys_, q, q, w)
    assert offset.shape == q.shape
    back = predicted_tension(sys_, q, q, offset).as_vector()
    assert back.shape == q.shape
    scale = max(np.linalg.norm(w.as_vector()), 1.0)
    assert np.all(np.linalg.norm(back - w.as_vector(), axis=1) <= 1e-9 * scale)


DEMO = default_config().system
STIFFNESS_ARMS = {"test": ARM, "demo 1": DEMO.arm1, "demo 2": DEMO.arm2}


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(STIFFNESS_ARMS)), st.integers(1, 8))
def test_cartesian_stiffness_inverts_the_compliance(seed, name, n):
    """K = J^-T K_joint J^-1 from the rank screen's J^-1 equals the
    inverse of the compliance J K_joint^-1 J^T, row by row."""
    arm, rng = STIFFNESS_ARMS[name], np.random.default_rng(seed)
    q = np.array([random_nonsingular_q(arm, rng) for _ in range(n)])
    k = np.exp(rng.uniform(np.log(5e5), np.log(5e6), 6))
    K = cartesian_stiffness(arm, q, JointStiffness(k))
    J = jacobian(arm, q)
    expected = np.linalg.inv((J * (1.0 / k)) @ np.swapaxes(J, -1, -2))
    scale = np.max(np.abs(expected), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(K - expected) <= 1e-9 * scale)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.sampled_from([1e-3, 1.0, 1e6]))
def test_spd_inverse_equals_the_plain_inverse(seed, n, scale):
    """Stacks of SPD matrices with condition numbers up to about 1e3, at
    any scale."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, 6, 6))
    M = scale * (A @ np.swapaxes(A, -1, -2) + 0.5 * np.eye(6))
    assume(np.max(np.linalg.cond(M)) < 1e3)
    expected = np.linalg.inv(M)
    size = np.max(np.abs(expected), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(_spd_inverse(M, "M") - expected) <= 1e-12 * size)


def random_orthogonal(rng):
    Q, R = np.linalg.qr(rng.normal(size=(6, 6)))
    return Q * np.sign(np.diag(R))


@settings(max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0]),
    arrays(np.float64, 5, elements=st.floats(1e-3, 10.0)),
    st.integers(0, 7),
)
def test_rank_check_rejects_what_the_svd_rejects(seed, min_share, others, position):
    """J = U diag(s) V^T with smallest singular value min_share * 1e-8, in
    a stack of 8 otherwise orthogonal matrices: the inverse screen plus
    its SVD fallback raise exactly when a plain SVD puts sigma_min at or
    below 1e-8, and name J's row."""
    rng = np.random.default_rng(seed)
    s = np.concatenate([[min_share * 1e-8], others])
    J = random_orthogonal(rng) @ np.diag(s) @ random_orthogonal(rng).T
    stack = np.array([random_orthogonal(rng) for _ in range(8)])
    stack[position] = J
    k = np.exp(rng.uniform(np.log(5e5), np.log(5e6), 6))
    if np.linalg.svd(J, compute_uv=False)[-1] <= 1e-8:
        with pytest.raises(SingularConfigurationError) as exc:
            _compliance_from_jacobian(stack, k)
        assert exc.value.index == position
    else:
        C = _compliance_from_jacobian(stack, k)
        np.testing.assert_array_equal(C, (stack * (1.0 / k)) @ np.swapaxes(stack, -1, -2))


@settings(max_examples=30)
@given(
    arrays(np.float64, st.tuples(st.integers(3, 40), st.just(3)), elements=st.floats(-1.0, 1.0)),
    arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)),
    arrays(np.float64, 3, elements=st.floats(-5.0, 5.0)),
)
def test_fit_rigid_recovers_proper_rigid_motions(points, rotation, translation):
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    # Well away from collinear clouds, whose rotation is not unique.
    assume(sv[1] > 1e-2 * sv[0] and sv[0] > 1e-3)
    truth = RigidTransform(unit_quaternion(rotation), translation)
    fit = fit_rigid(PathTrace(points), PathTrace(truth.apply(points)))
    np.testing.assert_allclose(fit.matrix(), truth.matrix(), rtol=0, atol=1e-9)
    np.testing.assert_allclose(fit.translation, truth.translation, rtol=0, atol=1e-9)
    assert np.linalg.det(fit.matrix()) > 0
