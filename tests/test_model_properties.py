"""Property tests of the physical models: the tension offset and the
predicted tension as an inverse pair over random configuration stacks,
and the rigid fit recovering random proper rigid motions."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill.compensation import PathTrace, RigidTransform, fit_rigid
from twinmill.geometry import Pose
from twinmill.kinematics import jacobian
from twinmill.stiffness import CoupledSystem, JointStiffness, SpringModel, Wrench, predicted_tension, tension_offset

from conftest import make_test_arm

# Fixed example order and a small budget keep tier-1 deterministic and fast.
PROPERTY = settings(derandomize=True, max_examples=30, deadline=None, database=None)

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


@PROPERTY
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


@PROPERTY
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
