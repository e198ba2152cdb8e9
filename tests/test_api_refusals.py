"""Refusals that no input file reaches, only a call of the API: each raises
InvalidInputError with its message pinned, and names no place."""

import numpy as np
import pytest

from twinmill.compensation import PathTrace, fit_rigid
from twinmill.errors import InvalidInputError
from twinmill.geometry import Pose, pose_rows
from twinmill.kinematics import ArmModel
from twinmill.modal import ImpactRecord
from twinmill.pathplan import Setpoints
from twinmill.stiffness import Wrench, cartesian_stiffness, coupled_stiffness, predicted_tension

from conftest import JOINT_STIFFNESS, make_test_arm

LIMITS = np.tile([-3.0, 3.0], (6, 1))
DH = make_test_arm().dh_rows
Q = np.zeros((2, 6))
ROWS = np.tile([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], (2, 1))


def _numpy_broadcast_message(*shapes):
    """numpy's own text for leading shapes that do not broadcast."""
    try:
        np.broadcast_shapes(*shapes)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{shapes} broadcast")


# name: (call given the demo system, message)
REFUSED_CALLS = {
    "ArmModel dh_rows 5x4": (lambda sys: ArmModel(DH[:5], LIMITS, joint_stiffness=JOINT_STIFFNESS),
                             "dh_rows must be a finite 6x4 array (a, alpha, d, theta_offset)"),
    "ArmModel joint limit nan": (lambda sys: ArmModel(DH, np.vstack([LIMITS[:5], [np.nan, 3.0]]),
                                                      joint_stiffness=JOINT_STIFFNESS),
                                 "joint_limits must be a finite 6x2 array"),
    "Wrench force of 2": (lambda sys: Wrench(np.zeros(2)), "wrench force/torque must be finite 3-vectors"),
    "stack of a scalar": (lambda sys: cartesian_stiffness(sys.arm1, 0.0),
                          "stacked arguments do not broadcast: a scalar is not a stack of vectors"),
    "stacks of 3 and 2 rows": (lambda sys: coupled_stiffness(sys, np.zeros((3, 6)), Q),
                               f"stacked arguments do not broadcast: {_numpy_broadcast_message((3,), (2,))}"),
    "predicted_tension offset of 5": (lambda sys: predicted_tension(sys, Q, Q, np.zeros(5)),
                                      "offset must be a finite 6-vector"),
    "Pose quaternion of 3": (lambda sys: Pose(np.zeros(3), np.zeros(3)),
                             "quaternion must have 4 components (w, x, y, z)"),
    "pose_rows of 6 values": (lambda sys: pose_rows(np.zeros((2, 6))),
                              "stacked poses must have 7 values per row (x, y, z, qw, qx, qy, qz)"),
    "fit_rigid of 4 and 5 points": (lambda sys: fit_rigid(PathTrace(np.zeros((4, 3))), PathTrace(np.zeros((5, 3)))),
                                    "reference and measured traces must have equal point counts"),
    "ImpactRecord of 10 and 9 samples": (lambda sys: ImpactRecord(100.0, np.ones(10), np.ones(9)),
                                         "force and acceleration must be equal-length series of >= 2 samples"),
    "Setpoints q1 of 5 joints": (lambda sys: Setpoints(ROWS, Q[:, :5], Q),
                                 "q1 must hold 6 finite joint values per setpoint"),
}


@pytest.mark.parametrize("call, message", REFUSED_CALLS.values(), ids=REFUSED_CALLS.keys())
def test_refused_call(cfg, call, message):
    with pytest.raises(InvalidInputError) as exc:
        call(cfg.system)
    assert str(exc.value) == message
    assert (exc.value.index, exc.value.line, exc.value.path, exc.value.arm, exc.value.file) == (None,) * 5
