import numpy as np
import pytest
from hypothesis import settings

from twinmill.config import default_config
from twinmill.geometry import Pose
from twinmill.kinematics import ArmModel

# Property tests run a fixed example order with no example database or
# deadline, so tier-1 is deterministic; each test sets its own
# max_examples, a small budget that keeps tier-1 fast.
settings.register_profile("twinmill", derandomize=True, database=None, deadline=None)
settings.load_profile("twinmill")


@pytest.fixture(scope="session")
def cfg():
    return default_config()


def make_one_link_arm(a1=1.0):
    """Planar single-link arm: a1 set, every other DH entry zero."""
    rows = np.zeros((6, 4))
    rows[0, 0] = a1
    limits = np.tile([-np.pi, np.pi], (6, 1))
    return ArmModel(rows, limits)


def make_test_arm(base=None, flange=None):
    """Compact 6-DOF arm with a spherical-ish wrist, used where the demo
    cell arm would be overkill."""
    rows = np.array(
        [
            [0.15, -np.pi / 2, 0.40, 0.0],
            [0.60, 0.0, 0.0, -np.pi / 2],
            [0.12, -np.pi / 2, 0.0, 0.0],
            [0.0, np.pi / 2, 0.55, 0.0],
            [0.0, -np.pi / 2, 0.0, 0.0],
            [0.0, 0.0, 0.12, 0.0],
        ]
    )
    limits = np.tile([-2.9, 2.9], (6, 1))
    return ArmModel(
        rows,
        limits,
        base_pose=base if base is not None else Pose.identity(),
        flange_offset=flange if flange is not None else Pose.identity(),
    )


@pytest.fixture
def test_arm():
    return make_test_arm()


@pytest.fixture(scope="session")
def demo_program(cfg):
    """Slot path planned on the demo cell with a 1000 N axial tension."""
    from twinmill.pathplan import parse_gcode, plan_sync, translate_path
    from twinmill.stiffness import Wrench

    path = translate_path(parse_gcode("G1 X40 F300\nG3 X40 Y40 J20\nG1 X0\n"),
                          np.array([2.105, -0.020, 1.100]))
    return plan_sync(
        cfg.system, path, Wrench(np.array([1000.0, 0.0, 0.0])),
        (cfg.ik_seed1, cfg.ik_seed2),
    )


def random_nonsingular_q(arm, rng, min_sv=1e-3):
    from twinmill.kinematics import jacobian

    while True:
        q = rng.uniform(arm.joint_limits[:, 0] * 0.7, arm.joint_limits[:, 1] * 0.7)
        if np.linalg.svd(jacobian(arm, q), compute_uv=False)[-1] > min_sv:
            return q
