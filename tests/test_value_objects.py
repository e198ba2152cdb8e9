"""Every value object's arrays, pinned once: `geometry.frozen`'s contract
that a value object's arrays cannot change after their checks and that the
caller's array is never frozen. A row builds one object from the caller's
own arrays and names the arrays the object holds; the runner checks that
each of those is read-only, that editing the caller's arrays changes none
of them, and that the caller's arrays stay writeable. A dataclass of
src/twinmill with a field annotated `np.ndarray` cannot go without a row."""

import ast
import dataclasses

import numpy as np
import pytest

from twinmill.compensation import PathTrace, ResidualReport
from twinmill.config import load_config
from twinmill.geometry import Pose
from twinmill.kinematics import ArmModel
from twinmill.modal import FrfSeries, ImpactRecord, ShiftFit
from twinmill.pathplan import ArcSegment, Setpoints
from twinmill.stiffness import SpringModel, Wrench

from conftest import DEMO_CONFIG, JOINT_STIFFNESS, ROOT, make_test_arm

PACKAGE = ROOT / "src" / "twinmill"

# Two setpoints: tool pose rows, q1 and q2.
SETPOINTS = ([[0.1, 0.2, 0.3, 0.0, 1.0, 0.0, 0.0], [0.4, 0.5, 0.6, 1.0, 0.0, 0.0, 0.0]],
             np.zeros((2, 6)), np.ones((2, 6)))
SPRING = np.diag([5e7, 5e7, 5e7, 5e5, 5e5, 5e5])
SPRING[0, 4] = SPRING[4, 0] = 1e5
FORCE = np.zeros(16)
FORCE[3] = 1.0

# Each row: the object built from the caller's arrays, the values of those
# arrays, and the arrays the object holds. A row's name starts with its
# object's class name.
FROZEN = {
    "Pose": (Pose, ([0.1, 0.2, 0.3], [0.0, 1.0, 0.0, 0.0]), lambda o: (o.position, o.quaternion)),
    "ArmModel": (lambda rows, limits, base, springs: ArmModel(rows, limits, Pose(base), joint_stiffness=springs),
                 (make_test_arm().dh_rows, np.tile([-2.9, 2.9], (6, 1)), [0.5, 0.0, 0.0], JOINT_STIFFNESS),
                 lambda o: (o.dh_rows, o.joint_limits, o.base_pose.position, o.joint_stiffness)),
    "ArcSegment": (lambda c, n, start: ArcSegment(c, n, Pose(start), 1.0),
                   ([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.01, 0.0, 0.0]),
                   lambda o: (o.center, o.normal, o.start.position)),
    "Setpoints": (Setpoints, SETPOINTS, lambda o: (o.tool_pose, o.q1, o.q2)),
    "SetpointPair of a Setpoints row": (lambda tool, q1, q2: Setpoints(tool, q1, q2)[0], SETPOINTS,
                                        lambda o: (o.tool_pose.position, o.tool_pose.quaternion, o.q1, o.q2)),
    "Wrench": (Wrench, ([1000.0, 0.0, 0.0], [0.0, 2.0, 0.0]), lambda o: (o.force, o.torque)),
    "Wrench stacked": (Wrench, (np.ones((4, 3)),), lambda o: (o.force, o.torque)),
    "SpringModel": (SpringModel, (SPRING,), lambda o: (o.K, o.compliance)),
    "PathTrace": (PathTrace, (np.zeros((3, 3)),), lambda o: (o.points,)),
    "FrfSeries": (FrfSeries, ([1.0, 2.0], [1 + 1j, 2 - 1j]), lambda o: (o.frequencies, o.values)),
    "ImpactRecord": (lambda force, acc: ImpactRecord(1000.0, force, acc), (FORCE, np.zeros(16)),
                     lambda o: (o.force, o.acceleration)),
    "ResidualReport": (lambda dev, mean, std, max_abs: ResidualReport(dev, 1.0, 1.5, mean, std, max_abs),
                       (np.eye(3), [1 / 3] * 3, [0.5] * 3, [1.0] * 3),
                       lambda o: (o.deviations, o.axis_mean, o.axis_std, o.axis_max_abs)),
    "ShiftFit": (lambda residuals: ShiftFit(0.02, 140.0, residuals), ([0.1, -0.2, 0.1],), lambda o: (o.residuals,)),
    "SystemConfig": (lambda center, size, seed1, seed2: dataclasses.replace(
                         load_config(DEMO_CONFIG), workspace_box=(center, size), ik_seed1=seed1, ik_seed2=seed2),
                     ([2.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.1] * 6, [-0.1] * 6),
                     lambda o: (*o.workspace_box, o.ik_seed1, o.ik_seed2)),
}


@pytest.mark.parametrize("name", FROZEN)
def test_arrays_are_read_only_copies(name):
    build, values, held = FROZEN[name]
    caller = [np.array(v) for v in values]
    obj = build(*caller)
    assert type(obj).__name__ == name.split()[0]
    arrays = held(obj)
    kept = [a.copy() for a in arrays]
    assert [a.flags.writeable for a in arrays] == [False] * len(arrays)
    assert [a.flags.writeable for a in caller] == [True] * len(caller)
    for a in caller:
        a += 1.0
    for a, before in zip(arrays, kept):
        np.testing.assert_array_equal(a, before)


def array_dataclasses():
    """The name of each dataclass in src/twinmill with a field annotated
    `np.ndarray`, read from the source with `ast`."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                    and any(isinstance(item, ast.AnnAssign) and ast.unparse(item.annotation) == "np.ndarray"
                            for item in node.body)):
                names.add(node.name)
    return names


def test_every_value_object_has_a_row():
    """Setpoints is not a dataclass, so its row is written in by hand, as
    are the `workspace_box` arrays, which SystemConfig annotates `tuple`."""
    rows = {name.split()[0] for name in FROZEN}
    found = array_dataclasses()
    missing = sorted(found - rows)
    assert missing == [], f"a dataclass with an np.ndarray field but no FROZEN row: {', '.join(missing)}"
    assert rows - found == {"Setpoints"}
