import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from twinmill.config import load_config
from twinmill.geometry import Pose
from twinmill.kinematics import ArmModel

# Joint springs of the test arms, N·m/rad.
JOINT_STIFFNESS = np.array([4e6, 4e6, 3e6, 1.5e6, 1.5e6, 1e6])

# The illustrative two-robot cell, the one copy the CLI demo, the
# benchmark and the tests all read.
DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demo" / "system.json"

# Property tests run a fixed example order with no example database or
# deadline, so tier-1 is deterministic; each test sets its own
# max_examples, a small budget that keeps tier-1 fast.
settings.register_profile("twinmill", derandomize=True, database=None, deadline=None)
settings.load_profile("twinmill")


def demo_config_dict():
    """A fresh decoded copy of the demo config document, free to edit."""
    return json.loads(DEMO_CONFIG.read_text())


@pytest.fixture(scope="session")
def cfg():
    return load_config(DEMO_CONFIG)


def make_one_link_arm(a1=1.0):
    """Planar single-link arm: a1 set, every other DH entry zero."""
    rows = np.zeros((6, 4))
    rows[0, 0] = a1
    limits = np.tile([-np.pi, np.pi], (6, 1))
    return ArmModel(rows, limits, joint_stiffness=JOINT_STIFFNESS)


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
        joint_stiffness=JOINT_STIFFNESS,
    )


@pytest.fixture
def test_arm():
    return make_test_arm()


def plan_slot(cfg, tension):
    """Slot path planned on the demo cell with an axial tension of
    `tension` N."""
    from twinmill.pathplan import parse_gcode, plan_sync, transform_path
    from twinmill.stiffness import Wrench

    path = transform_path(parse_gcode("G1 X40 F300\nG3 X40 Y40 J20\nG1 X0\n"),
                          Pose(np.array([2.105, -0.020, 1.100])))
    return plan_sync(
        cfg.system, path, Wrench(np.array([tension, 0.0, 0.0])),
        (cfg.ik_seed1, cfg.ik_seed2),
    )


@pytest.fixture(scope="session")
def demo_program(cfg):
    """Slot path planned on the demo cell with a 1000 N axial tension."""
    return plan_slot(cfg, 1000.0)


def planned_flanges(system, program):
    """Arm 1's flange rows and arm 2's nominal flange rows [N, 7] of a
    program, derived from its tool rows bit for bit as `plan_sync` derives
    them."""
    from twinmill.geometry import compose_rows

    r1 = compose_rows(program.pairs.tool_pose, system.tool_offset.inverse())
    return r1, compose_rows(r1, system.flange2_offset)


def arm2_targets(plan):
    """Call `plan()` and return its program with the arm-2 nominal and
    commanded flange rows [N, 7] that `plan_sync` handed to arm 2's IK
    (passes 1 and 3)."""
    from twinmill import pathplan

    targets = []
    real = pathplan._solve

    def solve(arm, rows, *args):
        targets.append(np.array(rows))
        return real(arm, rows, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pathplan, "_solve", solve)
        program = plan()
    _, nominal, commanded = targets
    return program, nominal, commanded


def forty_one_column_program(system, program):
    """`program` as CSV in the 41-column form that also held arm 1's
    flange and arm 2's nominal and commanded flanges, the last from FK of
    q2, with no cell_sha256."""
    from twinmill.csvtable import write_table
    from twinmill.kinematics import forward_kinematics

    sp = program.pairs
    r1, nominal = planned_flanges(system, program)
    frames = ("tool", "r1", "r2_nominal", "r2_commanded")
    columns = ["index"] + [f"{name}_{f}" for name in frames for f in ("x", "y", "z", "qw", "qx", "qy", "qz")]
    columns += [f"q{arm}_{i}" for arm in (1, 2) for i in range(6)]
    meta = {"feed_mm_min": repr(program.feed_mm_min),
            "tension_wrench": " ".join(repr(float(x)) for x in program.tension.as_vector()),
            "chord_tol_m": repr(program.chord_tol), "max_step_m": repr(program.max_step)}
    table = np.column_stack([sp.tool_pose, r1, nominal, forward_kinematics(system.arm2, sp.q2),
                             sp.q1, sp.q2])
    return write_table(meta, columns, table)


def three_column_impact(record):
    """`record` as an impact CSV in the layout of earlier versions, which
    held a time_s column of k / sample rate ahead of force_N and
    accel_ms2."""
    from twinmill.csvtable import write_table

    meta = {"axis": record.axis, "position": record.position, "tension_N": repr(record.tension),
            "sample_rate_hz": repr(record.sample_rate)}
    t = np.arange(record.force.size) / record.sample_rate
    return write_table(meta, ("time_s", "force_N", "accel_ms2"),
                       np.column_stack([t, record.force, record.acceleration]))


def row_by_row(columns, data):
    """The text `csvtable.write_table` must give for a table without
    metadata: each row formatted with Python's `%`, one value at a time,
    after its row number where the first column is `index`."""
    counted = columns[0] == "index"
    return ",".join(columns) + "\n" + "".join(",".join([f"{k}"] * counted + ["%.17g" % x for x in row]) + "\n"
                                              for k, row in enumerate(np.asarray(data).tolist()))


def random_nonsingular_q(arm, rng, min_sv=1e-3):
    from twinmill.kinematics import jacobian

    while True:
        q = rng.uniform(arm.joint_limits[:, 0] * 0.7, arm.joint_limits[:, 1] * 0.7)
        if np.linalg.svd(jacobian(arm, q), compute_uv=False)[-1] > min_sv:
            return q


def json_elements(doc, where="", keys=()):
    """(schema path, keys from the root, value) of every element of a
    decoded JSON document below its root `where`, parents first."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items()
    for key, value in items:
        if isinstance(doc, list):
            path = f"{where}[{key}]"
        else:
            path = f"{where}.{key}" if where else key
        yield path, keys + (key,), value
        if isinstance(value, (dict, list)):
            yield from json_elements(value, path, keys + (key,))


def json_numbers(doc, where=""):
    """(schema path, keys) of every number of a decoded JSON document."""
    return [(path, keys) for path, keys, value in json_elements(doc, where)
            if isinstance(value, (int, float)) and not isinstance(value, bool)]


def json_objects(doc, where=""):
    """(schema path, keys) of every object of a decoded JSON document, the
    root `where` first."""
    return [(where, ())] + [(path, keys) for path, keys, value in json_elements(doc, where)
                            if isinstance(value, dict)]


def json_replaced(doc, keys, value):
    """A deep copy of `doc` with the element at `keys` set (or added) to
    `value`."""
    doc = copy.deepcopy(doc)
    entry = doc
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    return doc


def json_with_a_repeated_key(doc, keys, key, value):
    """A decoded JSON document as JSON text in which the object at `keys`
    opens with `key`: `value`, ahead of its own entries (json.loads keeps
    the last of a repeated key's values)."""

    def dump(element, at):
        if isinstance(element, dict):
            entries = [f"{json.dumps(k)}: {dump(v, at + (k,))}" for k, v in element.items()]
            if at == keys:
                entries.insert(0, f"{json.dumps(key)}: {json.dumps(value)}")
            return "{" + ", ".join(entries) + "}"
        if isinstance(element, list):
            return "[" + ", ".join(dump(v, at + (i,)) for i, v in enumerate(element)) + "]"
        return json.dumps(element)

    return dump(doc, ())
