"""Property tests of IK and the G-code reader: FK -> IK round trips from
random in-limits configurations, and fuzzed G-code that may only raise
TwinmillError, naming the line where the problem is."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill.errors import TwinmillError
from twinmill.geometry import Pose, pose_error
from twinmill.kinematics import forward_kinematics, inverse_kinematics, jacobian
from twinmill.pathplan import ToolPath, parse_gcode

from conftest import make_test_arm

ARM = make_test_arm(base=Pose(np.array([0.2, -0.1, 0.3])), flange=Pose(np.array([0.0, 0.0, 0.1])))
LO, HI = ARM.joint_limits[:, 0], ARM.joint_limits[:, 1]


@settings(max_examples=30)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.just(6)), elements=st.floats(-0.8, 0.8)),
    arrays(np.float64, (6, 6), elements=st.floats(-0.05, 0.05)),
)
def test_fk_ik_round_trip(shares, perturbation):
    q_star = LO + (0.5 + 0.5 * shares) * (HI - LO)
    # Keep clear of singular configurations, where DLS may stall.
    assume(np.all(np.linalg.svd(jacobian(ARM, q_star), compute_uv=False)[:, -1] > 1e-2))
    seeds = np.clip(q_star + perturbation[: len(q_star)], LO, HI)
    targets = forward_kinematics(ARM, q_star)
    q = inverse_kinematics(ARM, targets, seeds)
    assert q.shape == q_star.shape
    assert np.all((q >= LO) & (q <= HI))
    err = pose_error(forward_kinematics(ARM, q), targets)
    assert np.all(np.linalg.norm(err[:, :3], axis=1) <= 1e-6)
    assert np.all(np.linalg.norm(err[:, 3:], axis=1) <= 1e-6)
    for row, target, seed in zip(q, targets, seeds):
        np.testing.assert_array_equal(row, inverse_kinematics(ARM, Pose(target[:3], target[3:]), seed))


NUMBER = st.one_of(
    st.integers(-60, 60).map(str),
    st.from_regex(r"\A[+-]?\d{0,3}\.\d{0,3}\Z"),
    st.integers(300, 420).map(lambda n: "9" * n),  # overlong digit strings
)
WORD = st.tuples(st.sampled_from("XYZIJKF"), NUMBER).map("".join)
MOTION = st.sampled_from(["G0", "G1", "G2", "G3", "G4", "M3", ""])
LINE = st.one_of(
    st.tuples(MOTION, st.lists(WORD, max_size=5).map(" ".join)).map(" ".join),
    st.text("GXYZIJKF0123456789.-+ ;()%", max_size=30),
)
# Messages of errors that concern the whole text, not one line.
WHOLE_TEXT = ("G-code text is empty", "G-code produced no motion segments")


@settings(max_examples=100)
@given(st.lists(LINE, min_size=1, max_size=8).map("\n".join))
def test_gcode_fuzz_raises_only_twinmill_errors_with_a_line(text):
    try:
        path = parse_gcode(text)
    except TwinmillError as exc:
        if str(exc) in WHOLE_TEXT:
            return
        line = getattr(exc, "line", None)
        assert line is not None and str(exc).startswith(f"line {line}: "), str(exc)
    else:
        assert isinstance(path, ToolPath)
