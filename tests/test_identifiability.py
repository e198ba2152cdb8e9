"""Which stiffness parameters a tracker measurement of the deformation can
check. The deformation of a planned program (simulated tool points minus
planned ones, 3N values) depends on 13 parameters: the 12 joint springs
and the scale of the module spring K. S holds its change per unit change
of each parameter's log, by central differences of +-1e-3. A combination of
parameters (a right singular vector of S, singular value s) is pinned when
a tracker of noise sigma = 15 um measures its log to a standard error
sigma / s below 0.3.

The slot pins 2 combinations (standard errors 0.013 and 0.025; the next
is 0.71) and the tiny raster 3 (0.013, 0.032 and 0.129; the next is 13.9).
On both, the best-pinned combination is mostly arm 1's joint-3 spring with
arm 2's joint 2 and K, the second mostly arm 1's joints 2 and 5, and the
weakest almost only arm 2's joint-6 spring."""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from twinmill.compensation import simulate_deformation
from twinmill.pathplan import parse_gcode, plan_sync, translate_path
from twinmill.stiffness import SpringModel, Wrench

SIGMA = 15e-6  # m, the tracker noise of CI's deform step
PINNED = 0.3  # largest standard error of a pinned log-scale combination
STEP = 1e-3  # log-scale step of the central differences


def _scaled(system, j, factor):
    """`system` with parameter j scaled by `factor`: arm 1's joint springs
    are 0-5, arm 2's 6-11, and the spring K is 12."""
    if j == 12:
        return dataclasses.replace(system, spring=SpringModel(system.spring.K * factor))
    name = ("arm1", "arm2")[j // 6]
    arm = getattr(system, name)
    springs = arm.joint_stiffness.copy()
    springs[j % 6] *= factor
    return dataclasses.replace(system, **{name: dataclasses.replace(arm, joint_stiffness=springs)})


def sensitivity(system, program):
    """S [3N, 13]: the deformation's change per unit log-scale change of each parameter."""
    tool = program.pairs.tool_pose[:, :3]

    def deformation(j, sign):
        return (simulate_deformation(_scaled(system, j, np.exp(sign * STEP)), program).points - tool).ravel()

    return np.column_stack([(deformation(j, 1) - deformation(j, -1)) / (2 * STEP) for j in range(13)])


def standard_errors(S):
    """sigma / s of each singular value s of S, the best-pinned combination first."""
    return SIGMA / np.linalg.svd(S, compute_uv=False)


@pytest.fixture(scope="module")
def tiny_raster(cfg):
    """The benchmark's tiny raster at its work offset, planned at 1000 N along x."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    path = translate_path(parse_gcode(workloads.raster_gcode(workloads.SIZES["tiny"][0])), workloads.WORK_OFFSET_M)
    return plan_sync(cfg.system, path, Wrench(np.array([1000.0, 0.0, 0.0])), (cfg.ik_seed1, cfg.ik_seed2))


def test_the_slot_pins_two_spring_combinations(cfg, demo_program):
    """0.013 and 0.025, each more than 10x inside the bound; the third,
    0.71, is 2.4x outside it."""
    S = sensitivity(cfg.system, demo_program)
    se = standard_errors(S)
    assert np.sum(se < PINNED) == 2
    assert se[1] < PINNED / 10 and se[2] > 2 * PINNED
    # The columns normalized: three strong directions, then a drop of 37x.
    normalized = np.linalg.svd(S / np.linalg.norm(S, axis=0), compute_uv=False)
    np.testing.assert_allclose(normalized[:4], [2.4496, 2.1164, 1.5869, 0.04345], rtol=1e-3)


def test_the_tiny_raster_pins_three_spring_combinations(cfg, tiny_raster):
    """0.013, 0.032 and 0.129, the last 2.3x inside the bound; the fourth,
    13.9, is 46x outside it."""
    se = standard_errors(sensitivity(cfg.system, tiny_raster))
    assert np.sum(se < PINNED) == 3
    assert se[2] < PINNED / 2 and se[3] > 40 * PINNED
