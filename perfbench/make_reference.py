#!/usr/bin/env python3
"""Write the reference joint trajectory of the full-size raster plan.

    python3 perfbench/make_reference.py

raster_plan reports the largest joint difference between each plan it
makes and this file (max_dq_rad), so a change that moves the planned
trajectory shows. Rewrite it only when a change of the plan is intended.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from twinmill import config as config_mod, pathplan  # noqa: E402


def main():
    cfg = config_mod.load_config(workloads.CONFIG_PATH)
    raster = workloads.SIZES["full"][0]
    program = pathplan.program_from_csv(workloads.plan(cfg, workloads.raster_gcode(raster)))
    q = workloads.joint_trajectory(program)
    workloads.REFERENCE_Q.parent.mkdir(exist_ok=True)
    np.save(workloads.REFERENCE_Q, q)
    print(f"wrote {q.shape[0]} x {q.shape[1]} joint values to {workloads.REFERENCE_Q}")


if __name__ == "__main__":
    main()
