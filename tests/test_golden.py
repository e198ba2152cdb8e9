"""Golden outputs: the sha256 and byte size of every file the demo commands
and the benchmark's raster plans write, checked against tests/data/golden.json.

The files are rebuilt in-process: the demo `plan`, its `deform --compensate
--noise-sigma 15e-6 --seed 7`, `modal --tensions 0,500,1400,2000`, two
simulated 1 s x-axis impacts at 0 N and their `frf`, and the benchmark's
tiny and full raster programs. The hashes hold on the platform they were
recorded on; elsewhere the test skips, naming both platforms.

A change that alters output bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from twinmill import cli, config, modal

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"
DEMO = ROOT / "demo"


def this_platform():
    return {"system": platform.system(), "machine": platform.machine(), "numpy": np.__version__}


def build_outputs(work):
    """{name: bytes} of every golden file, written under the directory `work`."""
    def run(*argv):
        assert cli.main(["--config", str(DEMO / "system.json"), *map(str, argv)]) == cli.EXIT_OK

    run("plan", DEMO / "slot.gcode", "--tension", "1000", "--work-offset-mm", "2105,-20,1100",
        "--out", work / "plan.csv")
    run("deform", work / "plan.csv", "--compensate", "--noise-sigma", "15e-6", "--seed", "7",
        "--out", work / "deform")
    run("modal", "--tensions", "0,500,1400,2000", "--out", work / "modal")
    model = config.load_config(DEMO / "system.json").modal_models["x"]
    (work / "impact.csv").write_text(modal.impact_record_to_csv(modal.simulate_impact(model, 0.0, duration=1.0)))
    run("frf", work / "impact.csv", work / "impact.csv", "--out", work / "frf.csv")
    outputs = {path.relative_to(work).as_posix(): path.read_bytes()
               for path in sorted(work.rglob("*.csv"))}
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    cfg = config.load_config(DEMO / "system.json")
    for size in ("tiny", "full"):
        raster = workloads.SIZES[size][0]
        outputs[f"raster_{size}.csv"] = workloads.plan(cfg, workloads.raster_gcode(raster)).encode()
    return outputs


def digests(outputs):
    return {name: {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
            for name, data in sorted(outputs.items())}


def test_outputs_match_the_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = this_platform()
    if golden["platform"] != here:
        pytest.skip(f"golden hashes were recorded on {golden['platform']}, this is {here}")
    assert digests(build_outputs(tmp_path)) == golden["files"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        files = digests(build_outputs(Path(work)))
    GOLDEN.write_text(json.dumps({"platform": this_platform(), "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} hashes to {GOLDEN}")
