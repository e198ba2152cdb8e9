"""Golden outputs: the sha256 and byte size of every file the demo commands
and the benchmark's raster plans write, checked against tests/data/golden.json.

The files are rebuilt in-process: the demo commands of `DEMO_COMMANDS`
(`plan`, its `deform --compensate --noise-sigma 15e-6 --seed 7`, `modal
--tensions 0,500,1400,2000`, and `frf` of one simulated 1 s x-axis impact at
0 N passed twice) and the benchmark's tiny and full raster programs. The
hashes hold on the platform they were recorded on; elsewhere that test
skips, naming both platforms. On every platform, the CLI's `plan` and
`deform` of the tiny raster write what the benchmark's replay of them
writes.

A change that alters output bytes on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from twinmill import cli, config

from conftest import (DEMO_COMMANDS, DEMO_CONFIG, NOISE_SEED, RASTER_OFFSET, TINY_RASTER_GCODE, offset_mm, workloads,
                      write_demo_impact)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"


def this_platform():
    return {"system": platform.system(), "machine": platform.machine(), "numpy": np.__version__}


def build_outputs(work):
    """{name: bytes} of every golden file, written under the directory `work`."""
    cfg = config.load_config(DEMO_CONFIG)
    write_demo_impact(cfg, work)
    with contextlib.chdir(work):
        for name, argv in DEMO_COMMANDS.items():
            assert cli.main(argv) == cli.EXIT_OK, name
    outputs = {path.relative_to(work).as_posix(): path.read_bytes()
               for path in sorted(work.rglob("*.csv"))}
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


def test_the_cli_writes_what_the_benchmark_replays(tmp_path, cfg):
    """The program `plan` writes for the tiny raster is the text
    `workloads.plan` returns, and each file `deform --compensate` writes
    from it is the text `workloads.deform` returns for that file."""
    gcode, program = tmp_path / "raster.gcode", tmp_path / "plan.csv"
    gcode.write_text(TINY_RASTER_GCODE)
    assert cli.main(["--config", str(DEMO_CONFIG), "plan", str(gcode), "--tension", f"{workloads.TENSION_N:g}",
                     "--work-offset-mm", offset_mm(RASTER_OFFSET), "--out", str(program)]) == cli.EXIT_OK
    text = workloads.plan(cfg, TINY_RASTER_GCODE)
    assert program.read_text() == text
    assert cli.main(["--config", str(DEMO_CONFIG), "deform", str(program), "--compensate", "--noise-sigma",
                     repr(workloads.TRACKER_NOISE_M), "--seed", str(NOISE_SEED),
                     "--out", str(tmp_path / "deform")]) == cli.EXIT_OK
    files = workloads.deform(cfg, text, NOISE_SEED)[-1]
    assert sorted(files) == sorted(path.name for path in (tmp_path / "deform").iterdir())
    for name, expected in files.items():
        assert (tmp_path / "deform" / name).read_text() == expected, name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        files = digests(build_outputs(Path(work)))
    GOLDEN.write_text(json.dumps({"platform": this_platform(), "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} hashes to {GOLDEN}")
