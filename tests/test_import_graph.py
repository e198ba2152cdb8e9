"""Import graph: `import twinmill`, every CLI command, simulate_impact and
peak_pick load numpy only, never a scipy module.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

from twinmill import config, modal

from conftest import DEMO_CONFIG

ROOT = Path(__file__).resolve().parent.parent
DEMO = DEMO_CONFIG.parent


def run_fresh(script, *args):
    """Run `script` in a new interpreter with src/ on PYTHONPATH; return its
    standard output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_commands_load_no_scipy(tmp_path):
    model = config.load_config(DEMO_CONFIG).modal_models["x"]
    impacts = [tmp_path / "i1.csv", tmp_path / "i2.csv"]
    for p in impacts:
        p.write_text(modal.impact_record_to_csv(modal.simulate_impact(model, 0.0, duration=0.5)))
    script = """
import sys

def scipy_modules(stage):
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    assert not loaded, f"{stage} loaded {loaded}"

import twinmill
scipy_modules("import twinmill")
from twinmill import cli
scipy_modules("import twinmill.cli")
demo, out, i1, i2 = sys.argv[1:]
system = ["--config", f"{demo}/system.json"]
commands = {
    "plan": system + ["plan", f"{demo}/slot.gcode", "--tension", "1000",
                      "--work-offset-mm", "2105,-20,1100", "--out", f"{out}/p.csv"],
    "deform": system + ["deform", f"{out}/p.csv", "--compensate", "--noise-sigma", "15e-6",
                        "--seed", "7", "--out", f"{out}/d"],
    "frf": ["frf", i1, i2, "--out", f"{out}/f.csv"],
    "modal": system + ["modal", "--tensions", "0,500,1400,2000", "--out", f"{out}/m"],
}
for name, argv in commands.items():
    assert cli.main(argv) == 0, name
    scipy_modules(name)
print("ok")
"""
    assert run_fresh(script, DEMO, tmp_path, *impacts).splitlines()[-1] == "ok"
    assert (tmp_path / "d" / "residual_after.csv").is_file()
    assert (tmp_path / "f.csv").is_file()
    assert (tmp_path / "m" / "shift_fit_x.csv").is_file()


def test_simulate_impact_and_peak_pick_load_no_scipy():
    script = """
import sys
from twinmill import config, modal
model = config.load_config(sys.argv[1]).modal_models["x"]
record = modal.simulate_impact(model, 0.0, sample_rate=2048.0, duration=2.0)
peaks = modal.peak_pick(modal.h1_estimate([record]), 80.0, 400.0)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
print(len(peaks), round(peaks[0][0]))
"""
    assert run_fresh(script, DEMO_CONFIG) == "1 159\n"
