"""Import graph: `import twinmill`, every CLI command, simulate_impact and
peak_pick load numpy only, never a scipy module.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys

from conftest import DEMO_COMMANDS, DEMO_CONFIG, ROOT, write_demo_impact


def run_fresh(script, *args, cwd=None):
    """Run `script` in a new interpreter with src/ on PYTHONPATH, in the
    directory `cwd`; return its standard output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_commands_load_no_scipy(tmp_path, cfg):
    write_demo_impact(cfg, tmp_path)
    script = """
import json
import sys

def scipy_modules(stage):
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    assert not loaded, f"{stage} loaded {loaded}"

import twinmill
scipy_modules("import twinmill")
from twinmill import cli
scipy_modules("import twinmill.cli")
for name, argv in json.loads(sys.argv[1]).items():
    assert cli.main(argv) == 0, name
    scipy_modules(name)
print("ok")
"""
    assert run_fresh(script, json.dumps(DEMO_COMMANDS), cwd=tmp_path).splitlines()[-1] == "ok"
    assert (tmp_path / "deform" / "residual_after.csv").is_file()
    assert (tmp_path / "frf.csv").is_file()
    assert (tmp_path / "modal" / "shift_fit_x.csv").is_file()


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
