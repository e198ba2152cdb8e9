"""Import graph: `import twinmill` loads no module of the package, and
every CLI command, simulate_impact and peak_pick load numpy only, never a
scipy module.

Each check runs in a fresh interpreter with warnings as errors, since this
test process has scipy loaded already. The demo commands' files from that
run must equal, byte for byte, the files the same commands write in-process.

Call graph: every public function and class of the package is named by
code of the package or the benchmark, so no API is kept for tests alone.
"""

import ast
import json
import os
import subprocess
import sys

from twinmill import cli

from conftest import DEMO_COMMANDS, DEMO_CONFIG, ROOT, write_demo_impact


def run_fresh(script, *args, cwd=None):
    """Run `script` in a new interpreter with src/ on PYTHONPATH, in the
    directory `cwd`, with every warning an error; return its standard output."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error")
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def csv_files(work):
    """{path under `work`: bytes} of every CSV file below the directory `work`."""
    return {path.relative_to(work).as_posix(): path.read_bytes() for path in sorted(work.rglob("*.csv"))}


def test_cli_commands_load_no_scipy(tmp_path, cfg, monkeypatch):
    fresh, in_process = tmp_path / "fresh", tmp_path / "in_process"
    for work in (fresh, in_process):
        work.mkdir()
        write_demo_impact(cfg, work)
    script = """
import json
import sys

def scipy_modules(stage):
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    assert not loaded, f"{stage} loaded {loaded}"

import twinmill
scipy_modules("import twinmill")
package = sorted(m for m in sys.modules if m.startswith("twinmill."))
assert not package, f"import twinmill loaded {package}"
from twinmill import cli
scipy_modules("import twinmill.cli")
for name, argv in json.loads(sys.argv[1]).items():
    assert cli.main(argv) == 0, name
    scipy_modules(name)
print("ok")
"""
    assert run_fresh(script, json.dumps(DEMO_COMMANDS), cwd=fresh).splitlines()[-1] == "ok"
    monkeypatch.chdir(in_process)
    for name, argv in DEMO_COMMANDS.items():
        assert cli.main(argv) == cli.EXIT_OK, name
    written = csv_files(fresh)
    assert written == csv_files(in_process)
    assert {"deform/residual_after.csv", "frf.csv", "modal/shift_fit_x.csv"} <= set(written)


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


# The public functions and classes that only tests call, each with the item
# of ROADMAP.md that gives it a caller.
TEST_ONLY = {
    "stiffness.predicted_tension": "the inverse of tension_offset in acceptance 4; items 21 and 1b call it",
    "compensation.trace_from_csv": "item 28's `deform --measured` reads its trace with it",
}


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    """Each public module-level function and class of src/twinmill occurs
    as a name or an attribute in src/twinmill or perfbench/, outside its
    own definition, unless TEST_ONLY names it."""
    public, named = {}, set()
    for folder in ("src/twinmill", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
                if own and not own.startswith("_") and folder == "src/twinmill":
                    public[f"{path.stem}.{own}"] = own
                named |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
                          if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    assert sorted(where for where, name in public.items() if name not in named) == sorted(TEST_ONLY)
