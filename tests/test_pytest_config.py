"""The pytest configuration of pyproject.toml reports a failing property
test like any other failure. hypothesis explains a failing example through
libcst, which warns on import; `filterwarnings` turns warnings into errors
and must not turn that one into an internal error that ends the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""


def test_a_failing_property_test_is_reported_and_the_next_test_runs(tmp_path):
    (tmp_path / "test_case.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "test_case.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "FAILED test_case.py::test_fails" in done.stdout
    assert "1 failed, 1 passed" in done.stdout
