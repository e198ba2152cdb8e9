"""Every `raise` statement in src/twinmill runs in tier-1.

Runs the tier-1 suite in this process under a line tracer limited to the
frames of src/twinmill, then names each `raise` statement none of whose
lines ran. A test that switches the tracer off (a deep recursion can make
the tracer's own call raise) is named on stderr, and the tracer is put
back before the next test. Exits 0 if every one ran, 1 if one did not,
pytest's exit code if the suite fails, and 2 if twinmill was not imported
from src/twinmill.

    PYTHONPATH=src python tests/raise_coverage.py

The name has no `test_` prefix, so tier-1 does not collect this file. A
traced run takes about twice as long as tier-1.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twinmill"


def raise_spans(path):
    """The (first, last) line of each `raise` statement in the file at `path`."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, node.end_lineno) for node in ast.walk(tree) if isinstance(node, ast.Raise)]


def main():
    prefix = f"{PACKAGE}{os.sep}"
    inside = {}  # co_filename -> whether it is a file of the package
    ran = set()  # (co_filename, line)

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return trace_lines if inside[name] else None

    class Retrace:
        """Puts the tracer back after a test that switched it off (Python does
        so when a call of the tracer itself raises), naming that test."""

        lost = []

        def pytest_runtest_teardown(self, item):
            if sys.gettrace() is not trace_calls:
                self.lost.append(item.nodeid)
                sys.settrace(trace_calls)

    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")], plugins=[Retrace()])
    finally:
        sys.settrace(None)
    for nodeid in Retrace.lost:
        print(f"the line tracer was switched off during {nodeid:.120}", file=sys.stderr)
    if code != 0:
        return int(code)
    imported = getattr(sys.modules.get("twinmill"), "__file__", None)
    if imported is None or not os.path.realpath(imported).startswith(prefix):
        print(f"twinmill was imported from {imported}, not {PACKAGE}: run with PYTHONPATH=src", file=sys.stderr)
        return 2
    lines = {}  # real path -> the lines that ran in it
    for name, line in ran:
        lines.setdefault(os.path.realpath(name), set()).add(line)
    total, missed = 0, []
    for path in sorted(PACKAGE.rglob("*.py")):
        done = lines.get(os.path.realpath(path), set())
        for first, last in raise_spans(path):
            total += 1
            if done.isdisjoint(range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}")
    for place in missed:
        print(f"{place}: this raise never runs in tier-1")
    print(f"{total - len(missed)} of {total} raise statements in {PACKAGE.relative_to(ROOT)} run in tier-1")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
