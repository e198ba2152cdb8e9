#!/usr/bin/env python3
"""Self-test of the benchmark: one tiny-size operation of every workload,
untraced and traced, must print a result line that names every metric of
BENCHMARK.json with its unit and a finite value, and fail no operation.

    python3 perfbench/selftest.py

Exits 0 when every check holds, 1 otherwise. Takes a few seconds.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)


def check(name, trace_on, spec):
    record = run.run_workload(name, seed=1, seconds=0, trace_on=trace_on, size="tiny")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        run.report(record, spec)
    result = json.loads(out.getvalue().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{result['failed']} of {result['attempted']} operations failed: {record['failures']}")
    kind = "per_layer" if trace_on else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics and units {got} differ from BENCHMARK.json's {want}")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric} has value {value!r}")
    return problems


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_program()
    failed = False
    for name in run.WORKLOAD_NAMES:
        for trace_on in (False, True):
            problems = check(name, trace_on, spec)
            failed = failed or bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {name} trace={int(trace_on)}")
            for problem in problems:
                print(f"     {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
