#!/usr/bin/env python3
"""twinmill benchmark: one workload, one process, one BLAS thread.

    python3 perfbench/run.py --workload raster_plan --seed 1 --seconds 15 --trace 0

The twinmill source is imported from src/ next to this directory. The
workload is set up SETUP_REPEATS times, then its operation repeats until
--seconds have passed; every operation's outputs are checked. Untraced
runs time set-up and operations at a reference core speed, with
hostprobe.HostProbe sampling the core's speed throughout. The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` - the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The lines before it give
the same numbers for reading, then the run manifest and the workload
fingerprint as one JSON object.
"""

import os
import sys
import time

# Pinned before numpy is imported, so BLAS and OpenMP start one thread.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("raster_plan", "deform_replay", "modal_campaign")
SETUP_REPEATS = 3
# What one operation's items are, for the readable report.
ITEM_NAME = {"raster_plan": "setpoint", "deform_replay": "setpoint", "modal_campaign": "impact"}


def import_program(host_probe=False):
    """Import numpy, scipy, twinmill and the benchmark modules. Return the
    stretch the imports took and, with `host_probe`, the HostProbe that
    sampled them, still running."""
    if not (SRC / "twinmill" / "__init__.py").is_file():
        raise ImportError(f"no twinmill source under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import hostprobe

    probe = hostprobe.HostProbe() if host_probe else None
    if probe:
        probe.start()

    def imports():
        import numpy  # noqa: F401
        import scipy  # noqa: F401

        import spans  # noqa: F401
        import workloads  # noqa: F401

    try:
        _, stretch = timed(probe, imports)
    except BaseException:
        if probe:
            probe.stop()
        raise
    return stretch, probe


def manifest():
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
    }


def timed(probe, fn, catch=()):
    """fn()'s result, or the `catch` exception it raised, and its stretch:
    wall seconds and the probe's marks before and after."""
    first = probe.mark() if probe else 0
    start = time.perf_counter()
    try:
        result = fn()
    except catch as exc:
        result = exc
    return result, (time.perf_counter() - start, first, probe.mark() if probe else first)


def set_up(name, seed, size, probe=None):
    """SETUP_REPEATS fresh set-ups; their stretches and the last one."""
    import workloads

    stretches, workload = [], None
    for _ in range(SETUP_REPEATS):
        workload = None  # let the previous inputs go before building new ones
        workload, stretch = timed(probe, lambda: workloads.load(name, size, seed))
        stretches.append(stretch)
    return stretches, workload


def measure(workload, seconds, tracer=None, probe=None):
    """Repeat the operation until `seconds` have passed and check each
    one. With a tracer, every second operation is traced, so the untraced
    ones in between show the tracing overhead."""
    from twinmill.errors import TwinmillError

    deadline = time.perf_counter() + seconds
    run = {"walls": {False: [], True: []}, "stretches": [], "attempted": 0, "failed": 0,
           "failures": [], "values": {}, "items": 0}
    while True:
        traced = tracer is not None and run["attempted"] % 2 == 1
        with tracer.installed() if traced else nullcontext():
            with tracer.root() if traced else nullcontext():
                result, stretch = timed(None if traced else probe, workload.op, TwinmillError)
        failures = []
        if isinstance(result, TwinmillError):
            result, failures = None, [f"{type(result).__name__}: {result}"]
        run["walls"][traced].append(stretch[0])
        if not traced:
            run["stretches"].append(stretch)
        run["attempted"] += 1
        if result is not None:
            outcome = workload.check(result)
            failures = outcome.failures
            if not run["items"]:
                run["values"], run["items"] = outcome.values, outcome.items
            elif outcome.values != run["values"]:
                failures.append("outputs differ from the first operation's")
        if failures:
            run["failed"] += 1
            run["failures"] += [f"op {run['attempted']}: {f}" for f in failures]
        if time.perf_counter() >= deadline and run["attempted"] >= (2 if tracer else 1):
            return run


def per_layer(name, seed, run, tracer, setup):
    """Per-layer metrics from the traced operations. Time metrics of spans
    this workload never calls come from one traced tiny operation of each
    other workload."""
    import spans
    import workloads

    main = spans.Summary(tracer.spans, len(run["walls"][True]))
    small = spans.Tracer()
    for other in WORKLOAD_NAMES:
        if other != name:
            workload = workloads.load(other, "tiny", seed)
            with small.installed(), small.root():
                workload.op()
    metrics, filled = spans.layer_metrics(main, spans.Summary(small.spans, 1), setup)
    metrics["trace.overhead_ms"] = 1e3 * (min(run["walls"][True]) - min(run["walls"][False]))
    traced_wall = sum(run["walls"][True])
    self_sum = main.self_time_of_layer()
    if abs(self_sum - traced_wall) > 0.01 * traced_wall:
        run["failed"] += 1
        run["failures"].append(
            f"trace: self times sum to {self_sum:.4f} s, the traced ops took {traced_wall:.4f} s")
    return metrics, filled


def run_workload(name, seed, seconds, trace_on, size="full", imports=(0.0, 0, 0), probe=None):
    """Set up, measure and check one workload; return the result record.
    `imports`, what import_program took, counts towards set-up time. An
    untraced run samples the host with `probe`, already running, or with
    its own."""
    import hostprobe
    import spans

    tracer = spans.Tracer() if trace_on else None
    own_probe = probe is None and not trace_on
    if own_probe:
        probe = hostprobe.HostProbe()
    with probe.running() if own_probe else nullcontext():
        with tracer.installed() if tracer else nullcontext():
            setups, workload = set_up(name, seed, size, probe)
        setup = None
        if tracer:
            setup = spans.Summary(tracer.spans, SETUP_REPEATS)
            tracer.clear()
        run = measure(workload, seconds, tracer, probe)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace_on),
        "size": size,
        "manifest": manifest(),
        "fingerprint": run["values"],
        "items_per_op": run["items"],
        "op_ms": [1e3 * w for w in run["walls"][False]],
        "setup_s": [w for w, _, _ in setups],
    }
    if trace_on:
        record["metrics"], record["filled_from_tiny"] = per_layer(name, seed, run, tracer, setup)
        record["op_ms_traced"] = [1e3 * w for w in run["walls"][True]]
    else:
        # Other tenants' load slows the core in millisecond bursts; times
        # are taken at the reference speed, by what the probe saw (hostprobe).
        ref_op_ms = [1e3 * probe.at_reference(*s) for s in run["stretches"]]
        ref_setup_s = [probe.at_reference(*s) for s in setups]
        import_s = probe.at_reference(*imports)
        record.update(op_ms_at_reference=ref_op_ms, setup_s_at_reference=ref_setup_s,
                      import_s=import_s, probe=probe.summary())
        record["metrics"] = {
            "ms_per_item": statistics.median(ref_op_ms) / max(run["items"], 1),
            "setup_s": import_s + statistics.median(ref_setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    record.update(attempted=run["attempted"], failed=run["failed"], failures=run["failures"])
    return record


def report(record, spec):
    """Print the readable report, the detail line and the result line;
    return the result."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = record["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    name = record["workload"]
    print(f"twinmill benchmark: workload={name} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']} size={record['size']}")
    for metric, value in metrics.items():
        print(f"  {metric:44s} {value:14.6g} {units[metric]}")
    if not record["trace"]:
        values = record["fingerprint"]
        items = max(record["items_per_op"], 1)
        print(f"  {'ms_per_' + ITEM_NAME[name]:44s} {metrics['ms_per_item']:14.6g} ms"
              f"  (median of {len(record['op_ms'])} ops at reference speed; as measured,"
              f" fastest {min(record['op_ms']) / items:.6g} ms, median"
              f" {statistics.median(record['op_ms']) / items:.6g} ms)")
        for key, unit in (("compensated_rms_um", "um"), ("shift_slope_err_pct", "%")):
            if key in values:
                print(f"  {key:44s} {values[key]:14.6g} {unit}")
    print(f"  {'error_rate':44s} {record['failed'] / record['attempted']:14.6g}"
          f"  ({record['failed']} failed / {record['attempted']} attempted)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        imports, probe = import_program(host_probe=not args.trace)
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              imports=imports, probe=probe)
    finally:
        if probe:
            probe.stop()
    report(record, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
