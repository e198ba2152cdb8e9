"""The benchmark's counted calls: every function whose calls and self time
`perfbench/spans.py` reports (`spans._COUNTED`) is called by one tiny-size
operation of some workload. A counted function that no operation calls
leaves the benchmark's per-layer metrics without a sample to divide by.

The benchmark modules are imported read-only, and the tracer's rebinding of
twinmill's functions is undone when each operation ends.
"""

from conftest import perfbench, workloads


def test_every_counted_function_is_called_by_a_tiny_operation():
    spans = perfbench("spans")
    tracer = spans.Tracer()
    for name in workloads.WORKLOADS:
        workload = workloads.load(name, "tiny", seed=1)
        with tracer.installed():
            workload.op()
    called = {span.name for span in tracer.spans}
    missing = [name for name in spans._COUNTED if name not in called]
    assert not missing, f"counted by perfbench/spans.py but called by no tiny operation: {missing}"
