"""In-memory span tracing of twinmill's public functions.

A traced function is replaced by a wrapper at every module binding where
it is looked up (`jacobian` in both `kinematics` and `stiffness`,
`inverse_kinematics` in `pathplan`, ...), so calls made inside the package
are seen too. Each call records a span (name, start, end, parent) and,
for the codecs, the rows it handled. Self time is a span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

from twinmill import compensation, config, kinematics, modal, pathplan, stiffness


# Functions traced, by the module that defines them; the value gives the
# rows a call handled, from its arguments and result, for the metrics
# reported per row or per sample.
TRACED = {
    kinematics.inverse_kinematics: None,
    kinematics.forward_kinematics: None,
    kinematics.jacobian: None,
    stiffness.tension_offset: None,
    stiffness.coupled_stiffness: None,
    stiffness.cartesian_stiffness: None,
    pathplan.parse_gcode: None,
    pathplan.translate_path: None,
    pathplan.discretize: None,
    pathplan.plan_sync: None,
    pathplan.program_to_csv: lambda args, result: len(args[0].pairs),
    pathplan.program_from_csv: lambda args, result: len(result.pairs),
    compensation.nominal_trace: None,
    compensation.simulate_deformation: None,
    compensation.fit_rigid: None,
    compensation.compensate: None,
    compensation.residual_report: None,
    compensation.trace_to_csv: lambda args, result: len(args[0]),
    compensation.report_to_csv: None,
    modal.impact_record_from_csv: lambda args, result: result.force.size,
    modal.h1_estimate: None,
    modal.peak_pick: None,
    modal.fit_shift: None,
    modal.frf_to_csv: lambda args, result: args[0].frequencies.size,
    modal.shift_fit_to_csv: None,
    config.load_config: None,
}

ROOT_SPAN = "op"


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    rows: int = 0
    child_time: float = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


class Tracer:
    """Collects spans while installed; `spans` holds every span recorded."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._bindings = []

    def _wrap(self, fn, rows):
        name = span_name(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_time += span.duration
            if rows is not None:
                span.rows = rows(args, result)
            return result

        return wrapper

    def install(self):
        """Rebind every traced function in every loaded twinmill module."""
        wrappers = {fn: self._wrap(fn, rows) for fn, rows in TRACED.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twinmill" or mod_name.startswith("twinmill.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._bindings):
            setattr(mod, attr, value)
        self._bindings.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def root(self):
        """One span around a whole operation, parent of every call in it."""
        span = Span(ROOT_SPAN, -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def clear(self):
        self.spans.clear()


class Summary:
    """Totals per span name over the spans of `ops` traced operations."""

    def __init__(self, spans, ops):
        self.ops = ops
        self._by_name = {}
        self._by_parent = {}
        for span in spans:
            s = self._by_name.setdefault(span.name, {"calls": 0, "time": 0.0, "self": 0.0, "rows": 0})
            s["calls"] += 1
            s["time"] += span.duration
            s["self"] += span.self_time
            s["rows"] += span.rows
            key = (spans[span.parent].name if span.parent >= 0 else None, span.name)
            self._by_parent[key] = self._by_parent.get(key, 0) + 1

    def _get(self, name, key):
        return self._by_name.get(name, {}).get(key, 0)

    def calls(self, name, parent=None):
        if parent is not None:
            return self._by_parent.get((parent, name), 0)
        return self._get(name, "calls")

    def time(self, name):
        return self._get(name, "time")

    def self_time(self, name):
        return self._get(name, "self")

    def rows(self, name):
        return self._get(name, "rows")

    def self_time_of_layer(self, layer=""):
        """Self time summed over every span of one module, or of all spans."""
        prefix = layer + "." if layer else ""
        return sum(s["self"] for name, s in self._by_name.items() if name.startswith(prefix))


_IK = "kinematics.inverse_kinematics"
_FK = "kinematics.forward_kinematics"
_JAC = "kinematics.jacobian"
_COUNTED = (_IK, _FK, _JAC, "stiffness.tension_offset", "stiffness.coupled_stiffness",
            "stiffness.cartesian_stiffness")


def layer_metrics(main, fallback, load_config):
    """Per-layer metrics of the traced operations summarized in `main`.

    A time metric of a span the operation never calls takes its value from
    `fallback`, a summary of small operations that do call it; those metric
    names are returned in `filled`. Call counts are per operation;
    `load_config` summarizes the set-up.
    """
    m, filled = {}, []

    def timed(metric, span, value):
        source = main
        if main.calls(span) == 0:
            source = fallback
            filled.append(metric)
        m[metric] = value(source, span)

    def self_us(s, span):
        return 1e6 * s.self_time(span) / s.calls(span)

    def us(s, span):
        return 1e6 * s.time(span) / s.calls(span)

    def us_per_row(s, span):
        return 1e6 * s.time(span) / s.rows(span)

    def self_ms_per_op(s, span):
        return 1e3 * s.self_time(span) / s.ops

    for span in _COUNTED:
        m[f"{span}.calls"] = main.calls(span) / main.ops
        timed(f"{span}.self_us", span, self_us)
    solves = main.calls(_IK)
    iters = main.calls(_JAC, parent=_IK)
    m["kinematics.ik_iters_per_solve"] = iters / solves if solves else 0.0
    # Each solve evaluates FK once up front and once per damped step tried.
    m["kinematics.ik_retries_per_solve"] = (
        (main.calls(_FK, parent=_IK) - solves - iters) / solves if solves else 0.0
    )
    timed("pathplan.plan_sync.self_ms", "pathplan.plan_sync", self_ms_per_op)
    timed("pathplan.parse_gcode.us", "pathplan.parse_gcode", us)
    timed("pathplan.discretize.us", "pathplan.discretize", us)
    timed("pathplan.program_to_csv.us_per_row", "pathplan.program_to_csv", us_per_row)
    timed("pathplan.program_from_csv.us_per_row", "pathplan.program_from_csv", us_per_row)
    timed("compensation.simulate_deformation.self_ms", "compensation.simulate_deformation", self_ms_per_op)
    timed("compensation.fit_rigid.us", "compensation.fit_rigid", us)
    timed("compensation.residual_report.us", "compensation.residual_report", us)
    timed("compensation.trace_to_csv.us_per_row", "compensation.trace_to_csv", us_per_row)
    timed("modal.impact_record_from_csv.us_per_sample", "modal.impact_record_from_csv", us_per_row)
    timed("modal.frf_to_csv.us_per_row", "modal.frf_to_csv", us_per_row)
    timed("modal.h1_estimate.us", "modal.h1_estimate", us)
    timed("modal.peak_pick.us", "modal.peak_pick", us)
    timed("modal.fit_shift.us", "modal.fit_shift", us)
    m["config.load_config.ms"] = 1e-3 * us(load_config, "config.load_config")
    op_time = main.time(ROOT_SPAN)
    for layer in ("kinematics", "stiffness"):
        m[f"{layer}.self_share_pct"] = 100 * main.self_time_of_layer(layer) / op_time
    m["trace.coverage_pct"] = 100 * (1 - main.self_time(ROOT_SPAN) / op_time)
    return m, filled
