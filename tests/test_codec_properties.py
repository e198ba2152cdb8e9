"""Property tests of the CSV codecs: bit-exact round trips over random
finite doubles, and fuzzed files that may only raise TwinmillError."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill.compensation import PathTrace, trace_from_csv, trace_to_csv
from twinmill.config import load_config
from twinmill.csvtable import read_table, write_table
from twinmill.errors import TwinmillError
from twinmill.geometry import Pose
from twinmill.modal import (
    FrfSeries,
    ImpactRecord,
    frf_from_csv,
    frf_to_csv,
    impact_record_from_csv,
    impact_record_to_csv,
)
from twinmill.pathplan import (
    Setpoints,
    SyncProgram,
    parse_gcode,
    plan_sync,
    program_from_csv,
    program_to_csv,
    transform_path,
)
from twinmill.stiffness import Wrench

from conftest import DEMO_CONFIG

FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = np.array([5e-324, -2.2250738585072014e-308, 0.0, -0.0, 1e300, -1e-300, 1.7976931348623157e308])


def columns_of(n_cols, min_rows=1):
    return arrays(np.float64, st.tuples(st.integers(min_rows, 40), st.just(n_cols)), elements=FINITE)


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=30)
@given(columns_of(3))
@example(EDGES[:6].reshape(2, 3))
def test_table_round_trip(data):
    text = write_table({"k": "v"}, ("a", "b", "c"), data)
    meta, back = read_table(text, ("a", "b", "c"), "T")
    assert meta == {"k": "v"}
    assert_bits_equal(back, data)


@settings(max_examples=30)
@given(columns_of(3), FINITE)
@example(np.column_stack([np.arange(1.0, 8.0), EDGES, -EDGES]), -0.0)
def test_frf_round_trip(data, tension):
    freqs = np.unique(data[:, 0])  # strictly ascending
    values = np.empty(freqs.size, dtype=complex)
    values.real, values.imag = data[: freqs.size, 1], data[: freqs.size, 2]
    frf = FrfSeries(freqs, values, axis="z", position="p1", tension=tension)
    text = frf_to_csv(frf)
    back = frf_from_csv(text)
    assert_bits_equal(back.frequencies, frf.frequencies)
    assert_bits_equal(back.values.real, frf.values.real)
    assert_bits_equal(back.values.imag, frf.values.imag)
    assert (back.axis, back.position) == ("z", "p1")
    assert_bits_equal(back.tension, tension)
    assert frf_to_csv(back) == text


@settings(max_examples=30)
@given(columns_of(2, min_rows=3), st.floats(1e-300, 1e300), FINITE)
@example(np.column_stack([EDGES, EDGES[::-1]]), 2048.0, 1e-300)
def test_impact_round_trip(data, sample_rate, tension):
    force, accel = data[:, 0].copy(), data[:, 1]
    force[np.argsort(np.abs(force))[: force.size // 2 + 1]] = 0.0  # a dominant transient
    assume(np.any(force))
    rec = ImpactRecord(sample_rate, force, accel, axis="y", tension=tension)
    text = impact_record_to_csv(rec)
    back = impact_record_from_csv(text)
    assert_bits_equal(back.force, rec.force)
    assert_bits_equal(back.acceleration, rec.acceleration)
    assert_bits_equal([back.sample_rate, back.tension], [sample_rate, tension])
    assert impact_record_to_csv(back) == text


@settings(max_examples=30)
@given(columns_of(3), FINITE, FINITE, st.text("abc_-. 0123", max_size=8))
@example(EDGES[:6].reshape(2, 3), -0.0, 5e-324, "run 1")
def test_trace_round_trip(points, tension, noise, label):
    trace = PathTrace(points, label=label.strip(), tension=tension, noise_sigma=noise)
    text = trace_to_csv(trace)
    back = trace_from_csv(text)
    assert_bits_equal(back.points, trace.points)
    assert back.label == trace.label
    assert_bits_equal([back.tension, back.noise_sigma], [tension, noise])
    assert trace_to_csv(back) == text


@st.composite
def programs(draw):
    """A 20-column SyncProgram of random finite doubles: unit tool
    quaternions, strictly increasing indices within +-2**53, a feed and
    step sizes >= 0 and a cell_sha256 of 64 lowercase hex digits."""
    n = draw(st.integers(1, 12))
    index = sorted(draw(st.sets(st.integers(-2**53, 2**53), min_size=n, max_size=n)))
    tool = draw(arrays(np.float64, (n, 7), elements=FINITE))
    quats = draw(arrays(np.float64, (n, 4), elements=st.floats(-1.0, 1.0)))
    norms = np.linalg.norm(quats, axis=-1, keepdims=True)
    assume(np.all(norms > 0.1))
    tool[:, 3:] = quats / norms
    q = draw(arrays(np.float64, (2, n, 6), elements=FINITE))
    tension = Wrench.from_vector(draw(arrays(np.float64, 6, elements=FINITE)))
    # A program's feed and step sizes are >= 0.
    feed, chord_tol, max_step = (draw(st.floats(min_value=-0.0, allow_infinity=False)) for _ in range(3))
    cell = draw(st.text("0123456789abcdef", min_size=64, max_size=64))
    return SyncProgram(Setpoints(index, tool, *q), tension=tension, cell_sha256=cell, feed_mm_min=feed,
                       chord_tol=chord_tol, max_step=max_step)


@settings(max_examples=30)
@given(programs())
def test_program_round_trip(program):
    text = program_to_csv(program)
    back = program_from_csv(text)
    assert text.split("\n")[5].count(",") == 19
    for name in ("index", "tool_pose", "q1", "q2"):
        assert_bits_equal(getattr(back.pairs, name), getattr(program.pairs, name))
    assert back.cell_sha256 == program.cell_sha256
    assert_bits_equal(back.tension.as_vector(), program.tension.as_vector())
    assert_bits_equal([back.feed_mm_min, back.chord_tol, back.max_step],
                      [program.feed_mm_min, program.chord_tol, program.max_step])
    assert program_to_csv(back) == text


def _sample_files():
    cfg = load_config(DEMO_CONFIG)
    path = transform_path(parse_gcode("G1 X2 F300\n"), Pose(np.array([2.105, -0.02, 1.1])))
    program = plan_sync(cfg.system, path, Wrench(np.array([800.0, 0.0, 0.0])),
                        (cfg.ik_seed1, cfg.ik_seed2))
    force = np.zeros(12)
    force[2] = 40.0
    impact = ImpactRecord(1024.0, force, np.linspace(-1.0, 1.0, 12), tension=500.0)
    frf = FrfSeries(np.arange(1.0, 9.0), np.linspace(1e-6, 2e-6, 8) * (1 - 1j), tension=500.0)
    trace = PathTrace(np.arange(18.0).reshape(6, 3) * 1e-3, label="t", tension=500.0)
    return [
        (program_from_csv, program_to_csv(program)),
        (impact_record_from_csv, impact_record_to_csv(impact)),
        (frf_from_csv, frf_to_csv(frf)),
        (trace_from_csv, trace_to_csv(trace)),
    ]


SAMPLES = _sample_files()


def _header_index(lines):
    return next(i for i, line in enumerate(lines) if line and not line.startswith("#"))


@st.composite
def mangled(draw):
    reader, text = draw(st.sampled_from(SAMPLES))
    lines = text.split("\n")
    head = _header_index(lines)
    kind = draw(st.sampled_from(["truncate row", "drop header", "junk", "stray comment"]))
    if kind == "truncate row":
        k = draw(st.integers(head + 1, len(lines) - 2))
        lines[k] = lines[k][: draw(st.integers(0, len(lines[k]) - 1))]
    elif kind == "drop header":
        del lines[head]
    elif kind == "junk":
        text = "\n".join(lines)
        at = draw(st.integers(0, len(text)))
        return reader, text[:at] + draw(st.text(min_size=1, max_size=6)) + text[at:]
    else:
        lines.insert(draw(st.integers(head + 1, len(lines) - 1)), "# " + draw(st.text("k=v1 #", max_size=5)))
    return reader, "\n".join(lines)


@settings(max_examples=60)
@given(mangled())
def test_mangled_files_raise_only_twinmill_errors(case):
    reader, text = case
    try:
        reader(text)
    except TwinmillError:
        pass
