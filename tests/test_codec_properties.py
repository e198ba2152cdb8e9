"""Property tests of the CSV codecs: bit-exact round trips over random
finite doubles, and fuzzed files that may only raise TwinmillError."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill.compensation import PathTrace, trace_from_csv, trace_to_csv
from twinmill.config import load_config
from twinmill.csvtable import _BLOCK_VALUES, read_table, write_table
from twinmill.errors import TwinmillError
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
    program_from_csv,
    program_to_csv,
)
from twinmill.stiffness import Wrench

from conftest import DEMO_CONFIG, demo_plan, row_by_row

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


# The first rows of the writer's blocks in tables of 1-4 columns that vary.
BLOCK_EDGES = sorted({k * (_BLOCK_VALUES // width) for width in range(1, 5) for k in range(1, 3)})


@st.composite
def piecewise_constant_tables(draw):
    """A table of 1-4 columns, each a few runs of one value, whose run
    boundaries fall anywhere or at and next to a block's first row."""
    n = draw(st.integers(2, BLOCK_EDGES[-1] + 2))
    width = draw(st.integers(1, 4))
    near_edges = st.sampled_from(BLOCK_EDGES).flatmap(lambda edge: st.integers(edge - 1, edge + 1))
    columns = []
    for _ in range(width):
        cuts = draw(st.lists(st.one_of(st.integers(1, n - 1), near_edges.filter(lambda k: k < n)), max_size=3))
        values = draw(st.lists(st.one_of(st.floats(), st.sampled_from(EDGES)), min_size=len(cuts) + 1,
                               max_size=len(cuts) + 1))
        columns.append(np.repeat(values, np.diff([0, *sorted(cuts), n])))
    return np.column_stack(columns)


def pulse_then_zeros():
    """A simulated impact's force, a pulse and then exact zeros, beside a
    column that varies in every row: the force is constant in every block
    but the first."""
    n = 3 * (_BLOCK_VALUES // 2) + 1
    force = np.zeros(n)
    force[:2] = 100.0, 61.5
    return np.column_stack([force, np.linspace(-1.0, 1.0, n)])


@settings(max_examples=25)
@given(piecewise_constant_tables())
@example(pulse_then_zeros())
def test_piecewise_constant_tables_match_row_by_row_format(data):
    columns = tuple("abcd"[:data.shape[1]])
    # Lists of lines, so that a failure names its first wrong line quickly.
    assert write_table({}, columns, data).split("\n") == row_by_row(columns, data).split("\n")


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
    quaternions, a wrench within its norm bound, a feed and step sizes >=
    0 and a cell_sha256 of 64 lowercase hex digits."""
    n = draw(st.integers(1, 12))
    tool = draw(arrays(np.float64, (n, 7), elements=FINITE))
    quats = draw(arrays(np.float64, (n, 4), elements=st.floats(-1.0, 1.0)))
    norms = np.linalg.norm(quats, axis=-1, keepdims=True)
    assume(np.all(norms > 0.1))
    tool[:, 3:] = quats / norms
    q = draw(arrays(np.float64, (2, n, 6), elements=FINITE))
    # A wrench's force and torque each have a finite squared norm.
    tension = Wrench.from_vector(draw(arrays(np.float64, 6, elements=st.floats(-7e153, 7e153))))
    # A program's feed and step sizes are >= 0.
    feed, chord_tol, max_step = (draw(st.floats(min_value=-0.0, allow_infinity=False)) for _ in range(3))
    cell = draw(st.text("0123456789abcdef", min_size=64, max_size=64))
    return SyncProgram(Setpoints(tool, *q), tension=tension, cell_sha256=cell, feed_mm_min=feed,
                       chord_tol=chord_tol, max_step=max_step)


@settings(max_examples=30)
@given(programs())
def test_program_round_trip(program):
    text = program_to_csv(program)
    back = program_from_csv(text)
    lines = text.split("\n")
    assert lines[5].count(",") == 19
    assert [line.split(",", 1)[0] for line in lines[6:-1]] == [str(k) for k in range(len(program.pairs))]
    for name in ("tool_pose", "q1", "q2"):
        assert_bits_equal(getattr(back.pairs, name), getattr(program.pairs, name))
    assert back.cell_sha256 == program.cell_sha256
    assert_bits_equal(back.tension.as_vector(), program.tension.as_vector())
    assert_bits_equal([back.feed_mm_min, back.chord_tol, back.max_step],
                      [program.feed_mm_min, program.chord_tol, program.max_step])
    assert program_to_csv(back) == text


def _sample_files():
    cfg = load_config(DEMO_CONFIG)
    program = demo_plan(cfg, gcode="G1 X2 F300\n", tension=Wrench(np.array([800.0, 0.0, 0.0])))
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
