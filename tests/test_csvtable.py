import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill import cli
from twinmill.compensation import PathTrace, trace_from_csv, trace_to_csv
from twinmill.csvtable import _BLOCK_VALUES, read_table, write_table
from twinmill.errors import InvalidInputError
from twinmill.geometry import Pose
from twinmill.modal import (
    FrfSeries,
    ImpactRecord,
    ModalModel,
    frf_from_csv,
    frf_synthesize,
    frf_to_csv,
    impact_record_from_csv,
    impact_record_to_csv,
    simulate_impact,
)
from twinmill.pathplan import parse_gcode, plan_sync, program_to_csv, transform_path
from twinmill.stiffness import Wrench

COLUMNS = ("a", "b", "c")
BLOCK_ROWS = _BLOCK_VALUES // 3  # rows per kernel call of a table with 3 non-constant columns

# Values at and around the edges of the formatting kernel's exact range
# (2**-83 <= |x| < 1e17), subnormals, +-0 and the non-finite values Python's
# `%` formats instead.
LOW = 2.0 ** -83
KERNEL_EDGES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, LOW, np.nextafter(LOW, 0), -LOW,
                np.nextafter(1e17, 0), 1e17, -1e17, 1e16, 1e-14, 9.9999999999999995e-5, 1e-4, 1e-5,
                1.7976931348623157e308, math.inf, -math.inf, math.nan]


def row_by_row(columns, data):
    """The reference: each row formatted with Python's `%`, one value at a time."""
    fmt = ",".join("%d" if name == "index" else "%.17g" for name in columns) + "\n"
    return ",".join(columns) + "\n" + "".join(fmt % tuple(row) for row in np.asarray(data).tolist())


def binade_sweep():
    """Every binade from 2**-1074 to 2**1023 with 6 mantissas each, and
    exact ties at the 17th significant digit: q / 2**(p + 1) with q odd and
    5**p q / 2 in [1e16, 1e17), so that x * 10**p ends in .5 exactly."""
    mantissas = np.array([0, 1, 2 ** 51, 2 ** 52 - 1, 1234567890123456, 3 ** 32])
    normal = np.ldexp(1.0 + mantissas[:, None] / 2.0 ** 52, np.arange(-1022, 1024)).ravel()
    subnormal = np.ldexp(np.array([1.0, 3.0, 2.0 ** 51 + 1, 2.0 ** 52 - 1])[:, None], np.arange(-1074, -1022)).ravel()
    ties = []
    for p in range(1, 24):
        first = -(-2 * 10 ** 16 // 5 ** p) | 1
        ties += [math.ldexp(q, -p - 1) for q in range(first, min(first + 40, 2 * 10 ** 17 // 5 ** p), 2)]
    values = np.concatenate([normal, subnormal, ties])
    return np.concatenate([values, -values])


def impact_text():
    model = ModalModel("x", 60.0, 0.015, 159.0, 0.0226)
    return impact_record_to_csv(simulate_impact(model, 500.0, sample_rate=2048.0, duration=0.05))


def frf_text():
    return frf_to_csv(frf_synthesize(ModalModel("x", 60.0, 0.015, 159.0, 0.0226), 500.0,
                                     np.arange(100.0, 110.0, 0.5)))


def trace_text():
    return trace_to_csv(PathTrace(np.arange(30.0).reshape(10, 3), label="t", tension=500.0))


def edit_line(text, lineno, edit):
    lines = text.split("\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    return "\n".join(lines)


def truncate(line):
    return line.rsplit(",", 1)[0]


def doubled_times(text):
    """An impact CSV with the time of every sample doubled."""
    lines = text.split("\n")
    for n, line in enumerate(lines):
        if line[:1].isdigit():
            time, rest = line.split(",", 1)
            lines[n] = f"{2 * float(time)!r},{rest}"
    return "\n".join(lines)


class TestWriteTable:
    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7])
    def test_blocks_match_row_by_row_format(self, n):
        data = np.random.default_rng(n).normal(size=(n, 3)) * 10.0 ** np.arange(-3, 6, 3)
        reference = "# k=v\na,b,c\n" + "".join(",".join(format(x, ".17g") for x in row) + "\n"
                                              for row in data.tolist())
        assert write_table({"k": "v"}, COLUMNS, data) == reference

    def test_index_column(self):
        text = write_table({}, ("index", "x"), np.column_stack([[0, 1, 2, 1e17], [0.5, -0.0, 1e300, 7.0]]))
        assert text == "index,x\n0,0.5\n1,-0\n2,1.0000000000000001e+300\n100000000000000000,7\n"
        # A one-row table has only constant columns, written as literals in the same formats.
        assert write_table({}, ("index", "x"), [[1e17, 0.5]]) == "index,x\n100000000000000000,0.5\n"


    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK_ROWS + 1])
    def test_constant_columns_match_row_by_row_format(self, n):
        """Columns bit-identical in every row are written as literals: a
        1-row table has only such columns, and a column of -0.0 and 0.0
        is not one."""
        rng = np.random.default_rng(n)
        fmt = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
        data = np.column_stack([np.arange(n), np.full(n, 0.1), rng.normal(size=n), np.full(n, -0.0),
                                np.where(np.arange(n) % 2, 0.0, -0.0), np.full(n, 1e300)])
        reference = "# k=v\nindex,a,b,c,d,e\n" + "".join(fmt % tuple(row) for row in data.tolist())
        assert write_table({"k": "v"}, ("index", *"abcde"), data) == reference

    def test_program_csv_matches_row_by_row_format(self, cfg):
        """The 4 tool quaternion columns of a 3-axis program are constant."""
        path = transform_path(parse_gcode("G1 X4 F300\n"), Pose(np.array([2.105, -0.020, 1.100])))
        program = plan_sync(cfg.system, path, Wrench(np.array([1000.0, 0.0, 0.0])), (cfg.ik_seed1, cfg.ik_seed2))
        text = program_to_csv(program)
        sp = program.pairs
        table = np.column_stack([np.arange(len(sp)), sp.tool_pose, sp.q1, sp.q2])
        assert np.sum(np.all(table == table[0], axis=0)) >= 4
        header_end = text.index("\nindex,") + 1
        body = text[text.index("\n", header_end) + 1:]
        fmt = "%d" + ",%.17g" * (table.shape[1] - 1) + "\n"
        assert body == "".join(fmt % tuple(row) for row in table.tolist())


    def test_binade_sweep_matches_row_by_row_format(self):
        values = binade_sweep()
        data = values[: len(values) // 3 * 3].reshape(-1, 3)
        assert write_table({}, COLUMNS, data) == row_by_row(COLUMNS, data)
        assert "1000000000000000.2\n" in write_table({}, ("a",), [[1000000000000000.25], [0.0]])  # a tie, to even

    def test_range_edges_match_row_by_row_format(self):
        table = np.column_stack([KERNEL_EDGES, np.linspace(-1e20, 1e20, len(KERNEL_EDGES))])
        assert write_table({}, ("x", "index"), table) == row_by_row(("x", "index"), table)

    @settings(max_examples=60)
    @given(st.data())
    def test_mixed_tables_match_row_by_row_format(self, data):
        """Any mix of index and float columns, with values drawn from every
        kind the writer meets: in and out of the kernel's exact range, at its
        edges, +-0, subnormal, non-finite, and index values that are
        negative, fractional or at least 1e16."""
        columns = tuple(data.draw(st.lists(st.sampled_from(["index", "x"]), min_size=1, max_size=6)))
        rows = data.draw(st.integers(1, 12))
        floats = st.one_of(st.floats(), st.sampled_from(KERNEL_EDGES), st.floats(-1e18, 1e18), st.floats(-1e-20, 1e-20))
        integers = st.one_of(st.floats(-1e19, 1e19), st.integers(-10 ** 18, 10 ** 18).map(float),
                             st.sampled_from([0.0, -0.0, -0.5, 1e16, -1e16, 1e17, 2.0 ** 63]))
        table = np.column_stack([data.draw(arrays(np.float64, rows, elements=integers if name == "index" else floats))
                                 for name in columns])
        assert write_table({}, columns, table) == row_by_row(columns, table)


class TestMetadata:
    @pytest.mark.parametrize("meta, key", [
        ({"position": "p1\n9,9"}, "position"),
        ({"k": " padded "}, "k"),
        ({"k": "v\r"}, "k"),
        ({"k": "a\rb"}, "k"),  # a file read as text turns it into a line break
        ({" k": "v"}, " k"),
        ({"k\n": "v"}, "k\n"),
        ({"": "v"}, ""),
        ({"a=b": "v"}, "a=b"),
    ])
    def test_what_the_reader_cannot_give_back_is_refused(self, meta, key):
        with pytest.raises(InvalidInputError, match=f"^metadata {re.escape(repr(key))}: "):
            write_table(meta, COLUMNS, [[1.0, 2.0, 3.0]])

    def test_a_frf_position_with_a_line_break_is_refused_when_written(self):
        frf = FrfSeries(np.arange(1.0, 4.0), np.ones(3), position="p1\n9,9")
        with pytest.raises(InvalidInputError, match="^metadata 'position'"):
            frf_to_csv(frf)

    @settings(max_examples=50)
    @given(st.dictionaries(st.text(st.sampled_from("ab=#, \t\n\r\x0b\x1c\x85\u2028") | st.characters(), max_size=5),
                           st.text(st.sampled_from("ab=#, \t\n\r\x0b\x1c\x85\u2028") | st.characters(), max_size=5),
                           max_size=4))
    def test_accepted_metadata_reads_back_as_written(self, meta):
        try:
            text = write_table(meta, COLUMNS, [[1.0, 2.0, 3.0]])
        except InvalidInputError:
            return
        assert read_table(text, COLUMNS, "T")[0] == meta


class TestReadTable:
    def test_meta_block_and_rows(self):
        meta, table = read_table("\n# a = 1\n#note\n\n# b=x=y\na,b,c\n1,2,3\n\n4,5,6", COLUMNS, "T")
        assert meta == {"a": "1", "b": "x=y"}
        assert meta.lines == {"a": 2, "b": 5}
        np.testing.assert_array_equal(table, [[1, 2, 3], [4, 5, 6]])

    def test_crlf_accepted(self):
        meta, table = read_table("# a=1\r\na,b,c\r\n1,2,3\r\n", COLUMNS, "T")
        assert meta == {"a": "1"}
        np.testing.assert_array_equal(table, [[1, 2, 3]])

    @pytest.mark.parametrize("text, match", [
        ("# a=1\n", "T: no header line 'a,b,c'"),
        ("# a=1\n\na,b\n1,2\n", "T line 3: expected header 'a,b,c', found 'a,b'"),
        ("a,b,c\n", "T: no data rows after the header on line 1"),
        ("a,b,c\n1,2,3\n\n\n4,5\n", "T line 5: expected 3 comma-separated finite numbers, found '4,5'"),
        ("a,b,c\n1,2,3\n1,2,3,4\n", "T line 3: "),
        ("a,b,c\n1,2,3,4\n1,2,3,4\n", "T line 2: "),
        ("a,b,c\n1,2,3\n4,abc,6\n", "T line 3: .*'4,abc,6'"),
        ("a,b,c\n1,2,3\n# late=1\n4,5,6\n", "T line 3: "),
        ("a,b,c\n1,2,inf\n", "T line 2: "),
        ("a,b,c\n" + "1,2,3\n" * 1000 + "1,2\n" + "1,2,3\n" * 50, "T line 1002: "),
        ("# a=1\n# b=2\n#  a = 3\na,b,c\n1,2,3\n", "T line 3: metadata a repeated, first given on line 1$"),
        ("# a=1\n# a=1\na,b,c\n1,2,3\n", "T line 2: metadata a repeated, first given on line 1$"),
    ])
    def test_errors_name_the_line(self, text, match):
        with pytest.raises(InvalidInputError, match=f"^{match}"):
            read_table(text, COLUMNS, "T")

    @pytest.mark.parametrize("text, match", [
        ("index,x\n0,1\n1,2\n3,4\n", "T line 4: indices must count 0, 1, 2, ... in order, found 3 where 2 is due"),
        ("index,x\n1,1\n", "T line 2: indices must count 0, 1, 2, ... in order, found 1 where 0 is due"),
        ("index,x\n0,1\n\n0.5,2\n", "T line 4: indices must count 0, 1, 2, ... in order, found 0.5 where 1 is due"),
    ])
    def test_an_index_column_counts_the_rows(self, text, match):
        with pytest.raises(InvalidInputError) as exc:
            read_table(text, ("index", "x"), "T")
        assert str(exc.value) == match
        assert exc.value.line == int(match.split()[2][:-1])
        read_table("x,index\n1,5\n", ("x", "index"), "T")  # only a first column is an index

    def test_meta_helpers(self):
        """A refused metadata value is named with its key and its line, in
        the message and as `line`."""
        values = {"x": "2.5", "v": "1 -0 3e300", "bad": "2,5", "two": "1 2", "empty": "", "inf": "inf",
                  "nan": "1 nan"}
        meta, _ = read_table(write_table(values, COLUMNS, [[1.0, 2.0, 3.0]]), COLUMNS, "T")
        assert meta == values
        assert meta.number("x", 0.0) == 2.5
        assert meta.number("missing", 7.0) == 7.0
        assert meta.numbers("v", None) == [1.0, -0.0, 3e300]
        for line, key in enumerate(values, start=1):
            if key in ("bad", "inf", "nan"):
                with pytest.raises(InvalidInputError, match=f"^T line {line}: metadata {key}='{values[key]}' "
                                                            "is not a finite number") as exc:
                    meta.numbers(key, None)
                assert exc.value.line == line
            if key in ("two", "empty"):
                with pytest.raises(InvalidInputError, match=f"^T line {line}: metadata {key}=") as exc:
                    meta.number(key, 0.0)
                assert exc.value.line == line


# Inputs that leaked a raw ValueError or IndexError before the codecs shared
# one reader; each must raise InvalidInputError naming the line, and the key of a metadata value.
# The impact CSV has 4 metadata lines and its header on line 5; the FRF CSV
# 3 and line 4; the trace CSV 3 and line 4.
BAD_INPUTS = {
    "truncated impact row": (impact_record_from_csv, lambda: edit_line(impact_text(), 10, truncate),
                             "impact CSV line 10: "),
    "abc in a force cell": (impact_record_from_csv,
                            lambda: edit_line(impact_text(), 8, lambda l: l.split(",")[0] + ",abc," + l.split(",")[2]),
                            "impact CSV line 8: "),
    "non-numeric sample rate": (impact_record_from_csv,
                                lambda: edit_line(impact_text(), 4, lambda l: "# sample_rate_hz=fast"),
                                "impact CSV line 4: metadata sample_rate_hz='fast'"),
    "zero sample rate": (impact_record_from_csv, lambda: edit_line(impact_text(), 4, lambda l: "# sample_rate_hz=0"),
                         "impact CSV line 4: metadata sample_rate_hz='0' is not positive$"),
    "non-numeric impact tension": (impact_record_from_csv,
                                   lambda: edit_line(impact_text(), 3, lambda l: "# tension_N=5OO"),
                                   "impact CSV line 3: metadata tension_N='5OO'"),
    "FRF with only a header": (frf_from_csv, lambda: "# axis=x\nfreq_hz,re,im\n",
                               "FRF CSV: no data rows after the header on line 2"),
    # Written at 2048 Hz; with every time doubled, sample 1 on line 7 is the first off.
    "doubled impact times": (impact_record_from_csv, lambda: doubled_times(impact_text()),
                             "impact CSV line 7: time 0.0009765625 s does not match sample_rate_hz=2048.0: "
                             "sample 1 is at 0.00048828125 s"),
    "truncated FRF row": (frf_from_csv, lambda: edit_line(frf_text(), 9, truncate), "FRF CSV line 9: "),
    "FRF frequencies out of order": (frf_from_csv, lambda: edit_line(frf_text(), 9, lambda l: "0.5" + l[l.index(","):]),
                                     "FRF CSV line 9: frequency grid must be strictly ascending, found 0.5 Hz after "),
    "infinite FRF tension": (frf_from_csv, lambda: edit_line(frf_text(), 3, lambda l: "# tension_N=inf"),
                             "FRF CSV line 3: metadata tension_N='inf'"),
    "truncated trace row": (trace_from_csv, lambda: edit_line(trace_text(), 7, truncate),
                            "trace CSV line 7: "),
    "non-numeric trace tension": (trace_from_csv,
                                  lambda: edit_line(trace_text(), 2, lambda l: "# tension_N=big"),
                                  "trace CSV line 2: metadata tension_N='big'"),
}


@pytest.mark.parametrize("reader, make_text, match", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises_invalid_input(reader, make_text, match):
    with pytest.raises(InvalidInputError, match=f"^{match}"):
        reader(make_text())


@pytest.mark.parametrize("make", [
    lambda x: FrfSeries(np.arange(1.0, 4.0), np.ones(3), tension=x),
    lambda x: ImpactRecord(100.0, np.array([0.0, 1.0, 0.0]), np.zeros(3), tension=x),
    lambda x: PathTrace(np.zeros((3, 3)), tension=x),
    lambda x: PathTrace(np.zeros((3, 3)), noise_sigma=x),
], ids=["FrfSeries", "ImpactRecord", "PathTrace tension", "PathTrace noise"])
def test_records_refuse_metadata_their_csv_cannot_hold(make):
    make(0.0)
    for value in (math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="finite"):
            make(value)


def test_cli_frf_truncated_row_exits_3(tmp_path, capsys):
    p = tmp_path / "impact.csv"
    p.write_text(edit_line(impact_text(), 10, truncate))
    assert cli.main(["frf", str(p), "--out", str(tmp_path / "frf.csv")]) == cli.EXIT_COMPUTE
    assert "impact CSV line 10" in capsys.readouterr().err
    assert not (tmp_path / "frf.csv").exists()
