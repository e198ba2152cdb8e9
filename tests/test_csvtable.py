import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twinmill import csvtable
from twinmill.csvtable import _BLOCK_VALUES, read_table, write_table
from twinmill.errors import InvalidInputError
from twinmill.geometry import Pose
from twinmill.modal import ModalModel, impact_record_to_csv, simulate_impact
from twinmill.pathplan import parse_gcode, plan_sync, program_to_csv, transform_path
from twinmill.stiffness import Wrench

from conftest import row_by_row

COLUMNS = ("a", "b", "c")
BLOCK_ROWS = _BLOCK_VALUES // 3  # rows per kernel call of a table with 3 non-constant columns

# Values at and around the edges of the formatting kernel's exact range
# (2**-83 <= |x| < 1e17), subnormals, +-0 and the non-finite values Python's
# `%` formats instead.
LOW = 2.0 ** -83
KERNEL_EDGES = [0.0, -0.0, 5e-324, -5e-324, -2.2250738585072014e-308, LOW, np.nextafter(LOW, 0), -LOW,
                np.nextafter(1e17, 0), 1e17, -1e17, 1e16, 1e-14, 9.9999999999999995e-5, 1e-4, 1e-5,
                1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]


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


class TestWriteTable:
    @pytest.mark.parametrize("n, outside", [
        *(pytest.param(n, False, id=str(n)) for n in [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                                        3 * BLOCK_ROWS + 7]),
        pytest.param(2 * BLOCK_ROWS + 5, True, id="outside-the-kernel-range"),
    ])
    def test_blocks_match_row_by_row_format(self, n, outside):
        """With `outside`, every column also holds values that Python's `%`
        formats (the 24-byte widest among them), spread over three blocks."""
        rng = np.random.default_rng(n)
        data = rng.normal(size=(n, 3)) * 10.0 ** np.arange(-3, 6, 3)
        if outside:
            data *= 10.0 ** rng.choice([-320, -300, -30, 0, 30, 300], size=data.shape)
            edges = data.reshape(-1)[::7]  # a view
            edges[:] = np.resize(KERNEL_EDGES, edges.size)
        reference = "# k=v\na,b,c\n" + "".join(",".join(format(x, ".17g") for x in row) + "\n"
                                              for row in data.tolist())
        assert write_table({"k": "v"}, COLUMNS, data) == reference

    def test_index_column(self):
        """A first `index` column is the writer's: the caller passes the
        other columns, the file counts the rows, and the reader gives back
        the table without it."""
        text = write_table({}, ("index", "x"), [[0.5], [-0.0], [1e300], [7.0]])
        assert text == "index,x\n0,0.5\n1,-0\n2,1.0000000000000001e+300\n3,7\n"
        np.testing.assert_array_equal(read_table(text, ("index", "x"), "T")[1], [[0.5], [-0.0], [1e300], [7.0]])
        # A one-row table has only constant columns, written as literals.
        assert write_table({}, ("index", "x"), [[0.5]]) == "index,x\n0,0.5\n"
        assert write_table({}, ("index",), np.zeros((3, 0))) == "index\n0\n1\n2\n"

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1000, 10_001])
    def test_index_digits_match_row_by_row_format(self, n, monkeypatch):
        """The index column is written from integer digits, right-aligned
        with no leading zeros, at every decade edge. The index is not a
        kernel value, so with three non-constant columns a block is
        BLOCK_ROWS rows: blocks start mid-decade, one at row 4095, and the
        one at 9555 holds both 9999 and 10000."""
        starts, real = [], csvtable._row_numbers

        def spy(start, count, digits):
            starts.append(start)
            return real(start, count, digits)

        monkeypatch.setattr(csvtable, "_row_numbers", spy)
        rng = np.random.default_rng(n)
        data = np.column_stack([rng.normal(size=n), np.full(n, 0.5), rng.normal(size=(n, 2))])
        columns = ("index", "a", "b", "c", "d")
        # Lists of lines, so that a failure names its first wrong line quickly.
        assert write_table({}, columns, data).split("\n") == row_by_row(columns, data).split("\n")
        assert (4095 in starts) == (n > 4095)

    def test_an_index_column_elsewhere_is_an_ordinary_column(self):
        text = write_table({}, ("x", "index"), [[1, 2.5], [3, -0.0]])
        assert text == "x,index\n1,2.5\n3,-0\n"
        back = read_table(text, ("x", "index"), "T")[1]
        assert back.tobytes() == np.array([[1, 2.5], [3, -0.0]]).tobytes()


    @pytest.mark.parametrize("n", [0, 1, 2, BLOCK_ROWS + 1])
    def test_constant_columns_match_row_by_row_format(self, n):
        """Columns bit-identical in every row are written as literals: a
        1-row table has only such columns, and a column of -0.0 and 0.0
        is not one."""
        rng = np.random.default_rng(n)
        data = np.column_stack([np.full(n, 0.1), rng.normal(size=n), np.full(n, -0.0),
                                np.where(np.arange(n) % 2, 0.0, -0.0), np.full(n, 1e300)])
        columns = ("index", *"abcde")
        # Lists of lines here and below, so that a failure names its first wrong line quickly.
        assert write_table({"k": "v"}, columns, data).split("\n") == ("# k=v\n" + row_by_row(columns, data)).split("\n")
        constant = data[:, [0, 2, 4]]  # no index, and every column constant
        assert write_table({}, tuple("ace"), constant).split("\n") == row_by_row(tuple("ace"), constant).split("\n")

    @pytest.mark.parametrize("case", ["step", "pulse", "signed zeros", "non-finite"])
    def test_columns_constant_per_block_match_row_by_row_format(self, case):
        """A column constant within a block but not over the table is written
        as that block's literal. Beside a column that varies in every row, a
        block is 2048 rows: three blocks and a one-row last one, which has
        no kernel column."""
        rows = _BLOCK_VALUES // 2
        n = 3 * rows + 1
        block = np.arange(n) // rows
        if case == "step":  # 1.0 in the first block, 2.0 in the next, ...
            column = 1.0 + block
        elif case == "pulse":
            column = np.zeros(n)
            column[:2] = 100.0, 61.5
        elif case == "signed zeros":  # mixed in the first block, then -0.0, 0.0, -0.0
            column = np.where(block == 0, np.where(np.arange(n) % 2, 0.0, -0.0), np.where(block % 2, -0.0, 0.0))
        else:  # -inf then nan in the first block, then nan, inf, -inf
            column = np.array([math.nan, math.nan, math.inf, -math.inf])[block]
            column[:rows // 2] = -math.inf
        data = np.column_stack([np.random.default_rng(n).normal(size=n), column])
        columns = ("index", "a", "b")
        text = write_table({}, columns, data)
        assert text.split("\n") == row_by_row(columns, data).split("\n")
        if case == "non-finite":  # the reader takes finite numbers only
            with pytest.raises(InvalidInputError, match="^T line 2: expected 3 comma-separated finite numbers"):
                read_table(text, columns, "T")
        else:
            assert read_table(text, columns, "T")[1].tobytes() == data.tobytes()

    def test_a_simulated_impact_formats_its_force_in_the_pulse_block_only(self, monkeypatch):
        """A 4 s record at 4096 Hz with a 0.5 ms hammer pulse is 8 blocks of
        2048 rows, and its force is exact zeros past the pulse, so the
        kernel formats 18 432 values, not 32 768. The bytes are the same
        either way: only this count tells constancy per block from
        constancy over the table."""
        sizes, real = [], csvtable._texts

        def spy(x):
            sizes.append(len(x))
            return real(x)

        monkeypatch.setattr(csvtable, "_texts", spy)
        record = simulate_impact(ModalModel("x", 60.0, 0.015, 159.0, 0.0226), 500.0, sample_rate=4096.0,
                                 duration=4.0, impact_width=0.5e-3)
        text = impact_record_to_csv(record)
        assert sizes == [4096] + [2048] * 7
        assert sum(sizes) == 18_432
        assert text.endswith(row_by_row(("force_N", "accel_ms2"), np.column_stack([record.force, record.acceleration])))

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
        assert write_table({}, COLUMNS, data).split("\n") == row_by_row(COLUMNS, data).split("\n")
        assert "1000000000000000.2\n" in write_table({}, ("a",), [[1000000000000000.25], [0.0]])  # a tie, to even

    def test_range_edges_match_row_by_row_format(self):
        table = np.column_stack([KERNEL_EDGES, np.linspace(-1e20, 1e20, len(KERNEL_EDGES))])
        assert write_table({}, ("x", "index"), table).split("\n") == row_by_row(("x", "index"), table).split("\n")

    @settings(max_examples=60)
    @given(st.data())
    def test_mixed_tables_match_row_by_row_format(self, data):
        """Any mix of index and other columns (an index after the first
        column is an ordinary one), with values drawn from every kind the
        writer meets: in and out of the kernel's exact range, at its edges,
        +-0, subnormal and non-finite."""
        columns = tuple(data.draw(st.lists(st.sampled_from(["index", "x"]), min_size=1, max_size=6)))
        rows = data.draw(st.integers(1, 12))
        floats = st.one_of(st.floats(), st.sampled_from(KERNEL_EDGES), st.floats(-1e18, 1e18), st.floats(-1e-20, 1e-20),
                           st.integers(-10 ** 18, 10 ** 18).map(float))
        width = len(columns) - (columns[0] == "index")
        table = data.draw(arrays(np.float64, (rows, width), elements=floats))
        assert write_table({}, columns, table) == row_by_row(columns, table)


class TestMetadata:

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

    def test_a_counted_index_column_is_not_returned(self):
        """Only a first column named index is counted against the rows."""
        np.testing.assert_array_equal(read_table("index,x\n0,1\n1,2\n", ("index", "x"), "T")[1], [[1], [2]])
        np.testing.assert_array_equal(read_table("x,index\n1,5\n", ("x", "index"), "T")[1], [[1, 5]])

    def test_meta_helpers(self):
        """Metadata read back as written, and as one number or a list; the
        refusals of its bad values are rows of tests/test_refusals.py."""
        values = {"x": "2.5", "v": "1 -0 3e300", "bad": "2,5", "two": "1 2", "empty": "", "inf": "inf",
                  "nan": "1 nan"}
        meta, _ = read_table(write_table(values, COLUMNS, [[1.0, 2.0, 3.0]]), COLUMNS, "T")
        assert meta == values
        assert meta.number("x", 0.0) == 2.5
        assert meta.number("missing", 7.0) == 7.0
        assert meta.numbers("v", None) == [1.0, -0.0, 3e300]
