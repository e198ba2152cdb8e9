import numpy as np
import pytest

import math

from twinmill import cli
from twinmill.compensation import PathTrace, trace_from_csv, trace_to_csv
from twinmill.csvtable import _BLOCK_ROWS, meta_float, meta_floats, read_table, write_table
from twinmill.errors import InvalidInputError
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
from twinmill.pathplan import _POSE_NAMES, parse_gcode, plan_sync, program_to_csv, translate_path
from twinmill.stiffness import Wrench

COLUMNS = ("a", "b", "c")


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


class TestWriteTable:
    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
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


    @pytest.mark.parametrize("n", [0, 1, 2, _BLOCK_ROWS + 1])
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
        """The 12 quaternion columns of a 3-axis program are constant."""
        path = translate_path(parse_gcode("G1 X4 F300\n"), np.array([2.105, -0.020, 1.100]))
        program = plan_sync(cfg.system, path, Wrench(np.array([1000.0, 0.0, 0.0])), (cfg.ik_seed1, cfg.ik_seed2))
        text = program_to_csv(program)
        sp = program.pairs
        table = np.column_stack([sp.index] + [getattr(sp, name) for name in _POSE_NAMES] + [sp.q1, sp.q2])
        assert np.sum(np.all(table == table[0], axis=0)) >= 12
        header_end = text.index("\nindex,") + 1
        body = text[text.index("\n", header_end) + 1:]
        fmt = "%d" + ",%.17g" * (table.shape[1] - 1) + "\n"
        assert body == "".join(fmt % tuple(row) for row in table.tolist())


class TestReadTable:
    def test_meta_block_and_rows(self):
        meta, table = read_table("\n# a = 1\n#note\n\n# b=x=y\na,b,c\n1,2,3\n\n4,5,6", COLUMNS, "T")
        assert meta == {"a": "1", "b": "x=y"}
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
    ])
    def test_errors_name_the_line(self, text, match):
        with pytest.raises(InvalidInputError, match=f"^{match}"):
            read_table(text, COLUMNS, "T")

    def test_meta_helpers(self):
        meta = {"x": "2.5", "v": "1 -0 3e300", "bad": "2,5", "two": "1 2", "empty": "", "inf": "inf",
                "nan": "1 nan"}
        assert meta_float(meta, "x", 0.0, "T") == 2.5
        assert meta_float(meta, "missing", 7.0, "T") == 7.0
        assert meta_floats(meta, "v", None, "T") == [1.0, -0.0, 3e300]
        for key in ("bad", "inf", "nan"):
            with pytest.raises(InvalidInputError, match=f"^T: metadata {key}='{meta[key]}' is not a finite number"):
                meta_floats(meta, key, None, "T")
        for key in ("two", "empty"):
            with pytest.raises(InvalidInputError, match=f"metadata {key}="):
                meta_float(meta, key, 0.0, "T")


# Inputs that leaked a raw ValueError or IndexError before the codecs shared
# one reader; each must raise InvalidInputError naming the line or the key.
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
                                "impact CSV: metadata sample_rate_hz='fast'"),
    "non-numeric impact tension": (impact_record_from_csv,
                                   lambda: edit_line(impact_text(), 3, lambda l: "# tension_N=5OO"),
                                   "impact CSV: metadata tension_N='5OO'"),
    "FRF with only a header": (frf_from_csv, lambda: "# axis=x\nfreq_hz,re,im\n",
                               "FRF CSV: no data rows after the header on line 2"),
    "truncated FRF row": (frf_from_csv, lambda: edit_line(frf_text(), 9, truncate), "FRF CSV line 9: "),
    "infinite FRF tension": (frf_from_csv, lambda: edit_line(frf_text(), 3, lambda l: "# tension_N=inf"),
                             "FRF CSV: metadata tension_N='inf'"),
    "truncated trace row": (trace_from_csv, lambda: edit_line(trace_text(), 7, truncate),
                            "trace CSV line 7: "),
    "non-numeric trace tension": (trace_from_csv,
                                  lambda: edit_line(trace_text(), 2, lambda l: "# tension_N=big"),
                                  "trace CSV: metadata tension_N='big'"),
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
