import contextlib
import functools
import io
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stokit import Brownian, GeometricLevy, SchemaError, TimeGrid, cli, csvio, simulate
from stokit.cli import _dispatch_targets
from stokit.csvio import (ensemble_to_csv, parse_ensemble_csv, read_ensemble_csv,
                          render_csv, write_csv)

finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e308, -1e308, 1.7976931348623157e308]))
columns = st.integers(1, 4).flatmap(
    lambda n_cols: st.lists(st.lists(finite_doubles, min_size=1, max_size=6),
                            min_size=n_cols, max_size=n_cols))


def per_cell(header, cols):
    """The rendering rule cell by cell: numbers as ``%.17g``, text as it is,
    empty cells below the end of a shorter column."""
    n_rows = max(len(col) for col in cols)
    rows = [",".join(header)] + [
        ",".join(("%s" if isinstance(col[k], str) else "%.17g") % col[k]
                 if k < len(col) else "" for col in cols)
        for k in range(n_rows)]
    return "\n".join(rows) + "\n"


@given(columns)
def test_render_csv_matches_per_cell_rule(cols):
    header = [f"c{j}" for j in range(len(cols))]
    assert render_csv(header, cols) == per_cell(header, cols)


@given(st.lists(finite_doubles, min_size=2, max_size=8), st.integers(1, 3),
       st.data())
def test_render_parse_round_trip_is_bit_exact(first, n_inst, data):
    n_rows = len(first)
    values = np.array([first] + [data.draw(st.lists(
        finite_doubles, min_size=n_rows, max_size=n_rows))
        for _ in range(n_inst - 1)])
    times = np.arange(n_rows) * 0.25
    header = ["time"] + [f"inst_{i}" for i in range(n_inst)]
    back = parse_ensemble_csv(render_csv(header, [times, *values]))
    assert back.values.tobytes() == values.tobytes()


def test_render_csv_text_columns():
    text = render_csv(["metric", "value"], [["a", "b"], [0.1, -0.0]])
    assert text == "metric,value\na,0.10000000000000001\nb,-0\n"


def test_ensemble_round_trip_is_exact():
    ens = simulate(Brownian(0.3, 1.2), 2.0, 0.01, 7, 99)
    back = parse_ensemble_csv(ensemble_to_csv(ens))
    np.testing.assert_array_equal(back.values, ens.values)
    assert back.grid.n_steps == ens.grid.n_steps
    assert back.spec is None and back.seed is None


@pytest.mark.parametrize("text", [
    "",                                        # empty
    "foo,inst_0\n0,1\n1,2\n",                  # wrong first column
    "time,walker_0\n0,1\n1,2\n",               # wrong instance name
    "time,inst_0\n0,1\n",                      # too few rows
    "time,inst_0\n0,1\n1,2,3\n",               # ragged row
    "time,inst_0\n0,1\n1,x\n",                 # non-numeric cell
    "time,inst_0\n0,1\n1,2\n3,4\n",            # nonuniform grid
    "time,inst_0\n1,1\n2,2\n",                 # grid not starting at 0
    "time,inst_0\n0,1\n1,nan\n",               # nan cell
    "time,inst_0\n0,inf\n1,2\n",               # inf cell
    "time,inst_0\n0,1\n1,-inf\n",              # -inf cell
    "time,inst_0\n0,1\nnan,2\n",               # nan time
])
def test_schema_violations(text):
    with pytest.raises(SchemaError):
        parse_ensemble_csv(text)


FILE_LINE_ERRORS = [
    ("time,inst_0\n0,1\n\n1,2\n2,x\n", "src.csv:5: bad value 'x' in column 'inst_0'"),
    ("time,inst_0\n0,1\n\n1,2,3\n", "src.csv:4: expected 2 columns, got 3"),
    ("time,inst_0,inst_1\n\n0,1,2\n1,2\n", "src.csv:4: expected 3 columns, got 2"),
    ("time,inst_0\n0,1\n\nnan,2\n", "src.csv:4: non-finite value nan in column 'time'"),
    ("time,inst_0\n\n0,1\n1,2\n\n2,-inf\n",
     "src.csv:6: non-finite value -inf in column 'inst_0'"),
    # float() takes these, loadtxt does not.
    ("time,inst_0\n0,1\n\n1,2\n2,1_0\n", "src.csv:5: bad value '1_0' in column 'inst_0'"),
    ("time,inst_0\n0,1\n\n1,2\n2,\uff12\n",
     "src.csv:5: bad value '\uff12' in column 'inst_0'"),
]


@pytest.mark.parametrize("text, message", FILE_LINE_ERRORS)
def test_errors_name_the_file_line(text, message):
    with pytest.raises(SchemaError) as info:
        parse_ensemble_csv(text, source="src.csv")
    assert str(info.value) == message


@pytest.mark.parametrize("brk", ["\x1c", "\x0b", "\x0c", "\x1e", "\x85", "\u2028"])
def test_only_lf_crlf_and_cr_end_a_line(tmp_path, brk):
    """Both entry points split lines where a file is split, not where
    str.splitlines would also split."""
    text = f"time,inst_0\n0,1{brk}0.01,2\n"
    path = tmp_path / "src.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as from_text:
        parse_ensemble_csv(text, source="src.csv")
    with pytest.raises(SchemaError) as from_file:
        read_ensemble_csv(path)
    assert str(from_text.value) == "src.csv:2: expected 2 columns, got 3"
    assert str(from_file.value) == f"{path}:2: expected 2 columns, got 3"


# --- pieces of rows -----------------------------------------------------------

def pieces(rows, n_columns):
    """Patch the piece size to ``rows`` rows of an ``n_columns``-wide table;
    ``rows=None`` keeps the real size."""
    if rows is None:
        return contextlib.nullcontext()
    return mock.patch.object(csvio, "_PIECE_CELLS", rows * n_columns)


def reads(read_cells, run_cells):
    """Patch the reader to read ``read_cells * _WINDOW`` bytes at a time and to
    run the kernel on ``run_cells * _WINDOW`` bytes of lines or the next line
    end: a line or a few of the small tables here.  ``read_cells=None`` keeps
    the real sizes."""
    if read_cells is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(csvio, _PIECE_CELLS=read_cells, _SLICE_CELLS=run_cells)


# (rows per piece, table rows) with table rows piece - 1, piece, piece + 1 or
# 2 piece + 1.
piece_and_rows = st.tuples(st.integers(1, 5), st.sampled_from([-1, 0, 1, None])).map(
    lambda t: (t[0], 2 * t[0] + 1 if t[1] is None else max(1, t[0] + t[1])))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(piece_and_rows, st.integers(0, 2), st.booleans(), st.data())
def test_write_csv_in_pieces_matches_render_and_per_cell_rule(
        tmp_path, sizes, n_short, text, data):
    piece, n_rows = sizes
    cols = [np.array(data.draw(st.lists(finite_doubles, min_size=n_rows,
                                        max_size=n_rows)))]
    # Shorter columns are padded, as fig1 pads the shorter of its two fans.
    cols += [data.draw(st.lists(finite_doubles, min_size=1, max_size=n_rows))
             for _ in range(n_short)]
    if text:
        cols.insert(0, data.draw(st.lists(st.sampled_from(["a", "time_average"]),
                                          min_size=1, max_size=n_rows)))
    header = [f"c{j}" for j in range(len(cols))]
    path = tmp_path / "t.csv"
    with pieces(piece, len(cols)):
        rendered = render_csv(header, cols)
        write_csv(path, header, cols)
    assert rendered == per_cell(header, cols)
    assert path.read_bytes() == rendered.encode("utf-8")


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(piece_and_rows, st.integers(1, 3), st.data())
def test_read_in_pieces_matches_parse_bit_for_bit(tmp_path, sizes, n_inst, data):
    piece, n_rows = sizes
    n_rows = max(2, n_rows)
    values = np.array([data.draw(st.lists(finite_doubles, min_size=n_rows,
                                          max_size=n_rows))
                       for _ in range(n_inst)])
    header = ["time"] + [f"inst_{i}" for i in range(n_inst)]
    path = tmp_path / "e.csv"
    times = np.arange(n_rows) * 0.25
    with pieces(piece, n_inst + 1):  # the values as one block of columns, or row by row
        write_csv(path, header, [times, values])
        assert path.read_text(encoding="utf-8") == render_csv(header, [times, *values])
    with reads(piece, piece):
        read = read_ensemble_csv(path)
        parsed = parse_ensemble_csv(path.read_text(encoding="utf-8"))
    assert read.values.tobytes() == parsed.values.tobytes() == values.tobytes()
    assert read.grid == parsed.grid


def test_unpatched_piece_boundary(tmp_path):
    n_rows = 2 * (csvio._PIECE_CELLS // 3) + 1  # two full pieces and one row
    cols = [np.arange(n_rows) * 0.5,
            *np.random.default_rng(3).standard_normal((2, n_rows))]
    header = ["time", "inst_0", "inst_1"]
    path = tmp_path / "e.csv"
    write_csv(path, header, cols)
    assert path.stat().st_size > csvio._PIECE_CELLS * csvio._WINDOW  # more than a read
    text = path.read_text(encoding="utf-8")
    assert text == render_csv(header, cols) == per_cell(header, cols)
    back = read_ensemble_csv(path)
    assert back.values.tobytes() == np.array(cols[1:]).tobytes()
    assert back.values.tobytes() == parse_ensemble_csv(text).values.tobytes()


def test_crlf_file_parses_like_lf(tmp_path):
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    assert cli.main(["simulate", "gbm", "--mu", "0.05", "--sigma", "0.2",
                     "--t", "2", "--dt", "0.01", "--n", "7", "--seed", "3",
                     "--out", str(lf)]) == 0
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    cr = tmp_path / "cr.csv"
    cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
    with pieces(8, 8):
        a, b = read_ensemble_csv(lf), read_ensemble_csv(crlf)
        c = parse_ensemble_csv(crlf.read_bytes().decode("utf-8"))
        d = read_ensemble_csv(cr)
        e = parse_ensemble_csv(cr.read_bytes().decode("utf-8"))
    assert b"\r\n" in crlf.read_bytes()
    assert a.values.tobytes() == b.values.tobytes() == c.values.tobytes()
    assert a.values.tobytes() == d.values.tobytes() == e.values.tobytes()
    assert a.grid == b.grid == c.grid == d.grid == e.grid


# reads of 24 bytes, kernel runs of 24 or 48 bytes; None: real sizes
@pytest.mark.parametrize("piece", [1, 2, None])
@pytest.mark.parametrize("text, message", FILE_LINE_ERRORS + [
    ("time,inst_0\n0,1\n1,2\n\n2,3\n3,x\n4,5\n",
     "src.csv:6: bad value 'x' in column 'inst_0'"),
    # Of several faults, the first in file order is named.
    ("time,inst_0\n0,x\n1,2,3\n", "src.csv:2: bad value 'x' in column 'inst_0'"),
    ("time,inst_0\n0,nan\n1,x\n", "src.csv:2: non-finite value nan in column 'inst_0'"),
    ("time,inst_0,inst_1\n0,1,2\n1,inf,x\n",
     "src.csv:3: non-finite value inf in column 'inst_0'"),
    ("time,inst_0\n0,1,2\n", "src.csv:2: expected 2 columns, got 3"),
])
def test_fault_in_any_piece_names_its_file_line(tmp_path, piece, text, message):
    path = tmp_path / "src.csv"
    path.write_text(text, encoding="utf-8")
    with reads(None if piece is None else 1, piece):
        with pytest.raises(SchemaError) as from_text:
            parse_ensemble_csv(text, source="src.csv")
        with pytest.raises(SchemaError) as from_file:
            read_ensemble_csv(path)
    assert str(from_text.value) == message
    assert str(from_file.value) == message.replace("src.csv", str(path), 1)


def test_a_byte_that_is_not_utf8_is_a_bad_value(tmp_path):
    path = tmp_path / "src.csv"
    path.write_bytes(b"time,inst_0\n0,1\n0.1,\xff\n")
    with pytest.raises(SchemaError) as info:
        read_ensemble_csv(path)
    assert str(info.value) == f"{path}:3: bad value '\\udcff' in column 'inst_0'"


def two_passes(*passes):
    """A `_parse_lines` source whose k-th pass reads the lines ``passes[k]``."""
    data = iter(["".join(line + "\n" for line in lines).encode() for lines in passes])
    return lambda: csvio._pieces(functools.partial(io.BytesIO, next(data)))


def test_rows_lost_between_the_two_passes_are_reported():
    passes = two_passes(["time,inst_0", "0,1", "1,2", "2,3"], ["time,inst_0", "0,1", "1,2"])
    with pytest.raises(SchemaError, match="file changed while being read"):
        csvio._parse_lines(passes, "src.csv")


def test_rows_gained_between_the_two_passes_are_reported():
    passes = two_passes(["time,inst_0", "0,1", "1,2"], ["time,inst_0", "0,1", "1,2", "2,3"])
    with pytest.raises(SchemaError, match="file changed while being read"):
        csvio._parse_lines(passes, "src.csv")


def test_string_parse_holds_its_utf8_bytes_and_one_piece(tmp_path):
    """`parse_ensemble_csv` reads a string through the file reader's UTF-8
    stream: beyond the ensemble array it holds the text's UTF-8 bytes and one
    piece (about 2x the text), not a 4-byte-per-character copy of it (5x), and
    it gives the bits `read_ensemble_csv` gives for the same file."""
    ensemble = simulate(GeometricLevy(alpha=1.55, beta=0.2, scale=0.35, loc=0.02),
                        10.0, 0.01, 300, 6)
    path = tmp_path / "e.csv"
    write_csv(path, *csvio.ensemble_table(ensemble))
    text = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        parsed = parse_ensemble_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - parsed.values.nbytes < 3 * len(text)
    read = read_ensemble_csv(path)
    assert parsed.values.tobytes() == read.values.tobytes() == ensemble.values.tobytes()
    assert parsed.grid == read.grid


# --- the byte reader's edges -----------------------------------------------------

def parsed(data: bytes):
    """The file bytes ``data`` as the reader parses them: the values and the
    grid, or the SchemaError text."""
    try:
        ensemble = csvio._parse_lines(
            lambda: csvio._pieces(functools.partial(io.BytesIO, data)), "src.csv")
    except SchemaError as error:
        return str(error)
    return ensemble.values.tobytes(), ensemble.grid


def text_reader_reference(data: bytes):
    """`parsed` of the lines that `io.TextIOWrapper(newline=None)` reads from
    ``data``, each ended by LF, at the real sizes: one read and one run."""
    with io.TextIOWrapper(io.BytesIO(data), "utf-8", "surrogateescape", newline=None) as fh:
        text = "".join(line if line.endswith("\n") else line + "\n" for line in fh)
    return parsed(text.encode("utf-8", "surrogateescape"))


EDGE_FEATURES = ["crlf", "cr", "blank", "unended", "utf8"]


@st.composite
def edge_files(draw):
    """``(data, feature, fault, edge)``: a small ensemble file holding one of
    `EDGE_FEATURES`, whose first read of ``edge`` bytes ends inside it or right
    at it.  Other lines end in LF, CRLF or CR at random; with ``fault``, the
    last cell is bad, so that the error names its line.  The first time cell
    is padded with zeros (still 0) to move the feature onto a multiple of
    `_WINDOW` bytes: reads are ``_PIECE_CELLS * _WINDOW`` bytes."""
    n_inst, n_rows = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    cells = [["%.17g" % (0.25 * k)] + ["%.17g" % draw(finite_doubles) for _ in range(n_inst)]
             for k in range(n_rows)]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in range(n_rows + 1)]
    feature, at = draw(st.sampled_from(EDGE_FEATURES)), draw(st.integers(0, n_rows - 1))
    char = draw(st.sampled_from(["\u00e9", "\u20ac", "\U0001f600"])).encode()  # 2-4 bytes
    if feature == "utf8":
        cells[at][-1] += char.decode()
    if fault := draw(st.booleans()):
        cells[-1][-1] = "x" + cells[-1][-1]
    head = ",".join(["time"] + [f"inst_{i}" for i in range(n_inst)]) + ends[0]
    data, edge = head.encode(), None
    for k, (row, end) in enumerate(zip(cells, ends[1:])):
        line = ",".join(row).encode()
        if k == at and feature == "utf8":  # after the character's first byte
            edge = len(data) + line.index(char) + 1
        if feature == "unended" and k == n_rows - 1:
            edge, end = len(data) + len(line) // 2 + 1, ""
        elif k == at and feature in ("crlf", "cr"):
            end = "\r\n" if feature == "crlf" else "\r"
            edge = len(data) + len(line) + 1  # right after the CR
        data += line + end.encode()
        if k == at and feature == "blank":  # the blank line's end starts the next read
            edge = len(data)
            data += draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    pad = -edge % csvio._WINDOW
    first = len(head.encode())  # the first time cell, "0"
    return data[:first] + b"0" * pad + data[first:], feature, fault, edge + pad


@given(edge_files(), st.sampled_from([1, 2 ** 14]))
def test_byte_reader_edges_match_the_text_reader(file, slice_cells):
    """A CRLF pair, a lone CR, a blank line, an unended last line or a
    multi-byte character across the end of a read, with kernel runs of one
    line or of the whole file: the reader gives the bits or the error text
    that the lines of `io.TextIOWrapper(newline=None)` give."""
    data, feature, fault, edge = file
    want = text_reader_reference(data)
    assert isinstance(want, str) == (feature == "utf8" or fault)
    with mock.patch.object(csvio, "_PIECE_CELLS", edge // csvio._WINDOW), \
            mock.patch.object(csvio, "_SLICE_CELLS", slice_cells):
        assert parsed(data) == want


@pytest.mark.parametrize("crlf", [False, True])
def test_long_and_short_lines_are_counted_as_the_text_reader_reads_them(crlf):
    """The first pass counts rows from line-end bytes at the real sizes:
    blank lines among lines of ~6 KB and of ~600 bytes (and a CR in a piece)
    leave the rows the text reader reads."""
    values = np.zeros((300, 200))
    values[:, :6] = np.random.default_rng(5).standard_normal((300, 6))  # ~6 KB lines
    header = ["time"] + [f"inst_{i}" for i in range(300)]
    lines = render_csv(header, [np.arange(200) * 0.5, *values]).encode().split(b"\n")
    lines[3:3] = lines[150:150] = [b""]  # blank lines among long and short lines
    lines[5] += b"\r" * crlf
    data = b"\n".join(lines)
    want = text_reader_reference(data)
    assert parsed(data) == want == (values.tobytes(), TimeGrid(dt=0.5, n_steps=199))


# --- whole-array formatting against the per-cell rule --------------------------

def neighbours(x):
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


# 10**k for k in -6..18 as the nearest doubles, with the doubles on either
# side: the decade boundaries where the exponent from log10 is corrected.
POWERS_OF_TEN = [v for k in range(-6, 19) for v in neighbours(float(f"1e{k}"))]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300,
           *neighbours(1e-4), *neighbours(1e17), 99999999999999999.0,
           1000000000000000.25, 1000000000000000.75, 1.7976931348623157e308,
           float("inf"), float("-inf"), float("nan")]

bit_patterns = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, np.uint64).view(np.float64)))


@st.composite
def ties(draw):
    """Doubles exactly halfway between two 17-digit decimals: an integer part
    of 18 - j digits plus an odd multiple of 2**-j, whose j decimals end in 5."""
    j = draw(st.integers(2, 17))
    whole = draw(st.integers(10 ** (17 - j), min(10 ** (18 - j), 2 ** (53 - j)) - 1))
    odd = 2 * draw(st.integers(0, 2 ** (j - 1) - 1)) + 1
    return float(Fraction(whole * 2 ** j + odd, 2 ** j))


signed = st.tuples(st.one_of(ties(), st.sampled_from(POWERS_OF_TEN),
                             st.floats(1e-4, 1e17)),
                   st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
cells = st.one_of(bit_patterns, signed, st.sampled_from(SPECIAL), st.floats())


@given(st.lists(st.lists(cells, min_size=1, max_size=9), min_size=1, max_size=4),
       st.integers(1, 3), st.integers(1, 7))
def test_every_cell_is_its_percent_17g(cols, piece, slice_cells):
    """Columns of unequal length are padded as fig1's; pieces of 1-3 rows are
    formatted in slices of 1-7 cells."""
    header = [f"c{j}" for j in range(len(cols))]
    with pieces(piece, len(cols)), mock.patch.object(csvio, "_SLICE_CELLS", slice_cells):
        assert render_csv(header, cols) == per_cell(header, cols)


def test_decade_boundaries_ties_and_specials():
    values = POWERS_OF_TEN + SPECIAL
    values += [-v for v in values]
    assert render_csv(["x"], [values]) == per_cell(["x"], [values])
    assert render_csv(["x"], [[1000000000000000.25, 1000000000000000.75,
                               99999999999999999.0]]) == (
        "x\n1000000000000000.2\n1000000000000000.8\n1e+17\n")


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=9),
       st.integers(1, 3), st.data())
def test_int_and_text_columns_match_per_cell_rule(tmp_path, ints, piece, data):
    """Python and numpy ints are formatted as the doubles ``%.17g`` makes
    of them; text, including text longer than a numeric cell, as it is."""
    words = data.draw(st.lists(st.text(min_size=0, max_size=50), min_size=1,
                               max_size=len(ints)))
    short = data.draw(st.lists(cells, min_size=1, max_size=len(ints)))
    cols = [words, ints, np.array(ints), short]
    header = ["w", "i", "n", "f"]
    path = tmp_path / "t.csv"
    with pieces(piece, len(cols)):
        rendered = render_csv(header, cols)
        write_csv(path, header, cols)
    assert rendered == per_cell(header, cols)
    assert path.read_bytes() == rendered.encode("utf-8")


@pytest.mark.parametrize("cols, text", [
    ([[1.0], []], "a,b\n1,\n"),
    ([[], [2.5, -0.0]], "a,b\n,2.5\n,-0\n"),
    ([["x"], []], "a,b\nx,\n"),
    ([[], []], "a,b\n"),
    ([np.array([]), np.array([], np.float32)], "a,b\n"),
])
def test_an_empty_column_renders_as_padding(tmp_path, cols, text):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], cols)
    assert render_csv(["a", "b"], cols) == per_cell(["a", "b"], cols) == text
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("piece", [1, 2, None])
def test_numbers_only_pieces_convert_as_column_by_column(piece):
    """A piece of full-length number columns is copied into the table in one
    assignment; it converts each cell as the column-by-column path of text or
    padded tables does."""
    big = 2 ** 53 + np.arange(1, 6) * 2 ** 31 + 1  # int64 that doubles round
    cols = [np.array([0.1, 1 / 3, -2.5, 1e-5, 3e20], np.float32),
            big, big.tolist(), [2 ** 63 - 1, -2 ** 63, 2 ** 64, 2 ** 70, 3],
            np.array([True, False, True, True, False]), [True, 1, 0.1, -0.0, 7],
            np.arange(5, dtype=np.uint64) * (2 ** 62 + 2 ** 31 + 1)]
    header = [f"c{j}" for j in range(len(cols))]
    with pieces(piece, len(cols) + 1):
        numbers = render_csv(header, cols)
        with_text = render_csv(header + ["w"], cols + [["w"] * 5])
    assert numbers == with_text.replace(",w\n", "\n")
    assert numbers == per_cell(header, cols)


def percent_17g_of_digits(d, e, negative):
    """``'%.17g'`` of the exact decimal ``(-1)**negative * d * 10**(e - 16)``,
    in the fixed notation that ``%.17g`` uses for e in -4..16."""
    digits = str(d)
    whole, frac = (digits[:e + 1], digits[e + 1:]) if e >= 0 else (
        "0", "0" * (-e - 1) + digits)
    frac = frac.rstrip("0")
    return "-" * negative + whole + ("." + frac if frac else "")


def laid_out(d, e, negative):
    """The text that the render kernel lays out for 17 digits ``d`` at decimal
    exponent ``e``: SWAR digit bytes, the move of D0..De and one fill gather
    into 24-byte slots."""
    slots = csvio._slots(np.array(e, np.int8), np.array(d, np.int64), np.array(negative))
    cells = np.ascontiguousarray(slots.T)
    cells.view(np.uint8)[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\xff").decode().splitlines()


def seventeen_digit_cases():
    """17-digit integers: 10**16 and 10**17 - 1; a zero at each place after
    the leading digit, so on each side of each boundary between the four
    4-digit groups; a last nonzero digit at each place 0..16."""
    cases = [10 ** 16, 10 ** 17 - 1, 10 ** 16 + 1, 2 * 10 ** 16 - 1]
    for place in range(1, 17):
        # a zero at `place` only, and zeros from the leading digit up to it
        cases.append(int("7" + "".join("0" if k == place else "5" for k in range(1, 17))))
        cases.append(10 ** 16 + 10 ** (16 - place) - 1)
    for last in range(17):  # the last nonzero digit at place `last`
        cases.append(4 * 10 ** 16 - 10 ** (16 - last))
        cases.append(9 * 10 ** 16 + (10 ** (16 - last) if last else 0))
    return cases


def test_digit_groups_at_every_exponent_and_last_place():
    cases = seventeen_digit_cases()
    assert {len(str(d)) for d in cases} == {17}
    lasts = {len(str(d)[1:].rstrip("0")) for d in cases}
    assert lasts == set(range(17))
    for e in range(-4, 17):
        for negative in (False, True):
            got = laid_out(cases, [e] * len(cases), [negative] * len(cases))
            assert got == [percent_17g_of_digits(d, e, negative) for d in cases]


def test_digit_reference_is_percent_17g_on_exact_doubles():
    """The reference above is ``'%.17g'``'s rule: checked on doubles whose 17
    digits are exact, the 17-digit integers that are doubles (e = 16) and the
    dyadic fractions ``1 + 2**-k``, whose last nonzero digit is at place k."""
    exact = [d for d in seventeen_digit_cases() if float(d) == d]
    dyadic = [1 + 2 ** -k for k in range(17)]
    digits = [int(("%.16e" % x).split("e")[0].replace(".", "")) for x in dyadic]
    assert len(exact) > 10
    assert [len(str(d)[1:].rstrip("0")) for d in digits] == list(range(17))
    for cells, want in [(exact, [percent_17g_of_digits(d, 16, False) for d in exact]),
                        (dyadic, [percent_17g_of_digits(d, 0, False) for d in digits])]:
        assert render_csv(["x"], [cells]) == per_cell(["x"], [cells]) == "\n".join(
            ["x", *want, ""])


def bulk_doubles():
    """2**17 seeded bit patterns as doubles (all classes, nearly all of them
    outside fixed notation); the top 53 bits of 2**13 of them as magnitudes
    ``1 <= m < 10``, scaled into each decade 1e-4..1e16; the powers of ten
    1e-5..1e17 and their two neighbours; 0, inf and nan; then all negated."""
    bits = np.frombuffer(np.random.default_rng(2026).bytes(8 * 2 ** 17), np.uint64)
    magnitudes = 1 + 9 * ((bits[:2 ** 13] >> 11) * 2.0 ** -53)
    decades = np.outer(10.0 ** np.arange(-4, 17), magnitudes).ravel()
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    x = np.concatenate([bits.view(np.float64), decades, powers, np.nextafter(powers, 0),
                        np.nextafter(powers, np.inf), [0.0, np.inf, np.nan]])
    return np.concatenate([x, -x])


@pytest.mark.parametrize("sizes", [{}, {"_PIECE_CELLS": 5000, "_SLICE_CELLS": 777}])
def test_bulk_doubles_write_as_percent_17g(tmp_path, sizes):
    """`write_csv` in pieces and slices, default or small, writes every line
    of a column of `bulk_doubles` as ``'%.17g' % x``."""
    x, path = bulk_doubles(), tmp_path / "x.csv"
    with mock.patch.multiple(csvio, **sizes) if sizes else contextlib.nullcontext():
        write_csv(path, ["x"], [x])
    with open(path, "rb") as fh:
        assert next(fh) == b"x\n"
        for chunk in np.array_split(x, 8):
            want = [("%.17g\n" % v).encode() for v in chunk.tolist()]
            assert [next(fh) for _ in chunk] == want
        assert fh.read() == b""


def test_render_temporaries_stay_under_90_bytes_a_cell():
    """One `_render` of 2**14 fixed-notation cells of both signs holds at most
    90 bytes a cell beyond its input, its output included."""
    rng = np.random.default_rng(14)
    x = rng.lognormal(0.0, 6.0, 2 ** 14) * rng.choice([-1.0, 1.0], 2 ** 14)
    x = x[(np.abs(x) >= 1e-4) & (np.abs(x) < 1e17)]
    x = np.resize(x, 2 ** 14)
    seps = np.full(x.size, ord(","), np.uint8)
    csvio._render(x, seps, None)  # builds the tables
    tracemalloc.start()
    try:
        csvio._render(x, seps, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 90 * x.size


# --- whole-array parsing against loadtxt ----------------------------------------

def loadtxt(lines):
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


@contextlib.contextmanager
def kernel_only():
    """Fail if the parse kernel declines a piece, which the walker then reads."""
    kernel = csvio._parse_cells

    def taken(*args):
        assert (block := kernel(*args)) is not None, "a piece left the kernel"
        return block

    with mock.patch.object(csvio, "_parse_cells", taken):
        yield


def parse_cells(lines, n_columns):
    """The parse kernel on ``lines``, each ended by LF, as UTF-8 bytes."""
    return csvio._parse_cells("".join(line + "\n" for line in lines).encode(), n_columns)


def kernel_is_loadtxt_or_declines(cells):
    """Parse ``cells`` as one row and as one column: the kernel's bits equal
    loadtxt's, or it declines the table.  Return whether it took both."""
    took = True
    for lines, n_columns in (([",".join(cells)], len(cells)), (cells, 1)):
        got = parse_cells(lines, n_columns)
        if got is None:
            took = False
        else:
            assert got.tobytes() == loadtxt(lines).tobytes()
    return took


def midpoint_neighbours(x, delta, negative, point):
    """A 19-digit decimal ``delta`` units in its last digit from the exact
    midpoint between x and the next double up."""
    mid = (Fraction(x) + Fraction(float(np.nextafter(x, np.inf)))) / 2
    e = int(np.floor(np.log10(x)))  # then made mid's decimal exponent
    while mid >= Fraction(10) ** (e + 1):
        e += 1
    while mid < Fraction(10) ** e:
        e -= 1
    digits = str(round(mid / Fraction(10) ** (e - 18)) + delta)
    text = (f"{digits[0]}.{digits[1:]}e{e:+03d}" if point
            else f"{digits}e{e - len(digits) + 1:+03d}")
    return "-" + text if negative else text


normal_doubles = st.floats(min_value=2.2250738585072014e-308, max_value=1.7e308)
doubles = st.one_of(bit_patterns, st.floats())
formatted = st.one_of(
    doubles.map(lambda x: "%.17g" % x),
    st.tuples(doubles, st.integers(1, 19)).map(lambda t: "%.*g" % (t[1], t[0])),
    doubles.map(lambda x: "%e" % x),
    doubles.map(repr),
    st.builds(midpoint_neighbours, normal_doubles,
              st.integers(-1, 1), st.booleans(), st.booleans()),
    # integers exactly halfway between two doubles, which round to even
    st.builds(lambda m, j: str((2 * m + 1) << j), st.integers(2 ** 52, 2 ** 53 - 1),
              st.integers(0, 9)),
    st.sampled_from(["2.2250738585072014e-308", "1.7976931348623157e+308",
                     "9007199254740993", "0", "-0", "-0.0", "0e+00", "1e+5"]))


@given(st.lists(formatted, min_size=1, max_size=6))
def test_kernel_is_loadtxt_or_declines(cells):
    kernel_is_loadtxt_or_declines(cells)


@pytest.mark.parametrize("cell", ["2.2250738585072014e-308", "1.7976931348623157e+308",
                                  "9007199254740993", "-0", "0.00012345678901234567",
                                  "1234567890123456789", "-1.234567890123456789e-100"])
def test_kernel_takes_edge_cells(cell):
    assert kernel_is_loadtxt_or_declines(["1.5", cell])


@pytest.mark.parametrize("cell", [
    "1E5", "+1", " 1.5", "1.5 ", ".5", "-.5", "5.", "1.2.3", "--1", "1-2", "1e5", "1e+",
    "1e+1234", "1e500", "1e-400", "4.9e-324", "2.2250738585072009e-308",
    "12345678901234567890", "1.2345678901234567890e+05", "0.0000000000000000000000001",
    "nan", "-inf", "inf", "", "1_0", "２", "0x10", "1e+05e+05"])
def test_kernel_declines_other_cells(cell):
    assert parse_cells(["1.5," + cell], 2) is None
    assert parse_cells([cell + ",1.5"], 2) is None


def test_kernel_declines_a_wrong_row_width():
    assert parse_cells(["1,2", "3"], 2) is None
    assert parse_cells(["1,2", "3,4,5"], 2) is None
    assert parse_cells(["1,2,3", "4"], 2) is None


malformed = st.sampled_from(["1E5", "+1", " 1.5", "1_0", "\uff12", "0x10", "nan", ""])
# up to five formatted cells and up to two malformed ones, in any order
mixed_cells = st.tuples(st.lists(formatted, max_size=5), st.lists(malformed, max_size=2)
                        ).map(lambda t: t[0] + t[1]).filter(bool).flatmap(st.permutations)


@given(mixed_cells)
def test_walker_is_loadtxt_or_both_refuse(cells):
    """A piece that the kernel declines parses cell by cell to loadtxt's bits,
    or both refuse it: loadtxt raises or reads a non-finite number.  Cells
    are read as one row and as one column."""
    for lines in ([",".join(cells)], cells):
        if not (lines := [line for line in lines if line]):  # blank lines are skipped
            continue
        header = ["time"] + [f"inst_{i}" for i in range(lines[0].count(","))]
        try:
            want = loadtxt(lines)
        except ValueError:
            want = None
        piece = list(enumerate(lines, 2))
        with mock.patch.object(csvio, "_parse_cells", return_value=None):
            if want is None or not np.isfinite(want).all():
                with pytest.raises(SchemaError, match="^src.csv:[0-9]+: "):
                    csvio._parse_piece(piece, header, "src.csv")
            else:
                got = csvio._parse_piece(piece, header, "src.csv")
                assert got.tobytes() == want.tobytes()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(2, 5), st.integers(1, 3), st.data())
def test_written_normal_cells_take_the_kernel(tmp_path, n_rows, n_inst, data):
    """Every finite cell that `write_csv` writes that is zero or normal parses
    in the kernel."""
    cells = st.tuples(st.one_of(st.just(0.0), normal_doubles), st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0])
    values = np.array([data.draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
                       for _ in range(n_inst)])
    header = ["time"] + [f"inst_{i}" for i in range(n_inst)]
    path = tmp_path / "e.csv"
    write_csv(path, header, [np.arange(n_rows) * 0.01, *values])
    with kernel_only():
        back = read_ensemble_csv(path)
    assert back.values.tobytes() == values.tobytes()


def test_benchmark_ensembles_take_the_kernel(tmp_path):
    """The `simulate` CSVs that `diagnose --in` reads parse in the kernel."""
    path = tmp_path / "e.csv"
    for family, flags in [("gbm", ["--mu", "0.05", "--sigma", "0.2"]),
                          ("glevy", ["--alpha", "1.55", "--beta", "0.2",
                                     "--scale", "0.35", "--loc", "0.02"])]:
        assert cli.main(["simulate", family, *flags, "--t", "10", "--dt", "0.01",
                         "--n", "20", "--seed", "4", "--out", str(path)]) == 0
        with kernel_only():
            back = read_ensemble_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert back.values.tobytes() == loadtxt(lines)[:, 1:].T.tobytes()


# --- both kernels under both SIMD bit classes -----------------------------------

# Finite doubles from fixed bit patterns (numpy's integer generator draws the
# same bits on any CPU): half the cells in the render kernel's range, all of
# them zero or normal, so that the parse kernel takes every one.
SIMD_PROBE = """
import hashlib
import numpy as np
from stokit import csvio
bits = np.frombuffer(np.random.default_rng(2024).bytes(3 * 4000 * 8), np.uint64)
bits = bits.reshape(3, 4000).copy()
exponent = bits >> np.uint64(52) & np.uint64(0x7FF)
exponent[:, :2000] = exponent[:, :2000] % np.uint64(70) + np.uint64(1023 - 14)
exponent[exponent == 0x7FF] = 0x7FE
exponent[exponent == 0] = 1
bits = bits & ~np.uint64(0x7FF << 52) | exponent << np.uint64(52)
values = bits.view(np.float64)
text = csvio.render_csv(["time", "inst_0", "inst_1", "inst_2"],
                        [np.arange(4000) * 0.25, *values])
kernel = csvio._parse_cells


def kernel_only(*args):  # the parse kernel takes every cell, or this fails
    assert (block := kernel(*args)) is not None, "a piece left the kernel"
    return block


csvio._parse_cells = kernel_only
back = csvio.parse_ensemble_csv(text)
assert back.values.tobytes() == values.tobytes()
digests = [hashlib.sha256(b).hexdigest() for b in (text.encode(), back.values.tobytes())]
"""


def test_csv_kernels_do_not_depend_on_the_simd_target():
    """The render and parse kernels give the same bytes and bits with numpy's
    AVX-512 targets disabled, whose transcendental functions round differently."""
    if "X86_V4" not in _dispatch_targets():
        pytest.skip("this CPU does not enable X86_V4: no second SIMD bit class")
    in_process = {}
    with mock.patch.object(csvio, "_parse_cells", csvio._parse_cells):  # restored
        exec(SIMD_PROBE, in_process)
    src = Path(csvio.__file__).parent.parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    probe = SIMD_PROBE + ("from stokit.cli import _dispatch_targets\n"
                          "print(*digests)\nprint(*_dispatch_targets())")
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    digests, targets = done.stdout.splitlines()
    assert "X86_V4" not in targets.split()
    assert digests.split() == in_process["digests"]
