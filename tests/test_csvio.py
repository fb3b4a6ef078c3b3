import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stokit import Brownian, SchemaError, simulate
from stokit.csvio import ensemble_to_csv, parse_ensemble_csv, render_csv

finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e308, -1e308, 1.7976931348623157e308]))
columns = st.integers(1, 4).flatmap(
    lambda n_cols: st.lists(st.lists(finite_doubles, min_size=1, max_size=6),
                            min_size=n_cols, max_size=n_cols))


@given(columns)
def test_render_csv_matches_per_cell_rule(cols):
    n_rows = max(len(col) for col in cols)
    header = [f"c{j}" for j in range(len(cols))]
    expected = [",".join(header)] + [
        ",".join(f"{col[k]:.17g}" if k < len(col) else "" for col in cols)
        for k in range(n_rows)]
    assert render_csv(header, cols) == "\n".join(expected) + "\n"


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


@pytest.mark.parametrize("text, message", [
    ("time,inst_0\n0,1\n\n1,2\n2,x\n", "src.csv:5: bad value 'x' in column 'inst_0'"),
    ("time,inst_0\n0,1\n\n1,2,3\n", "src.csv:4: expected 2 columns, got 3"),
    ("time,inst_0,inst_1\n\n0,1,2\n1,2\n", "src.csv:4: expected 3 columns, got 2"),
    ("time,inst_0\n0,1\n\nnan,2\n", "src.csv:4: non-finite value nan in column 'time'"),
    ("time,inst_0\n\n0,1\n1,2\n\n2,-inf\n",
     "src.csv:6: non-finite value -inf in column 'inst_0'"),
])
def test_errors_name_the_file_line(text, message):
    with pytest.raises(SchemaError) as info:
        parse_ensemble_csv(text, source="src.csv")
    assert str(info.value) == message
