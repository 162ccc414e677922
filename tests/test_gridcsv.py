import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonoscope import ParseError, PhonemeInventory
from phonoscope.gridcsv import _fmt_float, parse_grid, serialize_grid

INV = PhonemeInventory.default()


def reference_serialize_grid(grid, inventory):
    """serialize_grid as first written: float() on each numpy scalar."""
    out = ["," + ",".join(inventory.symbols)]
    for r, label in enumerate(inventory.symbols):
        cells = (_fmt_float(float(v)) for v in grid[r])
        out.append(label + "," + ",".join(cells))
    return "\n".join(out) + "\n"


@st.composite
def grids(draw):
    size = draw(st.sampled_from([2, 3, 7, 40]))
    inv = INV if size == 40 else PhonemeInventory(
        [f"P{i}" for i in range(size - 1)] + ["<eps>"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.normal(0.0, 10.0 ** draw(st.integers(-300, 300)), size=(size, size))
    grid[rng.random((size, size)) < 0.3] = 0.0
    grid[rng.random((size, size)) < 0.2] = rng.integers(-50, 50)  # whole floats
    return inv, grid


@settings(max_examples=150, deadline=None)
@given(grids())
def test_serialize_grid_matches_per_scalar_reference(case):
    inv, grid = case
    assert serialize_grid(grid, inv) == reference_serialize_grid(grid, inv)
    ints = np.rint(grid).clip(-2**62, 2**62).astype(np.int64)   # an int grid
    assert serialize_grid(ints, inv) == reference_serialize_grid(ints, inv)


@settings(max_examples=150, deadline=None)
@given(grids())
def test_float_grid_round_trip(case):
    inv, grid = case
    back = parse_grid(serialize_grid(grid, inv), inv)
    assert back.dtype == np.float64 and np.array_equal(back, grid)


SMALL = PhonemeInventory(["A", "B", "<eps>"])
cells = st.text(alphabet="0123456789-+.eE_xna ", max_size=25) | st.text(max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("")
@example("\0")
@example("x" * 200_000)    # one field over the csv module's size limit
@example('"unclosed')
def test_arbitrary_text_raises_only_parse_error(text):
    try:
        parse_grid(text, SMALL)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(cells, min_size=9, max_size=9))
@example(["99999999999999999999", "0", "0", "0", "0", "0", "0", "0", "0"])
@example(["1e999", "-inf", "nan", "0", "0", "0", "0", "0", "0"])
def test_arbitrary_cells_raise_only_parse_error(values):
    """A well-formed header and row labels around arbitrary cell text."""
    rows = [",A,B,<eps>"] + [
        label + "," + ",".join(values[3 * r:3 * r + 3])
        for r, label in enumerate(SMALL.symbols)
    ]
    try:
        grid = parse_grid("\n".join(rows), SMALL)
    except ParseError:
        return
    assert grid.shape == (3, 3)


@pytest.mark.parametrize("text,line,message", [
    # blank lines count: each record is named by the line it starts on
    (",A,B,<eps>\n\nA,0,1,1\n\nB,1,0,1\n\n<eps>,1,x,0\n", 7, "bad numeric value 'x'"),
    ("\n\n,A,QQ,<eps>\nA,0,1,1\n", 3, "unknown column label 'QQ'"),
    (',A,B,<eps>\n"A\n",0,1,1\nB,1,0\n', 4, "has 2 values"),
    (",A,B,<eps>\nA,0,1,1\n\n" + "x" * (csv.field_size_limit() + 1), 4, "bad CSV"),
])
def test_error_names_the_line_its_record_starts_on(text, line, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_grid(text, SMALL, source="g.csv")
    assert (err.value.line, err.value.source) == (line, "g.csv")
