import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonoscope import ParseError, PhonemeInventory, ValidationError
from phonoscope.gridcsv import _fmt_float, parse_grid, serialize_grid

INV = PhonemeInventory.default()


def reference_serialize_grid(grid, inventory, integer=False):
    """serialize_grid as first written: int() or float() on each numpy scalar."""
    out = ["," + ",".join(inventory.symbols)]
    for r, label in enumerate(inventory.symbols):
        if integer:
            cells = (str(int(v)) for v in grid[r])
        else:
            cells = (_fmt_float(float(v)) for v in grid[r])
        out.append(label + "," + ",".join(cells))
    return "\n".join(out) + "\n"


@st.composite
def grids(draw, integer):
    size = draw(st.sampled_from([2, 3, 7, 40]))
    inv = INV if size == 40 else PhonemeInventory(
        [f"P{i}" for i in range(size - 1)] + ["<eps>"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if integer:
        high = draw(st.sampled_from([3, 1000, 2**63 - 1]))
        grid = rng.integers(-high, high, size=(size, size), dtype=np.int64)
    else:
        grid = rng.normal(0.0, 10.0 ** draw(st.integers(-300, 300)), size=(size, size))
        grid[rng.random((size, size)) < 0.3] = 0.0
        grid[rng.random((size, size)) < 0.2] = rng.integers(-50, 50)  # whole floats
    return inv, grid


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda integer: st.tuples(st.just(integer),
                                                       grids(integer))))
def test_serialize_grid_matches_per_scalar_reference(case):
    integer, (inv, grid) = case
    assert serialize_grid(grid, inv, integer=integer) == reference_serialize_grid(
        grid, inv, integer)
    if integer:   # an int grid written as floats
        assert serialize_grid(grid, inv) == reference_serialize_grid(grid, inv)
    else:
        with pytest.raises(ValidationError):
            serialize_grid(grid, inv, integer=True)


@settings(max_examples=150, deadline=None)
@given(grids(integer=True))
def test_int_grid_round_trip(case):
    inv, grid = case
    back = parse_grid(serialize_grid(grid, inv, integer=True), inv, integer=True)
    assert back.dtype == np.int64 and np.array_equal(back, grid)


@settings(max_examples=150, deadline=None)
@given(grids(integer=False))
def test_float_grid_round_trip(case):
    inv, grid = case
    back = parse_grid(serialize_grid(grid, inv), inv)
    assert back.dtype == np.float64 and np.array_equal(back, grid)


SMALL = PhonemeInventory(["A", "B", "<eps>"])
cells = st.text(alphabet="0123456789-+.eE_xna ", max_size=25) | st.text(max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.text(), st.booleans())
@example("", False)
@example("\0", True)
@example("x" * 200_000, True)    # one field over the csv module's size limit
@example('"unclosed', False)
def test_arbitrary_text_raises_only_parse_error(text, integer):
    try:
        parse_grid(text, SMALL, integer=integer)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(cells, min_size=9, max_size=9), st.booleans())
@example(["99999999999999999999", "0", "0", "0", "0", "0", "0", "0", "0"], True)
def test_arbitrary_cells_raise_only_parse_error(values, integer):
    """A well-formed header and row labels around arbitrary cell text."""
    rows = [",A,B,<eps>"] + [
        label + "," + ",".join(values[3 * r:3 * r + 3])
        for r, label in enumerate(SMALL.symbols)
    ]
    try:
        grid = parse_grid("\n".join(rows), SMALL, integer=integer)
    except ParseError:
        return
    assert grid.shape == (3, 3)
