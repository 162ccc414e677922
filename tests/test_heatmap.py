import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonoscope import ConfusionMatrix, PhonemeInventory, ValidationError, accumulate
from phonoscope.confusion import SpeakerProfile
from phonoscope.heatmap import CELL, FONT, MARGIN_LEFT, MARGIN_TOP, _esc, svg_heatmap

INV = PhonemeInventory.default()


def cell_fill(svg, row, col):
    x = MARGIN_LEFT + col * CELL
    y = MARGIN_TOP + row * CELL
    marker = f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" fill="'
    for line in svg.splitlines():
        if line.startswith(marker):
            return line.split('fill="')[1].split('"')[0]
    raise AssertionError(f"no cell at ({row}, {col})")


def test_zero_matrix_uniformly_lightest():
    svg = svg_heatmap(np.zeros((40, 40)), INV.symbols)
    fills = {
        line.split('fill="')[1].split('"')[0]
        for line in svg.splitlines()
        if line.startswith("<rect x=")
    }
    assert fills == {"#ffffff"}


def test_single_nonzero_cell_is_darkest():
    grid = np.zeros((40, 40))
    grid[3, 7] = 12.0
    svg = svg_heatmap(grid, INV.symbols)
    assert cell_fill(svg, 3, 7) == "#000000"
    assert cell_fill(svg, 3, 8) == "#ffffff"
    assert cell_fill(svg, 4, 7) == "#ffffff"


def test_row_scaling_vs_global_scaling():
    grid = np.zeros((40, 40))
    grid[0, 1] = 2.0   # row 0 max
    grid[1, 2] = 10.0  # global max
    per_row = svg_heatmap(grid, INV.symbols, per_row=True)
    assert cell_fill(per_row, 0, 1) == "#000000"
    assert cell_fill(per_row, 1, 2) == "#000000"
    global_scale = svg_heatmap(grid, INV.symbols, per_row=False)
    assert cell_fill(global_scale, 1, 2) == "#000000"
    assert cell_fill(global_scale, 0, 1) != "#000000"


def test_byte_determinism():
    rng = np.random.default_rng(1)
    grid = rng.integers(0, 20, size=(40, 40)).astype(float)
    assert svg_heatmap(grid, INV.symbols) == svg_heatmap(grid.copy(), INV.symbols)


def test_axis_labels_in_inventory_order():
    svg = svg_heatmap(np.zeros((40, 40)), INV.symbols)
    def unescape(s):
        return s.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")

    text_labels = [
        unescape(line.rsplit(">", 2)[-2].split("<")[0])
        for line in svg.splitlines()
        if line.startswith("<text")
    ]
    assert text_labels[:40] == list(INV.symbols)      # column headers
    assert text_labels[40:80] == list(INV.symbols)    # row headers
    assert "&lt;eps&gt;" in svg  # epsilon label is XML-escaped


def test_table2_profile_darkest_cells():
    from phonoscope import align

    from .conftest import idx, make_weighted_costs

    costs = make_weighted_costs(INV)
    profile = SpeakerProfile("s", ConfusionMatrix(INV))
    accumulate(profile, align(idx(INV, "HH IH Z"), idx(INV, "IY Z"), costs))
    svg = svg_heatmap(profile.matrix.counts, INV.symbols, per_row=True)
    eps = INV.epsilon_index
    assert cell_fill(svg, INV.index("HH"), eps) == "#000000"
    assert cell_fill(svg, INV.index("IH"), INV.index("IY")) == "#000000"
    assert cell_fill(svg, INV.index("Z"), INV.index("Z")) == "#000000"
    assert cell_fill(svg, INV.index("HH"), INV.index("IY")) == "#ffffff"


def test_svg_dimensions_cover_grid():
    svg = svg_heatmap(np.zeros((40, 40)), INV.symbols)
    first = svg.splitlines()[0]
    width = int(first.split('width="')[1].split('"')[0])
    assert width >= MARGIN_LEFT + 40 * CELL


def test_unshadeable_grid_rejected():
    grid = np.zeros((2, 2))
    grid[0, 1] = np.nan
    for per_row in (True, False):
        with pytest.raises(ValidationError):
            svg_heatmap(grid, ["a", "b"], per_row=per_row)
    grid[0, 1] = np.inf
    with pytest.raises(ValidationError):
        svg_heatmap(grid, ["a", "b"])
    with pytest.raises(ValidationError):
        svg_heatmap(np.zeros((3, 3)), ["a", "b"])


def _shade(value: float, denom: float) -> str:
    if denom <= 0:
        frac = 0.0
    else:
        frac = min(max(value / denom, 0.0), 1.0)
    level = 255 - int(round(255 * frac))
    return f"#{level:02x}{level:02x}{level:02x}"


def reference_svg_heatmap(grid, labels, per_row=True):
    """svg_heatmap as first written: _shade and one f-string per cell, the
    cells inside one <g> that carries their stroke."""
    grid = np.asarray(grid, dtype=np.float64)
    n = len(labels)
    width = MARGIN_LEFT + n * CELL + 1
    height = MARGIN_TOP + n * CELL + 1
    global_max = float(grid.max()) if grid.size else 0.0
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for c, label in enumerate(labels):
        x = MARGIN_LEFT + c * CELL + CELL // 2 + 3
        out.append(
            f'<text x="{x}" y="{MARGIN_TOP - 4}" font-family="monospace" '
            f'font-size="{FONT}" text-anchor="start" '
            f'transform="rotate(-60 {x} {MARGIN_TOP - 4})">{_esc(label)}</text>'
        )
    for r, label in enumerate(labels):
        y = MARGIN_TOP + r * CELL + CELL // 2 + 3
        out.append(
            f'<text x="{MARGIN_LEFT - 4}" y="{y}" font-family="monospace" '
            f'font-size="{FONT}" text-anchor="end">{_esc(label)}</text>'
        )
    out.append('<g stroke="#dddddd" stroke-width="0.5">')
    for r in range(n):
        denom = float(grid[r].max()) if per_row else global_max
        for c in range(n):
            x = MARGIN_LEFT + c * CELL
            y = MARGIN_TOP + r * CELL
            fill = _shade(float(grid[r, c]), denom)
            out.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{fill}"/>'
            )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


@st.composite
def labelled_grids(draw):
    """Small grids drawn cell by cell, or a full inventory's grid from a seed."""
    if draw(st.booleans()):
        labels = draw(st.lists(st.text(min_size=1, max_size=4), max_size=7,
                               unique=True))
        n = len(labels)
        cells = st.integers(0, 60) | st.integers(-3, 3) | st.floats(
            -1e6, 1e6, allow_nan=False)
        grid = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n)),
                        dtype=np.float64).reshape(n, n)
    else:
        labels, n = INV.symbols, len(INV)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        grid = rng.poisson(draw(st.sampled_from([0.1, 1.0, 20.0])), size=(n, n))
        grid = grid - draw(st.sampled_from([0, 2]))   # negatives clamp to 0
    if n and draw(st.booleans()):
        grid[draw(st.integers(0, n - 1))] = 0   # an empty row
    return labels, grid


@settings(max_examples=200, deadline=None)
@given(labelled_grids(), st.booleans())
@example(([], np.zeros((0, 0))), True)
@example(([], np.zeros((0, 0))), False)
@example((["<eps>"], np.array([[5.0]])), True)
@example((["a&b", "é"], np.array([[-1.0, -2.0], [0.0, 0.0]])), True)
@example((["a&b", "é"], np.array([[-1.0, 3.0], [7.0, -0.5]])), False)
@example((INV.symbols, np.zeros((40, 40))), True)
@example((INV.symbols, np.zeros((40, 40))), False)
def test_svg_heatmap_matches_per_cell_reference(case, per_row):
    labels, grid = case
    assert svg_heatmap(grid, labels, per_row) == reference_svg_heatmap(
        grid, labels, per_row)
