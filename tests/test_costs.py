import numpy as np
import pytest

from phonoscope import CostMatrix, ParseError, ValidationError, align, parse_cost_matrix
from phonoscope.inventory import EPSILON


def test_uniform_matrix(inv, uniform):
    assert uniform.cost(0, 0) == 0.0
    assert uniform.cost(0, 1) == 1.0
    assert uniform.cost(inv.index("HH"), inv.epsilon_index) == 1.0


def test_csv_roundtrip(inv, weighted):
    reparsed = parse_cost_matrix(weighted.to_csv(), inv)
    assert reparsed == weighted


def test_parse_uniform_grid(inv, uniform):
    assert parse_cost_matrix(uniform.to_csv(), inv) == uniform


def test_labels_any_order(inv, weighted):
    lines = weighted.to_csv().splitlines()
    # swap two data rows; coverage is still exact so parsing must succeed
    lines[1], lines[5] = lines[5], lines[1]
    assert parse_cost_matrix("\n".join(lines), inv) == weighted


def test_missing_row_names_label(inv, uniform):
    lines = [l for l in uniform.to_csv().splitlines() if not l.startswith("ZH,")]
    with pytest.raises(ParseError, match="ZH"):
        parse_cost_matrix("\n".join(lines), inv)


def test_duplicate_row_named(inv, uniform):
    lines = uniform.to_csv().splitlines()
    zh = next(l for l in lines if l.startswith("ZH,"))
    aa = next(i for i, l in enumerate(lines) if l.startswith("AA,"))
    lines[aa] = zh
    with pytest.raises(ParseError, match="ZH"):
        parse_cost_matrix("\n".join(lines), inv)


def test_negative_entry_rejected(inv):
    grid = np.ones((40, 40))
    np.fill_diagonal(grid, 0.0)
    grid[2, 3] = -0.1
    with pytest.raises(ValidationError, match="negative"):
        CostMatrix(inv, grid)


@pytest.mark.parametrize("cell", [("AH", "IH"), ("T", "<eps>"), ("<eps>", "T"),
                                  ("AA", "AA")])
def test_nan_entry_rejected_naming_the_cell(inv, cell):
    grid = np.ones((40, 40))
    np.fill_diagonal(grid, 0.0)
    grid[inv.index(cell[0]), inv.index(cell[1])] = np.nan
    with pytest.raises(ValidationError, match=rf"NaN cost at \({cell[0]}, {cell[1]}\)"):
        CostMatrix(inv, grid)


def test_inf_entry_allowed(inv):
    grid = np.ones((40, 40))
    np.fill_diagonal(grid, 0.0)
    ah, ih = inv.index("AH"), inv.index("IH")
    grid[ah, ih] = np.inf
    costs = CostMatrix(inv, grid)
    assert costs.cost(ah, ih) == np.inf
    # the infinite substitution is avoided by a deletion and an insertion
    assert align([ah], [ih], costs).total_cost == 2.0


def test_inf_cost_round_trips_through_csv(inv):
    grid = np.ones((40, 40))
    np.fill_diagonal(grid, 0.0)
    ah, ih = inv.index("AH"), inv.index("IH")
    grid[ah, ih] = np.inf
    grid[ih, ah] = 0.5
    costs = CostMatrix(inv, grid)
    text = costs.to_csv()
    assert ",inf," in text and ",0.5," in text
    assert parse_cost_matrix(text, inv) == costs


def test_nonzero_diagonal_rejected(inv):
    grid = np.ones((40, 40))
    np.fill_diagonal(grid, 0.0)
    grid[4, 4] = 0.5
    with pytest.raises(ValidationError, match="diagonal"):
        CostMatrix(inv, grid)


def test_asymmetric_deletion_costs_accepted(inv):
    grid = np.ones((40, 40))
    np.fill_diagonal(grid, 0.0)
    eps = inv.epsilon_index
    grid[inv.index("HH"), eps] = 0.2
    grid[inv.index("IH"), eps] = 0.9
    m = CostMatrix(inv, grid)
    assert m.cost(inv.index("HH"), eps) == 0.2
    assert m.cost(inv.index("IH"), eps) == 0.9


def test_eps_eps_stored_as_zero(inv):
    grid = np.ones((40, 40))
    np.fill_diagonal(grid, 0.0)
    eps = inv.epsilon_index
    grid[eps, eps] = 7.5
    assert CostMatrix(inv, grid).cost(eps, eps) == 0.0


def test_bad_numeric_cell(inv, uniform):
    text = uniform.to_csv().replace("AA,0,", "AA,zero,", 1)
    with pytest.raises(ParseError, match="zero"):
        parse_cost_matrix(text, inv)


def test_unknown_label_rejected(inv, uniform):
    text = uniform.to_csv().replace("\nZH,", "\nQX,", 1)
    with pytest.raises(ParseError):
        parse_cost_matrix(text, inv)


def test_header_includes_epsilon(inv, uniform):
    assert EPSILON in uniform.to_csv().splitlines()[0]


def test_wrong_shape_rejected(inv):
    with pytest.raises(ValidationError):
        CostMatrix(inv, np.zeros((39, 39)))
