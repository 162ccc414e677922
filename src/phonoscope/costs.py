"""Edit-operation cost matrices driving the weighted alignment.

Rows are the expected symbol, columns the observed symbol. The epsilon
row holds insertion costs, the epsilon column deletion costs. Matrices
need not be symmetric; the diagonal must be zero for real phonemes and
the (eps, eps) entry is unused and stored as zero. Entries must be
non-negative and not NaN; +inf is allowed.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gridcsv
from .errors import ParseError, ValidationError, read_input
from .inventory import PhonemeInventory

MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"
KINDS = (MATCH, SUBSTITUTE, DELETE, INSERT)  # cell_kinds indexes this


@functools.lru_cache(maxsize=8)
def cell_kinds(inventory) -> np.ndarray:
    """Each (expected, observed) cell's op kind as an index into KINDS:
    match on the diagonal, substitute elsewhere, delete and insert as in
    the module docstring, -1 at (eps, eps). Read-only; one per inventory."""
    eps = inventory.epsilon_index
    kinds = np.ones((len(inventory),) * 2, dtype=np.int8)
    np.fill_diagonal(kinds, 0)
    kinds[:, eps] = 2
    kinds[eps, :] = 3
    kinds[eps, eps] = -1
    kinds.flags.writeable = False
    return kinds


class CostMatrix:
    """A cost grid over an inventory; ``costs`` is a validated, read-only
    private copy of the grid passed in."""

    def __init__(self, inventory: PhonemeInventory, costs: np.ndarray):
        n = len(inventory)
        costs = np.array(costs, dtype=np.float64, order="C")
        if costs.shape != (n, n):
            raise ValidationError(
                f"cost grid shape {costs.shape} does not match inventory size {n}"
            )
        self.inventory = inventory
        self._rows = None  # lazy list-of-lists view, for lines, tests and perfbench's oracle
        # the DP's ties are exact float equalities: +inf == +inf keeps them
        # sound, but NaN equals nothing, not even itself
        for bad, what in ((np.isnan(costs), "NaN"), (costs < 0, "negative")):
            if bad.any():
                r, c = np.unravel_index(bad.argmax(), bad.shape)
                raise ValidationError(
                    f"{what} cost at ({inventory.label(r)}, {inventory.label(c)})")
        # (eps, eps) is meaningless; normalize so equality checks behave
        costs[inventory.epsilon_index, inventory.epsilon_index] = 0.0
        nonzero = np.flatnonzero(np.diagonal(costs))
        if len(nonzero):
            raise ValidationError(f"nonzero diagonal cost for {inventory.label(nonzero[0])}")
        costs.flags.writeable = False
        self.costs = costs

    @classmethod
    def uniform(cls, inventory: PhonemeInventory, weight: float = 1.0) -> "CostMatrix":
        """Levenshtein costs: every edit costs `weight`, matches cost 0."""
        n = len(inventory)
        costs = np.full((n, n), float(weight))
        np.fill_diagonal(costs, 0.0)
        return cls(inventory, costs)

    def cost(self, expected: int, observed: int) -> float:
        return float(self.costs[expected, observed])

    def rows(self) -> list[list[float]]:
        if self._rows is None:
            self._rows = self.costs.tolist()
        return self._rows

    @functools.cached_property
    def lines(self) -> tuple[str, ...]:
        """Each cell's alignment dump line, row-major:
        expected<TAB>observed<TAB>kind<TAB>cost. No op has the (eps, eps) cell."""
        symbols, kinds = self.inventory.symbols, cell_kinds(self.inventory).tolist()
        return tuple(f"{a}\t{b}\t{KINDS[k]}\t{cost!r}\n"
                     for a, row_kinds, row in zip(symbols, kinds, self.rows())
                     for b, k, cost in zip(symbols, row_kinds, row))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CostMatrix)
            and self.inventory == other.inventory
            and np.array_equal(self.costs, other.costs)
        )

    def to_csv(self) -> str:
        return gridcsv.serialize_grid(self.costs, self.inventory)


def parse_cost_matrix(text: str, inventory: PhonemeInventory | None = None,
                      source=None) -> CostMatrix:
    """Parse a labelled cost grid; labels must cover the inventory exactly."""
    if inventory is None:
        inventory = PhonemeInventory.default()
    grid = gridcsv.parse_grid(text, inventory, source=source)
    try:
        return CostMatrix(inventory, grid)
    except ValidationError as exc:
        raise ParseError(str(exc), source=source) from exc


def load_cost_matrix(path, inventory: PhonemeInventory | None = None) -> CostMatrix:
    return parse_cost_matrix(read_input(path), inventory, source=path)
