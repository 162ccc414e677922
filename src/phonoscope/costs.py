"""Edit-operation cost matrices driving the weighted alignment.

Rows are the expected symbol, columns the observed symbol. The epsilon
row holds insertion costs, the epsilon column deletion costs. Matrices
need not be symmetric; the diagonal must be zero for real phonemes and
the (eps, eps) entry is unused and stored as zero. Entries must be
non-negative and not NaN; +inf is allowed.
"""

from __future__ import annotations

import numpy as np

from . import gridcsv
from .errors import ParseError, ValidationError, read_input
from .inventory import PhonemeInventory


class CostMatrix:
    def __init__(self, inventory: PhonemeInventory, costs: np.ndarray):
        n = len(inventory)
        costs = np.asarray(costs, dtype=np.float64)
        if costs.shape != (n, n):
            raise ValidationError(
                f"cost grid shape {costs.shape} does not match inventory size {n}"
            )
        self.inventory = inventory
        self.costs = np.ascontiguousarray(costs)
        self._rows = None  # lazy list-of-lists view for the pure kernel
        self._validate()

    def _validate(self):
        eps = self.inventory.epsilon_index
        # the DP's ties are exact float equalities: +inf == +inf keeps them
        # sound, but NaN equals nothing, not even itself
        for bad, what in ((np.isnan(self.costs), "NaN"), (self.costs < 0, "negative")):
            cells = np.argwhere(bad)
            if len(cells):
                r, c = cells[0]
                raise ValidationError(
                    f"{what} cost at ({self.inventory.label(r)}, "
                    f"{self.inventory.label(c)})"
                )
        diag = np.diagonal(self.costs)
        for i, v in enumerate(diag):
            if i != eps and v != 0.0:
                raise ValidationError(
                    f"nonzero diagonal cost for {self.inventory.label(i)}"
                )
        # (eps, eps) is meaningless; normalize so equality checks behave
        self.costs[eps, eps] = 0.0

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
