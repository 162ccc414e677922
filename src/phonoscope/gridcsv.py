"""Reader/writer for labelled float-grid CSV files (cost matrices).

The layout is a header row and header column of inventory labels
(``<eps>`` included), corner cell blank. Labels may appear in any order
but must cover the inventory exactly; the parsed grid is returned in
inventory order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError, csv_records
from .inventory import PhonemeInventory


def parse_grid(text: str, inventory: PhonemeInventory, *, source=None) -> np.ndarray:
    records = csv_records(text, source)
    header_line, header = next(records, (None, None))
    if header is None:
        raise ParseError("empty grid", source=source)
    n = len(inventory)

    header = [cell.strip() for cell in header[1:]]
    _check_labels(header, inventory, "column", source, header_line)
    col_for = [inventory.index(lab) for lab in header]

    grid = np.zeros((n, n), dtype=np.float64)
    seen_rows = []
    for lineno, row in records:
        label = row[0].strip()
        if label not in inventory:
            raise ParseError(f"unknown row label {label!r}", line=lineno, source=source)
        if label in seen_rows:
            raise ParseError(f"duplicate row label {label!r}", line=lineno,
                             source=source)
        seen_rows.append(label)
        values = row[1:]
        if len(values) != n:
            raise ParseError(
                f"row {label!r} has {len(values)} values, expected {n}",
                line=lineno, source=source,
            )
        r = inventory.index(label)
        for cell, c in zip(values, col_for):
            cell = cell.strip()
            try:
                grid[r, c] = float(cell)
            except ValueError:
                raise ParseError(
                    f"bad numeric value {cell!r} in row {label!r}",
                    line=lineno, source=source,
                ) from None
    _check_labels(seen_rows, inventory, "row", source)
    return grid


def _check_labels(labels, inventory, axis, source, line=None):
    seen = set()
    for lab in labels:
        if lab not in inventory:
            raise ParseError(f"unknown {axis} label {lab!r}", line=line, source=source)
        if lab in seen:
            raise ParseError(f"duplicate {axis} label {lab!r}", line=line,
                             source=source)
        seen.add(lab)
    missing = [s for s in inventory.symbols if s not in seen]
    if missing:
        raise ParseError(
            f"missing {axis} label {missing[0]!r}"
            + (f" (+{len(missing) - 1} more)" if len(missing) > 1 else ""),
            line=line, source=source,
        )


def serialize_grid(grid: np.ndarray, inventory: PhonemeInventory) -> str:
    """Write a grid in inventory order. Floats use repr so values round-trip."""
    rows = np.asarray(grid, dtype=np.float64).tolist()
    out = ["," + ",".join(inventory.symbols)]
    for label, row in zip(inventory.symbols, rows, strict=True):
        out.append(label + "," + ",".join(map(_fmt_float, row)))
    return "\n".join(out) + "\n"


def _fmt_float(v: float) -> str:
    # int() would drop the sign of -0.0
    return str(int(v)) if v.is_integer() and (v or math.copysign(1.0, v) > 0) else repr(v)
