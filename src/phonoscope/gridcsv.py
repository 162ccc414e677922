"""Shared reader/writer for labelled-grid CSV files.

Cost matrices and confusion matrices use the same layout: a header row
and header column of inventory labels (``<eps>`` included), corner cell
blank. Labels may appear in any order but must cover the inventory
exactly; the parsed grid is returned in inventory order.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import ParseError, ValidationError
from .inventory import PhonemeInventory


def parse_grid(text: str, inventory: PhonemeInventory, *, integer=False,
               source=None) -> np.ndarray:
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:   # e.g. a field over csv's size limit
        raise ParseError(f"bad CSV: {exc}", source=source) from None
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if not rows:
        raise ParseError("empty grid", source=source)
    n = len(inventory)

    header = [cell.strip() for cell in rows[0][1:]]
    _check_labels(header, inventory, "column", source)
    col_for = [inventory.index(lab) for lab in header]

    dtype = np.int64 if integer else np.float64
    grid = np.zeros((n, n), dtype=dtype)
    seen_rows = []
    for lineno, row in enumerate(rows[1:], start=2):
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
                grid[r, c] = int(cell) if integer else float(cell)
            except (ValueError, OverflowError):   # OverflowError: beyond int64
                raise ParseError(
                    f"bad numeric value {cell!r} in row {label!r}",
                    line=lineno, source=source,
                ) from None
    _check_labels(seen_rows, inventory, "row", source)
    return grid


def _check_labels(labels, inventory, axis, source):
    seen = set()
    for lab in labels:
        if lab not in inventory:
            raise ParseError(f"unknown {axis} label {lab!r}", source=source)
        if lab in seen:
            raise ParseError(f"duplicate {axis} label {lab!r}", source=source)
        seen.add(lab)
    missing = [s for s in inventory.symbols if s not in seen]
    if missing:
        raise ParseError(
            f"missing {axis} label {missing[0]!r}"
            + (f" (+{len(missing) - 1} more)" if len(missing) > 1 else ""),
            source=source,
        )


def serialize_grid(grid: np.ndarray, inventory: PhonemeInventory, *,
                   integer=False) -> str:
    """Write a grid in inventory order. Floats use repr so values round-trip;
    integer=True takes a grid of an integer dtype."""
    if integer:
        grid = np.asarray(grid)
        if grid.dtype.kind not in "iu":
            raise ValidationError(f"integer grid expected, not {grid.dtype}")
        rows = grid.tolist()
        fmt = str
    else:
        rows = np.asarray(grid, dtype=np.float64).tolist()
        fmt = _fmt_float
    out = ["," + ",".join(inventory.symbols)]
    for label, row in zip(inventory.symbols, rows, strict=True):
        out.append(label + "," + ",".join(map(fmt, row)))
    return "\n".join(out) + "\n"


def _fmt_float(v: float) -> str:
    return str(int(v)) if v == int(v) else repr(v)
