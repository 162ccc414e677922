"""Dependency-free SVG heatmaps for confusion and cost grids.

Cells darken linearly from white at 0 to black at the scale maximum:
per-row maxima for confusion counts (each target row reads on its own
scale), the global maximum for cost grids. Output is deterministic byte
for byte given identical input, which keeps it diffable in tests.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ValidationError

CELL = 14
MARGIN_LEFT = 46
MARGIN_TOP = 46
FONT = 9


# Each cell's line is its position prefix plus one of 256 fills, one per
# shade level; level 255 is white, 0 black.
_FILLS = tuple(
    f'#{level:02x}{level:02x}{level:02x}" stroke="#dddddd" stroke-width="0.5"/>'
    for level in range(256)
)


@lru_cache(maxsize=8)
def _cell_prefixes(n: int) -> tuple[str, ...]:
    """The text before the fill of each cell of an n x n grid, row-major."""
    return tuple(
        f'<rect x="{MARGIN_LEFT + c * CELL}" y="{MARGIN_TOP + r * CELL}" '
        f'width="{CELL}" height="{CELL}" fill="'
        for r in range(n) for c in range(n)
    )


def _levels(grid: np.ndarray, per_row: bool) -> np.ndarray:
    """Shade level of every cell: 255 - round(255 * value / denom), the
    fraction clamped to [0, 1] and 0 where denom <= 0. np.rint rounds half
    to even, as round() does. A NaN or +inf in a cell's scale has no shade."""
    if per_row:
        denom = grid.max(axis=1, initial=-np.inf)[:, None]
    else:
        denom = grid.max() if grid.size else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(denom <= 0, 0.0, np.clip(grid / denom, 0.0, 1.0))
    if np.isnan(frac).any():
        raise ValidationError("cannot shade a grid with NaN or infinite values")
    return 255 - np.rint(255 * frac).astype(np.int64)


def svg_heatmap(grid, labels, per_row: bool = True) -> str:
    """Render a labelled square grid; per_row picks the scaling denominator."""
    grid = np.asarray(grid, dtype=np.float64)
    n = len(labels)
    if grid.shape != (n, n):
        raise ValidationError(f"grid shape {grid.shape} does not match {n} labels")
    width = MARGIN_LEFT + n * CELL + 1
    height = MARGIN_TOP + n * CELL + 1

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
    out += [prefix + _FILLS[level] for prefix, level
            in zip(_cell_prefixes(n), _levels(grid, per_row).ravel().tolist())]
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
