"""Per-speaker confusion matrices and recognition/substitution metrics.

Rows are the expected (target) symbol, columns the observed symbol.
Insertions live in the epsilon row, deletions in the epsilon column, so
each non-epsilon row sums to the number of times that phoneme occurred
in the aligned expected sequences. Rates are kept as count pairs and
formatted to one-decimal percent only at report time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import gridcsv
from .alignment import Alignment
from .errors import ParseError, UndefinedRateError, ValidationError
from .inventory import PhonemeInventory


class ConfusionMatrix:
    def __init__(self, inventory: PhonemeInventory, counts: np.ndarray | None = None):
        n = len(inventory)
        if counts is None:
            counts = np.zeros((n, n), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (n, n):
                raise ValidationError(
                    f"count grid shape {counts.shape} does not match inventory size {n}"
                )
            if (counts < 0).any():
                raise ValidationError("negative confusion count")
        eps = inventory.epsilon_index
        if counts[eps, eps] != 0:
            raise ValidationError("(eps, eps) count must be zero")
        self.inventory = inventory
        self.counts = counts

    def copy(self) -> "ConfusionMatrix":
        return ConfusionMatrix(self.inventory, self.counts.copy())

    def row_sum(self, target: int) -> int:
        return int(self.counts[target].sum())

    def mass(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConfusionMatrix)
            and self.inventory == other.inventory
            and np.array_equal(self.counts, other.counts)
        )

    def to_csv(self) -> str:
        return gridcsv.serialize_grid(self.counts, self.inventory, integer=True)

    @classmethod
    def from_csv(cls, text: str, inventory: PhonemeInventory,
                 source=None) -> "ConfusionMatrix":
        grid = gridcsv.parse_grid(text, inventory, integer=True, source=source)
        try:
            return cls(inventory, grid)
        except ValidationError as exc:
            raise ParseError(str(exc), source=source) from exc


@dataclass
class SpeakerProfile:
    speaker_id: str
    matrix: ConfusionMatrix
    l1_label: str | None = None
    utterance_count: int = 0

    def to_json(self) -> str:
        """The text of json.dumps(doc, indent=2, sort_keys=True) + "\\n", with
        the count grid written by joins: the stdlib's indenting encoder is
        pure Python and spends a millisecond on a 40 x 40 grid."""
        rows = ",\n    ".join(
            "[\n      " + ",\n      ".join(map(str, row)) + "\n    ]"
            for row in self.matrix.counts.tolist()
        )
        return (
            f'{{\n  "counts": [\n    {rows}\n  ],\n'
            f'  "l1_label": {json.dumps(self.l1_label)},\n'
            f'  "speaker_id": {json.dumps(self.speaker_id)},\n'
            f'  "utterance_count": {json.dumps(self.utterance_count)}\n}}\n'
        )

    @classmethod
    def from_json(cls, text: str, inventory: PhonemeInventory,
                  source=None) -> "SpeakerProfile":
        try:
            doc = json.loads(text)
            matrix = ConfusionMatrix(inventory, np.asarray(doc["counts"]))
            return cls(
                speaker_id=doc["speaker_id"],
                matrix=matrix,
                l1_label=doc.get("l1_label"),
                utterance_count=int(doc["utterance_count"]),
            )
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise ParseError(f"bad profile JSON: {exc}", source=source) from exc


def accumulate(profile: SpeakerProfile, alignment: Alignment) -> SpeakerProfile:
    """Add one utterance's edit ops into the profile (mutates and returns it).

    A profile must not be updated from two workers simultaneously.
    """
    np.add.at(profile.matrix.counts, (alignment.expected, alignment.observed), 1)
    profile.utterance_count += 1
    return profile


def _require_row(matrix: ConfusionMatrix, target) -> int:
    inv = matrix.inventory
    t = inv.index(target) if isinstance(target, str) else int(target)
    if inv.is_epsilon(t):
        raise ValidationError("epsilon has no recognition rate")
    if matrix.row_sum(t) == 0:
        raise UndefinedRateError(
            f"target {inv.label(t)} never occurred (row sum 0)"
        )
    return t


def recognition_rate(matrix: ConfusionMatrix, target) -> float:
    """Fraction of the target's occurrences observed as itself."""
    t = _require_row(matrix, target)
    return int(matrix.counts[t, t]) / matrix.row_sum(t)


@dataclass(frozen=True)
class Substitute:
    """One observed substitute for a target, with its exact count pair."""

    symbol: int
    count: int
    occurrences: int

    @property
    def rate(self) -> float:
        return self.count / self.occurrences


def most_common_substitute(matrix: ConfusionMatrix, target,
                           include_deletion: bool = False) -> Substitute | None:
    """Argmax off-diagonal cell of the target row; ties to lowest index.

    The epsilon (deletion) column is excluded unless include_deletion.
    Returns None when every off-diagonal count is zero.
    """
    t = _require_row(matrix, target)
    eps = matrix.inventory.epsilon_index
    row = matrix.counts[t]
    total = matrix.row_sum(t)
    best = None
    for c, count in enumerate(row):
        if c == t:
            continue
        if c == eps and not include_deletion:
            continue
        if count > 0 and (best is None or count > row[best]):
            best = c
    if best is None:
        return None
    return Substitute(best, int(row[best]), total)


@dataclass
class PhonemeStats:
    """Everything reported about one target phoneme."""

    target: int
    occurrences: int
    correct: int
    substitutes: list[Substitute] = field(default_factory=list)

    @property
    def recognition_rate(self) -> float:
        return self.correct / self.occurrences


def phoneme_stats(matrix: ConfusionMatrix, target) -> PhonemeStats:
    """Target row broken out: diagonal plus substitutes sorted by count desc."""
    t = _require_row(matrix, target)
    row = matrix.counts[t]
    total = matrix.row_sum(t)
    subs = [
        Substitute(c, int(count), total)
        for c, count in enumerate(row)
        if c != t and count > 0
    ]
    subs.sort(key=lambda s: (-s.count, s.symbol))
    return PhonemeStats(t, total, int(row[t]), subs)


def merge(a: ConfusionMatrix, b: ConfusionMatrix) -> ConfusionMatrix:
    """Elementwise sum; both operands must share one inventory."""
    if a.inventory != b.inventory:
        raise ValidationError("cannot merge matrices over different inventories")
    return ConfusionMatrix(a.inventory, a.counts + b.counts)


def insertion_stats(matrix: ConfusionMatrix) -> list[tuple[int, int]]:
    """Nonzero epsilon-row counts as (symbol, count), count descending."""
    eps = matrix.inventory.epsilon_index
    row = matrix.counts[eps]
    pairs = [(c, int(count)) for c, count in enumerate(row) if count > 0]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs


def format_percent(count: int, total: int) -> str:
    """One-decimal percent from the exact count pair (half rounds up)."""
    if total <= 0:
        raise ValidationError("percent of an empty total")
    tenths, rem = divmod(count * 1000, total)
    if 2 * rem >= total:
        tenths += 1
    return f"{tenths // 10}.{tenths % 10}%"
