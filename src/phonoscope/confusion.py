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


@dataclass
class SpeakerProfile:
    speaker_id: str
    matrix: ConfusionMatrix
    l1_label: str | None = None
    utterance_count: int = 0

    def to_json(self) -> str:
        """JSON with sorted keys and each row of counts on one line."""
        rows = ",\n    ".join(f"[{', '.join(map(str, row))}]"
                               for row in self.matrix.counts.tolist())
        return (
            f'{{\n  "counts": [\n    {rows}\n  ],\n'
            f'  "l1_label": {json.dumps(self.l1_label)},\n'
            f'  "speaker_id": {json.dumps(self.speaker_id)},\n'
            f'  "utterance_count": {json.dumps(self.utterance_count)}\n}}\n'
        )

    @classmethod
    def from_json(cls, text: str, inventory: PhonemeInventory,
                  source=None) -> "SpeakerProfile":
        """speaker_id must be a string, l1_label a string or null, and each
        count and utterance_count a JSON integer in 0 .. 2**63 - 1."""
        try:
            doc = json.loads(text)
            sid, counts, utterances = (doc["speaker_id"], doc["counts"],
                                       doc["utterance_count"])
            l1_label = doc.get("l1_label")
            if not isinstance(sid, str) or not isinstance(l1_label, (str, type(None))):
                raise ValueError("speaker_id must be a string and l1_label a "
                                 "string or null")
            if not (_is_count(utterances) and isinstance(counts, list) and all(
                    isinstance(row, list) and all(map(_is_count, row))
                    for row in counts)):
                raise ValueError("counts and utterance_count must be JSON integers "
                                 "in 0 .. 2**63 - 1")
            matrix = ConfusionMatrix(inventory, np.asarray(counts, dtype=np.int64))
        # RecursionError: nesting too deep for the decoder
        except (KeyError, TypeError, ValueError, RecursionError,
                ValidationError) as exc:
            raise ParseError(f"bad profile JSON: {exc}", source=source) from exc
        return cls(sid, matrix, l1_label, utterances)


def _is_count(value) -> bool:
    """A JSON integer (not a bool or a float) that fits a non-negative int64."""
    return type(value) is int and 0 <= value < 2**63


def accumulate(profile: SpeakerProfile, alignment: Alignment) -> SpeakerProfile:
    """Add one utterance's op counts, ``alignment.counts()``, into the
    profile (mutates and returns it); run takes each speaker's counts the
    same way from its SpeakerAlignment. Raises ValidationError when the
    alignment's cost grid is over another inventory than the profile.

    A profile must not be updated from two workers simultaneously.
    """
    if alignment.cost_matrix.inventory != profile.matrix.inventory:
        raise ValidationError("cannot accumulate an alignment over a different inventory")
    profile.matrix.counts += alignment.counts()
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
    return phoneme_stats(matrix, target).most_common_substitute(
        matrix.inventory.epsilon_index, include_deletion)


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

    def most_common_substitute(self, epsilon: int,
                               include_deletion: bool = False) -> Substitute | None:
        """The most common substitute (MCS): the first of substitutes, which
        are sorted by count and then symbol, skipping the deletion (the
        epsilon column) unless include_deletion."""
        return next((s for s in self.substitutes
                     if include_deletion or s.symbol != epsilon), None)


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
