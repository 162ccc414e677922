"""Human phoneme-level annotations and the ASR-vs-annotator comparison.

The canonical input is a neutral CSV (header
``utterance,position,target,observed,kind``, epsilon spelled ``<eps>``).
Praat TextGrids are ingested through an adapter with one fixed label
rule (decode_label); labels that do not match it are skipped and listed
in ``parse_textgrid(...).skipped``. The run and compare subcommands name
them in one note per file on stderr.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .confusion import ConfusionMatrix, PhonemeStats, format_percent, phoneme_stats
from .costs import cell_kinds
from .errors import ParseError, ValidationError, csv_records, read_input
from .inventory import EPSILON, PhonemeInventory
from .textgrid import parse_textgrid_file

CORRECT = "correct"
SUBSTITUTION = "substitution"
DELETION = "deletion"
INSERTION = "insertion"
KINDS = (CORRECT, SUBSTITUTION, DELETION, INSERTION)  # costs.KINDS' order: cell_kinds indexes both

# compare()'s defaults; RunConfig refers to these.
DEFAULT_TOP_K = 3
DEFAULT_MIN_OCCURRENCES = 20


@dataclass(frozen=True)
class AnnotationRecord:
    utterance_id: str
    position: int
    target: int
    observed: int
    kind: str


def _kind_error(kind: str, target: int, observed: int,
                inventory: PhonemeInventory) -> str | None:
    """Return a message unless kind is the kind of the (target, observed) cell."""
    if kind not in KINDS:
        return f"unknown kind {kind!r}"
    if not (0 <= target < len(inventory) and 0 <= observed < len(inventory)):
        return f"target {target} or observed {observed} outside the inventory"
    cell = int(cell_kinds(inventory)[target, observed])
    if KINDS.index(kind) != cell:
        found = KINDS[cell] if cell >= 0 else "no op"
        return (f"{kind} does not fit target {inventory.label(target)}, "
                f"observed {inventory.label(observed)} ({found})")
    return None


@dataclass
class AnnotationSet:
    speaker_id: str
    records: list[AnnotationRecord] = field(default_factory=list)

    def validate(self, inventory: PhonemeInventory) -> None:
        last_position: dict[str, int] = {}
        for rec in self.records:
            msg = _kind_error(rec.kind, rec.target, rec.observed, inventory)
            if msg:
                raise ValidationError(f"record {rec}: {msg}")
            prev = last_position.get(rec.utterance_id)
            if prev is not None and rec.position < prev:
                raise ValidationError(
                    f"positions decrease within utterance {rec.utterance_id!r}"
                )
            last_position[rec.utterance_id] = rec.position


_CSV_HEADER = ["utterance", "position", "target", "observed", "kind"]


def parse_annotation_csv(text: str, inventory: PhonemeInventory | None = None,
                         speaker_id: str = "", source=None) -> AnnotationSet:
    if inventory is None:
        inventory = PhonemeInventory.default()
    rows = csv_records(text, source)
    line, header = next(rows, (1, []))
    if [c.strip() for c in header] != _CSV_HEADER:
        raise ParseError(
            f"expected header {','.join(_CSV_HEADER)!r}", line=line, source=source
        )
    records = []
    last_position: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) != 5:
            raise ParseError(f"expected 5 fields, got {len(row)}",
                             line=lineno, source=source)
        utt, pos_s, target_s, observed_s, kind = [c.strip() for c in row]
        if not (pos_s.isascii() and pos_s.isdigit()):
            raise ParseError(f"bad position {pos_s!r}: expected ASCII digits",
                             line=lineno, source=source)
        position = int(pos_s)
        try:
            target = inventory.index(target_s)
            observed = inventory.index(observed_s)
        except ValidationError as exc:
            raise ParseError(str(exc), line=lineno, source=source) from None
        msg = _kind_error(kind, target, observed, inventory)
        if msg:
            raise ParseError(msg, line=lineno, source=source)
        if position < last_position.get(utt, position):
            raise ParseError(f"positions decrease within utterance {utt!r}",
                             line=lineno, source=source)
        last_position[utt] = position
        records.append(AnnotationRecord(utt, position, target, observed, kind))
    return AnnotationSet(speaker_id, records)


def serialize_annotation_csv(aset: AnnotationSet,
                             inventory: PhonemeInventory) -> str:
    lines = [",".join(_CSV_HEADER)]
    for rec in aset.records:
        lines.append(
            f"{rec.utterance_id},{rec.position},"
            f"{inventory.label(rec.target)},{inventory.label(rec.observed)},"
            f"{rec.kind}"
        )
    return "\n".join(lines) + "\n"


def load_annotation_csv(path, inventory: PhonemeInventory | None = None) -> AnnotationSet:
    return parse_annotation_csv(read_input(path), inventory, source=path)


# TextGrid interval labels: a bare label marks a correctly realized phoneme;
# otherwise the label is target,observed,code with one of KIND_CODES. The
# observed field of a deletion and the target field of an insertion may be
# empty or <eps>.
LABEL_SEPARATOR = ","
KIND_CODES = {"s": SUBSTITUTION, "d": DELETION, "i": INSERTION}


def decode_label(label: str, inventory: PhonemeInventory):
    """(target, observed, kind) indices, or a reason string on mismatch."""
    parts = [p.strip() for p in label.split(LABEL_SEPARATOR)]
    if len(parts) == 1:
        sym = parts[0]
        if sym not in inventory or sym == EPSILON:
            return f"unknown phoneme {sym!r}"
        idx = inventory.index(sym)
        return idx, idx, CORRECT
    if len(parts) != 3:
        return f"expected 1 or 3 fields, got {len(parts)}"
    target_s, observed_s, code = parts
    kind = KIND_CODES.get(code)
    if kind is None:
        return f"unknown kind code {code!r}"
    target_s = target_s or EPSILON
    observed_s = observed_s or EPSILON
    if target_s not in inventory:
        return f"unknown phoneme {target_s!r}"
    if observed_s not in inventory:
        return f"unknown phoneme {observed_s!r}"
    target = inventory.index(target_s)
    observed = inventory.index(observed_s)
    msg = _kind_error(kind, target, observed, inventory)
    if msg:
        return msg
    return target, observed, kind


@dataclass
class SkippedLabel:
    position: int
    label: str
    reason: str


@dataclass
class TextGridAnnotations:
    annotations: AnnotationSet
    skipped: list[SkippedLabel] = field(default_factory=list)


def parse_textgrid(text: str, tier_name: str,
                   inventory: PhonemeInventory | None = None,
                   source=None) -> TextGridAnnotations:
    """Read the first TextGrid tier named tier_name.

    Positions follow interval order, and a point tier gives no records.
    Blank intervals are ignored; non-blank labels decode_label cannot
    decode are skipped and reported.
    """
    if inventory is None:
        inventory = PhonemeInventory.default()
    tiers = parse_textgrid_file(text, source)
    texts = next((texts for name, texts in tiers if name == tier_name), None)
    if texts is None:
        available = ", ".join(repr(name) for name, _ in tiers) or "(none)"
        raise ParseError(f"no tier named {tier_name!r}; available tiers: {available}",
                         source=source)
    records = []
    skipped = []
    for position, label in enumerate(map(str.strip, texts)):
        if not label:
            continue
        decoded = decode_label(label, inventory)
        if isinstance(decoded, str):
            skipped.append(SkippedLabel(position, label, decoded))
        else:
            records.append(AnnotationRecord("", position, *decoded))
    return TextGridAnnotations(AnnotationSet("", records), skipped)


def annotations_to_confusion(aset: AnnotationSet,
                             inventory: PhonemeInventory) -> ConfusionMatrix:
    """Map records onto matrix cells; total records = total matrix mass."""
    aset.validate(inventory)
    matrix = ConfusionMatrix(inventory)
    cells = np.array([(r.target, r.observed) for r in aset.records],
                     dtype=np.intp).reshape(-1, 2)
    np.add.at(matrix.counts, tuple(cells.T), 1)
    return matrix


@dataclass
class ComparisonRow:
    """One target's stats on each side; None where it never occurred."""

    target: int
    asr: PhonemeStats | None
    ha: PhonemeStats | None


@dataclass
class ComparisonTable:
    inventory: PhonemeInventory
    rows: list[ComparisonRow] = field(default_factory=list)

    _COLUMNS = (
        "target",
        "recognition_rate_asr", "recognition_rate_ha",
        "mcs_asr", "mcs_ha",
        "mcs_rate_asr", "mcs_rate_ha",
    )

    def _cells(self, row: ComparisonRow, undefined: str) -> list[str]:
        """Target, then per side: recognition rate, MCS and MCS rate.

        The most common substitute (MCS) is the first substitute that is
        not a deletion; "none" when the target was never substituted.
        """
        inv = self.inventory
        sides = []
        for stats in (row.asr, row.ha):
            if stats is None:
                sides.append((undefined,) * 3)
                continue
            mcs = stats.most_common_substitute(inv.epsilon_index)
            sides.append((
                format_percent(stats.correct, stats.occurrences),
                inv.label(mcs.symbol) if mcs else "none",
                format_percent(mcs.count, mcs.occurrences) if mcs else "none",
            ))
        return [inv.label(row.target), *(cell for pair in zip(*sides)
                                         for cell in pair)]

    def to_csv(self) -> str:
        lines = [",".join(self._COLUMNS)]
        for row in self.rows:
            lines.append(",".join(self._cells(row, "NA")))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = ["Target", "RR (ASR)", "RR (HA)", "MCS (ASR)", "MCS (HA)",
                  "MCS rate (ASR)", "MCS rate (HA)"]
        table = [header] + [self._cells(row, "-") for row in self.rows]
        widths = [max(len(r[c]) for r in table) for c in range(len(header))]
        out = []
        for r, row in enumerate(table):
            out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            if r == 0:
                out.append("  ".join("-" * w for w in widths))
        return "\n".join(out) + "\n"


def resolve_targets(inventory: PhonemeInventory, targets) -> list[int]:
    """Target labels or indices as indices; epsilon, unknown labels,
    indices outside the inventory and a target given twice raise
    ValidationError."""
    resolved = [inventory.index(t) if isinstance(t, str) else int(t)
                for t in targets]
    for i, t in enumerate(resolved):
        if inventory.is_epsilon(t):
            raise ValidationError("epsilon cannot be a comparison target")
        if not 0 <= t < len(inventory):
            raise ValidationError(f"comparison target {t} is outside the inventory")
        if t in resolved[:i]:
            raise ValidationError(
                f"comparison target {inventory.label(t)} is given more than once")
    return resolved


def check_parameters(top_k: int, min_occurrences: int) -> None:
    """Raise ValidationError unless top_k >= 0 and min_occurrences >= 1."""
    if top_k < 0:
        raise ValidationError(f"top_k {top_k} must be at least 0")
    if min_occurrences < 1:
        raise ValidationError(f"min_occurrences {min_occurrences} must be at least 1")


def compare(asr: ConfusionMatrix, ha: ConfusionMatrix, targets=None,
            top_k: int = DEFAULT_TOP_K,
            min_occurrences: int = DEFAULT_MIN_OCCURRENCES) -> ComparisonTable:
    """Paired per-target metrics for an ASR matrix vs. an annotator matrix.

    Without an explicit target list, picks the top_k non-epsilon phonemes
    with the lowest ASR recognition rate among those occurring at least
    min_occurrences times, worst first.
    """
    if asr.inventory != ha.inventory:
        raise ValidationError("matrices use different inventories")
    check_parameters(top_k, min_occurrences)
    inv = asr.inventory
    if targets is None:
        candidates = []
        for t in inv.non_epsilon_indices():
            total = asr.row_sum(t)
            if total >= min_occurrences:
                rate = int(asr.counts[t, t]) / total
                candidates.append((rate, t))
        candidates.sort()
        targets = [t for _, t in candidates[:top_k]]
    else:
        targets = resolve_targets(inv, targets)

    def stats(matrix: ConfusionMatrix, t: int) -> PhonemeStats | None:
        return phoneme_stats(matrix, t) if matrix.row_sum(t) else None

    rows = [ComparisonRow(t, stats(asr, t), stats(ha, t)) for t in targets]
    return ComparisonTable(inv, rows)
