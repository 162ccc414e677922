"""Minimum-weight alignment of expected vs. observed phoneme sequences.

The DP recurrence is

    D[i][j] = min(D[i-1][j]   + cost(a_i, eps),      # delete a_i
                  D[i][j-1]   + cost(eps, b_j),      # insert b_j
                  D[i-1][j-1] + cost(a_i, b_j))      # match / substitute

with backtrace ties broken by a configurable op-preference order.
Comparisons are exact float comparisons: a tie means bitwise-equal path
sums, which keeps alignments reproducible across runs and backends.

align_speaker aligns a speaker's utterances in one kernel call; align
and align_min_variant are batches of one. An expected side is a
pronunciation lattice (a plain prompt is one word of one variant), and
the kernel chooses each word's variant itself. A SpeakerAlignment holds
each op as its cell in the cost grid, and an Alignment one utterance's
slice of them. The kernel is compiled C (_dpcore) when it builds and
loads, otherwise a pure-Python twin (_dppy), and fallback_reason() says
why. Set PHONOSCOPE_PURE=1 to force the fallback. Both produce identical
output.
clustering.tsne runs its gradient descent in the same kernel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .costs import DELETE, INSERT, KINDS, MATCH, SUBSTITUTE, CostMatrix, cell_kinds
from .errors import ValidationError

_FALLBACK_REASON = None
if os.environ.get("PHONOSCOPE_PURE"):
    from . import _dppy as _kernel

    _BACKEND = "pure"
else:
    try:
        from . import _dpcore as _kernel  # type: ignore[no-redef]

        _BACKEND = "compiled"
    except ImportError as exc:
        from . import _dppy as _kernel  # type: ignore[no-redef]

        _BACKEND = "pure"
        _FALLBACK_REASON = str(exc)

_BOOLS = frozenset((bool, np.bool_))  # numpy reads [1, True] as int64

_DIAG_CODE, _DELETE_CODE, _INSERT_CODE = 0, 1, 2
_MOVE_CODES = {
    "diagonal": _DIAG_CODE,
    MATCH: _DIAG_CODE,
    SUBSTITUTE: _DIAG_CODE,
    DELETE: _DELETE_CODE,
    INSERT: _INSERT_CODE,
}

DEFAULT_TIE_BREAK = (SUBSTITUTE, DELETE, INSERT)


def backend() -> str:
    """Which DP kernel is active: "compiled" or "pure"."""
    return _BACKEND


def fallback_reason() -> str | None:
    """Why the compiled kernel failed to build or load, or None when it did
    not fail (it is active, or PHONOSCOPE_PURE chose the pure kernel)."""
    return _FALLBACK_REASON


class _Ops:
    """Views of ``cells``, each op its row-major cell in ``cost_matrix``:
    ``expected * n + observed`` for n inventory symbols, epsilon on the
    side an insertion or a deletion leaves empty. An op's kind and cost
    are its cell's, so the ops cannot disagree with their grid."""

    @property
    def expected(self) -> np.ndarray:
        """Each op's expected symbol."""
        return self.cells // len(self.cost_matrix.inventory)

    @property
    def observed(self) -> np.ndarray:
        """Each op's observed symbol."""
        return self.cells % len(self.cost_matrix.inventory)

    @property
    def kinds(self) -> np.ndarray:
        """Each op's kind as an index into KINDS."""
        return cell_kinds(self.cost_matrix.inventory).ravel()[self.cells]

    @property
    def costs(self) -> np.ndarray:
        """Each op's cost."""
        return self.cost_matrix.costs.ravel()[self.cells]

    def counts(self) -> np.ndarray:
        """How often each (expected, observed) cell occurs among the ops."""
        n = len(self.cost_matrix.inventory)
        # older numpy's bincount refuses uint64, which a hand-built alignment may hold
        return np.bincount(self.cells.astype(np.int64, copy=False),
                           minlength=n * n).reshape(n, n)


@dataclass(frozen=True, eq=False)
class Alignment(_Ops):
    """One utterance's ops in forward order, their ``total_cost`` and
    ``chosen``, each word's variant: a plain prompt is one word of variant
    0, and an alignment built by hand may leave it empty. Two alignments
    are equal when they hold the same ops at the same costs and totals."""

    cells: np.ndarray
    cost_matrix: CostMatrix
    total_cost: float
    chosen: tuple[int, ...] = ()

    def __post_init__(self):
        cells, inv = self.cells, self.cost_matrix.inventory
        if not (isinstance(cells, np.ndarray) and cells.ndim == 1
                and cells.dtype.kind in "iu"):
            raise ValidationError("alignment cells must be a 1-d integer array")
        n = len(inv)
        if np.count_nonzero((cells < 0) | (cells >= n * n)):
            raise ValidationError("alignment cell outside the cost grid")
        if np.count_nonzero(cells == inv.epsilon_index * (n + 1)):
            raise ValidationError("(eps, eps) is no op")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Alignment) and self.total_cost == other.total_cost
                and all(np.array_equal(getattr(self, view), getattr(other, view))
                        for view in ("expected", "observed", "kinds", "costs")))


def tie_codes(tie_break) -> tuple[int, int, int]:
    """The kernel's move codes in preference order; raises ValidationError
    unless tie_break names the three op kinds."""
    codes = []
    for name in tie_break:
        code = _MOVE_CODES.get(name)
        if code is None:
            raise ValidationError(f"unknown tie-break op {name!r}")
        if code not in codes:
            codes.append(code)
    if sorted(codes) != [0, 1, 2]:
        raise ValidationError(
            "tie_break must rank all three op kinds (substitute/delete/insert)"
        )
    return tuple(codes)


def _check_sequence(seq, inventory, side: str) -> np.ndarray:
    """The sequence as an int64 array; rejects anything but a 1-d sequence
    of integers (bools excluded) or an empty one, then the first index
    outside the inventory or equal to epsilon."""
    try:
        arr = np.asarray(seq)
    except ValueError:   # ragged nesting
        arr = None
    integers = arr is not None and arr.ndim == 1 and (
        not arr.size or arr.dtype.kind in "iu"
        # numpy holds a list's ints beyond 64 bits as objects
        or arr.dtype == object and not isinstance(seq, np.ndarray)
        and all(isinstance(p, (int, np.integer)) for p in seq))
    if not integers or not isinstance(seq, np.ndarray) and not _BOOLS.isdisjoint(map(type, seq)):
        raise ValidationError(f"{side} must be a 1-d sequence of integer indices")
    eps = inventory.epsilon_index
    # compared before the cast, so a uint64 index above 2**63 is not wrapped
    bad = (arr < 0) | (arr >= len(inventory)) | (arr == eps)
    if bad.any():
        p = int(arr[bad.argmax()])
        if p == eps:
            raise ValidationError(f"epsilon not allowed in {side} sequence")
        raise ValidationError(f"{side} index {p} outside inventory")
    return arr.astype(np.int64, copy=False)


def _extend(flat: list, seq, side: str) -> None:
    """Appends seq's items to flat for one _check_sequence over the whole
    side; rejects what that check cannot see once items are pooled: a
    non-sequence, and an array that is not 1-d integer (or empty)."""
    if isinstance(seq, np.ndarray):
        if seq.ndim != 1 or seq.size and seq.dtype.kind not in "iu":
            raise ValidationError(f"{side} must be a 1-d sequence of integer indices")
        seq = seq.tolist()
    try:
        flat.extend(seq)
    except TypeError:
        raise ValidationError(f"{side} must be a 1-d sequence of integer indices") from None


@dataclass(frozen=True, eq=False)
class SpeakerAlignment(_Ops):
    """A speaker's alignments from one kernel call, as flat arrays.

    ``cells`` holds every utterance's ops, utterance u's from
    ``op_offsets[u]`` up to ``op_offsets[u + 1]``, and its total is
    ``totals[u]``. ``choices`` holds each word's chosen variant, utterance
    u's words from ``word_offsets[u]`` up to ``word_offsets[u + 1]``.
    """

    cost_matrix: CostMatrix
    totals: np.ndarray
    op_offsets: np.ndarray
    cells: np.ndarray
    choices: np.ndarray
    word_offsets: np.ndarray

    def alignment(self, u: int) -> Alignment:
        """Utterance u's alignment, with its chosen variant per word."""
        if not 0 <= u < len(self.totals):
            raise IndexError(f"utterance {u} outside 0 .. {len(self.totals) - 1}")
        (a, b), (w, x) = self.op_offsets[u:u + 2], self.word_offsets[u:u + 2]
        return Alignment(self.cells[a:b], self.cost_matrix, float(self.totals[u]),
                         tuple(self.choices[w:x].tolist()))


def align_speaker(pairs, costs: CostMatrix,
                  tie_break=DEFAULT_TIE_BREAK) -> SpeakerAlignment:
    """Aligns each (expected lattice, observed) pair in one kernel call.

    Each lattice entry is the variant list for one word (every variant a
    phoneme index sequence, or a PronunciationVariant); a plain prompt is
    ``[[indices]]``. Each utterance is aligned to its combination of
    variants with the lowest total cost, found exactly by one DP over the
    word-level lattice: float addition is monotone, so each lattice cell
    equals bitwise the minimum of that cell over the combinations, with no
    cap on their number. Ties keep the lowest variant indices: words are
    fixed left to right, each to its first variant that still reaches the
    minimum when the words after it keep all of theirs.

    Each side is checked once, over all of its utterances. Pure function:
    safe to run speakers concurrently against one shared CostMatrix.
    """
    phonemes, variant_offsets, word_offsets, utterance_offsets = [], [0], [0], [0]
    observed, observed_offsets = [], [0]
    for lattice, observed_side in pairs:
        for word in lattice:
            for variant in word:
                _extend(phonemes, getattr(variant, "phonemes", variant), "expected")
                variant_offsets.append(len(phonemes))
            if len(variant_offsets) - 1 == word_offsets[-1]:
                raise ValidationError("every word needs at least one variant")
            word_offsets.append(len(variant_offsets) - 1)
        utterance_offsets.append(len(word_offsets) - 1)
        _extend(observed, observed_side, "observed")
        observed_offsets.append(len(observed))
    inv = costs.inventory
    e = _check_sequence(phonemes, inv, "expected")
    o = _check_sequence(observed, inv, "observed")
    variant_offsets, word_offsets, utterance_offsets, observed_offsets = (
        np.asarray(a, dtype=np.int64)
        for a in (variant_offsets, word_offsets, utterance_offsets, observed_offsets))
    totals, choices, op_offsets, cells = _kernel.dp_align_batch(
        e, variant_offsets, word_offsets, utterance_offsets, o, observed_offsets,
        costs.costs, inv.epsilon_index, *tie_codes(tie_break))
    return SpeakerAlignment(costs, totals, op_offsets, cells, choices, utterance_offsets)


def align(expected, observed, costs: CostMatrix,
          tie_break=DEFAULT_TIE_BREAK) -> Alignment:
    """Optimal alignment of two epsilon-free phoneme index sequences.

    Pure function: safe to run utterances concurrently against one shared
    CostMatrix.
    """
    return align_speaker([([[expected]], observed)], costs, tie_break).alignment(0)


def align_min_variant(
    expected_lattice, observed, costs: CostMatrix, tie_break=DEFAULT_TIE_BREAK,
) -> Alignment:
    """Minimize alignment cost over the cross-product of per-word variants:
    align_speaker of one utterance, whose ``chosen`` is its variant per word."""
    return align_speaker([(expected_lattice, observed)], costs, tie_break).alignment(0)


def dump_alignment(alignment: Alignment) -> str:
    """One op per line: expected<TAB>observed<TAB>kind<TAB>cost, each
    line its cell's in the alignment's cost grid."""
    return "".join(map(alignment.cost_matrix.lines.__getitem__,
                       alignment.cells.tolist()))
