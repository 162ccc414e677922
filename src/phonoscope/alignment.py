"""Minimum-weight alignment of expected vs. observed phoneme sequences.

The DP recurrence is

    D[i][j] = min(D[i-1][j]   + cost(a_i, eps),      # delete a_i
                  D[i][j-1]   + cost(eps, b_j),      # insert b_j
                  D[i-1][j-1] + cost(a_i, b_j))      # match / substitute

with backtrace ties broken by a configurable op-preference order.
Comparisons are exact float comparisons: a tie means bitwise-equal path
sums, which keeps alignments reproducible across runs and backends.

The table fill and backtrace run in the compiled C kernel (_dpcore)
when it builds and loads, otherwise in a pure-Python twin (_dppy). Set
PHONOSCOPE_PURE=1 to force the fallback. Both produce identical output.
clustering.tsne runs its gradient descent in the same kernel.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .costs import CostMatrix
from .errors import ValidationError

if os.environ.get("PHONOSCOPE_PURE"):
    from . import _dppy as _kernel

    _BACKEND = "pure"
else:
    try:
        from . import _dpcore as _kernel  # type: ignore[no-redef]

        _BACKEND = "compiled"
    except ImportError:
        from . import _dppy as _kernel  # type: ignore[no-redef]

        _BACKEND = "pure"

MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"
KINDS = (MATCH, SUBSTITUTE, DELETE, INSERT)  # Alignment.kinds indexes this

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


@dataclass(frozen=True)
class EditOp:
    """One alignment step. Epsilon is encoded as the inventory's eps index."""

    kind: str
    expected: int
    observed: int
    cost: float


@dataclass(frozen=True, eq=False)
class Alignment:
    """An alignment as per-op arrays, ops in forward order.

    ``expected`` and ``observed`` (int64) hold inventory indices, epsilon
    on the side an insertion or a deletion leaves empty; ``kinds`` (int8)
    indexes KINDS; ``costs`` (float64) holds each op's cost.
    """

    expected: np.ndarray
    observed: np.ndarray
    kinds: np.ndarray
    costs: np.ndarray
    total_cost: float

    @property
    def ops(self) -> tuple[EditOp, ...]:
        """The ops as EditOp records, built on each access."""
        return tuple(map(EditOp, [KINDS[k] for k in self.kinds.tolist()],
                         self.expected.tolist(), self.observed.tolist(),
                         self.costs.tolist()))

    def expected_sequence(self, eps: int) -> list[int]:
        return self.expected[self.expected != eps].tolist()

    def observed_sequence(self, eps: int) -> list[int]:
        return self.observed[self.observed != eps].tolist()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Alignment) and self.ops == other.ops
                and self.total_cost == other.total_cost)


@dataclass(frozen=True)
class VariantAlignment:
    """Result of align_min_variant: best alignment + variant index per word."""

    alignment: Alignment
    chosen: tuple[int, ...]


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
    """The sequence as an int64 array; rejects the first index outside the
    inventory or equal to epsilon."""
    try:
        arr = np.asarray(seq, dtype=np.int64)
    except OverflowError:
        raise ValidationError(f"{side} index outside inventory") from None
    eps = inventory.epsilon_index
    bad = (arr < 0) | (arr >= len(inventory)) | (arr == eps)
    if bad.any():
        p = int(arr[bad.argmax()])
        if p == eps:
            raise ValidationError(f"epsilon not allowed in {side} sequence")
        raise ValidationError(f"{side} index {p} outside inventory")
    return arr


def _kernel_args(costs: CostMatrix, *sequences) -> list:
    """The cost grid and index sequences in the form the active kernel takes.

    The compiled kernel takes the float64 grid and int64 arrays, the pure
    one the grid as nested lists and lists of ints.
    """
    arrays = [np.asarray(s, dtype=np.int64) for s in sequences]
    if _BACKEND == "compiled":
        return [costs.costs, *arrays]
    return [costs.rows(), *[a.tolist() for a in arrays]]


def align(expected, observed, costs: CostMatrix,
          tie_break=DEFAULT_TIE_BREAK) -> Alignment:
    """Optimal alignment of two epsilon-free phoneme index sequences.

    Pure function: safe to run utterances concurrently against one shared
    CostMatrix.
    """
    inv = costs.inventory
    e = _check_sequence(expected, inv, "expected")
    o = _check_sequence(observed, inv, "observed")
    prefs = tie_codes(tie_break)
    eps = inv.epsilon_index
    grid, kernel_e, kernel_o = _kernel_args(costs, e, o)
    total, moves = _kernel.dp_align(kernel_e, kernel_o, grid, eps, *prefs)

    moves = np.array(moves, dtype=np.int8)
    expected_ops = np.full(len(moves), eps, dtype=np.int64)
    expected_ops[moves != _INSERT_CODE] = e
    observed_ops = np.full(len(moves), eps, dtype=np.int64)
    observed_ops[moves != _DELETE_CODE] = o
    # diagonal -> 0 match / 1 substitute, delete -> 2, insert -> 3
    kinds = np.where(moves == _DIAG_CODE, expected_ops != observed_ops, moves + 1)
    return Alignment(expected_ops, observed_ops, kinds,
                     costs.costs[expected_ops, observed_ops], float(total))


def _variant_lattice(expected_lattice) -> list[list[tuple]]:
    """Per-word variant lists as tuples of phoneme indices."""
    lattice = []
    for word_variants in expected_lattice:
        variants = [
            tuple(v.phonemes) if hasattr(v, "phonemes") else tuple(v)
            for v in word_variants
        ]
        if not variants:
            raise ValidationError("every word needs at least one variant")
        lattice.append(variants)
    return lattice


def _offsets(parts) -> np.ndarray:
    """CSR offsets: 0, then the running total of the parts' lengths."""
    return np.array([0, *map(len, parts)], dtype=np.int64).cumsum()


def _lattice_total(lattice, observed, costs: CostMatrix) -> float:
    """The kernel's minimum total over every path through the lattice."""
    variants = [v for word in lattice for v in word]
    grid, *args = _kernel_args(costs, [p for v in variants for p in v],
                               _offsets(variants), _offsets(lattice), observed)
    return _kernel.dp_lattice(*args, grid, costs.inventory.epsilon_index)


def align_min_variant(
    expected_lattice, observed, costs: CostMatrix, tie_break=DEFAULT_TIE_BREAK,
) -> VariantAlignment:
    """Minimize alignment cost over the cross-product of per-word variants.

    Each lattice entry is the variant list for one word (every variant a
    phoneme index sequence, or a PronunciationVariant). One lattice DP
    finds the minimum over every combination exactly: float addition is
    monotone, so each lattice cell equals bitwise the minimum of that cell
    over the combinations. Ties keep the lowest variant indices: word by
    word, the first variant whose restricted lattice still reaches the
    minimum is fixed. Only the winning combination is turned into an
    Alignment.
    """
    lattice = _variant_lattice(expected_lattice)
    inv = costs.inventory
    # one check over every variant: numpy's per-call cost dwarfs short words
    _check_sequence([p for variants in lattice for v in variants for p in v],
                    inv, "expected")
    o = _check_sequence(observed, inv, "observed")
    best = _lattice_total(lattice, o, costs)
    chosen: list[int] = []
    for w, variants in enumerate(lattice):
        fixed = [[word[v]] for word, v in zip(lattice, chosen)]
        v = 0
        while (v < len(variants) - 1
               and _lattice_total(fixed + [[variants[v]]] + lattice[w + 1:], o,
                                  costs) != best):
            v += 1
        chosen.append(v)
    expected = [p for word, v in zip(lattice, chosen) for p in word[v]]
    return VariantAlignment(align(expected, o, costs, tie_break), tuple(chosen))


def dump_alignment(alignment: Alignment, inventory) -> str:
    """One op per line: expected<TAB>observed<TAB>kind<TAB>cost."""
    return _dump_lines(inventory.symbols).render(alignment)


@functools.lru_cache(maxsize=8)
def _dump_lines(symbols: tuple) -> _DumpLines:
    return _DumpLines(symbols)


class _DumpLines:
    """Dump lines of one inventory, indexed by (expected * n + observed) * 4 + kind.

    Each index holds the line of the cost last dumped there. Under one cost
    grid a cell has one cost, so once a run's cells have been seen every
    dump is a lookup. A dump that meets a cost the table does not hold
    renders its lines directly and puts them into a copy of the table; a
    table is never changed once built, so concurrent dumps each read a
    consistent one.
    """

    def __init__(self, symbols: tuple) -> None:
        self._symbols = symbols
        size = len(symbols) ** 2 * len(KINDS)
        # (index holds a line, bits of that line's cost, lines)
        self._table = (np.zeros(size, bool), np.zeros(size, np.int64), [None] * size)

    def render(self, alignment: Alignment) -> str:
        keys = ((alignment.expected * len(self._symbols) + alignment.observed)
                * len(KINDS) + alignment.kinds)
        bits = np.asarray(alignment.costs, dtype=np.float64).view(np.int64)
        held, held_bits, lines = self._table
        if (held[keys] & (held_bits[keys] == bits)).all():
            return "".join(map(lines.__getitem__, keys.tolist()))
        symbols = self._symbols
        rendered = [
            f"{symbols[a]}\t{symbols[b]}\t{KINDS[k]}\t{cost!r}\n"
            for a, b, k, cost in zip(alignment.expected.tolist(),
                                     alignment.observed.tolist(),
                                     alignment.kinds.tolist(),
                                     alignment.costs.tolist())
        ]
        held, held_bits, lines = held.copy(), held_bits.copy(), lines.copy()
        held[keys] = True
        held_bits[keys] = bits
        for key, line in zip(keys.tolist(), rendered):
            lines[key] = line
        self._table = held, held_bits, lines
        return "".join(rendered)
