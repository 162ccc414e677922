"""Minimum-weight alignment of expected vs. observed phoneme sequences.

The DP recurrence is

    D[i][j] = min(D[i-1][j]   + cost(a_i, eps),      # delete a_i
                  D[i][j-1]   + cost(eps, b_j),      # insert b_j
                  D[i-1][j-1] + cost(a_i, b_j))      # match / substitute

with backtrace ties broken by a configurable op-preference order.
Comparisons are exact float comparisons: a tie means bitwise-equal path
sums, which keeps alignments reproducible across runs and backends.

The table fill and backtrace run in the compiled C kernel (_dpcore)
when it builds and loads, otherwise in a pure-Python twin (_dppy), and
fallback_reason() says why. Set PHONOSCOPE_PURE=1 to force the fallback.
Both produce identical output.
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


@dataclass(frozen=True)
class EditOp:
    """One alignment step. Epsilon is encoded as the inventory's eps index."""

    kind: str
    expected: int
    observed: int
    cost: float


@dataclass(frozen=True, eq=False)
class Alignment:
    """An alignment as its ops' cells under one cost grid, in forward order.

    ``expected`` and ``observed`` are equal-length 1-d integer arrays of
    inventory indices, epsilon on the side an insertion or a deletion
    leaves empty. Each op's kind and cost are its cell's in
    ``cost_matrix``, so an alignment cannot disagree with its grid.
    """

    expected: np.ndarray
    observed: np.ndarray
    cost_matrix: CostMatrix
    total_cost: float

    def __post_init__(self):
        sides, inv = (self.expected, self.observed), self.cost_matrix.inventory
        if not all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu"
                   for a in sides) or len(sides[0]) != len(sides[1]):
            raise ValidationError("alignment sides must be equal-length 1-d integer arrays")
        try:
            cells = self.cells
        except ValueError:
            raise ValidationError("alignment cell outside the cost grid") from None
        if inv.epsilon_index * (len(inv) + 1) in cells:
            raise ValidationError("(eps, eps) is no op")

    @property
    def cells(self) -> np.ndarray:
        """Each op's row-major cell in the cost grid."""
        n = len(self.cost_matrix.inventory)
        return np.ravel_multi_index((self.expected, self.observed), (n, n))

    @property
    def kinds(self) -> np.ndarray:
        """Each op's kind as an index into KINDS."""
        return cell_kinds(self.cost_matrix.inventory)[self.expected, self.observed]

    @property
    def costs(self) -> np.ndarray:
        """Each op's cost."""
        return self.cost_matrix.costs[self.expected, self.observed]

    @property
    def ops(self) -> tuple[EditOp, ...]:
        """The ops as EditOp records, built on each access."""
        return tuple(map(EditOp, [KINDS[k] for k in self.kinds.tolist()],
                         self.expected.tolist(), self.observed.tolist(),
                         self.costs.tolist()))

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
    return Alignment(expected_ops, observed_ops, costs, float(total))


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


def dump_alignment(alignment: Alignment) -> str:
    """One op per line: expected<TAB>observed<TAB>kind<TAB>cost, each
    line its cell's in the alignment's cost grid."""
    return "".join(map(alignment.cost_matrix.lines.__getitem__,
                       alignment.cells.tolist()))
