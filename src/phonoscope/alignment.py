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
"""

from __future__ import annotations

import itertools
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

_DIAG_CODE, _DELETE_CODE, _INSERT_CODE = 0, 1, 2
_MOVE_CODES = {
    "diagonal": _DIAG_CODE,
    MATCH: _DIAG_CODE,
    SUBSTITUTE: _DIAG_CODE,
    DELETE: _DELETE_CODE,
    INSERT: _INSERT_CODE,
}

DEFAULT_TIE_BREAK = (SUBSTITUTE, DELETE, INSERT)

_BRUTEFORCE_MAX = 12


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


@dataclass(frozen=True)
class Alignment:
    ops: tuple[EditOp, ...]
    total_cost: float

    def expected_sequence(self, eps: int) -> list[int]:
        return [op.expected for op in self.ops if op.expected != eps]

    def observed_sequence(self, eps: int) -> list[int]:
        return [op.observed for op in self.ops if op.observed != eps]


@dataclass(frozen=True)
class VariantAlignment:
    """Result of align_min_variant: best alignment + variant index per word."""

    alignment: Alignment
    chosen: tuple[int, ...]


def _tie_codes(tie_break) -> tuple[int, int, int]:
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


def _check_sequence(seq, inventory, side: str) -> list[int]:
    n = len(inventory)
    eps = inventory.epsilon_index
    out = []
    for p in seq:
        p = int(p)
        if not 0 <= p < n:
            raise ValidationError(f"{side} index {p} outside inventory")
        if p == eps:
            raise ValidationError(f"epsilon not allowed in {side} sequence")
        out.append(p)
    return out


def _kernel_sequence(seq: list[int]):
    """A validated index sequence in the form the active kernel takes."""
    return np.asarray(seq, dtype=np.int64) if _BACKEND == "compiled" else seq


def _kernel_grid(costs: CostMatrix):
    """The cost grid in the form the active kernel takes."""
    return costs.costs if _BACKEND == "compiled" else costs.rows()


def align(expected, observed, costs: CostMatrix,
          tie_break=DEFAULT_TIE_BREAK) -> Alignment:
    """Optimal alignment of two epsilon-free phoneme index sequences.

    Pure function: safe to run utterances concurrently against one shared
    CostMatrix.
    """
    inv = costs.inventory
    e = _check_sequence(expected, inv, "expected")
    o = _check_sequence(observed, inv, "observed")
    prefs = _tie_codes(tie_break)
    eps = inv.epsilon_index

    total, moves = _kernel.dp_align(_kernel_sequence(e), _kernel_sequence(o),
                                    _kernel_grid(costs), eps, *prefs)

    grid = costs.costs
    ops = []
    i = j = 0
    for mv in moves:
        if mv == _DIAG_CODE:
            a, b = e[i], o[j]
            kind = MATCH if a == b else SUBSTITUTE
            ops.append(EditOp(kind, a, b, float(grid[a, b])))
            i += 1
            j += 1
        elif mv == _DELETE_CODE:
            a = e[i]
            ops.append(EditOp(DELETE, a, eps, float(grid[a, eps])))
            i += 1
        else:
            b = o[j]
            ops.append(EditOp(INSERT, eps, b, float(grid[eps, b])))
            j += 1
    return Alignment(tuple(ops), float(total))


def align_bruteforce(expected, observed, costs: CostMatrix) -> float:
    """Exhaustive minimum over all monotone edit scripts (test oracle).

    Deliberately shares nothing with the DP path. Costs accumulate
    left-to-right along each script, the same fold order the DP uses, so
    the returned float is comparable to align().total_cost without any
    tolerance.
    """
    inv = costs.inventory
    e = _check_sequence(expected, inv, "expected")
    o = _check_sequence(observed, inv, "observed")
    if len(e) + len(o) > _BRUTEFORCE_MAX:
        raise ValidationError(
            f"brute force limited to combined length {_BRUTEFORCE_MAX}"
        )
    rows = costs.rows()
    eps = inv.epsilon_index
    n, m = len(e), len(o)
    best = float("inf")

    # stack of (i, j, cost so far); explores every script exactly once
    stack = [(0, 0, 0.0)]
    while stack:
        i, j, acc = stack.pop()
        if i == n and j == m:
            if acc < best:
                best = acc
            continue
        if i < n:
            stack.append((i + 1, j, acc + rows[e[i]][eps]))
        if j < m:
            stack.append((i, j + 1, acc + rows[eps][o[j]]))
        if i < n and j < m:
            stack.append((i + 1, j + 1, acc + rows[e[i]][o[j]]))
    return best


def _variant_lattice(expected_lattice, max_combinations: int) -> list[list]:
    """Per-word variant lists as tuples, with the combination cap enforced."""
    lattice = []
    for word_variants in expected_lattice:
        variants = [
            tuple(v.phonemes) if hasattr(v, "phonemes") else tuple(v)
            for v in word_variants
        ]
        if not variants:
            raise ValidationError("every word needs at least one variant")
        lattice.append(variants)

    count = 1
    for variants in lattice:
        count *= len(variants)
    if count > max_combinations:
        raise ValidationError(
            f"{count} variant combinations exceed the cap of {max_combinations}; "
            'use variant_rule="first"'
        )
    return lattice


def _concatenate(lattice, choice) -> list[int]:
    return [p for word, v in zip(lattice, choice) for p in word[v]]


def align_min_variant_bruteforce(expected_lattice, observed, costs: CostMatrix,
                                 tie_break=DEFAULT_TIE_BREAK,
                                 max_combinations: int = 256) -> VariantAlignment:
    """Full align() of every variant combination (test oracle).

    The reference for align_min_variant: same cap, same first-strict-
    minimum rule, but a complete Alignment per combination.
    """
    lattice = _variant_lattice(expected_lattice, max_combinations)
    best: Alignment | None = None
    best_choice: tuple[int, ...] = ()
    for choice in itertools.product(*[range(len(v)) for v in lattice]):
        candidate = align(_concatenate(lattice, choice), observed, costs, tie_break)
        if best is None or candidate.total_cost < best.total_cost:
            best = candidate
            best_choice = choice
    assert best is not None  # lattice may be empty, product yields one ()
    return VariantAlignment(best, best_choice)


def align_min_variant(expected_lattice, observed, costs: CostMatrix,
                      tie_break=DEFAULT_TIE_BREAK,
                      max_combinations: int = 256) -> VariantAlignment:
    """Minimize alignment cost over the cross-product of per-word variants.

    Each lattice entry is the variant list for one word (every variant a
    phoneme index sequence, or a PronunciationVariant). The full
    concatenation is scored by the DP kernel for every combination; ties
    keep the lowest variant indices. Per-word independent evaluation would
    not be valid, so combination count is capped. Only the winning
    combination is turned into an Alignment.
    """
    lattice = _variant_lattice(expected_lattice, max_combinations)
    inv = costs.inventory
    lattice = [[_check_sequence(v, inv, "expected") for v in variants]
               for variants in lattice]
    o = _check_sequence(observed, inv, "observed")
    prefs = _tie_codes(tie_break)
    eps = inv.epsilon_index
    kernel_observed = _kernel_sequence(o)
    grid = _kernel_grid(costs)

    best = None  # (total cost, choice) of the first strict minimum
    for choice in itertools.product(*[range(len(v)) for v in lattice]):
        total, _ = _kernel.dp_align(_kernel_sequence(_concatenate(lattice, choice)),
                                    kernel_observed, grid, eps, *prefs)
        if best is None or total < best[0]:
            best = (total, choice)
    assert best is not None  # lattice may be empty, product yields one ()
    choice = best[1]
    return VariantAlignment(align(_concatenate(lattice, choice), o, costs, tie_break),
                            choice)


def dump_alignment(alignment: Alignment, inventory) -> str:
    """One op per line: expected<TAB>observed<TAB>kind<TAB>cost."""
    lines = []
    for op in alignment.ops:
        lines.append(
            f"{inventory.label(op.expected)}\t{inventory.label(op.observed)}"
            f"\t{op.kind}\t{op.cost!r}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
