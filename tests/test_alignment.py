import functools
import itertools
import operator
import os
import random
import shutil
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phonoscope
from phonoscope import (
    ConfusionMatrix,
    CostMatrix,
    PhonemeInventory,
    SpeakerProfile,
    ValidationError,
    accumulate,
    align,
    align_min_variant,
    align_speaker,
    alignment,
    backend,
    dump_alignment,
    parse_cost_matrix,
)
from phonoscope.alignment import DELETE, INSERT, MATCH, SUBSTITUTE

from .conftest import (
    align_bruteforce,
    align_min_variant_bruteforce,
    idx,
    kernel_backend,
    op_records,
    random_cost_matrix,
    script,
)

INV = PhonemeInventory.default()
UNIFORM = CostMatrix.uniform(INV)
TIE_BREAKS = list(itertools.permutations((SUBSTITUTE, DELETE, INSERT)))
PACKAGE = Path(phonoscope.__file__).resolve().parent


def plain_levenshtein(a, b):
    """Independent textbook DP, integer arithmetic, no backtrace."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (0 if x == y else 1)))
        prev = cur
    return prev[len(b)]


def enumerate_scripts(e, o, costs):
    """Yield (ops, cost) for every monotone edit script; test-side oracle."""
    rows = costs.rows()
    eps = costs.inventory.epsilon_index

    def walk(i, j, ops, acc):
        if i == len(e) and j == len(o):
            yield list(ops), acc
            return
        if i < len(e):
            yield from walk(i + 1, j, ops + [("del", e[i])],
                            acc + rows[e[i]][eps])
        if j < len(o):
            yield from walk(i, j + 1, ops + [("ins", o[j])],
                            acc + rows[eps][o[j]])
        if i < len(e) and j < len(o):
            yield from walk(i + 1, j + 1, ops + [("diag", e[i], o[j])],
                            acc + rows[e[i]][o[j]])

    yield from walk(0, 0, [], 0.0)


def kinds(alignment):
    return [kind for kind, *_ in op_records(alignment)]


def test_table2_disambiguation_weighted(weighted):
    a = align(idx(INV, "HH IH Z"), idx(INV, "IY Z"), weighted)
    assert script(a) == [
        (DELETE, "HH", "<eps>"),
        (SUBSTITUTE, "IH", "IY"),
        (MATCH, "Z", "Z"),
    ]


def test_table2_uniform_has_two_optimal_scripts():
    e, o = idx(INV, "HH IH Z"), idx(INV, "IY Z")
    scripts = list(enumerate_scripts(e, o, UNIFORM))
    best = min(c for _, c in scripts)
    optimal = [ops for ops, c in scripts if c == best]
    assert best == 2.0
    assert len(optimal) == 2


def test_identity_alignment():
    e = idx(INV, "S IH M")
    a = align(e, e, UNIFORM)
    assert kinds(a) == [MATCH, MATCH, MATCH]
    assert a.total_cost == 0.0


def test_single_substitution():
    a = align(idx(INV, "T"), idx(INV, "D"), UNIFORM)
    assert kinds(a) == [SUBSTITUTE]
    assert a.total_cost == 1.0


def test_empty_sequences():
    a = align([], [], UNIFORM)
    assert op_records(a) == []
    assert a.total_cost == 0.0


def test_bruteforce_examples(weighted):
    assert align_bruteforce(idx(INV, "HH IH Z"), idx(INV, "IY Z"), UNIFORM) == 2.0
    assert align_bruteforce([], [], UNIFORM) == 0.0
    aa = INV.index("AA")
    assert align_bruteforce([aa], [], weighted) == weighted.cost(
        aa, INV.epsilon_index
    )


def test_bruteforce_length_cap():
    seven = idx(INV, "T T T T T T T")
    with pytest.raises(ValidationError):
        align_bruteforce(seven, seven[:6], UNIFORM)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(11)
    pyrng = random.Random(11)
    symbols = [INV.index(s) for s in ("T", "D", "S", "Z", "IH", "IY")]
    for _ in range(200):
        costs = random_cost_matrix(INV, rng)
        e = [pyrng.choice(symbols) for _ in range(pyrng.randint(0, 5))]
        o = [pyrng.choice(symbols) for _ in range(pyrng.randint(0, 5))]
        assert align(e, o, costs).total_cost == align_bruteforce(e, o, costs)


def test_levenshtein_reduction_random():
    pyrng = random.Random(5)
    non_eps = INV.non_epsilon_indices()
    for _ in range(300):
        e = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 12))]
        o = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 12))]
        assert align(e, o, UNIFORM).total_cost == plain_levenshtein(e, o)


def test_transposition_symmetry():
    rng = np.random.default_rng(3)
    pyrng = random.Random(3)
    non_eps = INV.non_epsilon_indices()
    for _ in range(50):
        costs = random_cost_matrix(INV, rng)
        e = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 8))]
        o = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 8))]
        assert align(e, o, costs).total_cost == align(
            o, e, CostMatrix(INV, costs.costs.T.copy())
        ).total_cost


seqs = st.lists(st.sampled_from([INV.index(s) for s in ("T", "D", "S", "AH", "IY")]),
                max_size=10)


@settings(max_examples=200, deadline=None)
@given(seqs, seqs, st.integers(0, 2**31))
def test_alignment_reconstructs_inputs(e, o, seed):
    costs = random_cost_matrix(INV, np.random.default_rng(seed))
    a = align(e, o, costs)
    eps = INV.epsilon_index
    assert a.expected[a.expected != eps].tolist() == list(e)
    assert a.observed[a.observed != eps].tolist() == list(o)
    total = 0.0
    for cost in a.costs.tolist():
        total = total + cost
    assert total == a.total_cost


def test_triangle_inequality_when_costs_metric():
    # costs from a 1-D embedding satisfy the triangle inequality by construction
    rng = np.random.default_rng(9)
    pyrng = random.Random(9)
    points = rng.uniform(0.0, 3.0, size=40)
    grid = np.abs(points[:, None] - points[None, :])
    np.fill_diagonal(grid, 0.0)
    costs = CostMatrix(INV, grid)
    non_eps = INV.non_epsilon_indices()
    for _ in range(40):
        a = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 6))]
        b = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 6))]
        c = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 6))]
        ab = align(a, b, costs).total_cost
        bc = align(b, c, costs).total_cost
        ac = align(a, c, costs).total_cost
        assert ac <= ab + bc + 1e-12


def test_tie_break_order_changes_script():
    e, o = idx(INV, "HH IH Z"), idx(INV, "IY Z")
    default = align(e, o, UNIFORM)
    delete_first = align(e, o, UNIFORM, tie_break=(DELETE, INSERT, SUBSTITUTE))
    assert default.total_cost == delete_first.total_cost == 2.0
    assert kinds(default) == [DELETE, SUBSTITUTE, MATCH]
    assert kinds(delete_first) == [SUBSTITUTE, DELETE, MATCH]


def test_tie_break_must_cover_all_kinds():
    with pytest.raises(ValidationError):
        align([], [], UNIFORM, tie_break=(DELETE, DELETE, DELETE))
    with pytest.raises(ValidationError):
        align([], [], UNIFORM, tie_break=("bogus", DELETE, INSERT))


def test_epsilon_rejected_in_input():
    with pytest.raises(ValidationError):
        align([INV.epsilon_index], [], UNIFORM)
    with pytest.raises(ValidationError):
        align([], [99], UNIFORM)


def test_min_variant_picks_exact_match(weighted):
    lattice = [[idx(INV, "R IY D"), idx(INV, "R EH D")]]
    result = align_min_variant(lattice, idx(INV, "R EH D"), weighted)
    assert result.chosen == (1,)
    assert result.total_cost == 0.0


def test_min_variant_single_variants_match_align(weighted):
    lattice = [[idx(INV, "HH IH Z")], [idx(INV, "IY Z")]]
    observed = idx(INV, "IY Z IY Z")
    direct = align(idx(INV, "HH IH Z IY Z"), observed, weighted)
    result = align_min_variant(lattice, observed, weighted)
    assert result.chosen == (0, 0)
    assert result == direct


def test_min_variant_two_by_two():
    lattice = [
        [idx(INV, "T UW"), idx(INV, "T AH")],
        [idx(INV, "R IY D"), idx(INV, "R EH D")],
    ]
    observed = idx(INV, "T AH R EH D")
    result = align_min_variant(lattice, observed, UNIFORM)
    assert result.chosen == (1, 1)
    assert result.total_cost == 0.0


def test_min_variant_requires_nonempty_variant_lists():
    with pytest.raises(ValidationError):
        align_min_variant([[]], [], UNIFORM)


# "blocked" leads, as hypothesis favours the first strategies of a one_of
cost_seeds = st.just("blocked") | st.none() | st.integers(0, 2**31)


def _costs(seed):
    """None: tie-heavy uniform costs. "blocked": uniform costs, except that
    T only matches T, and substituting or deleting it costs +inf, so some
    totals are +inf, and then every candidate variant reaches the minimum.
    Otherwise random weighted costs from the seed."""
    if seed is None:
        return UNIFORM
    if seed != "blocked":
        return random_cost_matrix(INV, np.random.default_rng(seed))
    t = INV.index("T")
    grid = UNIFORM.costs.copy()
    grid[t, :] = np.inf
    grid[t, t] = 0.0
    return CostMatrix(INV, grid)


short_seqs = st.lists(st.sampled_from([INV.index(s) for s in ("T", "D", "AH", "IY")]),
                     max_size=3)
lattices = st.lists(st.lists(short_seqs, min_size=1, max_size=3), max_size=4)


@pytest.mark.parametrize("kernel", ["compiled", "pure"])
@settings(max_examples=150, deadline=None)
@given(lattices, seqs, st.sampled_from(TIE_BREAKS), cost_seeds)
def test_min_variant_matches_enumeration_oracle(kernel, lattice, observed,
                                                tie_break, seed):
    costs = _costs(seed)
    with kernel_backend(kernel):
        result = align_min_variant(lattice, observed, costs, tie_break)
        oracle = align_min_variant_bruteforce(lattice, observed, costs, tie_break)
    assert result.chosen == oracle.chosen
    assert result.total_cost.hex() == oracle.total_cost.hex()
    assert op_records(result) == op_records(oracle)


variant_seqs = st.lists(st.sampled_from([INV.index(s) for s in ("T", "D", "AH", "IY")]),
                       max_size=2)
speakers = st.lists(
    st.tuples(st.lists(st.lists(variant_seqs, min_size=1, max_size=3), max_size=3),
              st.lists(st.sampled_from([INV.index(s) for s in ("T", "D", "AH", "S")]),
                       max_size=6)),
    max_size=6)


@pytest.mark.parametrize("kernel", ["compiled", "pure"])
@settings(max_examples=100, deadline=None)
@given(speakers, st.sampled_from(TIE_BREAKS), cost_seeds)
def test_align_speaker_matches_the_bruteforce_oracles(kernel, speaker, tie_break, seed):
    costs = _costs(seed)
    eps = INV.epsilon_index
    with kernel_backend(kernel):
        batch = align_speaker(speaker, costs, tie_break)
        oracles = [align_min_variant_bruteforce(lattice, observed, costs, tie_break)
                   for lattice, observed in speaker]
    assert len(batch.totals) == len(speaker)
    pooled = SpeakerProfile("spk", ConfusionMatrix(INV))
    for u, ((lattice, observed), oracle) in enumerate(zip(speaker, oracles)):
        expected = [p for word, v in zip(lattice, oracle.chosen) for p in word[v]]
        total = batch.totals[u]
        a = batch.alignment(u)
        assert a.chosen == oracle.chosen
        assert total.hex() == align_bruteforce(expected, observed, costs).hex()
        assert op_records(a) == op_records(oracle)
        # the ops spell out both sides, and their costs fold to the total
        assert [x for x in a.expected.tolist() if x != eps] == expected
        assert [y for y in a.observed.tolist() if y != eps] == observed
        assert functools.reduce(operator.add, a.costs.tolist(), 0.0).hex() == total.hex()
        accumulate(pooled, oracle)
    # run writes each speaker's counts() as its profile
    assert np.array_equal(batch.counts(), pooled.matrix.counts)


def test_speaker_alignment_refuses_an_utterance_outside_the_batch():
    t, d = idx(INV, "T D")
    batch = align_speaker([([[[t]]], [d]), ([[[d]]], [d])], UNIFORM)
    assert batch.alignment(1) == align([d], [d], UNIFORM)
    for u in (-1, 2):
        with pytest.raises(IndexError, match=f"utterance {u} outside 0 .. 1"):
            batch.alignment(u)


def test_dump_format(weighted):
    a = align(idx(INV, "HH IH Z"), idx(INV, "IY Z"), weighted)
    lines = dump_alignment(a).splitlines()
    assert lines[0].split("\t") == ["HH", "<eps>", "delete", "0.3"]
    assert lines[2].split("\t") == ["Z", "Z", "match", "0.0"]


def plain_dump(a, inv):
    """dump_alignment's format rendered op by op (oracle for its line table)."""
    return "".join(f"{inv.label(e)}\t{inv.label(o)}\t{kind}\t{cost!r}\n"
                   for kind, e, o, cost in op_records(a))


def test_dump_lines_follow_each_cost_grid():
    # grids that differ in every off-diagonal cell, dumped in turn
    rng = np.random.default_rng(7)
    grids = [random_cost_matrix(INV, rng) for _ in range(2)] + [UNIFORM]
    for _ in range(3):
        for costs in grids:
            e = rng.integers(0, len(INV) - 1, 30)
            o = [*e[:10], *rng.integers(0, len(INV) - 1, 15)]
            a = align(e, o, costs)
            assert dump_alignment(a) == plain_dump(a, INV)
    # grids that differ only in the sign of one zero
    iy, ih = idx(INV, "IY IH")
    for zero in (0.0, -0.0, 0.0):
        grid = UNIFORM.costs.copy()
        grid[iy, ih] = zero
        costs = CostMatrix(INV, grid)
        a = align([iy], [ih], costs)
        assert dump_alignment(a) == f"IY\tIH\tsubstitute\t{zero!r}\n"


@st.composite
def signed_zero_grids(draw):
    """Valid cost grids whose off-diagonal cells mix -0.0, 0.0, inf and
    ordinary costs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.choice([-0.0, 0.0, np.inf, 0.5, 1.0, 2.5], size=(len(INV),) * 2)
    np.fill_diagonal(grid, 0.0)
    return CostMatrix(INV, grid)


any_seqs = st.lists(st.sampled_from(INV.non_epsilon_indices()), max_size=12)


@pytest.mark.parametrize("kernel", ["compiled", "pure"])
@settings(max_examples=100, deadline=None)
@given(signed_zero_grids(), any_seqs, any_seqs)
def test_dump_of_align_equals_plain_dump(kernel, costs, e, o):
    with kernel_backend(kernel):
        a = align(e, o, costs)
    assert dump_alignment(a) == plain_dump(a, INV)
    eps = INV.epsilon_index
    assert kinds(a) == [INSERT if x == eps else DELETE if y == eps
                        else MATCH if x == y else SUBSTITUTE
                        for x, y in zip(a.expected.tolist(), a.observed.tolist())]


@settings(max_examples=50, deadline=None)
@given(signed_zero_grids(), any_seqs, any_seqs)
def test_cost_csv_round_trip_keeps_every_dump_byte(costs, e, o):
    reparsed = parse_cost_matrix(costs.to_csv(), INV)
    assert reparsed.costs.tobytes() == costs.costs.tobytes()
    assert dump_alignment(align(e, o, reparsed)) == dump_alignment(align(e, o, costs))


def test_cell_kinds_is_read_only_and_shared():
    grid = alignment.cell_kinds(INV)
    assert grid is alignment.cell_kinds(PhonemeInventory.default())
    with pytest.raises(ValueError):
        grid[0, 0] = 1


@pytest.mark.parametrize("kernel", ["compiled", "pure"])
def test_cost_grid_is_a_frozen_copy(kernel):
    t, s = idx(INV, "T S")
    grid = UNIFORM.costs.copy()
    costs = CostMatrix(INV, grid)
    with kernel_backend(kernel):
        before = dump_alignment(align([t], [s], costs))
        for value in (0.25, np.nan, -3.0):
            grid[t, s] = value   # the caller's array, not the validated copy
            assert dump_alignment(align([t], [s], costs)) == before == "T\tS\tsubstitute\t1.0\n"
    with pytest.raises(ValueError, match="read-only"):
        costs.costs[t, s] = 0.25


def test_alignment_construction_checks_its_cells():
    t, eps, n = INV.index("T"), INV.index("<eps>"), len(INV)

    def alignment_of(cells, dtype=np.int64):
        return alignment.Alignment(np.array(cells, dtype=dtype), UNIFORM, 1.0)

    both = alignment_of([t * n + eps, eps * n + t])
    assert both.kinds.tolist() == [2, 3]
    # equal: the same ops at the same costs, and the same total
    assert both == alignment_of([t * n + eps, eps * n + t], np.int16)
    assert both != alignment_of([t * n + eps])
    assert both != alignment.Alignment(both.cells, CostMatrix(INV, UNIFORM.costs / 2), 1.0)
    assert both != alignment.Alignment(both.cells, UNIFORM, 2.0)
    # any integer dtype, uint64 too, which older numpy's bincount refuses
    assert alignment_of([t * n + eps], np.uint64).counts()[t, eps] == 1
    for cells, message in (
            ([t * n + t, eps * n + eps], "no op"),
            ([n * n + t], "outside"),   # expected index len(INV)
            ([n * n], "outside"),
            ([-1], "outside"),
            ([[t]], "1-d")):
        with pytest.raises(ValidationError, match=message):
            alignment_of(cells)
    with pytest.raises(ValidationError, match="integer"):
        alignment_of([1.0], np.float64)
    with pytest.raises(ValidationError, match="1-d integer array"):
        alignment.Alignment([t], UNIFORM, 1.0)


T = INV.index("T")
BAD_SEQUENCES = [
    [1.7], [T + 0.0], [True], [T, True], np.array([True]), [[T, T]], [[T], [T, T]],
    [[]], np.array([T], dtype=object), ["T"], T,
]


@pytest.mark.parametrize("kernel", ["compiled", "pure"])
@pytest.mark.parametrize("seq", BAD_SEQUENCES, ids=repr)
def test_align_rejects_anything_but_1d_integer_indices(kernel, seq):
    with kernel_backend(kernel):
        with pytest.raises(ValidationError, match="expected must be a 1-d"):
            align(seq, [T], UNIFORM)
        with pytest.raises(ValidationError, match="observed must be a 1-d"):
            align([T], seq, UNIFORM)


@pytest.mark.parametrize("kernel", ["compiled", "pure"])
def test_min_variant_rejects_nested_variants(kernel):
    with kernel_backend(kernel):
        with pytest.raises(ValidationError, match="expected must be a 1-d"):
            align_min_variant([[[[T, T]]]], [T], UNIFORM)
        with pytest.raises(ValidationError, match="expected must be a 1-d"):
            align_min_variant([[[T, 1.5]]], [T], UNIFORM)
        with pytest.raises(ValidationError, match="observed must be a 1-d"):
            align_min_variant([[[T]]], [[T]], UNIFORM)


@pytest.mark.parametrize("kernel", ["compiled", "pure"])
def test_align_range_checks_before_the_int64_cast(kernel):
    with kernel_backend(kernel):
        for big, shown in ((np.array([2**63], dtype=np.uint64), 2**63),
                           ([2**63], 2**63), ([2**64 - 1], 2**64 - 1)):
            with pytest.raises(ValidationError, match=f"observed index {shown} outside"):
                align([T], big, UNIFORM)
        # numpy holds these as objects, but they are indices all the same
        for big in (2**70, -2**70):
            with pytest.raises(ValidationError, match=f"observed index {big} outside"):
                align([T], [big], UNIFORM)


@pytest.mark.parametrize("kernel", ["compiled", "pure"])
def test_align_accepts_any_integer_dtype_and_empty_sequences(kernel):
    # the other side of the rule above: nothing valid is refused
    d = INV.index("D")
    with kernel_backend(kernel):
        expected = align([T, d], [d], UNIFORM)
        for e in (np.array([T, d], dtype=np.uint8), np.array([T, d], dtype=np.int32),
                  (T, d), np.array([T, d], dtype=np.uint64)):
            assert align(e, np.array([d], dtype=np.int16), UNIFORM) == expected
        for empty in ([], (), np.array([]), np.zeros(0, dtype=np.uint8)):
            assert op_records(align(empty, [], UNIFORM)) == []


def _batch_args(speaker):
    """(phonemes, variant offsets, word offsets, utterance offsets, observed,
    observed offsets) of a list of (lattice, observed) pairs, as int64
    arrays."""
    lattices = [lattice for lattice, _ in speaker]
    words = [word for lattice in lattices for word in lattice]
    variants = [v for word in words for v in word]
    observed = [o for _, o in speaker]
    return [np.array(a, dtype=np.int64) for a in (
        [p for v in variants for p in v], np.cumsum([0, *map(len, variants)]),
        np.cumsum([0, *map(len, words)]), np.cumsum([0, *map(len, lattices)]),
        [b for o in observed for b in o], np.cumsum([0, *map(len, observed)]))]


def test_backend_parity_on_random_instances():
    pytest.importorskip("phonoscope._dpcore")
    from phonoscope import _dpcore, _dppy

    pyrng = random.Random(21)
    rng = np.random.default_rng(21)
    eps = INV.epsilon_index
    non_eps = INV.non_epsilon_indices()
    tie_heavy = [INV.index(s) for s in ("T", "D", "AH")]

    def check(e, o, costs, prefs):
        pure = _dppy.dp_align(e, o, costs.rows(), eps, *prefs)
        compiled = _dpcore.dp_align(
            np.asarray(e, dtype=np.int64), np.asarray(o, dtype=np.int64),
            costs.costs, eps, *prefs,
        )
        assert pure[0].hex() == compiled[0].hex()
        assert pure == compiled

    def check_batch(speaker, costs, prefs=(0, 1, 2)):
        pure, compiled = (kernel.dp_align_batch(*_batch_args(speaker), costs.costs, eps, *prefs)
                          for kernel in (_dppy, _dpcore))
        assert pure[0].dtype == compiled[0].dtype == np.float64
        assert pure[0].tobytes() == compiled[0].tobytes()
        assert all(a.dtype == b.dtype == np.int64 and a.tolist() == b.tolist()
                   for a, b in zip(pure[1:], compiled[1:]))

    def random_lattice(symbols, words, max_len):
        # a variant may be empty and a word may have a single variant
        return [[[pyrng.choice(symbols) for _ in range(pyrng.randint(0, max_len))]
                 for _ in range(pyrng.randint(1, 3))]
                for _ in range(words)]

    def random_speaker(symbols):
        return [(random_lattice(symbols, pyrng.randint(0, 4), 4),
                 [pyrng.choice(symbols) for _ in range(pyrng.randint(0, 10))])
                for _ in range(pyrng.randint(0, 4))]

    for _ in range(200):
        costs = random_cost_matrix(INV, rng)
        e = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 10))]
        o = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 10))]
        check(e, o, costs, (0, 1, 2))
        check_batch(random_speaker(non_eps), costs)
    # uniform costs over three symbols: many equal-cost scripts per pair
    for prefs in itertools.permutations((0, 1, 2)):
        for _ in range(100):
            e = [pyrng.choice(tie_heavy) for _ in range(pyrng.randint(0, 10))]
            o = [pyrng.choice(tie_heavy) for _ in range(pyrng.randint(0, 10))]
            check(e, o, UNIFORM, prefs)
            check_batch(random_speaker(tie_heavy), UNIFORM, prefs)
    # empty observed side, empty lattice, and +inf rows: T only matches T,
    # and inserting D costs +inf, so some totals are +inf
    t, d = INV.index("T"), INV.index("D")
    grid = UNIFORM.costs.copy()
    grid[t, :] = np.inf
    grid[t, t] = 0.0
    grid[eps, d] = np.inf
    blocked = CostMatrix(INV, grid)
    pairs = [([[[t], [d]], [[]]], []), ([], [t, d]), ([], []),
             ([[[t, t], [d]], [[t]]], [d, d]), ([[[t], [t, t]]], [d]),
             ([[[d], [t]], [[t], [d]]], [t, d])]
    for costs in (UNIFORM, blocked):
        for prefs in itertools.permutations((0, 1, 2)):
            check_batch(pairs, costs, prefs)
            for pair in pairs:
                check_batch([pair], costs, prefs)
        check_batch([], costs)


def test_compiled_kernel_reads_strided_and_transposed_arrays():
    _dpcore = pytest.importorskip("phonoscope._dpcore")
    rng = np.random.default_rng(5)
    eps = INV.epsilon_index
    grid = random_cost_matrix(INV, rng).costs.T   # Fortran-ordered view
    assert not grid.flags.c_contiguous
    e = rng.choice(INV.non_epsilon_indices(), 24)[::2]   # strided views
    o = rng.choice(INV.non_epsilon_indices(), 30)[::3]
    assert not (e.flags.c_contiguous or o.flags.c_contiguous)
    plain = [np.array(a, order="C") for a in (e, o, grid)]
    assert (_dpcore.dp_align(e, o, grid, eps, 0, 1, 2)
            == _dpcore.dp_align(*plain, eps, 0, 1, 2))
    # two utterances: one word of two variants, e[:4] and e[4:], against
    # o[:4], then a plain e[:3] against o[4:]; every array a strided view
    phonemes = np.concatenate([e, e[:3]]).repeat(2)[::2]
    args = [phonemes, np.array([0, 9, 4, 9, 12, 9, 15])[::2], np.array([0, 9, 2, 9, 3])[::2],
            np.array([0, 9, 1, 9, 2])[::2], o, np.array([0, 9, 4, 9, 10])[::2]]
    assert not any(a.flags.c_contiguous for a in args)
    strided = _dpcore.dp_align_batch(*args, grid, eps, 0, 1, 2)
    contiguous = _dpcore.dp_align_batch(*[np.array(a, order="C") for a in args],
                                        np.array(grid, order="C"), eps, 0, 1, 2)
    assert all(np.array_equal(a, b) for a, b in zip(strided, contiguous))
    assert len(strided[0]) == 2 and len(strided[1]) == 2


def test_compiled_kernel_rejects_bad_arguments():
    _dpcore = pytest.importorskip("phonoscope._dpcore")
    e = np.asarray([INV.index("T")], dtype=np.int64)
    eps = INV.epsilon_index
    with pytest.raises(ValueError):
        _dpcore.dp_align([INV.index("T")], e, UNIFORM.costs, eps, 0, 1, 2)
    with pytest.raises(ValueError):
        _dpcore.dp_align(e, e.astype(np.int32), UNIFORM.costs, eps, 0, 1, 2)
    with pytest.raises(ValueError):
        _dpcore.dp_align(e, e, UNIFORM.costs[:, :5], eps, 0, 1, 2)
    with pytest.raises(IndexError):
        _dpcore.dp_align(e, np.asarray([len(INV)], dtype=np.int64),
                         UNIFORM.costs, eps, 0, 1, 2)
    with pytest.raises(IndexError):
        _dpcore.dp_align(e, e, UNIFORM.costs, -1, 0, 1, 2)
    with pytest.raises(IndexError):   # epsilon is no symbol
        _dpcore.dp_align(e, np.asarray([eps], dtype=np.int64), UNIFORM.costs, eps, 0, 1, 2)

    t = INV.index("T")

    def batch(phonemes, variant_offsets, word_offsets, utterance_offsets=(0, 1),
              observed=(t,), observed_offsets=(0, 1)):
        return _dpcore.dp_align_batch(
            *[np.asarray(a, dtype=np.int64) for a in (
                phonemes, variant_offsets, word_offsets, utterance_offsets,
                observed, observed_offsets)],
            UNIFORM.costs, eps, 0, 1, 2)

    assert batch([t], [0, 1], [0, 1])[0].tolist() == [0.0]
    for bad in (([t], [0, 2], [0, 1]), ([t], [1, 1], [0, 1]), ([t], [0, 1], [0, 2]),
                ([t], [], [0]), ([t], [0, 1], [1, 1]),
                ([t, t], [0, 2, 1, 2], [0, 3]),   # variant offsets fall
                ([t], [0, 1], [0, 1, 1]),          # a word without a variant
                ([t], [0, 1], [0, 1], [0, 2]), ([t], [0, 1], [0, 1], [1, 1]),
                ([t], [0, 1], [0, 1], [0, 1], [t], [0, 2]),
                ([t], [0, 1], [0, 1], [0, 1], [t], [0, 1, 1]),
                ([t], [0, 1], [0, 1], [0, 1], [t], [])):
        with pytest.raises(ValueError):
            batch(*bad)
    for outside in (len(INV), -1, eps):
        with pytest.raises(IndexError):
            batch([outside], [0, 1], [0, 1])
        with pytest.raises(IndexError):
            batch([t], [0, 1], [0, 1], observed=[outside])
    with pytest.raises(ValueError):
        _dpcore.dp_align_batch([t], e, e, e, e, e, UNIFORM.costs, eps, 0, 1, 2)


def test_compiled_backend_active_when_cc_available():
    """A kernel that stops building must fail here, not skip the parity test."""
    if os.environ.get("PHONOSCOPE_PURE"):
        assert backend() == "pure"
    elif shutil.which("cc") is not None:
        assert backend() == "compiled"
    elif backend() != "compiled":
        pytest.skip("no C compiler on PATH and no prebuilt kernel")


def _package_copy(tmp_path):
    """phonoscope's sources without any built or cached kernel."""
    shutil.copytree(PACKAGE, tmp_path / "phonoscope",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return tmp_path / "phonoscope"


def _start_import(tmp_path, **env):
    base = {k: v for k, v in os.environ.items() if k != "PHONOSCOPE_PURE"}
    return subprocess.Popen(
        [sys.executable, "-c", "import phonoscope; print(phonoscope.backend())"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**base, "PYTHONPATH": str(tmp_path), **env},
    )


@pytest.mark.parametrize("breakage", ["no_compiler", "compile_error", "unwritable_cache"])
def test_kernel_build_failure_falls_back_to_pure(tmp_path, breakage):
    package = _package_copy(tmp_path)
    env = {}
    if breakage == "no_compiler":
        env["PATH"] = str(tmp_path / "empty")
    elif breakage == "compile_error":
        (package / "_dpkernel.c").write_text("this is not C\n")
    else:
        env = _unusable_caches(tmp_path, package)
    out, err = _start_import(tmp_path, **env).communicate(timeout=60)
    assert out.strip() == "pure", err


def _unusable_caches(tmp_path, package) -> dict:
    """Regular files in place of every kernel cache directory: the
    package's __pycache__ and the bases of the other two; returns the
    environment that points the other two there."""
    blocked = tmp_path / "blocked"
    for path in (package / "__pycache__", blocked):
        path.write_text("a file where a cache directory goes\n")
    return {"PYTHONPYCACHEPREFIX": str(blocked), "XDG_CACHE_HOME": str(blocked)}


def _mirrored(base, package):
    """Where a cache base holds the library of package, as .pyc files sit
    under sys.pycache_prefix."""
    return base.joinpath(*package.resolve().parts[1:])


def test_unusable_caches_fall_through_to_the_user_cache(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    package = _package_copy(tmp_path)
    env = _unusable_caches(tmp_path, package)
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    out, err = _start_import(tmp_path, **env).communicate(timeout=60)
    assert out.strip() == "compiled", err
    [library] = (tmp_path / "cache").rglob("_dpkernel-*.so")
    assert library.parent == _mirrored(tmp_path / "cache" / "phonoscope", package)


def test_pycache_prefix_comes_before_the_user_cache(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    package = _package_copy(tmp_path)
    (package / "__pycache__").write_text("a file where a cache directory goes\n")
    out, err = _start_import(tmp_path, PYTHONPYCACHEPREFIX=str(tmp_path / "prefix"),
                             XDG_CACHE_HOME=str(tmp_path / "cache")).communicate(timeout=60)
    assert out.strip() == "compiled", err
    [library] = (tmp_path / "prefix").rglob("_dpkernel-*.so")
    assert library.parent == _mirrored(tmp_path / "prefix", package)
    assert not (tmp_path / "cache").exists()


def test_every_unusable_cache_directory_is_named(tmp_path):
    package = _package_copy(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PHONOSCOPE_PURE"}
    env.update(_unusable_caches(tmp_path, package), PYTHONPATH=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", "import phonoscope; from phonoscope import alignment; "
                               "print(phonoscope.backend()); print(alignment.fallback_reason())"],
        capture_output=True, text=True, env=env, timeout=60)
    backend, reason = proc.stdout.splitlines()
    assert backend == "pure", proc.stderr
    assert reason.startswith("no usable kernel cache directory: ")
    assert str(package / "__pycache__") in reason
    assert reason.count(str(tmp_path / "blocked")) == 2


def test_library_beside_the_source_is_not_loaded(tmp_path):
    # only the cached compile of the current source is loaded, so a stale
    # library built in place cannot shadow an edited _dpkernel.c
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    package = _package_copy(tmp_path)
    (package / f"_dpkernel{EXTENSION_SUFFIXES[0]}").write_text("not a library\n")
    out, err = _start_import(tmp_path).communicate(timeout=60)
    assert out.strip() == "compiled", err


def test_concurrent_first_imports_share_one_cached_kernel(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    package = _package_copy(tmp_path)
    procs = [_start_import(tmp_path) for _ in range(2)]
    outputs = [p.communicate(timeout=60) for p in procs]
    assert [out.strip() for out, _ in outputs] == ["compiled", "compiled"], outputs
    cached = sorted(p.name for p in (package / "__pycache__").iterdir()
                    if p.name.startswith("_dpkernel"))
    assert len(cached) == 1 and cached[0].endswith(".so"), cached


def test_changed_compile_flags_rebuild_the_kernel(tmp_path):
    # the cache key covers the compile command, so a library built with old
    # flags is never loaded after the flags change
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    package = _package_copy(tmp_path)

    def cached():
        out, err = _start_import(tmp_path).communicate(timeout=60)
        assert out.strip() == "compiled", err
        return {p.name for p in (package / "__pycache__").iterdir()
                if p.name.startswith("_dpkernel")}

    before = cached()
    core = package / "_dpcore.py"
    source = core.read_text()
    assert source.count('"-O3"') == 1
    core.write_text(source.replace('"-O3"', '"-O2"'))
    after = cached()
    assert len(before) == 1 and len(after) == 1 and before != after, (before, after)


def test_rebuild_removes_stale_kernel_libraries(tmp_path):
    # a build removes the libraries of older keys in its directory, and
    # leaves everything else there alone
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    package = _package_copy(tmp_path)
    cache = package / "__pycache__"
    cache.mkdir()
    stale = ["_dpkernel-0123456789abcdef.so", "_dpkernel-old.so"]
    kept = ["_dpkernel-inflight.tmp", "_dpkernel.so", "other-0123.so", "alignment.pyc"]
    for name in stale + kept:
        (cache / name).write_text("not a library\n")
    out, err = _start_import(tmp_path).communicate(timeout=60)
    assert out.strip() == "compiled", err
    libraries = [p.name for p in cache.glob("_dpkernel-*.so")]
    assert len(libraries) == 1 and libraries[0] not in stale, libraries
    assert all((cache / name).is_file() for name in kept)


def test_pure_env_flag_selects_fallback():
    out = subprocess.run(
        [sys.executable, "-c", "import phonoscope; print(phonoscope.backend())"],
        capture_output=True, text=True,
        env={**os.environ, "PHONOSCOPE_PURE": "1"},
    )
    assert out.stdout.strip() == "pure"


def test_weighted_fixture_prefers_hh_deletion(weighted):
    hh, ih, iy = INV.index("HH"), INV.index("IH"), INV.index("IY")
    eps = INV.epsilon_index
    assert (
        weighted.cost(hh, eps) + weighted.cost(ih, iy)
        < weighted.cost(hh, iy) + weighted.cost(ih, eps)
    )
