import itertools
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
    CostMatrix,
    PhonemeInventory,
    ValidationError,
    align,
    align_min_variant,
    alignment,
    backend,
    dump_alignment,
)
from phonoscope.alignment import DELETE, INSERT, MATCH, SUBSTITUTE

from .conftest import (
    align_bruteforce,
    align_min_variant_bruteforce,
    idx,
    kernel_backend,
    random_cost_matrix,
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
    return [op.kind for op in alignment.ops]


def test_table2_disambiguation_weighted(weighted):
    a = align(idx(INV, "HH IH Z"), idx(INV, "IY Z"), weighted)
    assert [
        (op.kind, INV.label(op.expected), INV.label(op.observed)) for op in a.ops
    ] == [
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
    assert a.ops == ()
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
            o, e, costs.transpose()
        ).total_cost


seqs = st.lists(st.sampled_from([INV.index(s) for s in ("T", "D", "S", "AH", "IY")]),
                max_size=10)


@settings(max_examples=200, deadline=None)
@given(seqs, seqs, st.integers(0, 2**31))
def test_alignment_reconstructs_inputs(e, o, seed):
    costs = random_cost_matrix(INV, np.random.default_rng(seed))
    a = align(e, o, costs)
    eps = INV.epsilon_index
    assert a.expected_sequence(eps) == list(e)
    assert a.observed_sequence(eps) == list(o)
    total = 0.0
    for op in a.ops:
        total = total + op.cost
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
    assert result.alignment.total_cost == 0.0


def test_min_variant_single_variants_match_align(weighted):
    lattice = [[idx(INV, "HH IH Z")], [idx(INV, "IY Z")]]
    observed = idx(INV, "IY Z IY Z")
    direct = align(idx(INV, "HH IH Z IY Z"), observed, weighted)
    result = align_min_variant(lattice, observed, weighted)
    assert result.chosen == (0, 0)
    assert result.alignment == direct


def test_min_variant_two_by_two():
    lattice = [
        [idx(INV, "T UW"), idx(INV, "T AH")],
        [idx(INV, "R IY D"), idx(INV, "R EH D")],
    ]
    observed = idx(INV, "T AH R EH D")
    result = align_min_variant(lattice, observed, UNIFORM)
    assert result.chosen == (1, 1)
    assert result.alignment.total_cost == 0.0


def test_min_variant_requires_nonempty_variant_lists():
    with pytest.raises(ValidationError):
        align_min_variant([[]], [], UNIFORM)


short_seqs = st.lists(st.sampled_from([INV.index(s) for s in ("T", "D", "AH", "IY")]),
                     max_size=3)
lattices = st.lists(st.lists(short_seqs, min_size=1, max_size=3), max_size=4)


@pytest.mark.parametrize("kernel", ["compiled", "pure"])
@settings(max_examples=150, deadline=None)
@given(lattices, seqs, st.sampled_from(TIE_BREAKS), st.none() | st.integers(0, 2**31))
def test_min_variant_matches_enumeration_oracle(kernel, lattice, observed,
                                                tie_break, seed):
    # seed None: tie-heavy uniform costs; otherwise random weighted costs
    costs = UNIFORM if seed is None else random_cost_matrix(INV, np.random.default_rng(seed))
    with kernel_backend(kernel):
        result = align_min_variant(lattice, observed, costs, tie_break)
        oracle = align_min_variant_bruteforce(lattice, observed, costs, tie_break)
    assert result.chosen == oracle.chosen
    assert result.alignment.total_cost.hex() == oracle.alignment.total_cost.hex()
    assert result.alignment.ops == oracle.alignment.ops


def test_dump_format(weighted):
    a = align(idx(INV, "HH IH Z"), idx(INV, "IY Z"), weighted)
    lines = dump_alignment(a, INV).splitlines()
    assert lines[0].split("\t") == ["HH", "<eps>", "delete", "0.3"]
    assert lines[2].split("\t") == ["Z", "Z", "match", "0.0"]


def plain_dump(a, inv):
    """dump_alignment's format rendered op by op (oracle for its line table)."""
    return "".join(f"{inv.label(op.expected)}\t{inv.label(op.observed)}\t{op.kind}\t{op.cost!r}\n"
                   for op in a.ops)


def test_dump_lines_follow_each_cost_grid():
    # grids that differ in every off-diagonal cell, dumped in turn through
    # one inventory's table
    rng = np.random.default_rng(7)
    grids = [random_cost_matrix(INV, rng) for _ in range(2)] + [UNIFORM]
    for _ in range(3):
        for costs in grids:
            e = rng.integers(0, len(INV) - 1, 30)
            o = [*e[:10], *rng.integers(0, len(INV) - 1, 15)]
            a = align(e, o, costs)
            assert dump_alignment(a, INV) == plain_dump(a, INV)
    # grids that differ only in the sign of one zero
    iy, ih = idx(INV, "IY IH")
    for zero in (0.0, -0.0, 0.0):
        grid = UNIFORM.costs.copy()
        grid[iy, ih] = zero
        a = align([iy], [ih], CostMatrix(INV, grid))
        assert dump_alignment(a, INV) == f"IY\tIH\tsubstitute\t{zero!r}\n"
    # one cell with two costs in the same hand-built alignment, then with each
    for costs in ([0.5, 0.25], [0.5, 0.25], [0.25], [0.5]):
        a = alignment.Alignment(np.ones(len(costs), np.int64), np.full(len(costs), 2),
                                np.ones(len(costs), np.int8), np.array(costs), sum(costs))
        assert dump_alignment(a, INV) == plain_dump(a, INV)


def _lattice_csr(lattice):
    """(phonemes, variant offsets, word offsets) of a list of variant lists."""
    variants = [v for word in lattice for v in word]
    return ([p for v in variants for p in v],
            np.cumsum([0, *map(len, variants)]).tolist(),
            np.cumsum([0, *map(len, lattice)]).tolist())


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

    def check_lattice(lattice, o, costs):
        csr = _lattice_csr(lattice)
        pure = _dppy.dp_lattice(*csr, o, costs.rows(), eps)
        compiled = _dpcore.dp_lattice(*[np.asarray(a, dtype=np.int64) for a in csr],
                                      np.asarray(o, dtype=np.int64), costs.costs, eps)
        assert pure.hex() == compiled.hex()

    def random_lattice(symbols, words, max_len):
        # a variant may be empty and a word may have a single variant
        return [[[pyrng.choice(symbols) for _ in range(pyrng.randint(0, max_len))]
                 for _ in range(pyrng.randint(1, 3))]
                for _ in range(words)]

    for _ in range(200):
        costs = random_cost_matrix(INV, rng)
        e = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 10))]
        o = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 10))]
        check(e, o, costs, (0, 1, 2))
        check_lattice(random_lattice(non_eps, pyrng.randint(0, 4), 4), o, costs)
    # uniform costs over three symbols: many equal-cost scripts per pair
    for prefs in itertools.permutations((0, 1, 2)):
        for _ in range(100):
            e = [pyrng.choice(tie_heavy) for _ in range(pyrng.randint(0, 10))]
            o = [pyrng.choice(tie_heavy) for _ in range(pyrng.randint(0, 10))]
            check(e, o, UNIFORM, prefs)
            check_lattice(random_lattice(tie_heavy, pyrng.randint(0, 4), 4), o, UNIFORM)
    # empty observed side, empty lattice, and +inf rows: T only matches T,
    # and inserting D costs +inf, so some totals are +inf
    t, d = INV.index("T"), INV.index("D")
    grid = UNIFORM.costs.copy()
    grid[t, :] = np.inf
    grid[t, t] = 0.0
    grid[eps, d] = np.inf
    blocked = CostMatrix(INV, grid)
    for costs in (UNIFORM, blocked):
        for lattice, o in (([[[t], [d]], [[]]], []), ([], [t, d]), ([], []),
                           ([[[t, t], [d]], [[t]]], [d, d]),
                           ([[[t], [t, t]]], [d])):
            check_lattice(lattice, o, costs)


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

    def lattice(phonemes, variant_offsets, word_offsets):
        return _dpcore.dp_lattice(*[np.asarray(a, dtype=np.int64) for a in
                                    (phonemes, variant_offsets, word_offsets)],
                                  e, UNIFORM.costs, eps)

    t = INV.index("T")
    for bad_offsets in (([0, 2], [0, 1]), ([1, 1], [0, 1]), ([0, 1], [0, 2]),
                        ([], [0]), ([0, 1], [1, 1])):
        with pytest.raises(ValueError):
            lattice([t], *bad_offsets)
    with pytest.raises(ValueError):
        lattice([t, t], [0, 2, 1, 2], [0, 3])
    with pytest.raises(IndexError):
        lattice([len(INV)], [0, 1], [0, 1])
    with pytest.raises(ValueError):
        _dpcore.dp_lattice([t], e, e, e, UNIFORM.costs, eps)


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
        (package / "__pycache__").write_text("a file where the cache directory goes\n")
    out, err = _start_import(tmp_path, **env).communicate(timeout=60)
    assert out.strip() == "pure", err


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
    assert source.count('"-O2"') == 1
    core.write_text(source.replace('"-O2"', '"-O1"'))
    after = cached()
    assert len(before) == 1 and len(after) == 2 and before < after, (before, after)


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
