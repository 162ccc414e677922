"""Acceptance suite: one test per criterion, each timed against its budget.

The terminal summary (see conftest) prints one line per criterion.
"""

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from phonoscope import (
    AnnotationRecord,
    AnnotationSet,
    ConfusionMatrix,
    CostMatrix,
    Lexicon,
    PhonemeInventory,
    PronunciationVariant,
    SpeakerProfile,
    accumulate,
    align,
    compare,
    kmeans,
    parse_annotation_csv,
    parse_lexicon,
    phoneme_stats,
    purity,
    serialize_annotation_csv,
    serialize_lexicon,
    tsne,
)
from phonoscope.cli import main
from phonoscope.clustering import (
    conditional_affinities,
    pairwise_sq_dists,
    symmetrized_affinities,
)

from .conftest import (
    align_bruteforce,
    idx,
    make_group_vectors,
    make_weighted_costs,
    random_cost_matrix,
)
from .test_alignment import enumerate_scripts, plain_levenshtein

INV = PhonemeInventory.default()
EPS = INV.epsilon_index
UNIFORM = CostMatrix.uniform(INV)
REPO = Path(__file__).resolve().parent.parent
SAMPLE = REPO / "sample_corpus"


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"exceeded runtime budget: {elapsed:.2f}s >= {seconds}s"


def constraint_matrix(rng):
    """Random costs where deleting HH then tensing IH->IY is clearly cheapest."""
    n = len(INV)
    grid = rng.uniform(0.8, 1.2, size=(n, n))
    np.fill_diagonal(grid, 0.0)
    hh, ih, iy = INV.index("HH"), INV.index("IH"), INV.index("IY")
    grid[hh, EPS] = rng.uniform(0.1, 0.4)
    grid[ih, iy] = rng.uniform(0.1, 0.4)
    grid[hh, iy] = rng.uniform(0.8, 1.2)
    grid[ih, EPS] = rng.uniform(0.8, 1.2)
    grid[EPS, EPS] = 0.0
    assert grid[hh, EPS] + grid[ih, iy] < grid[hh, iy] + grid[ih, EPS]
    return CostMatrix(INV, grid)


def test_c1_table2_disambiguation():
    with budget(1.0):
        e, o = idx(INV, "HH IH Z"), idx(INV, "IY Z")
        expected_script = [
            ("delete", "HH", "<eps>"),
            ("substitute", "IH", "IY"),
            ("match", "Z", "Z"),
        ]
        rng = np.random.default_rng(0)
        matrices = [make_weighted_costs(INV)] + [
            constraint_matrix(rng) for _ in range(50)
        ]
        from phonoscope.costs import load_cost_matrix

        matrices.append(load_cost_matrix(SAMPLE / "costs.csv", INV))
        for costs in matrices:
            a = align(e, o, costs)
            got = [
                (op.kind, INV.label(op.expected), INV.label(op.observed))
                for op in a.ops
            ]
            assert got == expected_script

        scripts = list(enumerate_scripts(e, o, UNIFORM))
        best = min(c for _, c in scripts)
        assert best == 2.0
        assert sum(1 for _, c in scripts if c == best) == 2


def test_c2_oracle_equivalence_1000_instances():
    with budget(30.0):
        rng = np.random.default_rng(1)
        pyrng = random.Random(1)
        symbols = [INV.index(s) for s in ("T", "D", "S", "Z", "IH", "IY")]
        for _ in range(1000):
            costs = random_cost_matrix(INV, rng)
            e = [pyrng.choice(symbols) for _ in range(pyrng.randint(0, 5))]
            o = [pyrng.choice(symbols) for _ in range(pyrng.randint(0, 5))]
            assert align(e, o, costs).total_cost == align_bruteforce(e, o, costs)


def test_c3_levenshtein_reduction_1000_pairs():
    with budget(10.0):
        pyrng = random.Random(2)
        non_eps = INV.non_epsilon_indices()
        for _ in range(1000):
            e = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 12))]
            o = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 12))]
            assert align(e, o, UNIFORM).total_cost == plain_levenshtein(e, o)


def test_c4_metric_identities():
    with budget(10.0):
        rng = np.random.default_rng(3)
        for _ in range(100):
            counts = rng.integers(0, 40, size=(40, 40))
            counts[EPS, EPS] = 0
            m = ConfusionMatrix(INV, counts)
            for t in INV.non_epsilon_indices():
                if m.row_sum(t) == 0:
                    continue
                stats = phoneme_stats(m, t)
                total = stats.recognition_rate + sum(
                    s.rate for s in stats.substitutes
                )
                assert abs(total - 1.0) < 1e-9

        # row-sum conservation, exact, against the source alignments
        pyrng = random.Random(3)
        non_eps = INV.non_epsilon_indices()
        profile = SpeakerProfile("spk", ConfusionMatrix(INV))
        symbol_counts = np.zeros(40, dtype=np.int64)
        for _ in range(200):
            e = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 10))]
            o = [pyrng.choice(non_eps) for _ in range(pyrng.randint(0, 10))]
            for p in e:
                symbol_counts[p] += 1
            accumulate(profile, align(e, o, UNIFORM))
        for t in non_eps:
            assert profile.matrix.row_sum(t) == symbol_counts[t]


def test_c5_table3_fixture_row():
    with budget(1.0):
        th = INV.index("TH")
        asr = ConfusionMatrix(INV)
        asr.counts[th, th] = 792
        asr.counts[th, INV.index("S")] = 75
        asr.counts[th, INV.index("T")] = 40
        asr.counts[th, EPS] = 93
        ha = ConfusionMatrix(INV)
        ha.counts[th, th] = 810
        ha.counts[th, INV.index("S")] = 131
        ha.counts[th, INV.index("T")] = 40
        ha.counts[th, EPS] = 19
        table = compare(asr, ha, targets=["TH"])
        row = table.to_csv().splitlines()[1]
        assert row == "TH,79.2%,81.0%,S,S,7.5%,13.1%"


def test_c6_clustering_recovery():
    with budget(10.0):
        vectors, labels = make_group_vectors(seed=0)
        perfect = 0
        for seed in range(10):
            result = kmeans(vectors, k=6, seed=seed, init="kmeanspp")
            history = result.inertia_history
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier
            if purity(result, labels) == 1.0:
                perfect += 1
        assert perfect >= 9


def test_c7_tsne_properties():
    with budget(60.0):
        vectors, labels = make_group_vectors(seed=0)
        data = np.stack([v.values for v in vectors])
        cond, entropies = conditional_affinities(pairwise_sq_dists(data), 5.0)
        np.testing.assert_allclose(entropies, math.log2(5.0), atol=1e-5)
        sym = symmetrized_affinities(cond)
        assert (sym >= 0).all()
        np.testing.assert_allclose(sym, sym.T)
        assert abs(sym.sum() - 1.0) < 1e-9

        ids = [v.speaker_id for v in vectors]
        for seed in range(5):
            result = tsne(vectors, perplexity=5.0, seed=seed)
            assert result.kl_divergence < result.initial_kl
            coords = {p.speaker_id: (p.x, p.y) for p in result.points}
            intra, inter = [], []
            for i, a in enumerate(ids):
                ax, ay = coords[a]
                for b in ids[i + 1:]:
                    bx, by = coords[b]
                    d = math.hypot(ax - bx, ay - by)
                    (intra if labels[a] == labels[b] else inter).append(d)
            assert np.mean(inter) > np.mean(intra)


def test_c8_end_to_end_determinism(tmp_path):
    with budget(30.0):
        trees = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = main([
                "run", str(SAMPLE / "manifest.json"),
                "--lexicon", str(SAMPLE / "lexicon.dict"),
                "--costs", str(SAMPLE / "costs.csv"),
                "--supplementary-lexicon", str(SAMPLE / "nonwords.dict"),
                "--oov-policy", "supplementary_lexicon",
                "--k", "3", "--seed", "42", "--min-occurrences", "2",
                "--out-dir", str(out),
            ])
            assert code == 0
            trees.append({
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            })
        assert trees[0].keys() == trees[1].keys()
        assert trees[0] == trees[1]


def test_c9_format_roundtrips():
    with budget(30.0):
        pyrng = random.Random(9)
        rng = np.random.default_rng(9)
        non_eps = INV.non_epsilon_indices()
        letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

        for _ in range(100):  # lexicon
            lex = Lexicon(INV)
            for _ in range(pyrng.randint(0, 10)):
                word = "".join(pyrng.choice(letters)
                               for _ in range(pyrng.randint(1, 8)))
                for _ in range(pyrng.randint(1, 3)):
                    pron = tuple(pyrng.choice(non_eps)
                                 for _ in range(pyrng.randint(1, 6)))
                    lex.add(word, PronunciationVariant(pron))
            assert parse_lexicon(serialize_lexicon(lex), INV) == lex

        kinds = ["correct", "substitution", "deletion", "insertion"]
        for _ in range(100):  # annotation CSV
            records = []
            for pos in range(pyrng.randint(0, 14)):
                kind = pyrng.choice(kinds)
                a = pyrng.choice(non_eps)
                b = pyrng.choice(non_eps)
                if kind == "correct":
                    rec = AnnotationRecord("u", pos, a, a, kind)
                elif kind == "substitution":
                    if a == b:
                        b = non_eps[(non_eps.index(b) + 1) % len(non_eps)]
                    rec = AnnotationRecord("u", pos, a, b, kind)
                elif kind == "deletion":
                    rec = AnnotationRecord("u", pos, a, EPS, kind)
                else:
                    rec = AnnotationRecord("u", pos, EPS, b, kind)
                records.append(rec)
            aset = AnnotationSet("spk", records)
            text = serialize_annotation_csv(aset, INV)
            assert parse_annotation_csv(text, INV, "spk") == aset

        for _ in range(100):  # confusion CSV
            counts = rng.integers(0, 90, size=(40, 40))
            counts[EPS, EPS] = 0
            m = ConfusionMatrix(INV, counts)
            assert ConfusionMatrix.from_csv(m.to_csv(), INV) == m
