import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonoscope import (
    ConfusionMatrix,
    CostMatrix,
    PhonemeInventory,
    SpeakerProfile,
    UndefinedRateError,
    ValidationError,
    accumulate,
    align,
    format_percent,
    insertion_stats,
    merge,
    most_common_substitute,
    parse_lexicon,
    phoneme_stats,
    phonemize,
    recognition_rate,
    tokenize,
)
from phonoscope.alignment import Alignment
from phonoscope.confusion import Substitute

from .conftest import op_records

INV = PhonemeInventory.default()
EPS = INV.epsilon_index


def fresh_profile(speaker="spk"):
    return SpeakerProfile(speaker, ConfusionMatrix(INV))


def ops_alignment(ops):
    """An Alignment of the cells of (kind, expected, observed, cost) ops under
    uniform costs, which give each op its kind and cost."""
    total = 0.0
    for *_, cost in ops:
        total = total + cost
    alignment = Alignment(np.array([e * len(INV) + o for _, e, o, _ in ops], dtype=np.int64),
                          CostMatrix.uniform(INV), total)
    assert op_records(alignment) == list(ops)
    return alignment


def table2_alignment():
    hh, ih, iy, z = (INV.index(s) for s in ("HH", "IH", "IY", "Z"))
    return ops_alignment([
        ("delete", hh, EPS, 1.0),
        ("substitute", ih, iy, 1.0),
        ("match", z, z, 0.0),
    ])


def th_row_fixture(diagonal=792, s=75, t=40, deleted=93):
    """A TH row with 1000 occurrences and S as the leading substitute."""
    m = ConfusionMatrix(INV)
    th = INV.index("TH")
    m.counts[th, th] = diagonal
    m.counts[th, INV.index("S")] = s
    m.counts[th, INV.index("T")] = t
    m.counts[th, EPS] = deleted
    return m


def test_accumulate_table2_ops():
    profile = accumulate(fresh_profile(), table2_alignment())
    c = profile.matrix.counts
    assert c[INV.index("HH"), EPS] == 1
    assert c[INV.index("IH"), INV.index("IY")] == 1
    assert c[INV.index("Z"), INV.index("Z")] == 1
    assert profile.matrix.mass() == 3
    assert profile.utterance_count == 1


def test_accumulate_empty_alignment():
    profile = accumulate(fresh_profile(), ops_alignment([]))
    assert profile.matrix.mass() == 0
    assert profile.utterance_count == 1


def test_accumulate_insertion():
    ah = INV.index("AH")
    profile = accumulate(fresh_profile(), ops_alignment([
        ("insert", EPS, ah, 1.0)
    ]))
    assert profile.matrix.counts[EPS, ah] == 1


def test_accumulate_refuses_an_alignment_over_another_inventory():
    t_to_d = align([INV.index("T")], [INV.index("D")], CostMatrix.uniform(INV))
    # the reversed inventory reads T -> D's cell as DH -> TH; the short one
    # has no such cell
    for other in (PhonemeInventory(INV.symbols[::-1]), PhonemeInventory(("T", "D", "<eps>"))):
        profile = SpeakerProfile("spk", ConfusionMatrix(other))
        with pytest.raises(ValidationError, match="different inventory"):
            accumulate(profile, t_to_d)
        assert profile.matrix.mass() == 0 and profile.utterance_count == 0


def test_recognition_rate_fixture():
    assert recognition_rate(th_row_fixture(), "TH") == 0.792


def test_recognition_rate_bounds():
    m = ConfusionMatrix(INV)
    m.counts[INV.index("K"), INV.index("K")] = 7
    assert recognition_rate(m, "K") == 1.0
    m2 = ConfusionMatrix(INV)
    m2.counts[INV.index("K"), EPS] = 7
    assert recognition_rate(m2, "K") == 0.0


def test_recognition_rate_undefined():
    with pytest.raises(UndefinedRateError):
        recognition_rate(ConfusionMatrix(INV), "TH")
    with pytest.raises(ValidationError):
        recognition_rate(th_row_fixture(), EPS)


def test_mcs_fixture():
    mcs = most_common_substitute(th_row_fixture(), "TH")
    assert INV.label(mcs.symbol) == "S"
    assert (mcs.count, mcs.occurrences) == (75, 1000)
    assert mcs.rate == 0.075


def test_mcs_none_for_diagonal_row():
    m = ConfusionMatrix(INV)
    m.counts[INV.index("K"), INV.index("K")] = 5
    assert most_common_substitute(m, "K") is None


def test_mcs_tie_breaks_to_lowest_index():
    m = ConfusionMatrix(INV)
    th = INV.index("TH")
    m.counts[th, INV.index("S")] = 5
    m.counts[th, INV.index("Z")] = 5
    mcs = most_common_substitute(m, th)
    assert INV.label(mcs.symbol) == "S"


def test_mcs_include_deletion_flag():
    m = th_row_fixture()  # deletions (93) outnumber S (75)
    assert INV.label(most_common_substitute(m, "TH").symbol) == "S"
    with_eps = most_common_substitute(m, "TH", include_deletion=True)
    assert with_eps.symbol == EPS
    assert with_eps.count == 93


def most_common_substitute_scan(matrix, target, include_deletion=False):
    """most_common_substitute's first formulation (oracle): one scan of the
    target row that keeps the first strictly larger off-diagonal count."""
    row = matrix.counts[target]
    best = None
    for c, count in enumerate(row):
        if c == target or (c == EPS and not include_deletion):
            continue
        if count > 0 and (best is None or count > row[best]):
            best = c
    if best is None:
        return None
    return Substitute(best, int(row[best]), matrix.row_sum(target))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=len(INV), max_size=len(INV)),
       st.sampled_from(INV.non_epsilon_indices()), st.booleans())
@example([0] * len(INV), INV.index("TH"), False)             # empty row
@example([1] * len(INV), INV.index("TH"), True)              # all tied, deletion first
@example([0] * EPS + [2] + [0] * (len(INV) - EPS - 1), 0, False)  # only deletions
@example([0] * EPS + [2] + [0] * (len(INV) - EPS - 1), 0, True)
def test_mcs_matches_the_row_scan(row, target, include_deletion):
    """Counts of 0-2 tie often; the pick from phoneme_stats equals the scan's."""
    counts = np.zeros((len(INV), len(INV)), dtype=np.int64)
    counts[target] = row
    m = ConfusionMatrix(INV, counts)
    if m.row_sum(target) == 0:
        with pytest.raises(UndefinedRateError):
            most_common_substitute(m, target, include_deletion)
        return
    assert (most_common_substitute(m, target, include_deletion)
            == most_common_substitute_scan(m, target, include_deletion))


def test_phoneme_stats_identity():
    stats = phoneme_stats(th_row_fixture(), "TH")
    assert stats.occurrences == 1000
    assert stats.correct == 792
    assert stats.occurrences == stats.correct + sum(s.count for s in stats.substitutes)
    total_rate = stats.recognition_rate + sum(s.rate for s in stats.substitutes)
    assert abs(total_rate - 1.0) < 1e-9
    assert [s.count for s in stats.substitutes] == sorted(
        (s.count for s in stats.substitutes), reverse=True
    )


def test_rate_identity_random_matrices():
    rng = np.random.default_rng(17)
    for _ in range(100):
        counts = rng.integers(0, 50, size=(40, 40))
        counts[EPS, EPS] = 0
        m = ConfusionMatrix(INV, counts)
        for t in INV.non_epsilon_indices():
            if m.row_sum(t) == 0:
                continue
            stats = phoneme_stats(m, t)
            total = stats.recognition_rate + sum(s.rate for s in stats.substitutes)
            assert abs(total - 1.0) < 1e-9


def test_merge_identity_and_commutativity():
    a = th_row_fixture()
    zero = ConfusionMatrix(INV)
    assert merge(a, zero) == a
    b = ConfusionMatrix(INV)
    b.counts[INV.index("P"), INV.index("B")] = 4
    assert merge(a, b) == merge(b, a)
    c = th_row_fixture(1, 2, 3, 4)
    assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_merge_rejects_inventory_mismatch():
    other = PhonemeInventory(["T", "D", "<eps>"])
    with pytest.raises(ValidationError):
        merge(ConfusionMatrix(INV), ConfusionMatrix(other))


def test_merge_equals_pooled_accumulation():
    """Merging per-speaker matrices == accumulating all alignments into one."""
    rng = random.Random(2)
    non_eps = INV.non_epsilon_indices()
    alignments = []
    uniform = CostMatrix.uniform(INV)
    for _ in range(12):
        e = [rng.choice(non_eps) for _ in range(rng.randint(0, 7))]
        o = [rng.choice(non_eps) for _ in range(rng.randint(0, 7))]
        alignments.append(align(e, o, uniform))
    quarters = [alignments[i::4] for i in range(4)]
    per_speaker = []
    for i, chunk in enumerate(quarters):
        p = fresh_profile(f"s{i}")
        for a in chunk:
            accumulate(p, a)
        per_speaker.append(p.matrix)
    pooled_profile = fresh_profile("all")
    for a in alignments:
        accumulate(pooled_profile, a)
    combined = per_speaker[0]
    for m in per_speaker[1:]:
        combined = merge(combined, m)
    assert combined == pooled_profile.matrix


def test_accumulate_order_independent():
    rng = random.Random(4)
    ops = op_records(table2_alignment())
    alignments = [ops_alignment([op]) for op in ops] * 3
    p1 = fresh_profile()
    for a in alignments:
        accumulate(p1, a)
    shuffled = alignments[:]
    rng.shuffle(shuffled)
    p2 = fresh_profile()
    for a in shuffled:
        accumulate(p2, a)
    assert p1.matrix == p2.matrix
    assert p1.utterance_count == p2.utterance_count


def test_row_sum_conservation_against_sequences():
    rng = random.Random(6)
    non_eps = INV.non_epsilon_indices()
    uniform = CostMatrix.uniform(INV)
    profile = fresh_profile()
    expected_counts = np.zeros(40, dtype=int)
    for _ in range(25):
        e = [rng.choice(non_eps) for _ in range(rng.randint(0, 9))]
        o = [rng.choice(non_eps) for _ in range(rng.randint(0, 9))]
        for p in e:
            expected_counts[p] += 1
        accumulate(profile, align(e, o, uniform))
    for t in non_eps:
        assert profile.matrix.row_sum(t) == expected_counts[t]


def test_insertion_stats():
    assert insertion_stats(ConfusionMatrix(INV)) == []
    m = ConfusionMatrix(INV)
    ah = INV.index("AH")
    m.counts[EPS, ah] = 3
    assert insertion_stats(m) == [(ah, 3)]


def test_insertion_stats_from_example_pair():
    """Phonemize and align the epenthesis example; the inserted AH shows up."""
    lexicon = parse_lexicon(
        "\n".join([
            "IT  IH1 T", "WAS  W AH1 Z", "SIMPLE  S IH1 M P AH0 L",
            "SIMBOL  S IH1 M B AH0 L", "IN  IH0 N", "ITS  IH1 T S",
            "WAY  W EY1", "AND  AH0 N D", "A  AH0", "NO  N OW1",
            "VIRTUE  V ER1 CH UW0", "OF  AH1 V", "HIS  HH IH1 Z",
            "EASE  IY1 Z",
        ]),
        INV,
    )
    prompt = "It was simple in its way and no virtue of his"
    asr = "It was simbol in its way and a no virtue of ease"
    e = phonemize(tokenize(prompt), lexicon).indices
    o = phonemize(tokenize(asr), lexicon).indices
    profile = accumulate(fresh_profile(), align(e, o, CostMatrix.uniform(INV)))
    inserted = dict(insertion_stats(profile.matrix))
    assert inserted.get(INV.index("AH"), 0) >= 1


def test_profile_json_roundtrip():
    profile = accumulate(fresh_profile("spk_9"), table2_alignment())
    profile.l1_label = "Hindi"
    back = SpeakerProfile.from_json(profile.to_json(), INV)
    assert back.speaker_id == "spk_9"
    assert back.l1_label == "Hindi"
    assert back.utterance_count == 1
    assert back.matrix == profile.matrix


def test_eps_eps_cell_rejected():
    counts = np.zeros((40, 40), dtype=int)
    counts[EPS, EPS] = 1
    with pytest.raises(ValidationError):
        ConfusionMatrix(INV, counts)


def test_format_percent():
    assert format_percent(792, 1000) == "79.2%"
    assert format_percent(75, 1000) == "7.5%"
    assert format_percent(131, 1000) == "13.1%"
    assert format_percent(810, 1000) == "81.0%"
    assert format_percent(1, 3) == "33.3%"
    assert format_percent(5, 2000) == "0.3%"  # 0.25% rounds half up
    assert format_percent(0, 10) == "0.0%"
    assert format_percent(10, 10) == "100.0%"


@st.composite
def profiles(draw):
    size = draw(st.sampled_from([2, 3, 5, 40]))
    inv = INV if size == 40 else PhonemeInventory(
        [f"P{i}" for i in range(size - 1)] + ["<eps>"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = draw(st.sampled_from([1, 30, 2**62]))
    counts = rng.integers(0, high, size=(size, size), dtype=np.int64)
    counts[inv.epsilon_index, inv.epsilon_index] = 0
    return SpeakerProfile(draw(st.text(min_size=1)), ConfusionMatrix(inv, counts),
                          draw(st.none() | st.text(min_size=1)),
                          draw(st.integers(0, 10**6)))


@settings(max_examples=200, deadline=None)
@given(profiles())
@example(SpeakerProfile("日本-spk", ConfusionMatrix(INV), None, 0))
@example(SpeakerProfile("s", ConfusionMatrix(INV), "Mandarin/普通话 \"q\"", 3))
def test_profile_json_has_sorted_keys_and_one_line_per_count_row(profile):
    doc = {
        "speaker_id": profile.speaker_id,
        "l1_label": profile.l1_label,
        "utterance_count": profile.utterance_count,
        "counts": profile.matrix.counts.tolist(),
    }
    text = profile.to_json()
    assert json.loads(text) == doc
    assert list(json.loads(text)) == sorted(doc)
    rows = [line for line in text.splitlines() if line.lstrip().startswith("[")]
    assert [json.loads(row.strip().rstrip(",")) for row in rows] == doc["counts"]
