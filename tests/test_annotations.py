import csv

import numpy as np
import pytest

from phonoscope import (
    AnnotationRecord,
    AnnotationSet,
    ConfusionMatrix,
    ParseError,
    PhonemeInventory,
    ValidationError,
    annotations_to_confusion,
    compare,
    most_common_substitute,
    parse_annotation_csv,
    recognition_rate,
    serialize_annotation_csv,
)
from phonoscope import alignment, annotations
from phonoscope.annotations import CORRECT, DELETION, INSERTION, SUBSTITUTION

INV = PhonemeInventory.default()
EPS = INV.epsilon_index

HEADER = "utterance,position,target,observed,kind"


def test_parse_substitution_row():
    aset = parse_annotation_csv(
        f"{HEADER}\nutt_0001,4,T,D,substitution\n", INV, speaker_id="spk"
    )
    assert aset.speaker_id == "spk"
    rec = aset.records[0]
    assert rec == AnnotationRecord(
        "utt_0001", 4, INV.index("T"), INV.index("D"), "substitution"
    )


def test_parse_deletion_row():
    aset = parse_annotation_csv(f"{HEADER}\nu1,0,HH,<eps>,deletion\n", INV)
    rec = aset.records[0]
    assert rec.kind == "deletion"
    assert rec.observed == EPS


def test_deletion_with_real_observed_rejected():
    with pytest.raises(ParseError) as err:
        parse_annotation_csv(f"{HEADER}\nu1,0,HH,D,deletion\n", INV)
    assert err.value.line == 2


def test_inconsistent_kinds_rejected():
    bad_rows = [
        "u1,0,T,T,substitution",      # substitution needs target != observed
        "u1,0,T,D,correct",           # correct needs equality
        "u1,0,<eps>,<eps>,insertion", # never both epsilon
        "u1,0,T,D,deletion",
        "u1,0,T,D,insertion",
        "u1,0,T,D,mumble",
    ]
    for row in bad_rows:
        with pytest.raises(ParseError):
            parse_annotation_csv(f"{HEADER}\n{row}\n", INV)


def ladder_kind_error(kind, target, observed, eps):
    """The first kind check, one branch per kind (oracle for _kind_error)."""
    if kind == CORRECT:
        if target == eps or observed == eps or target != observed:
            return "correct requires target = observed, neither epsilon"
    elif kind == SUBSTITUTION:
        if target == eps or observed == eps:
            return "substitution requires non-epsilon target and observed"
        if target == observed:
            return "substitution requires target != observed"
    elif kind == DELETION:
        if target == eps or observed != eps:
            return "deletion requires non-epsilon target and observed = <eps>"
    elif kind == INSERTION:
        if target != eps or observed == eps:
            return "insertion requires target = <eps> and non-epsilon observed"
    else:
        return f"unknown kind {kind!r}"
    return None


def test_kind_rule_accepts_what_the_ladder_accepts():
    for kind in (*annotations.KINDS, "mumble"):
        for target in range(len(INV)):
            for observed in range(len(INV)):
                new = annotations._kind_error(kind, target, observed, INV)
                old = ladder_kind_error(kind, target, observed, EPS)
                assert (new is None) == (old is None), (kind, target, observed, new, old)


def test_kind_error_names_both_symbols_and_the_cells_kind():
    t, d = INV.index("T"), INV.index("D")
    assert annotations._kind_error(DELETION, t, d, INV) == (
        "deletion does not fit target T, observed D (substitution)")
    assert annotations._kind_error(INSERTION, EPS, EPS, INV) == (
        "insertion does not fit target <eps>, observed <eps> (no op)")


@pytest.mark.parametrize("target,observed,kind", [
    (-1, INV.index("T"), INSERTION), (-2, -2, CORRECT), (len(INV), len(INV), CORRECT)])
def test_validate_rejects_indices_outside_the_inventory(target, observed, kind):
    aset = AnnotationSet("s", [AnnotationRecord("u", 0, target, observed, kind)])
    with pytest.raises(ValidationError, match="outside the inventory"):
        aset.validate(INV)


def test_annotation_kinds_follow_alignment_kinds():
    # both index one cell_kinds grid, so code i must name one op on both sides
    assert list(zip(annotations.KINDS, alignment.KINDS)) == [
        ("correct", "match"), ("substitution", "substitute"),
        ("deletion", "delete"), ("insertion", "insert")]


def test_unknown_phoneme_names_line():
    with pytest.raises(ParseError) as err:
        parse_annotation_csv(f"{HEADER}\nu1,0,T,T,correct\nu1,1,QX,T,substitution", INV)
    assert err.value.line == 3


def test_bad_header_rejected():
    with pytest.raises(ParseError):
        parse_annotation_csv("utt,pos,a,b,kind\nu1,0,T,T,correct", INV)


def test_positions_must_not_decrease():
    text = f"{HEADER}\nu1,3,T,T,correct\nu1,1,D,D,correct"
    with pytest.raises(ParseError, match="decrease") as err:
        parse_annotation_csv(text, INV, source="a.csv")
    assert (err.value.line, err.value.source) == (3, "a.csv")
    # non-decreasing across different utterances is unconstrained
    ok = f"{HEADER}\nu1,3,T,T,correct\nu2,0,D,D,correct"
    assert len(parse_annotation_csv(ok, INV).records) == 2


def test_serialize_roundtrip():
    text = (
        f"{HEADER}\n"
        "u1,0,DH,DH,correct\n"
        "u1,2,T,D,substitution\n"
        "u1,5,HH,<eps>,deletion\n"
        "u2,0,<eps>,AH,insertion\n"
    )
    aset = parse_annotation_csv(text, INV, speaker_id="s")
    assert serialize_annotation_csv(aset, INV) == text
    again = parse_annotation_csv(serialize_annotation_csv(aset, INV), INV, "s")
    assert again == aset


def ha_th_fixture(correct=81, s_subs=13, t_subs=6):
    records = []
    pos = 0
    th, s, t = INV.index("TH"), INV.index("S"), INV.index("T")
    for _ in range(correct):
        records.append(AnnotationRecord("u", pos, th, th, "correct"))
        pos += 1
    for _ in range(s_subs):
        records.append(AnnotationRecord("u", pos, th, s, "substitution"))
        pos += 1
    for _ in range(t_subs):
        records.append(AnnotationRecord("u", pos, th, t, "substitution"))
        pos += 1
    return AnnotationSet("spk", records)


def test_annotations_to_confusion_scaled_fixture():
    m = annotations_to_confusion(ha_th_fixture(), INV)
    assert recognition_rate(m, "TH") == 0.81
    mcs = most_common_substitute(m, "TH")
    assert INV.label(mcs.symbol) == "S"
    assert mcs.rate == 0.13


def test_annotations_to_confusion_empty():
    assert annotations_to_confusion(AnnotationSet("s"), INV).mass() == 0


def test_annotations_to_confusion_insertion():
    aset = AnnotationSet("s", [
        AnnotationRecord("u", 0, EPS, INV.index("AH"), "insertion")
    ])
    m = annotations_to_confusion(aset, INV)
    assert m.counts[EPS, INV.index("AH")] == 1


def test_record_count_equals_matrix_mass():
    aset = ha_th_fixture(40, 9, 2)
    assert annotations_to_confusion(aset, INV).mass() == len(aset.records)


def asr_th_fixture():
    m = ConfusionMatrix(INV)
    th = INV.index("TH")
    m.counts[th, th] = 792
    m.counts[th, INV.index("S")] = 75
    m.counts[th, INV.index("T")] = 40
    m.counts[th, EPS] = 93
    return m


def ha_th_matrix():
    m = ConfusionMatrix(INV)
    th = INV.index("TH")
    m.counts[th, th] = 810
    m.counts[th, INV.index("S")] = 131
    m.counts[th, INV.index("T")] = 40
    m.counts[th, EPS] = 19
    return m


def test_compare_th_fixture_row():
    table = compare(asr_th_fixture(), ha_th_matrix(), targets=["TH"])
    line = table.to_csv().splitlines()[1]
    assert line == "TH,79.2%,81.0%,S,S,7.5%,13.1%"


def test_compare_reflexive():
    m = asr_th_fixture()
    table = compare(m, m, targets=["TH"])
    cells = table.to_csv().splitlines()[1].split(",")
    assert cells[1] == cells[2]
    assert cells[3] == cells[4]
    assert cells[5] == cells[6]


def test_compare_mcs_disagreement():
    """ASR and annotator disagree on the most common substitute."""
    zh, z, jh = INV.index("ZH"), INV.index("Z"), INV.index("JH")
    asr = ConfusionMatrix(INV)
    asr.counts[zh, zh] = 24
    asr.counts[zh, z] = 6
    asr.counts[zh, jh] = 2
    asr.counts[zh, EPS] = 8
    ha = ConfusionMatrix(INV)
    ha.counts[zh, zh] = 18
    ha.counts[zh, jh] = 10
    ha.counts[zh, z] = 4
    ha.counts[zh, EPS] = 8
    cells = compare(asr, ha, targets=["ZH"]).to_csv().splitlines()[1].split(",")
    assert (cells[3], cells[4]) == ("Z", "JH")


def test_compare_undefined_side_markers():
    table = compare(asr_th_fixture(), ConfusionMatrix(INV), targets=["TH"])
    cells = table.to_csv().splitlines()[1].split(",")
    assert cells[1] == "79.2%"
    assert cells[2] == "NA"
    assert cells[4] == "NA"
    assert cells[6] == "NA"


def test_compare_swapping_sides_swaps_columns():
    asr, ha = asr_th_fixture(), ha_th_matrix()
    fwd = compare(asr, ha, targets=["TH"]).to_csv().splitlines()[1].split(",")
    rev = compare(ha, asr, targets=["TH"]).to_csv().splitlines()[1].split(",")
    assert rev[1:] == [fwd[2], fwd[1], fwd[4], fwd[3], fwd[6], fwd[5]]


def test_compare_topk_selection():
    """Default targets: lowest ASR recognition among sufficiently frequent."""
    m = ConfusionMatrix(INV)
    rows = {"TH": (10, 30), "ZH": (5, 35), "P": (30, 10), "K": (1, 1)}
    for lab, (diag, subs) in rows.items():
        i = INV.index(lab)
        m.counts[i, i] = diag
        m.counts[i, INV.index("S")] += subs
    table = compare(m, ConfusionMatrix(INV), top_k=2, min_occurrences=20)
    targets = [INV.label(r.target) for r in table.rows]
    # K is below min_occurrences; ZH (12.5%) then TH (25%) are the worst
    assert targets == ["ZH", "TH"]


def test_compare_rejects_epsilon_target():
    with pytest.raises(ValidationError):
        compare(asr_th_fixture(), ha_th_matrix(), targets=["<eps>"])


@pytest.mark.parametrize("target", [-1, 40, 99])
def test_compare_rejects_index_outside_the_inventory(target):
    # -1 would otherwise read the epsilon (insertion) row
    with pytest.raises(ValidationError, match="outside the inventory"):
        compare(asr_th_fixture(), ha_th_matrix(), targets=[target])


@pytest.mark.parametrize("targets", [["TH", "TH"], ["TH", "S", INV.index("TH")]])
def test_compare_rejects_a_target_given_twice(targets):
    with pytest.raises(ValidationError, match="target TH is given more than once"):
        compare(asr_th_fixture(), ha_th_matrix(), targets=targets)


def test_compare_rejects_inventory_mismatch():
    other = PhonemeInventory(["T", "<eps>"])
    with pytest.raises(ValidationError):
        compare(asr_th_fixture(), ConfusionMatrix(other))


def test_compare_text_table_shape():
    text = compare(asr_th_fixture(), ha_th_matrix(), targets=["TH"]).to_text()
    lines = text.splitlines()
    assert lines[0].startswith("Target")
    assert "79.2%" in lines[2] and "13.1%" in lines[2]


def test_csv_roundtrip_random_sets():
    rng = np.random.default_rng(23)
    non_eps = INV.non_epsilon_indices()
    kinds = ["correct", "substitution", "deletion", "insertion"]
    for _ in range(100):
        records = []
        pos = 0
        for _ in range(rng.integers(0, 15)):
            kind = kinds[rng.integers(0, 4)]
            a = int(non_eps[rng.integers(0, len(non_eps))])
            b = int(non_eps[rng.integers(0, len(non_eps))])
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
            pos += 1
        aset = AnnotationSet("spk", records)
        text = serialize_annotation_csv(aset, INV)
        assert parse_annotation_csv(text, INV, "spk") == aset


@pytest.mark.parametrize("text,line", [
    # the record is named by the line it starts on, blank lines counted
    (f"{HEADER}\n\nu1,0,T,T,correct\n\nu1,1,QX,T,substitution\n", 5),
    (f"\n\n{HEADER}\nu1,0,QX,T,substitution\n", 4),
    (f"\n \n{HEADER.replace('kind', 'sort')}\nu1,0,T,T,correct\n", 3),
    (f'{HEADER}\n"u\n1",0,T,T,correct\nu1,1,QX,T,substitution\n', 4),
    (f'{HEADER}\r\n"u\r\n1",0,QX,T,correct\r\n', 2),
])
def test_csv_error_names_the_line_its_record_starts_on(text, line):
    with pytest.raises(ParseError) as err:
        parse_annotation_csv(text, INV, source="a.csv")
    assert (err.value.line, err.value.source) == (line, "a.csv")


def test_a_field_over_the_csv_size_limit_names_its_line():
    long_field = "x" * (csv.field_size_limit() + 1)
    text = f"{HEADER}\nu1,0,T,T,correct\n\n{long_field},1,T,T,correct\n"
    with pytest.raises(ParseError, match="bad CSV") as err:
        parse_annotation_csv(text, INV)
    assert err.value.line == 4


@pytest.mark.parametrize("position", ["-3", "+5", "1_0", "\u0663", "3.0", "", "0x1"])
def test_position_must_be_ascii_digits(position):
    with pytest.raises(ParseError, match="bad position") as err:
        parse_annotation_csv(f"{HEADER}\nu1,0,T,T,correct\nu1,{position},T,T,correct\n",
                             INV)
    assert err.value.line == 3


def test_position_digits_are_read_as_written():
    aset = parse_annotation_csv(f"{HEADER}\nu1, 007 ,T,T,correct\n", INV)
    assert aset.records[0].position == 7
