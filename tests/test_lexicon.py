import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoscope import (
    Lexicon,
    OovError,
    OovPolicy,
    ParseError,
    PhonemeInventory,
    PronunciationVariant,
    ValidationError,
    normalize_word,
    parse_lexicon,
    phonemize,
    serialize_lexicon,
    tokenize,
)
from phonoscope.inventory import ARPABET

INV = PhonemeInventory.default()

from .conftest import idx


def labels_of(lex, word):
    return [v.labels(lex.inventory) for v in lex.variants(word)]


def test_parse_single_entry(inv):
    lex = parse_lexicon("HIS  HH IH1 Z", inv)
    assert labels_of(lex, "HIS") == [("HH", "IH", "Z")]


def test_empty_stream(inv):
    assert len(parse_lexicon("", inv)) == 0


def test_variant_order_preserved(inv):
    lex = parse_lexicon("READ  R IY1 D\nREAD(1)  R EH1 D", inv)
    assert labels_of(lex, "READ") == [("R", "IY", "D"), ("R", "EH", "D")]


def test_variants_are_ordered_by_index(inv):
    # the headword is variant 0 wherever it stands; equal indices keep file order
    lex = parse_lexicon("READ(2)  R EY1 D\nREAD(1)  R EH1 D\nREAD  R IY1 D\n"
                        "READ  R AY1 D", inv)
    assert labels_of(lex, "READ") == [("R", "IY", "D"), ("R", "AY", "D"),
                                      ("R", "EH", "D"), ("R", "EY", "D")]
    assert phonemize(["READ"], lex, variant_rule="first").indices == idx(inv, "R IY D")
    assert serialize_lexicon(lex).splitlines()[0] == "READ  R IY D"


def test_comments_and_blanks_ignored(inv):
    text = ";;; a comment\n\nHIS  HH IH1 Z\n;;; another\n"
    assert len(parse_lexicon(text, inv)) == 1


def test_unknown_phoneme_names_line_and_label(inv):
    with pytest.raises(ParseError) as err:
        parse_lexicon("OK  OW1 K\nBAD  QX1 K", inv)
    assert "QX1" in str(err.value)
    assert err.value.line == 2


def test_malformed_variant_index(inv):
    with pytest.raises(ParseError, match="variant"):
        parse_lexicon("WORD(x)  W ER1 D", inv)


def test_entry_without_phonemes_rejected(inv):
    with pytest.raises(ParseError):
        parse_lexicon("LONELY", inv)


def test_whitespace_runs_tolerated(inv):
    lex = parse_lexicon("HIS\tHH   IH1  Z", inv)
    assert labels_of(lex, "HIS") == [("HH", "IH", "Z")]


def test_normalize_word():
    assert normalize_word("Simple,") == "SIMPLE"
    assert normalize_word("don't") == "DON'T"
    assert normalize_word('"quoted!"') == "QUOTED"


def test_tokenize():
    assert tokenize("It was simple, in its way.") == [
        "IT", "WAS", "SIMPLE", "IN", "ITS", "WAY",
    ]
    assert tokenize("  ") == []


def test_phonemize_ease(inv):
    lex = parse_lexicon("EASE  IY1 Z", inv)
    result = phonemize(["EASE"], lex)
    assert result.indices == idx(inv, "IY Z")
    assert result.oov == []


def test_phonemize_empty(inv):
    lex = parse_lexicon("", inv)
    assert phonemize([], lex).indices == []


def test_phonemize_oov_fail_names_words(inv):
    lex = parse_lexicon("EASE  IY1 Z", inv)
    with pytest.raises(OovError) as err:
        phonemize(["ZZQX", "EASE", "QQRR"], lex)
    assert "ZZQX" in str(err.value)
    assert err.value.words == ["QQRR", "ZZQX"]


def test_phonemize_skip_policy(inv):
    lex = parse_lexicon("EASE  IY1 Z", inv)
    result = phonemize(["ZZQX"], lex, OovPolicy("skip_utterance"))
    assert result.skipped
    assert result.oov == ["ZZQX"]
    assert result.indices is None


def test_phonemize_supplementary_lexicon(inv):
    main = parse_lexicon("EASE  IY1 Z", inv)
    extra = parse_lexicon("SIMBOL  S IH1 M B AH0 L", inv)
    policy = OovPolicy("supplementary_lexicon", extra)
    result = phonemize(["EASE", "SIMBOL"], main, policy)
    assert result.indices == idx(inv, "IY Z S IH M B AH L")
    # in neither lexicon -> still an OOV failure
    with pytest.raises(OovError):
        phonemize(["NOPE"], main, policy)


def test_supplementary_mode_requires_lexicon():
    with pytest.raises(ValidationError):
        OovPolicy("supplementary_lexicon")


def test_unknown_policy_mode():
    with pytest.raises(ValidationError):
        OovPolicy("explode")


def test_phonemize_lattice(inv):
    lex = parse_lexicon("READ  R IY1 D\nREAD(1)  R EH1 D\nIT  IH1 T", inv)
    result = phonemize(["READ", "IT"], lex, variant_rule="all")
    assert result.indices is None
    assert [len(v) for v in result.lattice] == [2, 1]
    assert result.lattice[0][1].labels(inv) == ("R", "EH", "D")


def test_phonemize_first_length_is_sum_of_first_variants(inv):
    lex = parse_lexicon(
        "A  AH0\nA(1)  EY1\nREAD  R IY1 D\nREAD(1)  R EH1 D", inv
    )
    tokens = ["A", "READ", "A"]
    result = phonemize(tokens, lex)
    expected_len = sum(len(lex.variants(t)[0].phonemes) for t in tokens)
    assert len(result.indices) == expected_len


def test_phonemize_indices_in_range(inv):
    lex = parse_lexicon("HIS  HH IH1 Z\nEASE  IY1 Z", inv)
    result = phonemize(["HIS", "EASE", "HIS"], lex)
    for p in result.indices:
        assert 0 <= p < 40
        assert p != inv.epsilon_index


def test_epsilon_rejected_in_pronunciation(inv):
    with pytest.raises(ParseError):
        parse_lexicon("BAD  <eps>", inv)
    lex = Lexicon(inv)
    with pytest.raises(ValidationError):
        lex.add("BAD", PronunciationVariant((inv.epsilon_index,)))


words = st.text(alphabet=st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ'"),
                min_size=1, max_size=8).filter(lambda w: w.strip("'"))
prons = st.lists(st.sampled_from(ARPABET), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(words, st.lists(prons, min_size=1, max_size=3),
                       min_size=0, max_size=12))
def test_lexicon_roundtrip(entries):
    lex = Lexicon(INV)
    for word, variants in entries.items():
        for pron in variants:
            lex.add(normalize_word(word),
                    PronunciationVariant(tuple(INV.index(p) for p in pron)))
    reparsed = parse_lexicon(serialize_lexicon(lex), INV)
    assert reparsed == lex
