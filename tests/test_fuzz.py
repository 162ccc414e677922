"""Hypothesis fuzzing of the input parsers and of `phonoscope run`'s exit code.

Every parser turns any text into its result or raises a PhonoscopeError,
and `run` exits 0, 2 or 3 on any input, never 1 (internal error).
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from phonoscope import (
    PhonemeInventory,
    PhonoscopeError,
    parse_annotation_csv,
    parse_lexicon,
    parse_textgrid,
)
from phonoscope.cli import main
from phonoscope.manifest import CorpusManifest

from .test_annotations import HEADER
from .test_textgrid import long_form, short_form

INV = PhonemeInventory.default()
SYMBOLS = st.sampled_from(INV.symbols)
# stray pieces of each format, so generated text lands near the parsers' paths
JUNK = st.sampled_from(["", " ", ",", '"', "(", ")", "(1)", "0", "1", "2", "-1",
                        "1e999", "nan", "1.5", ";;;", "\t", "\\", "/", ".."])
TOKENS = st.one_of(SYMBOLS, JUNK, st.text(max_size=4))


def parses_or_phonoscope_error(parse, *args, **kwargs):
    try:
        return parse(*args, **kwargs)
    except PhonoscopeError:
        return None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | SYMBOLS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
utterance_docs = st.fixed_dictionaries({}, optional={
    key: json_values
    for key in ("utterance_id", "prompt_text", "prompt_path", "asr_transcript",
                "asr_path", "annotation_path")
})
speaker_docs = st.fixed_dictionaries({}, optional={
    "speaker_id": st.one_of(json_values, st.sampled_from(["s1", "s2", "..", "a/b"])),
    "l1_label": st.one_of(json_values, st.sampled_from(["L1A", "a b", "a_b"])),
    "utterances": st.one_of(json_values, st.lists(utterance_docs, max_size=3)),
})
manifest_texts = st.one_of(
    st.text(),
    json_values.map(json.dumps),
    st.lists(st.one_of(speaker_docs, json_values), max_size=3).map(
        lambda speakers: json.dumps({"speakers": speakers})),
)


@settings(max_examples=300, deadline=None)
@given(manifest_texts)
@example("[" * 100_000)                      # nesting past the recursion limit
@example('{"speakers": ' + "9" * 5000 + "}")  # past int()'s digit limit
@example('{"speakers": [{"speaker_id": "\\ud800"}]}')   # a lone surrogate
@example('{"speakers": [{"speaker_id": "s", "l1_label": "\\udcff"}]}')
@example('{"speakers": [{"speaker_id": "s", "utterances": [{"utterance_id": "u", '
         '"prompt_text": "a", "asr_path": "\\ud800"}]}]}')
def test_manifest_raises_only_phonoscope_errors(text):
    manifest = parses_or_phonoscope_error(CorpusManifest.from_json, text, Path("base"))
    if manifest is not None:
        parses_or_phonoscope_error(manifest.validate_paths)


lexicon_lines = st.tuples(
    st.one_of(st.text(max_size=6), st.sampled_from(["HIS", "HIS(1)", "HIS(", "(2)",
                                                     "...", "A(1)(2)", ";;;x"])),
    st.lists(TOKENS, max_size=6),
).map(lambda line: " ".join([line[0], *line[1]]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(lexicon_lines, max_size=6).map("\n".join)))
@example("X  AH1\x1c")
@example("Ⅰ(1)  AH")   # a headword whose uppercase form differs in length
def test_lexicon_raises_only_phonoscope_errors(text):
    parses_or_phonoscope_error(parse_lexicon, text, INV)


csv_rows = st.lists(st.one_of(TOKENS, st.sampled_from(
    ["u1", "correct", "substitution", "deletion", "insertion", "4"])),
    min_size=0, max_size=7).map(",".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(csv_rows, max_size=5).map(
    lambda rows: "\n".join([HEADER, *rows]))))
@example(HEADER + "\nu1," + "9" * 200_000 + ",T,D,substitution\n")
@example(HEADER + '\n"unclosed,0,T,D,substitution\n')
@example(HEADER + "\nu1,0,T,D,substitution\0\n")
@example(HEADER + "\nu1,1_000,T,D,substitution\n")
def test_annotation_csv_raises_only_phonoscope_errors(text):
    parses_or_phonoscope_error(parse_annotation_csv, text, INV)


def mangled(text: str, draw_index: int, replacement: str) -> str:
    lines = text.splitlines()
    if lines:
        lines[draw_index % len(lines)] = replacement
    return "\n".join(lines)


label_texts = st.lists(st.one_of(
    SYMBOLS, st.lists(st.one_of(SYMBOLS, JUNK), min_size=2, max_size=4).map(",".join),
    st.text(max_size=5).map(lambda t: t.replace('"', '""'))), max_size=4)
textgrids = st.one_of(
    st.text(),
    st.tuples(label_texts, st.sampled_from([long_form, short_form])).map(
        lambda case: case[1](case[0])),
    st.tuples(label_texts, st.sampled_from([long_form, short_form]),
              st.integers(0, 100), st.one_of(JUNK, st.text(max_size=8))).map(
        lambda case: mangled(case[1](case[0]), case[2], case[3])),
)


@settings(max_examples=300, deadline=None)
@given(textgrids, st.sampled_from(["annotations", "other"]))
@example(mangled(short_form(["T"]), 6, "1e999"), "annotations")  # tier count inf
@example(mangled(short_form(["T"]), 11, "1e999"), "annotations")
@example(mangled(short_form(["T"]), 11, "-3"), "annotations")
@example(mangled(short_form(["T"]), 11, "1.5"), "annotations")
def test_textgrid_raises_only_phonoscope_errors(text, tier):
    parses_or_phonoscope_error(parse_textgrid, text, tier, inventory=INV)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(TOKENS, max_size=8).map("\n".join)))
def test_inventory_raises_only_phonoscope_errors(text):
    parses_or_phonoscope_error(PhonemeInventory.from_text, text)


LEXICON = "HIS  HH IH1 Z\nEASE  IY1 Z\nIT  IH1 T\nWAS  W AH1 Z\nHIS(1)  HH IY Z\n"
sentences = st.lists(st.sampled_from(["his", "ease", "it", "was", "his,"]),
                     max_size=4).map(" ".join)
ANNOTATIONS = [HEADER + "\nu1,0,HH,<eps>,deletion\n", long_form(["HH", "IH,IY,s"])]
# what one utterance may carry to make the run fail
FAULTS = [None, "zork", HEADER + "\nu1,0,QQ,T,correct\n", "not a csv",
          long_form(["T"], tier="other")]


@st.composite
def corpora(draw):
    """(manifest document, {relative path: file text}) over the tiny lexicon;
    at most one utterance carries an OOV word or a bad annotation file."""
    files = {}

    def annotate(utt, text):
        suffix = ".TextGrid" if text.startswith("File") else ".csv"
        utt["annotation_path"] = f"{len(files)}{suffix}"
        files[utt["annotation_path"]] = text

    speakers, utterances = [], []
    for s in range(draw(st.sampled_from([2, 3, 4, 1, 0]))):
        speaker = {"speaker_id": f"s{s}",
                   "l1_label": draw(st.sampled_from([None, "L1A", "L1B"])),
                   "utterances": []}
        for u in range(draw(st.sampled_from([1, 2, 3, 0]))):
            utt = {"utterance_id": f"u{u}", "prompt_text": draw(sentences),
                   "asr_transcript": draw(sentences)}
            annotation = draw(st.sampled_from([None, *ANNOTATIONS]))
            if annotation is not None:
                annotate(utt, annotation)
            speaker["utterances"].append(utt)
            utterances.append(utt)
        speakers.append(speaker)
    fault = draw(st.sampled_from(FAULTS))
    if fault is not None and utterances:
        utt = draw(st.sampled_from(utterances))
        if fault == "zork":
            utt["asr_transcript"] += " zork"
        else:
            annotate(utt, fault)
    doc = {"speakers": speakers}
    if draw(st.sampled_from([False] * 4 + [True])):
        doc = draw(json_values)
    return doc, files


# values that run cleanly on 1-4 tiny speakers, and values out of range
FLAG_VALUES = {
    "--k": ["1", "2", "3", "0", "-1", "9"],
    "--seed": ["0", "7", "4294967296", "-1"],
    "--perplexity": ["1", "1.5", "2", "0", "-1", "0.5", "30", "nan", "inf"],
    "--learning-rate": ["200", "10", "0", "-5", "nan", "inf", "1e308"],
    "--early-exaggeration": ["12", "1", "0", "-1", "nan", "inf", "1e308"],
    "--tsne-iterations": ["0", "5", "30", "-5"],
    "--top-k": ["0", "1", "3", "-1"],
    "--min-occurrences": ["1", "2", "0", "-3"],
    "--targets": ["IH", "IH,Z", "", ",", "ZZ", "<eps>", "HH,<eps>"],
    "--annotation-tier": ["annotations", "other"],
    "--tie-break": ["insert,delete,substitute", "match,delete,insert", "foo",
                    "delete,insert", ""],
    "--oov-policy": ["fail", "skip_utterance"],
    "--variant-rule": ["first", "all"],
    "--normalization": ["raw_counts", "row_frequency"],
    "--init": ["kmeanspp", "forgy"],
}


@st.composite
def run_flags(draw):
    """Up to three flags, each set to one of its FLAG_VALUES."""
    flags = draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=3, unique=True))
    return [f"{flag}={draw(st.sampled_from(FLAG_VALUES[flag]))}" for flag in flags]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora(), run_flags())
def test_run_exit_code_is_never_internal(corpus, flags):
    doc, files = corpus
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "lex.dict").write_text(LEXICON)
        (root / "manifest.json").write_text(json.dumps(doc))
        for name, text in files.items():
            (root / name).write_text(text)
        # base values that suit 1-4 tiny speakers; the drawn flags override them
        code = main(["run", str(root / "manifest.json"), "--lexicon", str(root / "lex.dict"),
                     "--out-dir", str(root / "out"), "--k=1", "--perplexity=1",
                     "--tsne-iterations=20", "--min-occurrences=1", *flags])
        event(f"exit {code}")   # shown by --hypothesis-show-statistics
        assert code in (0, 2, 3)
