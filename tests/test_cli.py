import argparse
import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from phonoscope import (
    ConfusionMatrix,
    CostMatrix,
    ParseError,
    PhonemeInventory,
    SpeakerProfile,
    dump_alignment,
    parse_lexicon,
    phonemize,
    tokenize,
)
from phonoscope import alignment, annotations, clustering, lexicon
from phonoscope.cli import build_parser, main, run_config
from phonoscope.gridcsv import serialize_grid
from phonoscope.manifest import CorpusManifest, RunConfig, load_config
from phonoscope.writer import CREATORS

from .conftest import align_min_variant_bruteforce, no_resource_warning, reaped

INV = PhonemeInventory.default()
REPO = Path(__file__).resolve().parent.parent
SAMPLE = REPO / "sample_corpus"

TINY_LEXICON = """\
HIS  HH IH1 Z
EASE  IY1 Z
IT  IH1 T
WAS  W AH1 Z
"""


def write_tiny_corpus(tmp_path, asr="ease", annotation=False):
    (tmp_path / "lex.dict").write_text(TINY_LEXICON)
    utt = {
        "utterance_id": "u1",
        "prompt_text": "his",
        "asr_transcript": asr,
    }
    if annotation:
        ann = "utterance,position,target,observed,kind\nu1,0,HH,<eps>,deletion\n"
        (tmp_path / "u1.csv").write_text(ann)
        utt["annotation_path"] = "u1.csv"
    manifest = {
        "speakers": [
            {"speaker_id": "s1", "l1_label": "L1A", "utterances": [utt]}
        ]
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return tmp_path / "manifest.json"


def sample_args(out_dir, extra=(), corpus=SAMPLE):
    return [
        str(corpus / "manifest.json"),
        "--lexicon", str(corpus / "lexicon.dict"),
        "--costs", str(corpus / "costs.csv"),
        "--supplementary-lexicon", str(corpus / "nonwords.dict"),
        "--oov-policy", "supplementary_lexicon",
        "--out-dir", str(out_dir),
        *extra,
    ]


def test_phonemize_writes_sequences(tmp_path):
    manifest = write_tiny_corpus(tmp_path)
    out = tmp_path / "out"
    code = main(["phonemize", str(manifest), "--lexicon",
                 str(tmp_path / "lex.dict"), "--out-dir", str(out)])
    assert code == 0
    expected = (out / "phonemes" / "s1" / "u1.expected.txt").read_text()
    observed = (out / "phonemes" / "s1" / "u1.observed.txt").read_text()
    assert expected == "HH IH Z\n"
    assert observed == "IY Z\n"
    report = json.loads((out / "oov_report.json").read_text())
    assert report == {"oov_words": {}, "skipped_utterances": []}


def test_phonemize_oov_fail_exits_3(tmp_path):
    manifest = write_tiny_corpus(tmp_path, asr="unknownword")
    out = tmp_path / "out"
    code = main(["phonemize", str(manifest), "--lexicon",
                 str(tmp_path / "lex.dict"), "--out-dir", str(out)])
    assert code == 3
    report = json.loads((out / "oov_report.json").read_text())
    assert "UNKNOWNWORD" in report["oov_words"]
    assert not (out / "phonemes").exists()


def test_phonemize_skip_policy_excludes_utterance(tmp_path):
    manifest = write_tiny_corpus(tmp_path, asr="unknownword")
    out = tmp_path / "out"
    code = main(["phonemize", str(manifest), "--lexicon",
                 str(tmp_path / "lex.dict"), "--oov-policy", "skip_utterance",
                 "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "oov_report.json").read_text())
    assert report["skipped_utterances"] == [["s1", "u1"]]


# no alignments/ or phonemes/: a directory is made only for a file in it
@pytest.mark.parametrize("command, made", [
    ("align", ["oov_report.json", "profiles"]),
    ("phonemize", ["oov_report.json"]),
])
def test_a_command_that_skips_every_utterance_makes_no_empty_directory(
        tmp_path, command, made):
    manifest = write_tiny_corpus(tmp_path, asr="unknownword")
    out = tmp_path / "out"
    code = main([command, str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--oov-policy", "skip_utterance", "--out-dir", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == made


def test_empty_manifest_ok(tmp_path):
    (tmp_path / "lex.dict").write_text(TINY_LEXICON)
    (tmp_path / "manifest.json").write_text('{"speakers": []}')
    code = main(["phonemize", str(tmp_path / "manifest.json"), "--lexicon",
                 str(tmp_path / "lex.dict"), "--out-dir", str(tmp_path / "o")])
    assert code == 0


def test_asr_side_unread_when_prompt_side_skips(tmp_path):
    # a prompt OOV skips the utterance before its unreadable ASR file is read
    (tmp_path / "lex.dict").write_text(TINY_LEXICON)
    (tmp_path / "asr.txt").write_bytes(b"\xff\n")
    manifest = write_manifest(tmp_path, [{"speaker_id": "s1", "utterances": [
        {"utterance_id": "u1", "prompt_text": "unknownword", "asr_path": "asr.txt"},
    ]}])
    out = tmp_path / "out"
    for policy, code in (("skip_utterance", 0), ("fail", 3)):
        assert main(["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                     "--oov-policy", policy, "--out-dir", str(out)]) == code
        report = json.loads((out / "oov_report.json").read_text())
        assert report == {"oov_words": {"UNKNOWNWORD": 1},
                          "skipped_utterances": [["s1", "u1"]]}


def test_align_single_utterance_profile(tmp_path):
    manifest = write_tiny_corpus(tmp_path)
    out = tmp_path / "out"
    code = main(["align", str(manifest), "--lexicon",
                 str(tmp_path / "lex.dict"), "--out-dir", str(out)])
    assert code == 0
    dump = (out / "alignments" / "s1" / "u1.tsv").read_text()
    assert len(dump.splitlines()) == 3  # delete + substitute + match
    profile = SpeakerProfile.from_json((out / "profiles" / "s1.json").read_text(), INV)
    assert profile.speaker_id == "s1"
    assert profile.utterance_count == 1
    assert profile.matrix.mass() == 3


def test_align_deterministic_outputs(tmp_path):
    manifest = write_tiny_corpus(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
              "--out-dir", str(out)])
        outs.append({
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        })
    assert outs[0] == outs[1]


def test_bad_cost_matrix_fails_before_alignment(tmp_path):
    manifest = write_tiny_corpus(tmp_path)
    (tmp_path / "bad_costs.csv").write_text("not,a,grid\n")
    out = tmp_path / "out"
    code = main(["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--costs", str(tmp_path / "bad_costs.csv"),
                 "--out-dir", str(out)])
    assert code == 2
    assert not out.exists()  # config validation precedes any output


def test_bad_manifest_exits_2(tmp_path):
    (tmp_path / "lex.dict").write_text(TINY_LEXICON)
    (tmp_path / "manifest.json").write_text('{"speakers": [{}]}')
    code = main(["align", str(tmp_path / "manifest.json"), "--lexicon",
                 str(tmp_path / "lex.dict"), "--out-dir", str(tmp_path / "o")])
    assert code == 2


def test_missing_referenced_path_exits_2(tmp_path):
    (tmp_path / "lex.dict").write_text(TINY_LEXICON)
    manifest = {
        "speakers": [{"speaker_id": "s1", "utterances": [{
            "utterance_id": "u1",
            "prompt_path": "missing.txt",
            "asr_transcript": "ease",
        }]}]
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code = main(["align", str(tmp_path / "manifest.json"), "--lexicon",
                 str(tmp_path / "lex.dict"), "--out-dir", str(tmp_path / "o")])
    assert code == 2


def test_cluster_and_compare_from_align_outputs(tmp_path):
    out = tmp_path / "out"
    code = main(["align", *sample_args(out)])
    assert code == 0
    profile_paths = sorted(str(p) for p in (out / "profiles").glob("*.json"))
    assert len(profile_paths) == 6
    code = main(["cluster", *profile_paths, "--k", "3", "--seed", "7",
                 "--out-dir", str(out)])
    assert code == 0
    clusters = (out / "clusters.csv").read_text().splitlines()
    assert clusters[0] == "speaker_id,cluster"
    assert len(clusters) == 7
    embedding = (out / "embedding.csv").read_text().splitlines()
    assert embedding[0] == "speaker_id,x,y,kind"
    assert sum(1 for l in embedding if l.endswith(",centroid")) == 3
    assert (out / "purity.txt").read_text() == "1.0\n"

    code = main(["compare", str(SAMPLE / "manifest.json"),
                 "--profiles-dir", str(out / "profiles"),
                 "--out-dir", str(out), "--min-occurrences", "2"])
    assert code == 0
    mandarin = (out / "comparison_Mandarin.csv").read_text().splitlines()
    assert mandarin[0].startswith("target,recognition_rate_asr")
    th_rows = [l for l in mandarin if l.startswith("TH,")]
    assert th_rows and ",S," in th_rows[0]


def test_cluster_k_greater_than_n_exits_2(tmp_path):
    out = tmp_path / "out"
    main(["align", *sample_args(out)])
    profile_paths = sorted(str(p) for p in (out / "profiles").glob("*.json"))
    code = main(["cluster", *profile_paths, "--k", "7", "--out-dir", str(out)])
    assert code == 2


def test_heatmap_command(tmp_path):
    out = tmp_path / "out"
    main(["align", *sample_args(out)])
    svg_path = tmp_path / "m1.svg"
    code = main(["heatmap", str(out / "profiles" / "spk_m1.json"),
                 str(svg_path)])
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.count("<rect x=") == 1600
    code = main(["heatmap", str(SAMPLE / "costs.csv"), str(svg_path),
                 "--kind", "costs"])
    assert code == 0


def test_heatmap_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    code = main(["heatmap", str(bad), str(tmp_path / "o.svg"), "--kind", "costs"])
    assert code == 2


def test_heatmap_refuses_a_csv_or_another_inventorys_profile(tmp_path, capsys):
    """--kind confusion reads only a profile JSON of the given inventory."""
    out = tmp_path / "out"
    assert main(["align", *sample_args(out)]) == 0
    grid = SpeakerProfile.from_json((out / "profiles" / "spk_m1.json").read_text(),
                                    INV).matrix.counts
    confusion_csv = tmp_path / "spk_m1.csv"   # counts in the cost-CSV layout
    confusion_csv.write_text(serialize_grid(grid, INV))
    (tmp_path / "phones.txt").write_text("T\nD\nAH\n<eps>\n")
    for matrix, extra in ((confusion_csv, []),
                          (out / "profiles" / "spk_m1.json",
                           ["--inventory", str(tmp_path / "phones.txt")])):
        svg = tmp_path / "o.svg"
        assert main(["heatmap", str(matrix), str(svg), *extra]) == 2
        err = capsys.readouterr().err
        assert str(matrix) in err and "bad profile JSON" in err
        assert not svg.exists()


def test_run_pipeline_conservation(tmp_path):
    out = tmp_path / "out"
    code = main(["run", *sample_args(out, ["--k", "3", "--seed", "1"])])
    assert code == 0
    total_mass = 0
    for path in (out / "profiles").glob("*.json"):
        total_mass += SpeakerProfile.from_json(path.read_text(), INV).matrix.mass()
    total_ops = 0
    for path in (out / "alignments").rglob("*.tsv"):
        total_ops += len(path.read_text().splitlines())
    assert total_mass == total_ops > 0


def test_run_includes_heatmaps_and_comparisons(tmp_path):
    out = tmp_path / "out"
    main(["run", *sample_args(out, ["--k", "3", "--min-occurrences", "2"])])
    assert len(list((out / "heatmaps").glob("*.svg"))) == 6
    assert (out / "comparison_Mandarin.txt").exists()
    assert (out / "comparison_Hindi.csv").exists()
    korean = (out / "comparison_Korean.csv").read_text()
    assert "Z," in korean  # the planted Z -> JH pattern surfaces


def _readme_output_patterns() -> dict:
    """Each top-level entry of README's Outputs block, as a regex over the
    names in --out-dir: <...> stands for any name, {a,b} for a or b."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## Outputs", 1)[1].split("```", 2)[1]
    patterns = {}
    for line in filter(str.strip, block.splitlines()):
        path = line.split()[0]
        entry = path.split("/")[0] + ("/" if "/" in path else "")
        parts = re.split(r"(<[^>]+>|\{[^}]*\})", entry)
        patterns[entry] = re.compile("".join(
            "[^/]+" if p.startswith("<")
            else "(" + "|".join(map(re.escape, p[1:-1].split(","))) + ")"
            if p.startswith("{") else re.escape(p)
            for p in parts))
    return patterns


def test_readme_outputs_are_what_run_writes(tmp_path):
    out = tmp_path / "out"
    assert main(["run", *sample_args(out, ["--k", "3", "--min-occurrences", "2"])]) == 0
    written = {p.name + ("/" if p.is_dir() else "") for p in out.iterdir()}
    patterns = _readme_output_patterns()
    matched = {entry for entry, regex in patterns.items()
               for name in written if regex.fullmatch(name)}
    assert all(any(regex.fullmatch(name) for regex in patterns.values())
               for name in written), written
    # phonemes/ is written by `phonemize` only
    assert set(patterns) - matched == {"phonemes/"}


def test_variant_rule_all_pipeline(tmp_path):
    (tmp_path / "lex.dict").write_text(
        "READ  R IY1 D\nREAD(1)  R EH1 D\nI  AY1\n"
    )
    manifest = {
        "speakers": [{"speaker_id": "s1", "utterances": [{
            "utterance_id": "u1",
            "prompt_text": "I read",
            "asr_transcript": "I read",
        }]}]
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code = main(["align", str(tmp_path / "manifest.json"), "--lexicon",
                 str(tmp_path / "lex.dict"), "--variant-rule", "all",
                 "--out-dir", str(out)])
    assert code == 0
    dump = (out / "alignments" / "s1" / "u1.tsv").read_text()
    # the matching variant is chosen: everything aligns at cost 0
    assert all(line.split("\t")[2] == "match" for line in dump.splitlines())


# one-phoneme variants keep the enumeration oracle's 4096 aligns cheap
VARIANT_PAIRS = (("T", "D"), ("S", "Z"), ("P", "B"), ("K", "G"), ("F", "V"),
                 ("IH", "IY"), ("AH", "AA"), ("EH", "AE"), ("UH", "UW"),
                 ("M", "N"), ("L", "R"), ("SH", "ZH"))


def test_twelve_two_variant_words_run_without_a_cap(tmp_path):
    # 2**12 = 4096 variant combinations in one prompt
    letters = "ABCDEFGHIJKL"
    text = "".join(f"W{c}  {first}\nW{c}(1)  {second}\nO{c}  {second}\n"
                   for c, (first, second) in zip(letters, VARIANT_PAIRS)) + "X  HH\n"
    (tmp_path / "lex.dict").write_text(text)
    prompt = " ".join(f"W{c}" for c in letters)
    asr = "OA X OC OD X OF X OH OJ OK X"  # substitutions and a dropped word
    manifest = {"speakers": [
        {"speaker_id": sid, "utterances": [
            {"utterance_id": "u1", "prompt_text": prompt, "asr_transcript": asr}]}
        for sid in ("s1", "s2")
    ]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code = main(["run", str(tmp_path / "manifest.json"), "--lexicon",
                 str(tmp_path / "lex.dict"), "--variant-rule", "all", "--k", "1",
                 "--perplexity", "1", "--out-dir", str(out)])
    assert code == 0

    lex = parse_lexicon(text, INV)
    lattice = phonemize(tokenize(prompt), lex, variant_rule="all").lattice
    observed = phonemize(tokenize(asr), lex).indices
    oracle = align_min_variant_bruteforce(lattice, observed, CostMatrix.uniform(INV))
    assert 0 in oracle.chosen and 1 in oracle.chosen
    for sid in ("s1", "s2"):
        assert ((out / "alignments" / sid / "u1.tsv").read_text()
                == dump_alignment(oracle))


def test_nan_cost_exits_2_naming_the_cell(tmp_path, capsys):
    lines = (SAMPLE / "costs.csv").read_text().splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] in ("AH", "IH", "T"):
            lines[i] = ",".join(c if j == 0 or header[j] == cells[0] else "nan"
                                for j, c in enumerate(cells))
    (tmp_path / "costs.csv").write_text("\n".join(lines) + "\n")
    args = sample_args(tmp_path / "out", ["--k", "3", "--min-occurrences", "2"])
    args[args.index("--costs") + 1] = str(tmp_path / "costs.csv")
    assert main(["run", *args]) == 2
    err = capsys.readouterr().err
    assert "NaN cost at (AH, AA)" in err and "internal error" not in err
    assert not (tmp_path / "out").exists()


def test_load_config_validates_everything_up_front(tmp_path):
    cfg = RunConfig(lexicon_path=tmp_path / "nope.dict")
    with pytest.raises(FileNotFoundError):
        load_config(cfg)
    (tmp_path / "lex.dict").write_text("BAD  QX9\n")
    with pytest.raises(ParseError):
        load_config(RunConfig(lexicon_path=tmp_path / "lex.dict"))


def test_phonemize_example_pair_from_sample_corpus(tmp_path):
    out = tmp_path / "out"
    code = main(["phonemize", *sample_args(out)])
    assert code == 0
    expected = (out / "phonemes" / "spk_m1" / "m1_u1.expected.txt").read_text()
    observed = (out / "phonemes" / "spk_m1" / "m1_u1.observed.txt").read_text()
    assert expected == ("IH T W AH Z S IH M P AH L IH N IH T S W EY "
                        "AH N D N OW V ER CH UW AH V HH IH Z\n")
    assert observed == ("IH T W AH Z S IH M B AH L IH N IH T S W EY "
                        "AH N D AH N OW V ER CH UW AH V IY Z\n")


def test_phonemize_lattice_output(tmp_path):
    (tmp_path / "lex.dict").write_text("READ  R IY1 D\nREAD(1)  R EH1 D\nI  AY1\n")
    manifest = {
        "speakers": [{"speaker_id": "s1", "utterances": [{
            "utterance_id": "u1",
            "prompt_text": "I read",
            "asr_transcript": "I read",
        }]}]
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code = main(["phonemize", str(tmp_path / "manifest.json"), "--lexicon",
                 str(tmp_path / "lex.dict"), "--variant-rule", "all",
                 "--out-dir", str(out)])
    assert code == 0
    lattice = (out / "phonemes" / "s1" / "u1.expected.txt").read_text()
    assert lattice == "AY\nR IY D | R EH D\n"
    # the observed side always uses first variants
    assert (out / "phonemes" / "s1" / "u1.observed.txt").read_text() == \
        "AY R IY D\n"


def test_custom_inventory_file(tmp_path):
    (tmp_path / "phones.txt").write_text("T\nD\nAH\n<eps>\n")
    (tmp_path / "lex.dict").write_text("TAD  T AH1 D\nDAD  D AH1 D\n")
    manifest = {
        "speakers": [{"speaker_id": "s1", "utterances": [{
            "utterance_id": "u1",
            "prompt_text": "tad",
            "asr_transcript": "dad",
        }]}]
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code = main(["align", str(tmp_path / "manifest.json"),
                 "--lexicon", str(tmp_path / "lex.dict"),
                 "--inventory", str(tmp_path / "phones.txt"),
                 "--out-dir", str(out)])
    assert code == 0
    inventory = PhonemeInventory(["T", "D", "AH", "<eps>"])
    profile = (out / "profiles" / "s1.json").read_text()
    assert len(profile.splitlines()) == 4 + 7  # one line per count row
    counts = SpeakerProfile.from_json(profile, inventory).matrix.counts
    assert counts.tolist() == [[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                               [0, 0, 0, 0]]


def test_inventory_symbol_with_a_comma_exits_2_before_any_write(tmp_path, capsys):
    # the comparison CSV would carry "T,H" as two fields under one column
    manifest = write_tiny_corpus(tmp_path, annotation=True)
    phones = tmp_path / "phones.txt"
    phones.write_text("HH\nIH\nZ\nIY\nT\nW\nAH\n\nT,H\n<eps>\n")
    out = tmp_path / "out"
    code = main(["run", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--inventory", str(phones), "--k", "1", "--min-occurrences", "1",
                 "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{phones}, line 9: inventory symbol 'T,H' holds ','" in err
    assert not out.exists()


def test_compare_without_annotations_marks_ha_absent(tmp_path):
    manifest = write_tiny_corpus(tmp_path, annotation=False)
    out = tmp_path / "out"
    main(["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
          "--out-dir", str(out)])
    code = main(["compare", str(manifest), "--profiles-dir",
                 str(out / "profiles"), "--out-dir", str(out),
                 "--min-occurrences", "1"])
    assert code == 0
    lines = (out / "comparison_L1A.csv").read_text().splitlines()
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == "NA" and cells[4] == "NA" and cells[6] == "NA"
        assert cells[1] != "NA"


def test_compare_refuses_a_profile_of_another_speaker(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["align", *sample_args(out)]) == 0
    shutil.copyfile(out / "profiles" / "spk_k1.json", out / "profiles" / "spk_h1.json")
    code = main(["compare", str(SAMPLE / "manifest.json"), "--profiles-dir",
                 str(out / "profiles"), "--out-dir", str(tmp_path / "cmp"),
                 "--min-occurrences", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(out / "profiles" / "spk_h1.json") in err and "'spk_k1'" in err
    assert not (tmp_path / "cmp").exists()


def make_24_speaker_manifest(tmp_path):
    themes = {
        "g0": ("the thick thing", "the sick sing"),
        "g1": ("take the town", "dake the down"),
        "g2": ("the zest zone", "the jest joan"),
        "g3": ("no virtue of his", "no virtue of ease"),
        "g4": ("it was simple", "it was simbol"),
        "g5": ("I will read the book", "I will read the book"),
    }
    speakers = []
    for g, (prompt, asr) in themes.items():
        for i in range(4):
            speakers.append({
                "speaker_id": f"{g}_s{i}",
                "l1_label": g,
                "utterances": [{
                    "utterance_id": f"{g}_s{i}_u{j}",
                    "prompt_text": prompt,
                    "asr_transcript": asr,
                } for j in range(2)],
            })
    path = tmp_path / "manifest24.json"
    path.write_text(json.dumps({"speakers": speakers}))
    return path


def test_align_24_speaker_synthetic_corpus(tmp_path):
    manifest = make_24_speaker_manifest(tmp_path)
    out = tmp_path / "out"
    code = main(["align", str(manifest),
                 "--lexicon", str(SAMPLE / "lexicon.dict"),
                 "--supplementary-lexicon", str(SAMPLE / "nonwords.dict"),
                 "--oov-policy", "supplementary_lexicon",
                 "--out-dir", str(out)])
    assert code == 0
    assert len(list((out / "profiles").glob("*.json"))) == 24
    for path in (out / "profiles").glob("*.json"):
        assert json.loads(path.read_text())["utterance_count"] == 2


def test_manifest_duplicate_utterance_rejected():
    doc = {
        "speakers": [{"speaker_id": "s", "utterances": [
            {"utterance_id": "u", "prompt_text": "a", "asr_transcript": "b"},
            {"utterance_id": "u", "prompt_text": "a", "asr_transcript": "b"},
        ]}]
    }
    with pytest.raises(ParseError, match="duplicate"):
        CorpusManifest.from_json(json.dumps(doc))


def test_manifest_requires_exactly_one_text_source():
    doc = {
        "speakers": [{"speaker_id": "s", "utterances": [
            {"utterance_id": "u", "prompt_text": "a", "prompt_path": "p",
             "asr_transcript": "b"},
        ]}]
    }
    with pytest.raises(ParseError):
        CorpusManifest.from_json(json.dumps(doc))


def write_manifest(tmp_path, speakers):
    (tmp_path / "lex.dict").write_text(TINY_LEXICON)
    (tmp_path / "manifest.json").write_text(json.dumps({"speakers": speakers}))
    return tmp_path / "manifest.json"


def tiny_speaker(speaker_id="s1", utterance_id="u1", l1_label="L1A"):
    return {"speaker_id": speaker_id, "l1_label": l1_label, "utterances": [
        {"utterance_id": utterance_id, "prompt_text": "his", "asr_transcript": "ease"}
    ]}


UNSAFE_IDS = ["../../escaped", "a/b", "a\\b", ".", "..", "a\0b", "", "a\ud800",
              "spk,m1", 'a"b', "a\rb", "a,b\nc"]


@pytest.mark.parametrize("bad", UNSAFE_IDS)
def test_unsafe_speaker_id_rejected(tmp_path, bad):
    manifest = write_manifest(tmp_path, [tiny_speaker(speaker_id=bad)])
    with pytest.raises(ParseError) as err:
        CorpusManifest.load(manifest)
    assert err.value.source == manifest
    out = tmp_path / "a" / "b" / "out"
    code = main(["run", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--k", "1", "--out-dir", str(out)])
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lex.dict", "manifest.json"]


@pytest.mark.parametrize("bad", UNSAFE_IDS)
def test_unsafe_utterance_id_rejected(tmp_path, bad):
    manifest = write_manifest(tmp_path, [tiny_speaker(utterance_id=bad)])
    with pytest.raises(ParseError):
        CorpusManifest.load(manifest)
    code = main(["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--out-dir", str(tmp_path / "a" / "out")])
    assert code == 2
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("bad", UNSAFE_IDS)
def test_unsafe_profile_speaker_id_rejected(tmp_path, capsys, bad):
    paths = []
    for sid in ("s1", "s2", bad):
        path = tmp_path / f"{len(paths)}.json"
        path.write_text(SpeakerProfile(sid, ConfusionMatrix(INV), "L1A", 1).to_json())
        paths.append(str(path))
    out = tmp_path / "out"
    code = main(["cluster", *paths, "--k", "1", "--perplexity", "1",
                 "--out-dir", str(out)])
    assert code == 2
    assert paths[-1] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, number", [
    ("counts", str(2**70)), ("utterance_count", "1e999"), ("counts", "1.5"),
])
def test_profile_number_outside_int64_or_fractional_exits_2(tmp_path, capsys,
                                                            key, number):
    out = tmp_path / "aligned"
    assert main(["align", *sample_args(out)]) == 0
    paths = sorted((out / "profiles").glob("*.json"))[:4]
    doc = json.loads(paths[0].read_text())
    if key == "counts":
        doc["counts"][INV.index("TH")][INV.index("S")] = "NUMBER"
    else:
        doc[key] = "NUMBER"
    paths[0].write_text(json.dumps(doc).replace('"NUMBER"', number))
    capsys.readouterr()
    code = main(["cluster", *map(str, paths), "--k", "2", "--perplexity", "1",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(paths[0]) in err and "internal error" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("labels", [("a b", "a_b"), ("a/b", "a_b"), ("a b", "a/b")])
def test_comparison_name_collision_rejected(tmp_path, labels):
    manifest = write_manifest(tmp_path, [
        tiny_speaker(speaker_id=f"s{i}", l1_label=label)
        for i, label in enumerate(labels)
    ])
    with pytest.raises(ParseError, match="comparison_a_b"):
        CorpusManifest.load(manifest)
    code = main(["run", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--k", "1", "--out-dir", str(tmp_path / "out")])
    assert code == 2


def test_missing_and_unlabeled_l1_labels_are_two_groups(tmp_path):
    missing = tiny_speaker("s1")
    del missing["l1_label"]
    manifest = write_manifest(tmp_path, [missing, tiny_speaker("s2", l1_label="unlabeled")])
    with pytest.raises(ParseError, match="comparison_unlabeled.csv"):
        CorpusManifest.load(manifest)
    code = main(["run", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--k", "1", "--perplexity", "1", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_empty_l1_label_rejected(tmp_path):
    manifest = write_manifest(tmp_path, [tiny_speaker("s1", l1_label=""),
                                         tiny_speaker("s2", l1_label=None)])
    with pytest.raises(ParseError, match="non-empty"):
        CorpusManifest.load(manifest)
    code = main(["run", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--k", "1", "--perplexity", "1", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_lone_surrogate_l1_label_rejected(tmp_path):
    # "\ud800" cannot be encoded into the comparison table's file name
    manifest = write_manifest(tmp_path, [tiny_speaker("s1", l1_label="L1\ud800"),
                                         tiny_speaker("s2")])
    code = main(["run", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--k", "1", "--perplexity", "1", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", ["1", "5"])
def test_infeasible_clustering_exits_2_before_writing(tmp_path, k, capsys,
                                                      writer_processes):
    # 3 speakers: k=5 exceeds them; k=1 leaves t-SNE 4 points, too few
    # for the default perplexity of 5
    manifest = write_manifest(tmp_path, [tiny_speaker(f"s{i}") for i in range(3)])
    out = tmp_path / "out"
    code = main(["run", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--k", k, "--out-dir", str(out)])
    assert code == 2
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists() or not any(out.rglob("*"))
    assert writer_processes == []

    code = main(["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--out-dir", str(tmp_path / "aligned")])
    assert code == 0
    started = len(writer_processes)
    assert 1 <= started <= CREATORS
    assert all(reaped(proc) and proc.returncode == 0 for proc in writer_processes)
    profiles = sorted(str(p) for p in (tmp_path / "aligned" / "profiles").glob("*.json"))
    code = main(["cluster", *profiles, "--k", k, "--out-dir", str(out)])
    assert code == 2
    assert not out.exists() or not any(out.rglob("*"))
    assert len(writer_processes) == started


def test_cluster_rejects_a_repeated_speaker(tmp_path, capsys):
    manifest = write_manifest(tmp_path, [tiny_speaker(f"s{i}") for i in range(3)])
    aligned = tmp_path / "aligned"
    assert main(["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--out-dir", str(aligned)]) == 0
    profiles = sorted(str(p) for p in (aligned / "profiles").glob("*.json"))
    copy = tmp_path / "copy.json"
    copy.write_bytes((aligned / "profiles" / "s0.json").read_bytes())
    out = tmp_path / "out"
    for repeated in (profiles[0], str(copy)):
        capsys.readouterr()
        code = main(["cluster", *profiles, repeated, "--k", "2", "--perplexity", "1",
                     "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"speaker 's0' is in both {profiles[0]} and {repeated}" in err
        assert not out.exists()


def utterance(**fields):
    return {"utterance_id": "u1", "prompt_text": "his", "asr_transcript": "ease",
            **fields}


@pytest.mark.parametrize("speakers, message", [
    (["s1"], "speakers[0] must be an object, not a string"),
    ([{"speaker_id": "s1", "utterances": "abc"}],
     "utterances of 's1' must be an array, not a string"),
    ([{"speaker_id": "s1", "utterances": [utterance(prompt_text=5)]}],
     "prompt_text of 'u1' must be a string, not a number"),
    ([{"speaker_id": "s1", "utterances": [
        {"utterance_id": "u1", "prompt_path": 5, "asr_transcript": "ease"}]}],
     "prompt_path of 'u1' must be a string, not a number"),
    ([{"speaker_id": "s1", "utterances": [utterance(annotation_path=None)]}],
     "annotation_path of 'u1' must be a string, not null"),
], ids=["speaker-string", "utterances-string", "prompt-text-number",
        "prompt-path-number", "annotation-path-null"])
def test_mistyped_manifest_field_exits_2(tmp_path, capsys, speakers, message):
    manifest = write_manifest(tmp_path, speakers)
    code = main(["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_speakers_sharing_an_l1_label_share_one_comparison(tmp_path):
    manifest = write_manifest(tmp_path, [tiny_speaker("s1"), tiny_speaker("s2")])
    assert len(CorpusManifest.load(manifest).speakers) == 2


def test_directory_as_input_exits_2_naming_it(capsys):
    code = main(["run", str(SAMPLE / "manifest.json"), "--lexicon", str(SAMPLE),
                 "--out-dir", "unused"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(SAMPLE) in err and "internal error" not in err


def test_non_utf8_manifest_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "lex.dict").write_text(TINY_LEXICON)
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(b'{"speakers": []}\xff\n')
    code = main(["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{manifest}, byte 16" in err and "internal error" not in err


@pytest.mark.parametrize("argv, given", [
    (["phonemize", "m.json", "--lexicon", "lex"], {"lexicon_path": Path("lex")}),
    (["align", "m.json", "--lexicon", "lex"], {"lexicon_path": Path("lex")}),
    (["cluster", "p.json"], {}),
    (["compare", "m.json", "--profiles-dir", "p"], {}),
    (["heatmap", "grid.csv", "grid.svg"], {}),
    (["run", "m.json", "--lexicon", "lex"], {"lexicon_path": Path("lex")}),
])
def test_minimal_argv_leaves_run_config_defaults(argv, given):
    assert run_config(build_parser().parse_args(argv)) == RunConfig(**given)


def test_every_pipeline_flag_sets_its_run_config_field():
    argv = ["run", "m.json", "--lexicon", "lex", "--costs", "c.csv",
            "--inventory", "inv.txt", "--supplementary-lexicon", "sup",
            "--oov-policy", "skip_utterance", "--variant-rule", "all",
            "--tie-break", "insert, delete,,substitute",
            "--k", "2", "--seed", "9",
            "--init", "forgy", "--normalization", "row_frequency",
            "--perplexity", "2.5", "--learning-rate", "50", "--tsne-iterations", "10",
            "--early-exaggeration", "4", "--top-k", "1", "--min-occurrences", "5",
            "--targets", "TH, S,", "--annotation-tier", "phones", "--out-dir", "o"]
    assert run_config(build_parser().parse_args(argv)) == RunConfig(
        lexicon_path=Path("lex"), cost_matrix_path=Path("c.csv"),
        inventory_path=Path("inv.txt"), supplementary_lexicon_path=Path("sup"),
        oov_policy="skip_utterance", variant_rule="all",
        tie_break=("insert", "delete", "substitute"),
        k=2, seed=9, init="forgy", normalization="row_frequency", perplexity=2.5,
        learning_rate=50.0, tsne_iterations=10, early_exaggeration=4.0, top_k=1,
        min_occurrences=5, targets=("TH", "S"), annotation_tier="phones",
        out_dir=Path("o"),
    )


def test_removed_combination_cap_flag_is_rejected(capsys):
    argv = ["run", "m.json", "--lexicon", "lex", "--max-variant-combinations", "7"]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "--max-variant-combinations" in capsys.readouterr().err


# Flags that are read by a subcommand itself rather than through RunConfig.
_NON_CONFIG_DESTS = {"help", "profiles_dir", "kind"}


def test_every_optional_flag_is_a_run_config_field():
    """run_config drops unknown dests, so a flag without a field would be a no-op."""
    parser = build_parser()
    [subparsers] = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.option_strings and action.dest not in _NON_CONFIG_DESTS:
                assert action.dest in fields, (name, action.option_strings)


def test_library_defaults_match_run_config():
    """A library call without a keyword runs as the CLI does without its flag."""
    def default(func, name):
        return inspect.signature(func).parameters[name].default

    cfg = RunConfig()
    pairs = [
        (default(clustering.tsne, "perplexity"), cfg.perplexity),
        (default(clustering.tsne, "learning_rate"), cfg.learning_rate),
        (default(clustering.tsne, "iterations"), cfg.tsne_iterations),
        (default(clustering.tsne, "early_exaggeration"), cfg.early_exaggeration),
        (default(clustering.tsne, "seed"), cfg.seed),
        (default(clustering.kmeans, "seed"), cfg.seed),
        (default(clustering.kmeans, "init"), cfg.init),
        (default(clustering.SpeakerMatrix.from_profiles, "normalization"),
         cfg.normalization),
        (default(annotations.compare, "top_k"), cfg.top_k),
        (default(annotations.compare, "min_occurrences"), cfg.min_occurrences),
        (default(alignment.align, "tie_break"), cfg.tie_break),
        (default(alignment.align_min_variant, "tie_break"), cfg.tie_break),
        (default(lexicon.phonemize, "variant_rule"), cfg.variant_rule),
        (lexicon.OovPolicy().mode, cfg.oov_policy),
    ]
    for library, pipeline in pairs:
        assert library == pipeline and type(library) is type(pipeline)


@pytest.mark.parametrize("case", ["out_dir_is_a_file", "directory_at_output_file"])
def test_write_failure_exits_2_naming_the_path(tmp_path, capsys, case):
    out = tmp_path / "out"
    if case == "out_dir_is_a_file":
        out.write_text("")
        failed, reason = out / "alignments", "Not a directory"
    else:
        failed, reason = out / "clusters.csv", "Is a directory"
        failed.mkdir(parents=True)
    code = main(["run", *sample_args(out, ["--k", "3", "--min-occurrences", "2"])])
    assert code == 2
    assert capsys.readouterr().err == f"error: {failed}: {reason}\n"
    if case == "directory_at_output_file":
        # nothing is created after the failed write
        assert (out / "profiles").is_dir()
        assert not (out / "embedding.csv").exists()
        # the write error wins over t-SNE divergence raised after it
        code = main(["run", *sample_args(out, ["--k", "3", "--min-occurrences", "2",
                                               "--learning-rate", "1e308"])])
        assert code == 2
        assert capsys.readouterr().err == f"error: {failed}: {reason}\n"


@pytest.mark.parametrize("expected_code", [0, 2, 3])
def test_main_leaves_no_writer_running(tmp_path, writer_processes, expected_code):
    out = tmp_path / "out"
    args = ["run", *sample_args(out, ["--k", "3", "--min-occurrences", "2"])]
    if expected_code == 2:
        out.write_text("")
    elif expected_code == 3:
        manifest = write_tiny_corpus(tmp_path, asr="unknownword")
        args = ["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                "--out-dir", str(out)]
    with no_resource_warning(writer_processes):
        assert main(args) == expected_code
        assert 1 <= len(writer_processes) <= CREATORS
        assert all(reaped(proc) and proc.returncode == 0 for proc in writer_processes)
    if expected_code == 3:
        assert (out / "oov_report.json").is_file()


# sha256 of the sample corpus's `run` output tree (see tree_sha256) since
# t-SNE's input distances, exp, log and affinity search were made the same
# float on every CPU, which changed embedding.csv only. Under --variant-rule
# all the sample prompts' cheapest variants are their first ones, so both
# rules write this same tree.
SAMPLE_TREE_SHA256 = "f659c3114ac63f0020751a3ef55f2214fbef092be067de4973fb10667e0e4cfd"


def tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def backend_env(backend: str) -> dict:
    """The environment of a subprocess that imports phonoscope from src/ on
    the named backend, "default" or "pure"."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    env.pop("PHONOSCOPE_PURE", None)
    if backend == "pure":
        env["PHONOSCOPE_PURE"] = "1"
    return env


@pytest.mark.parametrize("backend", ["default", "pure"])
@pytest.mark.parametrize("variant_rule", ["first", "all"])
def test_sample_output_tree_is_pinned(tmp_path, variant_rule, backend):
    out = tmp_path / "out"
    args = sample_args(out, ["--k", "3", "--seed", "42", "--min-occurrences", "2",
                             "--variant-rule", variant_rule])
    subprocess.run([sys.executable, "-m", "phonoscope.cli", "run", *args],
                   env=backend_env(backend), check=True, timeout=120)
    assert tree_sha256(out) == SAMPLE_TREE_SHA256


# The sample tree under --normalization row_frequency --init forgy: the
# other branch of the speaker matrix's vectorizing and of k-means's start.
ROW_FREQUENCY_TREE_SHA256 = "33ae097cdb30342e92514d7c51413b3cb67d69b80f26fe1054be16b266601bc5"


@pytest.mark.parametrize("backend", ["default", "pure"])
def test_row_frequency_forgy_tree_is_pinned(tmp_path, backend):
    out = tmp_path / "out"
    args = sample_args(out, ["--k", "3", "--seed", "42", "--min-occurrences", "2",
                             "--normalization", "row_frequency", "--init", "forgy"])
    subprocess.run([sys.executable, "-m", "phonoscope.cli", "run", *args],
                   env=backend_env(backend), check=True, timeout=120)
    assert tree_sha256(out) == ROW_FREQUENCY_TREE_SHA256


# Five speakers without utterances count no cell, so k-means and t-SNE
# cluster a matrix of 0 columns: every distance is 0.
NO_UTTERANCES_TREE_SHA256 = "6d68c9069852781229937c2f5da5d4af3e03110b0f2683e14a9be3618b99de47"


@pytest.mark.parametrize("backend", ["default", "pure"])
def test_speakers_without_utterances_give_the_pinned_tree(tmp_path, backend):
    (tmp_path / "lex.dict").write_text(TINY_LEXICON)
    speakers = [{"speaker_id": f"s{i}", "l1_label": "L1A", "utterances": []}
                for i in range(5)]
    (tmp_path / "manifest.json").write_text(json.dumps({"speakers": speakers}))
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-m", "phonoscope.cli", "run",
                    str(tmp_path / "manifest.json"), "--lexicon", str(tmp_path / "lex.dict"),
                    "--k", "2", "--perplexity", "2", "--out-dir", str(out)],
                   env=backend_env(backend), check=True, timeout=120)
    assert tree_sha256(out) == NO_UTTERANCES_TREE_SHA256


def test_kernel_fallback_is_noted_and_changes_no_byte(tmp_path):
    """When the compiled kernel cannot be built (here each of its cache
    directories is a regular file or lies under one), a run says so in one
    line on stderr, exits 0 and writes the pinned tree on the pure kernel."""
    package = tmp_path / "src" / "phonoscope"
    shutil.copytree(REPO / "src" / "phonoscope", package,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    blocked = tmp_path / "blocked"
    for path in (package / "__pycache__", blocked):
        path.write_text("a file where a cache directory goes\n")
    out = tmp_path / "out"
    env = backend_env("default")
    env.update(PYTHONPATH=str(tmp_path / "src"), PYTHONPYCACHEPREFIX=str(blocked),
               XDG_CACHE_HOME=str(blocked))
    proc = subprocess.run([sys.executable, "-m", "phonoscope.cli", "run",
                           *sample_args(out, ["--k", "3", "--seed", "42",
                                              "--min-occurrences", "2"])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    [note] = proc.stderr.splitlines()
    assert note.startswith("note: compiled kernel unavailable (")
    assert note.endswith("; using the pure backend")
    assert "__pycache__" in note
    assert tree_sha256(out) == SAMPLE_TREE_SHA256


# Modules a run has no use for: numpy.random pulls in secrets and hmac,
# and _hashlib is OpenSSL's libcrypto. Together they cost about 6 MB of a
# run's peak memory.
UNNEEDED_MODULES = ("numpy.random", "secrets", "hmac", "_hashlib")

_LOADED_AFTER_RUN = """\
import json, sys
import phonoscope
imported = [m for m in {modules!r} if m in sys.modules]
from phonoscope import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, imported, [m for m in {modules!r} if m in sys.modules]]))
"""


@pytest.mark.parametrize("backend", ["default", "pure"])
def test_run_loads_neither_numpy_random_nor_openssl(tmp_path, backend):
    """k-means and t-SNE draw from SplitMix64 and the compiled kernel's cache
    file is named by importlib's source hash, so neither import phonoscope
    nor a whole run loads any of UNNEEDED_MODULES."""
    script = _LOADED_AFTER_RUN.format(modules=UNNEEDED_MODULES)
    args = sample_args(tmp_path / "out", ["--k", "3", "--seed", "42",
                                          "--min-occurrences", "2"])
    proc = subprocess.run([sys.executable, "-c", script, "run", *args],
                          env=backend_env(backend), capture_output=True, text=True,
                          check=True, timeout=120)
    code, after_import, after_run = json.loads(proc.stdout.splitlines()[-1])
    assert (code, after_import, after_run) == (0, [], []), proc.stderr


def tree_files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("policy", ["supplementary_lexicon", "skip_utterance"])
def test_run_equals_its_stage_subcommands(tmp_path, policy):
    manifest = str(SAMPLE / "manifest.json")
    lexicon_flags = ["--lexicon", str(SAMPLE / "lexicon.dict"),
                     "--costs", str(SAMPLE / "costs.csv"), "--oov-policy", policy]
    if policy == "supplementary_lexicon":
        lexicon_flags += ["--supplementary-lexicon", str(SAMPLE / "nonwords.dict")]
    cluster_flags = ["--k", "3", "--seed", "42"]
    compare_flags = ["--min-occurrences", "2"]
    run_out, stages = tmp_path / "run", tmp_path / "stages"
    assert main(["run", manifest, *lexicon_flags, *cluster_flags, *compare_flags,
                 "--out-dir", str(run_out)]) == 0

    assert main(["align", manifest, *lexicon_flags, "--out-dir", str(stages)]) == 0
    speaker_ids = [s.speaker_id for s in CorpusManifest.load(manifest).speakers]
    assert main(["cluster", *(str(stages / "profiles" / f"{sid}.json")
                              for sid in speaker_ids),
                 *cluster_flags, "--out-dir", str(stages)]) == 0
    assert main(["compare", manifest, "--profiles-dir", str(stages / "profiles"),
                 *compare_flags, "--out-dir", str(stages)]) == 0
    for sid in speaker_ids:
        assert main(["heatmap", str(stages / "profiles" / f"{sid}.json"),
                     str(stages / "heatmaps" / f"{sid}.svg")]) == 0

    assert tree_files(run_out) == tree_files(stages)
    skipped = json.loads((run_out / "oov_report.json").read_text())["skipped_utterances"]
    # the annotated utterance m1_u2 is skipped, yet its annotations still count
    assert (["spk_m1", "m1_u2"] in skipped) == (policy == "skip_utterance")
    mandarin = (run_out / "comparison_Mandarin.csv").read_text()
    assert "TH,0.0%,0.0%,S,S," in mandarin


def test_repeated_oov_word_counted_per_occurrence_under_every_policy(tmp_path):
    manifest = write_manifest(tmp_path, [{"speaker_id": "s1", "utterances": [
        {"utterance_id": "u1", "prompt_text": "his zork zork",
         "asr_transcript": "ease"},
    ]}])
    for policy, code in (("fail", 3), ("skip_utterance", 0)):
        out = tmp_path / policy
        assert main(["align", str(manifest), "--lexicon", str(tmp_path / "lex.dict"),
                     "--oov-policy", policy, "--out-dir", str(out)]) == code
        report = json.loads((out / "oov_report.json").read_text())
        assert report == {"oov_words": {"ZORK": 2},
                          "skipped_utterances": [["s1", "u1"]]}


@pytest.mark.parametrize("flags", [
    ["--perplexity", "0"], ["--perplexity", "-1"], ["--perplexity", "0.5"],
    ["--perplexity", "nan"], ["--learning-rate", "nan"], ["--learning-rate", "0"],
    ["--learning-rate", "inf"], ["--early-exaggeration", "inf"],
    ["--early-exaggeration", "-2"], ["--seed", "-1"], ["--tsne-iterations", "-5"],
    ["--tsne-iterations", str(2**63)],
    ["--k", "0"], ["--min-occurrences", "0"], ["--min-occurrences", "-3"],
    ["--top-k", "-1"], ["--tie-break", "foo"], ["--tie-break", "insert,delete"],
    ["--targets", "ZZ"], ["--targets", "<eps>"], ["--targets", "TH,<eps>"],
    ["--targets", "TH,TH"],
], ids=" ".join)
def test_bad_run_parameter_exits_2_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["run", *sample_args(out, ["--k", "3", *flags])]) == 2
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("fault", ["missing-tier", "bad-csv-row"])
def test_bad_annotation_file_exits_2_naming_it_before_writing(tmp_path, capsys,
                                                              command, fault):
    corpus = tmp_path / "corpus"
    shutil.copytree(SAMPLE, corpus)
    if fault == "missing-tier":
        flags, named = ["--annotation-tier", "nope"], "spk_k1_u1.TextGrid"
    else:
        flags, named = [], "spk_m1_u2.csv"
        (corpus / "annotations" / named).write_text(
            "utterance,position,target,observed,kind\nm1_u2,0,QQ,T,correct\n")
    out = tmp_path / "out"
    if command == "run":
        code = main(["run", *sample_args(out, ["--k", "3", *flags], corpus)])
    else:
        aligned = tmp_path / "aligned"
        assert main(["align", *sample_args(aligned, corpus=corpus)]) == 0
        code = main(["compare", str(corpus / "manifest.json"), *flags,
                     "--profiles-dir", str(aligned / "profiles"), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus / 'annotations' / named}")
    assert "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_skipped_textgrid_labels_are_noted_on_stderr(tmp_path, capsys, command):
    corpus = tmp_path / "corpus"
    shutil.copytree(SAMPLE, corpus)
    grid = corpus / "annotations" / "spk_k1_u1.TextGrid"
    # the first "AH" is interval 2
    grid.write_text(grid.read_text().replace('text = "AH"', 'text = "QX"', 1))
    trees = {}
    for name, source in (("sample", SAMPLE), ("skipping", corpus)):
        out = tmp_path / name
        if command == "run":
            assert main(["run", *sample_args(out, ["--k", "3"], source)]) == 0
        else:
            aligned = tmp_path / f"{name}-aligned"
            assert main(["align", *sample_args(aligned, corpus=source)]) == 0
            capsys.readouterr()
            assert main(["compare", str(source / "manifest.json"),
                         "--profiles-dir", str(aligned / "profiles"),
                         "--out-dir", str(out)]) == 0
        trees[name] = sorted(p.relative_to(out) for p in out.rglob("*"))
        err = capsys.readouterr().err
    # one note for the one file, naming its first skipped interval (a
    # kernel-fallback note may precede it); the output tree holds the same files
    assert [line for line in err.splitlines() if line.startswith("note: ") and
            "TextGrid" in line] == [f"note: {grid}: skipped 1 TextGrid label(s); "
                                    "first at intervals [2], 'QX': unknown phoneme 'QX'"]
    assert trees["skipping"] == trees["sample"]


def test_tsne_divergence_exits_2(tmp_path, capsys):
    """Too large a learning rate or early exaggeration each make t-SNE
    diverge, and the message names both."""
    for flag in ("--learning-rate", "--early-exaggeration"):
        out = tmp_path / flag
        assert main(["run", *sample_args(out, ["--k", "3", flag, "1e308"])]) == 2
        assert ("t-SNE diverged; lower the learning rate or the early exaggeration"
                in capsys.readouterr().err)


def test_readme_library_snippet_runs(monkeypatch, capsys):
    """README's "Library use" block runs as written from sample_corpus/."""
    readme = (REPO / "README.md").read_text()
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(SAMPLE)
    exec(compile(block, "README.md", "exec"), {})
    rate, mcs = capsys.readouterr().out.splitlines()
    assert rate == "0.5"
    assert mcs == f"Substitute(symbol={INV.index('S')}, count=1, occurrences=2)"


def load_perfbench_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  REPO / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_finds_every_name_it_wraps(tmp_path):
    """perfbench/spans.py wraps module attributes by name; each must still
    exist, and a traced run must leave every one of them as it was."""
    from phonoscope import cli

    owners = {"alignment": alignment, "kernel": alignment._kernel, "cli": cli}
    names = [("alignment", "align"), ("alignment", "align_min_variant"),
             ("kernel", "dp_align"), ("alignment", "dump_alignment"),
             ("cli", "accumulate")]
    before = {name: inspect.getattr_static(owners[owner], name) for owner, name in names}
    tracer = load_perfbench_spans().Tracer()
    tracer.install()
    try:
        assert all(getattr(owners[owner], name) is not before[name]
                   for owner, name in names)
        assert main(["run", *sample_args(tmp_path / "out", ["--k", "3",
                                                              "--min-occurrences", "2"])]) == 0
        alignment.align([INV.index("T")], [INV.index("D")], CostMatrix.uniform(INV))
    finally:
        tracer.uninstall()
    assert {name: inspect.getattr_static(owners[owner], name)
            for owner, name in names} == before
    calls = {name: row[0] for name, row in tracer.layer_times()[0].items()}
    # the run aligns each speaker in one align_speaker call, outside the
    # wrapped per-utterance functions; only the direct align() is traced
    assert calls["alignment.align"] == 1 and "confusion.accumulate" not in calls
    assert calls["lexicon.phonemize"] > 0
    assert tracer.summary(1.0)["metrics"]["alignment.aligns_per_utterance"] == 0.0
