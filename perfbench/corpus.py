"""Seeded synthetic corpora built only from ``sample_corpus/``.

The generator reads the sample lexicon, the non-word lexicon, the cost
matrix, the sample manifest (for accent-specific word substitutions) and
the three annotation files. It writes a self-contained input directory:
``manifest.json`` with inline texts, copies of the dictionaries and the
cost matrix, and the annotation files that some utterances reference.
The pipeline receives only that directory.

The seed picks words, substitutions and which utterances carry
annotations. The sizes that set the amount of work (speakers, utterances,
words per prompt, variant words per prompt) come from fixed schedules, so
runs with different seeds do nearly the same work.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import shutil
import string
from dataclasses import dataclass
from pathlib import Path

SAMPLE = Path("sample_corpus")
SAMPLE_FILES = ("lexicon.dict", "nonwords.dict", "costs.csv", "manifest.json")
ANNOTATION_FILES = ("spk_h1_u1.csv", "spk_k1_u1.TextGrid", "spk_m1_u2.csv")

KEEP_SHARE = 0.7       # ASR words equal to the prompt word (before accent errors)
INSERT_SHARE = 0.05    # chance of an extra ASR word after each prompt word

# Variant words drawn per lattice prompt, cycled over the utterances: 2**k
# combinations each, a mean of 24.4 and a maximum of 256, the default cap.
LATTICE_SCHEDULE = (0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 6, 8)


@dataclass(frozen=True)
class Workload:
    name: str
    speakers: int
    utterances: int            # per speaker
    min_words: int
    max_words: int
    variant_rule: str
    annotated_per_speaker: float

    def scaled(self, scale: float) -> "Workload":
        """Same workload with fewer speakers (smoke runs).

        Never below 4: with ``--k 3`` centroids that gives t-SNE 7 points,
        the fewest for which the default perplexity of 5 is feasible.
        """
        speakers = max(4, round(self.speakers * scale))
        return Workload(self.name, speakers, self.utterances, self.min_words,
                        self.max_words, self.variant_rule,
                        self.annotated_per_speaker)


WORKLOADS = {
    # One alignment and one TSV per utterance: kernel, align() glue,
    # accumulate and per-file writes; clustering stays tiny (43 points).
    # Prompts are long (16-32 words) and files few (2000): on a 2-core VM
    # whose ext4 disk is mounted with discard, creating a small file took
    # 0.05 to 0.6 ms from run to run, which with 6000 short utterances
    # made run_s swing by half.
    "corpus": Workload("corpus", 40, 50, 16, 32, "first", 1.0),
    # Few alignments, but t-SNE on 203 points and 200 heatmaps.
    "speakers": Workload("speakers", 200, 5, 6, 14, "first", 0.25),
    # The alignment layer used the other way round: align_min_variant
    # aligns every variant combination, about 24 aligns per TSV written.
    "lattice": Workload("lattice", 20, 30, 8, 12, "all", 1.0),
}


def read_dict(path: Path) -> dict[str, list[tuple[str, ...]]]:
    """Word -> pronunciations (phoneme labels) in file order."""
    entries: dict[str, list[tuple[str, ...]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith(";;;"):
            continue
        head, *phones = line.split()
        entries.setdefault(re.sub(r"\(\d+\)$", "", head), []).append(tuple(phones))
    return entries


def _tokens(text: str) -> list[str]:
    return [w for w in (t.upper().strip(string.punctuation) for t in text.split()) if w]


def accent_substitutions(manifest_path: Path) -> dict[str, dict[str, str]]:
    """L1 -> {prompt word: ASR word}, from equal-length sample utterances."""
    doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    subs: dict[str, dict[str, str]] = {}
    for speaker in doc["speakers"]:
        table = subs.setdefault(speaker["l1_label"], {})
        for utt in speaker["utterances"]:
            prompt, asr = _tokens(utt["prompt_text"]), _tokens(utt["asr_transcript"])
            if len(prompt) == len(asr):
                for p, a in zip(prompt, asr):
                    if p != a:
                        table.setdefault(p, a)
    return subs


def _asr_words(prompt, accent, rng, lexicon_words, nonwords):
    out = []
    for word in prompt:
        r = rng.random()
        if r < KEEP_SHARE:
            out.append(accent.get(word, word))
        elif r < KEEP_SHARE + 0.1:
            out.append(rng.choice(lexicon_words))
        elif r < KEEP_SHARE + 0.2:
            out.append(rng.choice(nonwords))
        # else: the word is deleted
        if rng.random() < INSERT_SHARE:
            out.append(rng.choice(lexicon_words))
    return out


def generate(workload: Workload, seed: int, dest: Path) -> dict:
    """Write the workload's input directory under ``dest``; return its stats."""
    rng = random.Random(f"{workload.name}:{seed}")
    lexicon = read_dict(SAMPLE / "lexicon.dict")
    nonword_dict = read_dict(SAMPLE / "nonwords.dict")
    accents = accent_substitutions(SAMPLE / "manifest.json")
    l1_labels = sorted(accents)
    words = sorted(lexicon)
    variant_words = [w for w in words if len(lexicon[w]) > 1]
    plain_words = [w for w in words if len(lexicon[w]) == 1]
    nonwords = sorted(nonword_dict)
    every_word = {**lexicon, **nonword_dict}

    dest.mkdir(parents=True, exist_ok=True)
    for name in ("lexicon.dict", "nonwords.dict", "costs.csv"):
        shutil.copyfile(SAMPLE / name, dest / name)
    (dest / "annotations").mkdir(exist_ok=True)
    for name in ANNOTATION_FILES:
        shutil.copyfile(SAMPLE / "annotations" / name, dest / "annotations" / name)

    total_utts = workload.speakers * workload.utterances
    schedule = [LATTICE_SCHEDULE[i % len(LATTICE_SCHEDULE)] for i in range(total_utts)]
    rng.shuffle(schedule)
    annotated = set(rng.sample(
        range(total_utts), round(workload.speakers * workload.annotated_per_speaker)
    ))

    speakers = []
    stats = {"speakers": workload.speakers, "utterances": total_utts,
             "expected_phonemes": 0, "observed_phonemes": 0, "dp_cells": 0,
             "combinations": [], "annotated_utterances": len(annotated)}
    for s in range(workload.speakers):
        l1 = l1_labels[s % len(l1_labels)]
        utterances = []
        for u in range(workload.utterances):
            index = s * workload.utterances + u
            length = rng.randint(workload.min_words, workload.max_words)
            if workload.variant_rule == "all":
                k = schedule[index]
                prompt = ([rng.choice(variant_words) for _ in range(k)]
                          + [rng.choice(plain_words) for _ in range(max(0, length - k))])
                rng.shuffle(prompt)
            else:
                prompt = [rng.choice(words) for _ in range(length)]
            asr = _asr_words(prompt, accents[l1], rng, words, nonwords)
            utt = {"utterance_id": f"u{u:04d}", "prompt_text": " ".join(prompt).lower(),
                   "asr_transcript": " ".join(asr).lower()}
            if index in annotated:
                name = ANNOTATION_FILES[index % len(ANNOTATION_FILES)]
                utt["annotation_path"] = f"annotations/{name}"
            utterances.append(utt)
            _count(stats, prompt, asr, every_word, workload.variant_rule)
        speakers.append({"speaker_id": f"spk{s:04d}", "l1_label": l1,
                         "utterances": utterances})
    (dest / "manifest.json").write_text(
        json.dumps({"speakers": speakers}, indent=1) + "\n", encoding="utf-8")

    combos = stats.pop("combinations")
    stats["expected_phonemes_mean"] = stats.pop("expected_phonemes") / total_utts
    stats["observed_phonemes_mean"] = stats.pop("observed_phonemes") / total_utts
    stats["combinations_mean"] = sum(combos) / len(combos)
    stats["combinations_max"] = max(combos)
    stats["aligns"] = sum(combos)
    return stats


def _count(stats, prompt, asr, every_word, variant_rule):
    m = sum(len(every_word[w][0]) for w in asr)
    lengths = [[len(v) for v in every_word[w]] for w in prompt]
    if variant_rule == "first":
        lengths = [ls[:1] for ls in lengths]
    combos = [sum(c) for c in itertools.product(*lengths)]
    stats["expected_phonemes"] += sum(ls[0] for ls in lengths)
    stats["observed_phonemes"] += m
    stats["dp_cells"] += sum((n + 1) * (m + 1) for n in combos)
    stats["combinations"].append(len(combos))
