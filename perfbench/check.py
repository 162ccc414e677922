"""Output check for one pipeline run.

* ``tree_hash``: sha256 over the files the pipeline writes today
  (alignments, profiles, confusions, clusters, embedding, purity,
  comparisons, heatmaps, ``oov_report.json``). Files other than these are
  left out, so outputs added later do not change it.
* ``check_tree``: every utterance has an alignment TSV; each profile's
  matrix mass equals the number of ops dumped for that speaker; a seeded
  sample of TSVs re-derived with the pure oracle ``_dppy.dp_align`` is
  bitwise equal; and, when the compiled ``_dpcore`` kernel is importable,
  it agrees with ``_dppy`` on the sampled pairs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

HASHED_DIRS = ("alignments", "profiles", "confusions", "heatmaps")
HASHED_FILES = ("clusters.csv", "embedding.csv", "purity.txt", "oov_report.json")
ORACLE_SAMPLE = 24


def _hashed(rel: str) -> bool:
    top = rel.split("/", 1)[0]
    return (top in HASHED_DIRS or rel in HASHED_FILES
            or (top == rel and rel.startswith("comparison_")))


def tree_hash(out: Path) -> tuple[str, int]:
    """(hex digest, number of files hashed)."""
    digest = hashlib.sha256()
    files = 0
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out).as_posix()
        if _hashed(rel) and path.is_file():
            digest.update(rel.encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
            files += 1
    return digest.hexdigest(), files


def _render(e, o, moves, grid, inv) -> str:
    eps = inv.epsilon_index
    lines = []
    i = j = 0
    for move in moves:
        if move == 0:
            a, b = e[i], o[j]
            kind = "match" if a == b else "substitute"
            i, j = i + 1, j + 1
        elif move == 1:
            a, b, kind = e[i], eps, "delete"
            i += 1
        else:
            a, b, kind = eps, o[j], "insert"
            j += 1
        lines.append(f"{inv.label(a)}\t{inv.label(b)}\t{kind}\t{float(grid[a, b])!r}")
    return "\n".join(lines) + ("\n" if lines else "")


class Oracle:
    """Re-derives alignment TSVs with the pure-Python kernel."""

    def __init__(self, input_dir: Path, variant_rule: str):
        import numpy as np
        from phonoscope import _dppy
        from phonoscope.costs import load_cost_matrix
        from phonoscope.inventory import PhonemeInventory
        from phonoscope.lexicon import OovPolicy, load_lexicon
        try:
            from phonoscope import _dpcore
        except ImportError:
            _dpcore = None

        self.np, self.dppy, self.dpcore = np, _dppy, _dpcore
        self.inv = PhonemeInventory.default()
        self.costs = load_cost_matrix(input_dir / "costs.csv", self.inv)
        self.rows = self.costs.rows()
        self.lexicon = load_lexicon(input_dir / "lexicon.dict", self.inv)
        self.policy = OovPolicy("supplementary_lexicon",
                                load_lexicon(input_dir / "nonwords.dict", self.inv))
        self.variant_rule = variant_rule

    def _kernel(self, e, o):
        eps = self.inv.epsilon_index
        result = self.dppy.dp_align(e, o, self.rows, eps, 0, 1, 2)
        if self.dpcore is not None:
            total, moves = self.dpcore.dp_align(
                self.np.asarray(e, dtype=self.np.int64),
                self.np.asarray(o, dtype=self.np.int64),
                self.costs.costs, eps, 0, 1, 2)
            if (total, list(moves)) != (result[0], list(result[1])):
                raise AssertionError("compiled kernel disagrees with _dppy")
        return result

    def tsv(self, utt: dict) -> str:
        from phonoscope.lexicon import phonemize, tokenize
        observed = phonemize(tokenize(utt["asr_transcript"]), self.lexicon,
                             self.policy, "first").indices
        prompt = phonemize(tokenize(utt["prompt_text"]), self.lexicon,
                           self.policy, self.variant_rule)
        if prompt.lattice is None:
            candidates = [prompt.indices]
        else:
            candidates = (
                [p for word, v in zip(prompt.lattice, choice) for p in word[v].phonemes]
                for choice in itertools.product(*[range(len(w)) for w in prompt.lattice])
            )
        best = None
        for expected in candidates:
            total, moves = self._kernel(expected, observed)
            if best is None or total < best[0]:  # ties keep the lowest variants
                best = (total, moves, expected)
        return _render(best[2], observed, best[1], self.costs.costs, self.inv)


def check_tree(input_dir: Path, out: Path, variant_rule: str,
               seed: int) -> tuple[set, dict]:
    """(failed (speaker, utterance) ids, summary) for one output tree."""
    manifest = json.loads((input_dir / "manifest.json").read_text(encoding="utf-8"))
    failed: set = set()
    mass_mismatches = missing = 0
    every = []
    for speaker in manifest["speakers"]:
        sid = speaker["speaker_id"]
        keys = [(sid, u["utterance_id"]) for u in speaker["utterances"]]
        every.extend((key, u) for key, u in zip(keys, speaker["utterances"]))
        dumped = 0
        for key in keys:
            tsv = out / "alignments" / sid / f"{key[1]}.tsv"
            if tsv.is_file():
                dumped += tsv.read_bytes().count(b"\n")
            else:
                failed.add(key)
                missing += 1
        try:
            profile = json.loads((out / "profiles" / f"{sid}.json").read_text("utf-8"))
            consistent = (sum(map(sum, profile["counts"])) == dumped
                          and profile["utterance_count"] == len(keys))
        except (OSError, ValueError, KeyError):
            consistent = False
        if not consistent:
            mass_mismatches += 1
            failed.update(keys)

    oracle = Oracle(input_dir, variant_rule)
    sample = random.Random(seed).sample(every, min(ORACLE_SAMPLE, len(every)))
    oracle_mismatches = 0
    for (sid, uid), utt in sample:
        tsv = out / "alignments" / sid / f"{uid}.tsv"
        try:
            same = tsv.read_text(encoding="utf-8") == oracle.tsv(utt)
        except (OSError, AssertionError):
            same = False
        if not same:
            oracle_mismatches += 1
            failed.add((sid, uid))
    summary = {
        "missing_alignments": missing,
        "profile_mass_mismatches": mass_mismatches,
        "oracle_sampled": len(sample),
        "oracle_mismatches": oracle_mismatches,
        "compiled_parity_checked": oracle.dpcore is not None,
    }
    return failed, summary
