"""Command-line front end.

Subcommands: phonemize, align, cluster, compare, heatmap, run. All
outputs land under --out-dir with fixed names; reruns with identical
inputs and seed produce byte-identical trees (files are written in
manifest order, floats via repr, JSON with sorted keys).

main builds every subcommand's RunConfig with run_config and loads it
with load_config before the subcommand runs. Subcommands create their
directories and files through the Writer that main passes them, which
creates them in one helper process; the tree is complete when main
returns.

Exit codes: 0 success, 1 internal error, 2 input/validation error
(including a file that cannot be read or written, named in the message),
3 out-of-vocabulary failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import alignment as al
from . import clustering, gridcsv
from .annotations import (
    annotations_to_confusion,
    compare,
    load_annotation_csv,
    parse_textgrid,
)
from .confusion import ConfusionMatrix, SpeakerProfile, accumulate, merge
from .errors import OovError, ParseError, ValidationError, read_input
from .heatmap import svg_heatmap
from .lexicon import OovPolicy, PhonemizeResult, phonemize, tokenize
from .manifest import (
    CorpusManifest,
    LoadedConfig,
    RunConfig,
    comparison_stem,
    load_config,
)
from .writer import Writer

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_OOV = 3


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


# Pipeline flags default to absent, so RunConfig supplies every default;
# each flag's dest is the RunConfig field it sets.
def _out_dir_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", type=Path)


def _lexicon_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lexicon", dest="lexicon_path", type=Path, required=True,
                   help="pronouncing dictionary file")
    p.add_argument("--costs", dest="cost_matrix_path", type=Path,
                   help="cost matrix CSV (default: uniform costs)")
    p.add_argument("--supplementary-lexicon", dest="supplementary_lexicon_path",
                   type=Path,
                   help="second lexicon for the supplementary_lexicon OOV policy")
    p.add_argument("--oov-policy",
                   choices=["fail", "skip_utterance", "supplementary_lexicon"])
    p.add_argument("--variant-rule", choices=["first", "all"])
    p.add_argument("--tie-break", type=_comma_list,
                   help="comma-separated op preference for alignment ties")


def _cluster_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="number of clusters")
    p.add_argument("--seed", type=int)
    p.add_argument("--init", choices=["kmeanspp", "forgy"])
    p.add_argument("--normalization", choices=["raw_counts", "row_frequency"])
    p.add_argument("--perplexity", type=float)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--tsne-iterations", type=int)
    p.add_argument("--early-exaggeration", type=float)


def _compare_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--top-k", type=int,
                   help="targets per group when none are given explicitly")
    p.add_argument("--min-occurrences", type=int)
    p.add_argument("--targets", type=_comma_list,
                   help="comma-separated target phonemes")
    p.add_argument("--annotation-tier", help="tier name for TextGrid annotation files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonoscope",
        description="Phoneme-level ASR error analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *flag_groups):
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        p.add_argument("--inventory", dest="inventory_path", type=Path,
                       help="inventory file overriding the ARPAbet set")
        for add_flags in flag_groups:
            add_flags(p)
        return p

    p = command("phonemize", cmd_phonemize, "convert manifest texts to phoneme files",
                _out_dir_flag, _lexicon_flags)
    p.add_argument("manifest")

    p = command("align", cmd_align, "align utterances and build speaker profiles",
                _out_dir_flag, _lexicon_flags)
    p.add_argument("manifest")

    p = command("cluster", cmd_cluster, "cluster speaker profiles and embed them",
                _out_dir_flag, _cluster_flags)
    p.add_argument("profiles", nargs="+", help="speaker profile JSON files")

    p = command("compare", cmd_compare, "ASR vs. human-annotator comparison tables",
                _out_dir_flag, _compare_flags)
    p.add_argument("manifest")
    p.add_argument("--profiles-dir", type=Path, required=True,
                   help="directory of speaker profile JSONs from `align`")

    p = command("heatmap", cmd_heatmap, "render a matrix CSV as an SVG heatmap")
    p.add_argument("matrix", help="confusion or cost matrix CSV")
    p.add_argument("out", type=Path, help="output SVG path")
    p.add_argument("--kind", default="confusion", choices=["confusion", "costs"],
                   help="confusion scales each row to its max, costs globally")

    p = command("run", cmd_run, "full pipeline: align, cluster, compare, heatmaps",
                _out_dir_flag, _lexicon_flags, _cluster_flags, _compare_flags)
    p.add_argument("manifest")
    return parser


_CONFIG_FIELDS = frozenset(f.name for f in fields(RunConfig))


def run_config(args: argparse.Namespace) -> RunConfig:
    """The flags given on the command line, RunConfig's defaults for the rest."""
    return RunConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS})


def _load_manifest(args) -> CorpusManifest:
    manifest = CorpusManifest.load(args.manifest)
    manifest.validate_paths()
    return manifest


def _labels(indices, inventory) -> str:
    return " ".join(inventory.label(i) for i in indices)


def _phonemize_utterance(utt, loaded: LoadedConfig,
                         policy: OovPolicy) -> list[PhonemizeResult]:
    """The prompt side, then the ASR side unless the prompt side is skipped.

    The ASR text is read only when it is phonemized.
    """
    sides = []
    for text, variant_rule in ((utt.prompt, loaded.config.variant_rule),
                               (utt.asr, "first")):
        sides.append(phonemize(tokenize(text()), loaded.lexicon, policy,
                               variant_rule))
        if sides[-1].skipped:
            break
    return sides


@dataclass
class _CorpusPhonemes:
    """Each speaker's phonemized utterances plus OOV bookkeeping."""

    # (speaker, [(utterance, prompt side, ASR side)]) in manifest order
    by_speaker: list = field(default_factory=list)
    oov_words: dict[str, int] = field(default_factory=dict)
    skipped: list[list[str]] = field(default_factory=list)


def _phonemize_corpus(manifest, loaded: LoadedConfig,
                      files: Writer) -> _CorpusPhonemes:
    """Phonemizes every utterance and creates --out-dir.

    phonemize only reports misses; the OOV verdict is given here: when an
    utterance is skipped under any --oov-policy but skip_utterance, this
    writes oov_report.json and raises OovError.
    """
    # phonemize's skip_utterance mode reports every miss instead of raising
    policy = OovPolicy("skip_utterance", loaded.policy.supplement)
    result = _CorpusPhonemes()
    for speaker in manifest.speakers:
        produced = []
        for utt in speaker.utterances:
            sides = _phonemize_utterance(utt, loaded, policy)
            for side in sides:
                for w in side.oov:
                    result.oov_words[w] = result.oov_words.get(w, 0) + 1
            if sides[-1].skipped:
                result.skipped.append([speaker.speaker_id, utt.utterance_id])
            else:
                produced.append((utt, *sides))
        result.by_speaker.append((speaker, produced))
    files.mkdir(loaded.config.out_dir)
    if result.skipped and loaded.config.oov_policy != "skip_utterance":
        _oov_report(files, loaded.config.out_dir, result)
        raise OovError(result.oov_words)
    return result


def _oov_report(files: Writer, out_dir: Path, corpus: _CorpusPhonemes) -> None:
    doc = {
        "oov_words": {w: corpus.oov_words[w] for w in sorted(corpus.oov_words)},
        "skipped_utterances": corpus.skipped,
    }
    files.write(out_dir / "oov_report.json",
                json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_phonemize(args, loaded: LoadedConfig, files: Writer) -> int:
    inv, out = loaded.inventory, loaded.config.out_dir
    corpus = _phonemize_corpus(_load_manifest(args), loaded, files)
    phonemes_dir = files.mkdir(out / "phonemes")
    for speaker, produced in corpus.by_speaker:
        if not produced:
            continue
        base = files.mkdir(phonemes_dir / speaker.speaker_id)
        for utt, prompt, observed in produced:
            if prompt.lattice is not None:
                lines = [
                    " | ".join(_labels(v.phonemes, inv) for v in variants)
                    for variants in prompt.lattice
                ]
                expected = "\n".join(lines) + ("\n" if lines else "")
            else:
                expected = _labels(prompt.indices, inv) + "\n"
            files.write(base / f"{utt.utterance_id}.expected.txt", expected)
            files.write(base / f"{utt.utterance_id}.observed.txt",
                        _labels(observed.indices, inv) + "\n")
    _oov_report(files, out, corpus)
    return EXIT_OK


def _align_corpus(manifest, loaded: LoadedConfig, files: Writer):
    """Align every utterance and write alignments/, profiles/, confusions/
    and oov_report.json; returns (speaker, profile) pairs."""
    cfg, inv, out = loaded.config, loaded.inventory, loaded.config.out_dir
    corpus = _phonemize_corpus(manifest, loaded, files)
    alignments_dir = files.mkdir(out / "alignments")
    profiles_dir = files.mkdir(out / "profiles")
    confusions_dir = files.mkdir(out / "confusions")
    profiles = []
    for speaker, produced in corpus.by_speaker:
        profile = SpeakerProfile(
            speaker.speaker_id, ConfusionMatrix(inv), speaker.l1_label
        )
        if produced:
            speaker_dir = files.mkdir(alignments_dir / speaker.speaker_id)
        for utt, prompt, observed in produced:
            if prompt.lattice is not None:
                ali = al.align_min_variant(prompt.lattice, observed.indices,
                                           loaded.costs, cfg.tie_break).alignment
            else:
                ali = al.align(prompt.indices, observed.indices, loaded.costs,
                               cfg.tie_break)
            accumulate(profile, ali)
            files.write(speaker_dir / f"{utt.utterance_id}.tsv",
                        al.dump_alignment(ali, inv))
        files.write(profiles_dir / f"{speaker.speaker_id}.json", profile.to_json())
        files.write(confusions_dir / f"{speaker.speaker_id}.csv",
                    profile.matrix.to_csv())
        profiles.append((speaker, profile))
    _oov_report(files, out, corpus)
    return profiles


def cmd_align(args, loaded: LoadedConfig, files: Writer) -> int:
    _align_corpus(_load_manifest(args), loaded, files)
    return EXIT_OK


def _check_clustering(vectors: int, cfg: RunConfig) -> None:
    clustering.check_parameters(vectors, cfg.k, cfg.perplexity, cfg.seed,
                                cfg.learning_rate, cfg.tsne_iterations,
                                cfg.early_exaggeration)


def _cluster_outputs(profiles, cfg: RunConfig, files: Writer) -> None:
    """clusters.csv, embedding.csv, and purity.txt when labels are complete.

    The profiles and k-means's centroids share one matrix, which t-SNE
    embeds whole."""
    out = cfg.out_dir
    speakers = clustering.SpeakerMatrix.from_profiles(profiles, cfg.normalization,
                                                      centroids=cfg.k)
    result = clustering.kmeans(speakers, cfg.k, seed=cfg.seed, init=cfg.init)
    lines = ["speaker_id,cluster"]
    for sid in speakers.speaker_ids:
        lines.append(f"{sid},{result.assignments[sid]}")
    files.write(out / "clusters.csv", "\n".join(lines) + "\n")

    embedded = clustering.tsne(
        speakers,
        perplexity=cfg.perplexity,
        learning_rate=cfg.learning_rate,
        iterations=cfg.tsne_iterations,
        seed=cfg.seed,
        early_exaggeration=cfg.early_exaggeration,
    )
    lines = ["speaker_id,x,y,kind"]
    speaker_count = len(speakers.speaker_ids)
    for i, point in enumerate(embedded.points):
        kind = "speaker" if i < speaker_count else "centroid"
        lines.append(f"{point.speaker_id},{point.x!r},{point.y!r},{kind}")
    files.write(out / "embedding.csv", "\n".join(lines) + "\n")

    labels = {p.speaker_id: p.l1_label for p in profiles}
    if labels and all(lab is not None for lab in labels.values()):
        score = clustering.purity(result, labels)
        files.write(out / "purity.txt", f"{score!r}\n")


def cmd_cluster(args, loaded: LoadedConfig, files: Writer) -> int:
    cfg = loaded.config
    profiles, sources = [], {}
    for path in args.profiles:
        profile = SpeakerProfile.from_json(read_input(path), loaded.inventory,
                                           source=path)
        if profile.speaker_id in sources:
            raise ValidationError(f"speaker {profile.speaker_id!r} is in both "
                                  f"{sources[profile.speaker_id]} and {path}")
        sources[profile.speaker_id] = path
        profiles.append(profile)
    _check_clustering(len(profiles), cfg)
    files.mkdir(cfg.out_dir)
    _cluster_outputs(profiles, cfg, files)
    return EXIT_OK


def _load_annotation_file(path: Path, inventory, tier_name: str):
    if path.suffix.lower() == ".textgrid":
        result = parse_textgrid(read_input(path), tier_name,
                                inventory=inventory, source=path)
        return result.annotations
    return load_annotation_csv(path, inventory)


def _comparison_outputs(profiles, loaded: LoadedConfig, files: Writer) -> None:
    """comparison_<l1>.{csv,txt}: each L1 group's pooled ASR matrix against
    every annotation file the manifest lists for the group's speakers."""
    cfg, inventory = loaded.config, loaded.inventory
    groups: dict[str, list] = {}
    for speaker, profile in profiles:
        groups.setdefault(speaker.l1_group, []).append((speaker, profile))
    for l1 in sorted(groups):
        asr_matrix = ha_matrix = ConfusionMatrix(inventory)
        for speaker, profile in groups[l1]:
            asr_matrix = merge(asr_matrix, profile.matrix)
            for utt in speaker.utterances:
                if utt.annotation_path is not None:
                    aset = _load_annotation_file(utt.annotation_path, inventory,
                                                 cfg.annotation_tier)
                    ha_matrix = merge(ha_matrix,
                                      annotations_to_confusion(aset, inventory))
        table = compare(asr_matrix, ha_matrix, loaded.targets,
                        top_k=cfg.top_k, min_occurrences=cfg.min_occurrences)
        stem = comparison_stem(l1)
        files.write(cfg.out_dir / f"{stem}.csv", table.to_csv())
        files.write(cfg.out_dir / f"{stem}.txt", table.to_text())


def cmd_compare(args, loaded: LoadedConfig, files: Writer) -> int:
    profiles = []
    for speaker in _load_manifest(args).speakers:
        path = args.profiles_dir / f"{speaker.speaker_id}.json"
        if not path.exists():
            raise ValidationError(f"no profile for {speaker.speaker_id!r} at {path}")
        profiles.append((speaker, SpeakerProfile.from_json(
            read_input(path), loaded.inventory, source=path)))
    files.mkdir(loaded.config.out_dir)
    _comparison_outputs(profiles, loaded, files)
    return EXIT_OK


def cmd_heatmap(args, loaded: LoadedConfig, files: Writer) -> int:
    inv = loaded.inventory
    grid = gridcsv.parse_grid(read_input(args.matrix), inv, source=args.matrix)
    svg = svg_heatmap(grid, inv.symbols, per_row=(args.kind == "confusion"))
    files.mkdir(args.out.parent)
    files.write(args.out, svg)
    return EXIT_OK


def cmd_run(args, loaded: LoadedConfig, files: Writer) -> int:
    cfg = loaded.config
    manifest = _load_manifest(args)
    _check_clustering(len(manifest.speakers), cfg)
    profiles = _align_corpus(manifest, loaded, files)
    _cluster_outputs([p for _, p in profiles], cfg, files)
    _comparison_outputs(profiles, loaded, files)
    heatmaps_dir = files.mkdir(cfg.out_dir / "heatmaps")
    for _, profile in profiles:
        svg = svg_heatmap(profile.matrix.counts, loaded.inventory.symbols,
                          per_row=True)
        files.write(heatmaps_dir / f"{profile.speaker_id}.svg", svg)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with Writer() as files:
            return args.func(args, load_config(run_config(args)), files)
    except OovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OOV
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        if exc.filename is None:
            print(f"internal error: {exc!r}", file=sys.stderr)
            return EXIT_INTERNAL
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 -- CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
