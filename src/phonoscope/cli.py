"""Command-line front end.

Subcommands: phonemize, align, cluster, compare, heatmap, run. All
outputs land under --out-dir with fixed names; reruns with identical
inputs and seed produce byte-identical trees (files are written in
manifest order, floats via repr, JSON with sorted keys).

Exit codes: 0 success, 1 internal error, 2 input/validation error
(including a file that cannot be read or written, named in the message),
3 out-of-vocabulary failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
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
from .inventory import PhonemeInventory, load_inventory
from .lexicon import phonemize, tokenize
from .manifest import (
    CorpusManifest,
    LoadedConfig,
    RunConfig,
    comparison_stem,
    load_config,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_OOV = 3


def _add_config_flags(p: argparse.ArgumentParser, *, need_lexicon: bool) -> None:
    p.add_argument("--lexicon", required=need_lexicon,
                   help="pronouncing dictionary file")
    p.add_argument("--costs", help="cost matrix CSV (default: uniform costs)")
    p.add_argument("--inventory", help="inventory file overriding the ARPAbet set")
    p.add_argument("--supplementary-lexicon",
                   help="second lexicon for the supplementary_lexicon OOV policy")
    p.add_argument("--oov-policy", default="fail",
                   choices=["fail", "skip_utterance", "supplementary_lexicon"])
    p.add_argument("--variant-rule", default="first", choices=["first", "all"])
    p.add_argument("--tie-break", default="substitute,delete,insert",
                   help="comma-separated op preference for alignment ties")
    p.add_argument("--max-variant-combinations", type=int, default=256)


def _add_cluster_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=6, help="number of clusters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", default="kmeanspp", choices=["kmeanspp", "forgy"])
    p.add_argument("--normalization", default="raw_counts",
                   choices=["raw_counts", "row_frequency"])
    p.add_argument("--perplexity", type=float, default=5.0)
    p.add_argument("--learning-rate", type=float, default=200.0)
    p.add_argument("--tsne-iterations", type=int, default=1000)
    p.add_argument("--early-exaggeration", type=float, default=12.0)


def _add_compare_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--top-k", type=int, default=3,
                   help="targets per group when none are given explicitly")
    p.add_argument("--min-occurrences", type=int, default=20)
    p.add_argument("--targets", help="comma-separated target phonemes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonoscope",
        description="Phoneme-level ASR error analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phonemize", help="convert manifest texts to phoneme files")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default="out")
    _add_config_flags(p, need_lexicon=True)
    p.set_defaults(func=cmd_phonemize)

    p = sub.add_parser("align", help="align utterances and build speaker profiles")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default="out")
    _add_config_flags(p, need_lexicon=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("cluster", help="cluster speaker profiles and embed them")
    p.add_argument("profiles", nargs="+", help="speaker profile JSON files")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--inventory")
    _add_cluster_flags(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("compare", help="ASR vs. human-annotator comparison tables")
    p.add_argument("manifest")
    p.add_argument("--profiles-dir", required=True,
                   help="directory of speaker profile JSONs from `align`")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--inventory")
    p.add_argument("--annotation-tier", default="annotations",
                   help="tier name for TextGrid annotation files")
    _add_compare_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("heatmap", help="render a matrix CSV as an SVG heatmap")
    p.add_argument("matrix", help="confusion or cost matrix CSV")
    p.add_argument("out", help="output SVG path")
    p.add_argument("--kind", default="confusion", choices=["confusion", "costs"],
                   help="confusion scales each row to its max, costs globally")
    p.add_argument("--inventory")
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("run", help="full pipeline: align, cluster, compare, heatmaps")
    p.add_argument("manifest")
    p.add_argument("--out-dir", default="out")
    _add_config_flags(p, need_lexicon=True)
    _add_cluster_flags(p)
    _add_compare_flags(p)
    p.add_argument("--annotation-tier", default="annotations")
    p.set_defaults(func=cmd_run)

    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(out_dir=Path(args.out_dir))
    cfg.lexicon_path = Path(args.lexicon) if args.lexicon else None
    if getattr(args, "costs", None):
        cfg.cost_matrix_path = Path(args.costs)
    if getattr(args, "inventory", None):
        cfg.inventory_path = Path(args.inventory)
    if getattr(args, "supplementary_lexicon", None):
        cfg.supplementary_lexicon_path = Path(args.supplementary_lexicon)
    cfg.oov_policy = args.oov_policy
    cfg.variant_rule = args.variant_rule
    cfg.tie_break = tuple(t.strip() for t in args.tie_break.split(",") if t.strip())
    cfg.max_variant_combinations = args.max_variant_combinations
    for name in ("k", "seed", "init", "normalization", "perplexity",
                 "learning_rate", "tsne_iterations", "early_exaggeration",
                 "top_k", "min_occurrences"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


def _load_inventory_arg(args) -> PhonemeInventory:
    if getattr(args, "inventory", None):
        return load_inventory(args.inventory)
    return PhonemeInventory.default()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _labels(indices, inventory) -> str:
    return " ".join(inventory.label(i) for i in indices)


@dataclass
class _UtterancePhonemes:
    """Phonemized sides of one utterance, or the reason it was excluded."""

    expected: list[int] | None = None
    lattice: list | None = None
    observed: list[int] | None = None
    skipped: bool = False
    oov: list[str] = field(default_factory=list)


def _phonemize_utterance(utt, loaded: LoadedConfig) -> _UtterancePhonemes:
    cfg = loaded.config
    oov: list[str] = []
    try:
        prompt = phonemize(tokenize(utt.prompt()), loaded.lexicon, loaded.policy,
                           cfg.variant_rule)
    except OovError as exc:
        return _UtterancePhonemes(skipped=True, oov=list(exc.words))
    oov.extend(prompt.oov)
    if prompt.skipped:
        return _UtterancePhonemes(skipped=True, oov=oov)
    try:
        observed = phonemize(tokenize(utt.asr()), loaded.lexicon, loaded.policy,
                             "first")
    except OovError as exc:
        return _UtterancePhonemes(skipped=True, oov=oov + list(exc.words))
    oov.extend(observed.oov)
    if observed.skipped:
        return _UtterancePhonemes(skipped=True, oov=oov)
    return _UtterancePhonemes(
        expected=prompt.indices, lattice=prompt.lattice,
        observed=observed.indices, oov=oov,
    )


@dataclass
class _CorpusPhonemes:
    """Every successfully phonemized utterance plus OOV bookkeeping."""

    produced: list = field(default_factory=list)  # (speaker, utt, phonemes)
    oov_words: dict[str, int] = field(default_factory=dict)
    skipped: list[list[str]] = field(default_factory=list)
    failed: bool = False


def _phonemize_corpus(manifest, loaded: LoadedConfig) -> _CorpusPhonemes:
    result = _CorpusPhonemes()
    for speaker in manifest.speakers:
        for utt in speaker.utterances:
            ph = _phonemize_utterance(utt, loaded)
            for w in ph.oov:
                result.oov_words[w] = result.oov_words.get(w, 0) + 1
            if ph.skipped:
                result.skipped.append([speaker.speaker_id, utt.utterance_id])
                if loaded.policy.mode != "skip_utterance":
                    result.failed = True
                continue
            result.produced.append((speaker, utt, ph))
    return result


def _oov_report(out_dir: Path, corpus: _CorpusPhonemes) -> None:
    doc = {
        "oov_words": {w: corpus.oov_words[w] for w in sorted(corpus.oov_words)},
        "skipped_utterances": corpus.skipped,
    }
    _write(out_dir / "oov_report.json",
           json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_phonemize(args) -> int:
    cfg = _config_from_args(args)
    loaded = load_config(cfg)
    manifest = CorpusManifest.load(args.manifest)
    manifest.validate_paths()
    inv = loaded.inventory
    out = cfg.out_dir

    corpus = _phonemize_corpus(manifest, loaded)
    if corpus.failed:
        _oov_report(out, corpus)
        raise OovError(corpus.oov_words)
    for speaker, utt, ph in corpus.produced:
        base = out / "phonemes" / speaker.speaker_id
        if ph.lattice is not None:
            lines = [
                " | ".join(_labels(v.phonemes, inv) for v in variants)
                for variants in ph.lattice
            ]
            _write(base / f"{utt.utterance_id}.expected.txt",
                   "\n".join(lines) + ("\n" if lines else ""))
        else:
            _write(base / f"{utt.utterance_id}.expected.txt",
                   _labels(ph.expected, inv) + "\n")
        _write(base / f"{utt.utterance_id}.observed.txt",
               _labels(ph.observed, inv) + "\n")

    _oov_report(out, corpus)
    return EXIT_OK


def _align_corpus(manifest, loaded: LoadedConfig, out: Path | None):
    """Align every utterance; returns (speaker, profile, annotation paths)."""
    cfg = loaded.config
    inv = loaded.inventory
    corpus = _phonemize_corpus(manifest, loaded)
    if corpus.failed:
        if out is not None:
            _oov_report(out, corpus)
        raise OovError(corpus.oov_words)

    by_speaker: dict[str, list] = {s.speaker_id: [] for s in manifest.speakers}
    for speaker, utt, ph in corpus.produced:
        by_speaker[speaker.speaker_id].append((utt, ph))

    profiles = []
    for speaker in manifest.speakers:
        profile = SpeakerProfile(
            speaker.speaker_id, ConfusionMatrix(inv), speaker.l1_label
        )
        annotation_paths = []
        for utt, ph in by_speaker[speaker.speaker_id]:
            if ph.lattice is not None:
                result = al.align_min_variant(
                    ph.lattice, ph.observed, loaded.costs, cfg.tie_break,
                    cfg.max_variant_combinations,
                )
                ali = result.alignment
            else:
                ali = al.align(ph.expected, ph.observed, loaded.costs,
                               cfg.tie_break)
            accumulate(profile, ali)
            if utt.annotation_path is not None:
                annotation_paths.append(utt.annotation_path)
            if out is not None:
                _write(
                    out / "alignments" / speaker.speaker_id
                    / f"{utt.utterance_id}.tsv",
                    al.dump_alignment(ali, inv),
                )
        if out is not None:
            _write(out / "profiles" / f"{speaker.speaker_id}.json",
                   profile.to_json())
            _write(out / "confusions" / f"{speaker.speaker_id}.csv",
                   profile.matrix.to_csv())
        profiles.append((speaker, profile, annotation_paths))
    if out is not None:
        _oov_report(out, corpus)
    return profiles


def cmd_align(args) -> int:
    cfg = _config_from_args(args)
    loaded = load_config(cfg)
    manifest = CorpusManifest.load(args.manifest)
    manifest.validate_paths()
    _align_corpus(manifest, loaded, cfg.out_dir)
    return EXIT_OK


def _cluster_outputs(profiles, cfg: RunConfig, out: Path) -> None:
    """clusters.csv, embedding.csv, and purity.txt when labels are complete."""
    vectors = [clustering.vectorize(p, cfg.normalization) for p in profiles]
    result = clustering.kmeans(vectors, cfg.k, seed=cfg.seed, init=cfg.init)
    lines = ["speaker_id,cluster"]
    for v in vectors:
        lines.append(f"{v.speaker_id},{result.assignments[v.speaker_id]}")
    _write(out / "clusters.csv", "\n".join(lines) + "\n")

    centroid_vectors = [
        clustering.SpeakerVector(f"centroid_{c}", result.centroids[c],
                                 cfg.normalization)
        for c in range(cfg.k)
    ]
    embedded = clustering.tsne(
        vectors + centroid_vectors,
        perplexity=cfg.perplexity,
        learning_rate=cfg.learning_rate,
        iterations=cfg.tsne_iterations,
        seed=cfg.seed,
        early_exaggeration=cfg.early_exaggeration,
    )
    lines = ["speaker_id,x,y,kind"]
    speaker_count = len(vectors)
    for i, point in enumerate(embedded.points):
        kind = "speaker" if i < speaker_count else "centroid"
        lines.append(f"{point.speaker_id},{point.x!r},{point.y!r},{kind}")
    _write(out / "embedding.csv", "\n".join(lines) + "\n")

    labels = {p.speaker_id: p.l1_label for p in profiles}
    if labels and all(lab is not None for lab in labels.values()):
        score = clustering.purity(result, labels)
        _write(out / "purity.txt", f"{score!r}\n")


def cmd_cluster(args) -> int:
    inv = _load_inventory_arg(args)
    profiles = []
    for path in args.profiles:
        profiles.append(SpeakerProfile.from_json(read_input(path), inv, source=path))
    cfg = RunConfig(out_dir=Path(args.out_dir))
    for name in ("k", "seed", "init", "normalization", "perplexity",
                 "learning_rate", "tsne_iterations", "early_exaggeration"):
        setattr(cfg, name, getattr(args, name))
    clustering.check_parameters(len(profiles), cfg.k, cfg.perplexity)
    _cluster_outputs(profiles, cfg, cfg.out_dir)
    return EXIT_OK


def _load_annotation_file(path: Path, inventory, tier_name: str):
    if path.suffix.lower() == ".textgrid":
        result = parse_textgrid(read_input(path), tier_name,
                                inventory=inventory, source=path)
        return result.annotations
    return load_annotation_csv(path, inventory)


def _group_by_l1(profiles):
    """(l1 or 'unlabeled') -> (pooled ASR matrix, annotation paths)."""
    grouped: dict[str, tuple[ConfusionMatrix, list[Path]]] = {}
    for speaker, profile, annotation_paths in profiles:
        l1 = speaker.l1_group
        if l1 in grouped:
            pooled, paths = grouped[l1]
            grouped[l1] = (merge(pooled, profile.matrix),
                           paths + list(annotation_paths))
        else:
            grouped[l1] = (profile.matrix.copy(), list(annotation_paths))
    return grouped


def _comparison_outputs(grouped, inventory, cfg: RunConfig, out: Path,
                        tier_name: str, targets=None) -> None:
    for l1 in sorted(grouped):
        asr_matrix, annotation_paths = grouped[l1]
        ha_matrix = ConfusionMatrix(inventory)
        for path in annotation_paths:
            aset = _load_annotation_file(path, inventory, tier_name)
            ha_matrix = merge(ha_matrix, annotations_to_confusion(aset, inventory))
        table = compare(asr_matrix, ha_matrix, targets,
                        top_k=cfg.top_k, min_occurrences=cfg.min_occurrences)
        stem = comparison_stem(l1)
        _write(out / f"{stem}.csv", table.to_csv())
        _write(out / f"{stem}.txt", table.to_text())


def cmd_compare(args) -> int:
    inv = _load_inventory_arg(args)
    manifest = CorpusManifest.load(args.manifest)
    manifest.validate_paths()
    cfg = RunConfig(out_dir=Path(args.out_dir))
    cfg.top_k = args.top_k
    cfg.min_occurrences = args.min_occurrences
    targets = ([t.strip() for t in args.targets.split(",") if t.strip()]
               if args.targets else None)

    profiles = []
    profiles_dir = Path(args.profiles_dir)
    for speaker in manifest.speakers:
        path = profiles_dir / f"{speaker.speaker_id}.json"
        if not path.exists():
            raise ValidationError(f"no profile for {speaker.speaker_id!r} at {path}")
        profile = SpeakerProfile.from_json(read_input(path), inv, source=path)
        annotation_paths = [u.annotation_path for u in speaker.utterances
                            if u.annotation_path is not None]
        profiles.append((speaker, profile, annotation_paths))

    _comparison_outputs(_group_by_l1(profiles), inv, cfg, cfg.out_dir,
                        args.annotation_tier, targets)
    return EXIT_OK


def cmd_heatmap(args) -> int:
    inv = _load_inventory_arg(args)
    grid = gridcsv.parse_grid(read_input(args.matrix), inv, source=args.matrix)
    svg = svg_heatmap(grid, inv.symbols, per_row=(args.kind == "confusion"))
    _write(Path(args.out), svg)
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    loaded = load_config(cfg)
    manifest = CorpusManifest.load(args.manifest)
    manifest.validate_paths()
    clustering.check_parameters(len(manifest.speakers), cfg.k, cfg.perplexity)
    out = cfg.out_dir

    profiles = _align_corpus(manifest, loaded, out)

    _cluster_outputs([p for _, p, _ in profiles], cfg, out)

    targets = ([t.strip() for t in args.targets.split(",") if t.strip()]
               if args.targets else None)
    _comparison_outputs(_group_by_l1(profiles), loaded.inventory, cfg, out,
                        args.annotation_tier, targets)

    for _, profile, _ in profiles:
        svg = svg_heatmap(profile.matrix.counts, loaded.inventory.symbols,
                          per_row=True)
        _write(out / "heatmaps" / f"{profile.speaker_id}.svg", svg)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
