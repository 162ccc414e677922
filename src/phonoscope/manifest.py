"""Corpus manifest (JSON) and run configuration.

The manifest is one JSON file listing speakers and their utterances;
per-utterance texts may be inline (tiny fixtures) or path-referenced
(corpus layouts), with paths resolved relative to the manifest file.
All referenced config files are parsed up front so a bad cost matrix or
lexicon fails before any utterance is aligned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import annotations, clustering
from .alignment import DEFAULT_TIE_BREAK, tie_codes
from .costs import CostMatrix, load_cost_matrix
from .errors import ParseError, ValidationError, read_input
from .inventory import PhonemeInventory, load_inventory
from .lexicon import (
    DEFAULT_OOV_POLICY,
    DEFAULT_VARIANT_RULE,
    Lexicon,
    OovPolicy,
    load_lexicon,
)


@dataclass
class Utterance:
    utterance_id: str
    prompt_text: str | None = None
    prompt_path: Path | None = None
    asr_transcript: str | None = None
    asr_path: Path | None = None
    annotation_path: Path | None = None

    def prompt(self) -> str:
        if self.prompt_text is not None:
            return self.prompt_text
        return read_input(self.prompt_path)

    def asr(self) -> str:
        if self.asr_transcript is not None:
            return self.asr_transcript
        return read_input(self.asr_path)


@dataclass
class Speaker:
    speaker_id: str
    l1_label: str | None = None
    utterances: list[Utterance] = field(default_factory=list)

    @property
    def l1_group(self) -> str:
        """The comparison group: the L1 label, or "unlabeled"."""
        return self.l1_label or "unlabeled"


def comparison_stem(l1_group: str) -> str:
    """File name, without suffix, of an L1 group's comparison tables."""
    return "comparison_" + l1_group.replace("/", "_").replace(" ", "_")


_UNSAFE_ID_CHARS = frozenset("/\\\0,\"\r\n")
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _has_surrogate(value: str) -> bool:
    """A lone surrogate (JSON "\\ud800") cannot be encoded into a file name."""
    return any("\ud800" <= c <= "\udfff" for c in value)


def _expect(value, kind: type, what: str, source):
    """value when it is a `kind`; raises a ParseError naming `what` otherwise."""
    if not isinstance(value, kind):
        raise ParseError(f"{what} must be {_JSON_NAMES[kind]}, not "
                         f"{_JSON_NAMES[type(value)]}", source=source)
    return value


def check_id(value: str, what: str, source) -> None:
    """Ids name output files and directories and are written unquoted into
    CSV rows, so each must be one plain name."""
    if (value in ("", ".", "..") or not _UNSAFE_ID_CHARS.isdisjoint(value)
            or _has_surrogate(value)):
        raise ParseError(
            f"{what} {value!r} is not a plain name (not empty, '.' or '..'; no "
            "'/', '\\', ',', '\"', CR, LF, NUL or lone surrogate)", source=source,
        )


@dataclass
class CorpusManifest:
    speakers: list[Speaker] = field(default_factory=list)

    @classmethod
    def from_json(cls, text: str, base_dir: Path | None = None,
                  source=None) -> "CorpusManifest":
        base = Path(base_dir) if base_dir is not None else Path(".")
        try:
            doc = json.loads(text)
        # ValueError: an integer past int()'s digit limit; RecursionError:
        # nesting too deep for the decoder
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"bad manifest JSON: {exc}", source=source) from None
        if not isinstance(doc, dict) or not isinstance(doc.get("speakers"), list):
            raise ParseError('manifest must be {"speakers": [...]}', source=source)

        manifest = cls()
        seen_speakers = set()
        for n, sdoc in enumerate(doc["speakers"]):
            sid = _expect(sdoc, dict, f"speakers[{n}]", source).get("speaker_id")
            if not sid or not isinstance(sid, str):
                raise ParseError("speaker entry missing speaker_id", source=source)
            check_id(sid, "speaker_id", source)
            if sid in seen_speakers:
                raise ParseError(f"duplicate speaker_id {sid!r}", source=source)
            seen_speakers.add(sid)
            l1 = sdoc.get("l1_label")
            if l1 is not None and (not isinstance(l1, str) or not l1 or "\0" in l1
                                   or _has_surrogate(l1)):
                raise ParseError(f"l1_label of {sid!r} must be a non-empty string "
                                 "without NUL or lone surrogates", source=source)
            speaker = Speaker(sid, l1)
            seen_utts = set()
            udocs = _expect(sdoc.get("utterances", []), list,
                            f"utterances of {sid!r}", source)
            for n, udoc in enumerate(udocs):
                uid = _expect(udoc, dict, f"utterances[{n}] of {sid!r}",
                              source).get("utterance_id")
                if not uid or not isinstance(uid, str):
                    raise ParseError(
                        f"utterance of {sid!r} missing utterance_id", source=source
                    )
                check_id(uid, f"utterance_id of {sid!r}", source)
                if uid in seen_utts:
                    raise ParseError(
                        f"duplicate utterance_id {uid!r} for speaker {sid!r}",
                        source=source,
                    )
                seen_utts.add(uid)
                utt = Utterance(uid)
                for key in ("prompt_text", "asr_transcript"):  # null: absent
                    if udoc.get(key) is not None:
                        setattr(utt, key, _expect(udoc[key], str,
                                                  f"{key} of {uid!r}", source))
                for key in ("prompt_path", "asr_path", "annotation_path"):
                    if key in udoc:
                        setattr(utt, key, base / _expect(udoc[key], str,
                                                         f"{key} of {uid!r}", source))
                if (utt.prompt_text is None) == (utt.prompt_path is None):
                    raise ParseError(
                        f"utterance {uid!r} needs exactly one of "
                        "prompt_text / prompt_path", source=source,
                    )
                if (utt.asr_transcript is None) == (utt.asr_path is None):
                    raise ParseError(
                        f"utterance {uid!r} needs exactly one of "
                        "asr_transcript / asr_path", source=source,
                    )
                speaker.utterances.append(utt)
            manifest.speakers.append(speaker)

        # a missing label and the label "unlabeled" are two different groups
        labels_by_stem: dict[str, str | None] = {}
        for speaker in manifest.speakers:
            stem = comparison_stem(speaker.l1_group)
            other = labels_by_stem.setdefault(stem, speaker.l1_label)
            if other != speaker.l1_label:
                raise ParseError(
                    f"l1_label {other!r} and {speaker.l1_label!r} would both write "
                    f"{stem}.csv", source=source,
                )
        return manifest

    @classmethod
    def load(cls, path) -> "CorpusManifest":
        path = Path(path)
        return cls.from_json(read_input(path), path.parent, source=path)

    def validate_paths(self) -> None:
        for speaker in self.speakers:
            for utt in speaker.utterances:
                for p in (utt.prompt_path, utt.asr_path, utt.annotation_path):
                    if p is not None and not p.exists():
                        raise ValidationError(f"referenced path does not exist: {p}")


@dataclass
class RunConfig:
    """Everything a pipeline run needs, with every CLI default.

    Each CLI flag sets the field of the same name (see cli.run_config). A
    default that a library function shares is a DEFAULT_* constant of that
    function's module, so both read one value.
    """

    lexicon_path: Path | None = None
    cost_matrix_path: Path | None = None
    inventory_path: Path | None = None
    supplementary_lexicon_path: Path | None = None
    oov_policy: str = DEFAULT_OOV_POLICY
    variant_rule: str = DEFAULT_VARIANT_RULE
    tie_break: tuple[str, ...] = DEFAULT_TIE_BREAK
    k: int = 6
    seed: int = clustering.DEFAULT_SEED
    init: str = clustering.DEFAULT_INIT
    perplexity: float = clustering.DEFAULT_PERPLEXITY
    learning_rate: float = clustering.DEFAULT_LEARNING_RATE
    tsne_iterations: int = clustering.DEFAULT_TSNE_ITERATIONS
    early_exaggeration: float = clustering.DEFAULT_EARLY_EXAGGERATION
    normalization: str = clustering.RAW_COUNTS
    top_k: int = annotations.DEFAULT_TOP_K
    min_occurrences: int = annotations.DEFAULT_MIN_OCCURRENCES
    targets: tuple[str, ...] | None = None  # None or (): the top_k rule
    annotation_tier: str = "annotations"
    out_dir: Path = Path("out")


@dataclass
class LoadedConfig:
    config: RunConfig
    inventory: PhonemeInventory
    lexicon: Lexicon | None
    costs: CostMatrix
    policy: OovPolicy
    targets: list[int] | None  # config.targets as inventory indices


def load_config(config: RunConfig) -> LoadedConfig:
    """Parse every referenced file and check every value that needs no
    corpus; raises before any output is written.

    The clustering values are checked against the corpus size by
    clustering.check_parameters.
    """
    tie_codes(config.tie_break)
    annotations.check_parameters(config.top_k, config.min_occurrences)
    if config.inventory_path is not None:
        inventory = load_inventory(config.inventory_path)
    else:
        inventory = PhonemeInventory.default()
    targets = None
    if config.targets:
        targets = annotations.resolve_targets(inventory, config.targets)

    lexicon = None
    if config.lexicon_path is not None:
        lexicon = load_lexicon(config.lexicon_path, inventory)

    supplement = None
    if config.supplementary_lexicon_path is not None:
        supplement = load_lexicon(config.supplementary_lexicon_path, inventory)

    if config.oov_policy == "supplementary_lexicon" and supplement is None:
        raise ValidationError(
            "oov policy supplementary_lexicon requires --supplementary-lexicon"
        )
    policy = OovPolicy(config.oov_policy, supplement)

    if config.cost_matrix_path is not None:
        costs = load_cost_matrix(config.cost_matrix_path, inventory)
    else:
        costs = CostMatrix.uniform(inventory)

    return LoadedConfig(config, inventory, lexicon, costs, policy, targets)
