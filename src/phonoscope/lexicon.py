"""Pronouncing-dictionary parsing and word-to-phoneme conversion.

Dictionary format (CMU style): one entry per line, ``WORD  PH PH ...``,
alternate pronunciations as ``WORD(1)``, comment lines starting ``;;;``,
any whitespace run as separator. Stress digits on vowels are stripped at
parse time so every stored phoneme is an inventory member.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field

from .errors import OovError, ParseError, ValidationError, read_input
from .inventory import PhonemeInventory, strip_stress

_COMMENT_PREFIX = ";;;"
_VARIANT_RE = re.compile(r"^(.+)\((\d+)\)$")
_STRIP_CHARS = "".join(c for c in string.punctuation)


def normalize_word(token: str) -> str:
    """Uppercase and strip leading/trailing punctuation; keep internal marks.

    ``"Simple,"`` -> ``"SIMPLE"``, ``"don't"`` -> ``"DON'T"``.
    """
    return token.upper().strip(_STRIP_CHARS)


def tokenize(text: str) -> list[str]:
    """Split on whitespace and normalize each token, dropping empties.

    Applied identically to prompts and ASR transcripts.
    """
    return [w for w in (normalize_word(t) for t in text.split()) if w]


@dataclass(frozen=True)
class PronunciationVariant:
    """One pronunciation: a non-empty sequence of non-epsilon inventory indices."""

    phonemes: tuple[int, ...]

    def labels(self, inventory: PhonemeInventory) -> tuple[str, ...]:
        return tuple(inventory.label(i) for i in self.phonemes)


class Lexicon:
    """Word -> ordered pronunciation variants (variant 0 = unnumbered headword)."""

    def __init__(self, inventory: PhonemeInventory):
        self.inventory = inventory
        self.entries: dict[str, list[PronunciationVariant]] = {}

    def add(self, word: str, variant: PronunciationVariant) -> None:
        if not variant.phonemes:
            raise ValidationError(f"empty pronunciation for {word!r}")
        eps = self.inventory.epsilon_index
        if any(p == eps for p in variant.phonemes):
            raise ValidationError(f"epsilon not allowed in pronunciation of {word!r}")
        self.entries.setdefault(word, []).append(variant)

    def variants(self, word: str) -> list[PronunciationVariant]:
        return self.entries[word]

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lexicon)
            and self.inventory == other.inventory
            and self.entries == other.entries
        )


def parse_lexicon(text: str, inventory: PhonemeInventory | None = None,
                  source=None) -> Lexicon:
    """Parse dictionary-format text into a Lexicon.

    Each word's variants are ordered by index, the headword as 0 and
    ``WORD(n)`` as n; entries with equal indices keep file order. Unknown
    phoneme labels and malformed variant indices raise ParseError naming
    the line. Comment and blank lines are ignored.
    """
    if inventory is None:
        inventory = PhonemeInventory.default()
    numbered: dict[str, list[tuple[int, PronunciationVariant]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIX):
            continue
        fields = line.split()
        head, phones = fields[0], fields[1:]
        word, number = head, 0
        if head.endswith(")"):
            m = _VARIANT_RE.match(head)
            if m is None:
                raise ParseError(
                    f"malformed variant index in {head!r}", line=lineno, source=source
                )
            word, number = m.group(1), int(m.group(2))
        word = normalize_word(word)
        if not word:
            raise ParseError(
                f"headword {head!r} is empty after normalization",
                line=lineno, source=source,
            )
        if not phones:
            raise ParseError(
                f"no phonemes given for {word!r}", line=lineno, source=source
            )
        indices = []
        for phone in phones:
            stripped = strip_stress(phone)
            if stripped not in inventory:
                raise ParseError(
                    f"unknown phoneme label {phone!r}", line=lineno, source=source
                )
            idx = inventory.index(stripped)
            if inventory.is_epsilon(idx):
                raise ParseError(
                    f"epsilon not allowed in pronunciation of {word!r}",
                    line=lineno, source=source,
                )
            indices.append(idx)
        numbered.setdefault(word, []).append(
            (number, PronunciationVariant(tuple(indices))))
    lex = Lexicon(inventory)
    for word, variants in numbered.items():
        for _, variant in sorted(variants, key=lambda v: v[0]):
            lex.add(word, variant)
    return lex


def serialize_lexicon(lex: Lexicon) -> str:
    """Render a Lexicon back to dictionary format (round-trips with parse)."""
    lines = []
    for word, variants in lex.entries.items():
        for n, variant in enumerate(variants):
            head = word if n == 0 else f"{word}({n})"
            phones = " ".join(variant.labels(lex.inventory))
            lines.append(f"{head}  {phones}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_lexicon(path, inventory: PhonemeInventory | None = None) -> Lexicon:
    return parse_lexicon(read_input(path), inventory, source=path)


_OOV_MODES = ("fail", "skip_utterance", "supplementary_lexicon")
DEFAULT_OOV_POLICY = "fail"
DEFAULT_VARIANT_RULE = "first"


@dataclass
class OovPolicy:
    """What to do with words missing from the lexicon.

    A second lexicon, ``supplement``, is consulted under every mode when it
    is given, and a miss is a word in neither lexicon. ``fail`` raises
    listing all misses; ``skip_utterance`` flags the utterance so callers
    exclude it from downstream counts; ``supplementary_lexicon`` acts like
    ``fail`` but requires the second lexicon.
    """

    mode: str = DEFAULT_OOV_POLICY
    supplement: Lexicon | None = None

    def __post_init__(self):
        if self.mode not in _OOV_MODES:
            raise ValidationError(
                f"unknown OOV mode {self.mode!r}; expected one of {_OOV_MODES}"
            )
        if self.mode == "supplementary_lexicon" and self.supplement is None:
            raise ValidationError("supplementary_lexicon mode requires a second lexicon")


@dataclass
class PhonemizeResult:
    """Output of phonemize: a flat index sequence or a per-word lattice.

    ``indices`` is set under variant_rule="first", ``lattice`` under
    variant_rule="all". ``oov`` lists every miss in token order;
    ``skipped`` marks an utterance excluded under skip_utterance.
    """

    indices: list[int] | None = None
    lattice: list[list[PronunciationVariant]] | None = None
    oov: list[str] = field(default_factory=list)
    skipped: bool = False


def phonemize(tokens, lexicon: Lexicon, policy: OovPolicy | None = None,
              variant_rule: str = DEFAULT_VARIANT_RULE) -> PhonemizeResult:
    """Convert normalized word tokens to inventory phoneme indices.

    Tokens must already be normalized like lexicon keys (see
    normalize_word). Under variant_rule="first" the first pronunciation
    of each word is concatenated; under "all" a per-word lattice of
    alternatives is returned for min-cost selection during alignment.
    """
    if policy is None:
        policy = OovPolicy()
    if variant_rule not in ("first", "all"):
        raise ValidationError(f"unknown variant_rule {variant_rule!r}")

    per_word: list[list[PronunciationVariant]] = []
    oov: list[str] = []
    for token in tokens:
        if token in lexicon:
            per_word.append(lexicon.variants(token))
        elif policy.supplement is not None and token in policy.supplement:
            per_word.append(policy.supplement.variants(token))
        else:
            oov.append(token)

    if oov:
        if policy.mode == "skip_utterance":
            return PhonemizeResult(oov=oov, skipped=True)
        # fail, and supplementary_lexicon with words in neither lexicon
        raise OovError(oov)

    if variant_rule == "all":
        return PhonemizeResult(lattice=per_word, oov=oov)
    indices = [p for variants in per_word for p in variants[0].phonemes]
    return PhonemizeResult(indices=indices, oov=oov)
