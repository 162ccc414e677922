"""Phoneme-level ASR error analysis.

Aligns expected vs. recognized phoneme sequences with a weighted edit
distance, accumulates per-speaker confusion matrices, computes
recognition/substitution metrics against human annotations, and
clusters speakers by their error patterns.
"""

from .alignment import (
    Alignment,
    SpeakerAlignment,
    align,
    align_min_variant,
    align_speaker,
    backend,
    dump_alignment,
)
from .annotations import (
    AnnotationRecord,
    AnnotationSet,
    annotations_to_confusion,
    compare,
    parse_annotation_csv,
    parse_textgrid,
    serialize_annotation_csv,
)
from .clustering import (
    ClusterResult,
    EmbeddingPoint,
    SpeakerMatrix,
    kmeans,
    purity,
    tsne,
)
from .confusion import (
    ConfusionMatrix,
    SpeakerProfile,
    accumulate,
    format_percent,
    insertion_stats,
    merge,
    most_common_substitute,
    phoneme_stats,
    recognition_rate,
)
from .costs import CostMatrix, parse_cost_matrix
from .errors import (
    OovError,
    ParseError,
    PhonoscopeError,
    UndefinedRateError,
    ValidationError,
)
from .inventory import ARPABET, EPSILON, PhonemeInventory, strip_stress
from .lexicon import (
    Lexicon,
    OovPolicy,
    PronunciationVariant,
    normalize_word,
    parse_lexicon,
    phonemize,
    serialize_lexicon,
    tokenize,
)
from .manifest import CorpusManifest, RunConfig

__version__ = "0.1.0"

__all__ = [
    "ARPABET",
    "EPSILON",
    "Alignment",
    "AnnotationRecord",
    "AnnotationSet",
    "ClusterResult",
    "ConfusionMatrix",
    "CorpusManifest",
    "CostMatrix",
    "EmbeddingPoint",
    "Lexicon",
    "OovError",
    "OovPolicy",
    "ParseError",
    "PhonemeInventory",
    "PhonoscopeError",
    "PronunciationVariant",
    "RunConfig",
    "SpeakerAlignment",
    "SpeakerMatrix",
    "SpeakerProfile",
    "UndefinedRateError",
    "ValidationError",
    "accumulate",
    "align",
    "align_min_variant",
    "align_speaker",
    "annotations_to_confusion",
    "backend",
    "compare",
    "dump_alignment",
    "format_percent",
    "insertion_stats",
    "kmeans",
    "merge",
    "most_common_substitute",
    "normalize_word",
    "parse_annotation_csv",
    "parse_cost_matrix",
    "parse_lexicon",
    "parse_textgrid",
    "phoneme_stats",
    "phonemize",
    "purity",
    "recognition_rate",
    "serialize_annotation_csv",
    "serialize_lexicon",
    "strip_stress",
    "tokenize",
    "tsne",
]
