"""The closed phoneme symbol set that indexes every matrix and vector.

The default inventory is the 39 stress-free ARPAbet phonemes plus the
empty-string symbol ``<eps>`` (40 symbols total). Every cost matrix,
confusion matrix, and speaker vector in the package is indexed by one
shared inventory, so symbol order is fixed at construction.
"""

from __future__ import annotations

from .errors import ParseError, ValidationError, read_input

EPSILON = "<eps>"

# Stress-free ARPAbet, alphabetical. Vowels carry 0/1/2 stress digits in
# dictionary files; those are stripped before indexing.
ARPABET = (
    "AA", "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH",
    "EH", "ER", "EY", "F", "G", "HH", "IH", "IY", "JH", "K",
    "L", "M", "N", "NG", "OW", "OY", "P", "R", "S", "SH",
    "T", "TH", "UH", "UW", "V", "W", "Y", "Z", "ZH",
)

_STRESS_DIGITS = ("0", "1", "2")


class PhonemeInventory:
    """Ordered, immutable symbol set containing exactly one ``<eps>``.

    The canonical inventory is ``ARPABET + (EPSILON,)``; a custom ordering
    or symbol set may be supplied (e.g. parsed from an inventory file),
    as long as symbols are unique and ``<eps>`` appears exactly once.
    """

    __slots__ = ("symbols", "epsilon_index", "_index")

    def __init__(self, symbols=None):
        if symbols is None:
            symbols = ARPABET + (EPSILON,)
        symbols = tuple(symbols)
        if len(symbols) < 2:
            raise ValidationError("inventory needs at least one phoneme plus <eps>")
        if len(set(symbols)) != len(symbols):
            seen = set()
            dup = next(s for s in symbols if s in seen or seen.add(s))
            raise ValidationError(f"duplicate inventory symbol: {dup}")
        if symbols.count(EPSILON) != 1:
            raise ValidationError(f"inventory must contain {EPSILON} exactly once")
        self.symbols = symbols
        self.epsilon_index = symbols.index(EPSILON)
        self._index = {s: i for i, s in enumerate(symbols)}

    @classmethod
    def default(cls) -> "PhonemeInventory":
        return cls()

    @classmethod
    def from_text(cls, text: str) -> "PhonemeInventory":
        """Parse an inventory definition file: one symbol per line."""
        symbols = [line.strip() for line in text.splitlines() if line.strip()]
        return cls(symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, PhonemeInventory) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"PhonemeInventory({len(self.symbols)} symbols)"

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown phoneme label: {label}") from None

    def label(self, index: int) -> str:
        return self.symbols[index]

    def is_epsilon(self, index: int) -> bool:
        return index == self.epsilon_index

    def non_epsilon_indices(self):
        eps = self.epsilon_index
        return [i for i in range(len(self.symbols)) if i != eps]


def strip_stress(label: str, inventory: PhonemeInventory | None = None) -> str:
    """Drop a trailing 0/1/2 stress digit (AH0 -> AH); consonants pass through.

    When an inventory is given, the stripped label must be a member.
    """
    stripped = label[:-1] if label and label[-1] in _STRESS_DIGITS else label
    if inventory is not None and stripped not in inventory:
        raise ValidationError(f"phoneme {stripped!r} (from {label!r}) not in inventory")
    return stripped


def load_inventory(path) -> PhonemeInventory:
    """Read an inventory definition file, wrapping errors with the filename."""
    try:
        return PhonemeInventory.from_text(read_input(path))
    except ValidationError as exc:
        raise ParseError(str(exc), source=path) from exc
