"""The closed phoneme symbol set that indexes every matrix and vector.

The default inventory is the 39 stress-free ARPAbet phonemes plus the
empty-string symbol ``<eps>`` (40 symbols total). Every cost matrix,
confusion matrix, and speaker vector in the package is indexed by one
shared inventory, so symbol order is fixed at construction.
"""

from __future__ import annotations

import re

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

# what the CSV outputs, which write symbols unquoted, cannot carry: Unicode
# whitespace, "," and '"', control characters and lone surrogates
_UNCARRIED = re.compile(r'[\s,"\x00-\x1f\x7f-\x9f\ud800-\udfff]')


class PhonemeInventory:
    """Ordered, immutable symbol set containing exactly one ``<eps>``.

    The canonical inventory is ``ARPABET + (EPSILON,)``; a custom ordering
    or symbol set may be supplied (e.g. parsed from an inventory file),
    as long as symbols are unique, ``<eps>`` appears exactly once and no
    symbol holds a character that the CSV outputs cannot carry unquoted:
    whitespace, ``,``, ``"``, a control character or a lone surrogate.
    """

    __slots__ = ("symbols", "epsilon_index", "_index")

    def __init__(self, symbols=None):
        if symbols is None:
            symbols = ARPABET + (EPSILON,)
        symbols = tuple(symbols)
        fault = _first_fault(symbols)
        if fault is not None:
            raise ValidationError(fault[1])
        self.symbols = symbols
        self.epsilon_index = symbols.index(EPSILON)
        self._index = {s: i for i, s in enumerate(symbols)}

    @classmethod
    def default(cls) -> "PhonemeInventory":
        return cls()

    @classmethod
    def from_text(cls, text: str) -> "PhonemeInventory":
        """Parse an inventory definition file: one symbol per line."""
        return cls(symbol for _, symbol in _numbered_symbols(text))

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


def _numbered_symbols(text: str) -> list[tuple[int, str]]:
    """(line, symbol) for each non-blank line of an inventory file."""
    return [(n, line.strip()) for n, line in enumerate(text.splitlines(), 1)
            if line.strip()]


def _first_fault(symbols) -> tuple[int | None, str] | None:
    """(index, reason) of the first fault in a symbol list, with index None
    when the fault is the whole list's; None when there is none."""
    if len(symbols) < 2:
        return None, "inventory needs at least one phoneme plus <eps>"
    seen = set()
    for i, symbol in enumerate(symbols):
        bad = _UNCARRIED.search(symbol)
        if bad:
            return i, (f"inventory symbol {symbol!r} holds {bad[0]!r}; no symbol may "
                       "hold whitespace, ',', '\"', a control character or a lone "
                       "surrogate")
        if symbol in seen:
            return i, (f"inventory must contain {EPSILON} exactly once"
                       if symbol == EPSILON else f"duplicate inventory symbol: {symbol}")
        seen.add(symbol)
    if EPSILON not in seen:
        return None, f"inventory must contain {EPSILON} exactly once"
    return None


def load_inventory(path) -> PhonemeInventory:
    """Read an inventory definition file; a fault names the file and,
    where one symbol is at fault, its line."""
    numbered = _numbered_symbols(read_input(path))
    symbols = [symbol for _, symbol in numbered]
    fault = _first_fault(symbols)
    if fault is not None:
        index, message = fault
        raise ParseError(message, line=None if index is None else numbered[index][0],
                         source=path)
    return PhonemeInventory(symbols)
