import pytest

from phonoscope import (EPSILON, ParseError, PhonemeInventory, ValidationError,
                        strip_stress)
from phonoscope.inventory import ARPABET, load_inventory


def test_default_inventory_is_40_symbols(inv):
    assert len(inv) == 40
    assert len(ARPABET) == 39
    assert inv.symbols[-1] == EPSILON
    assert inv.epsilon_index == 39


def test_symbols_unique_and_indexable(inv):
    assert len(set(inv.symbols)) == 40
    for i, s in enumerate(inv.symbols):
        assert inv.index(s) == i
        assert inv.label(i) == s


def test_unknown_label_raises(inv):
    with pytest.raises(ValidationError, match="QX"):
        inv.index("QX")


def test_duplicate_symbol_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        PhonemeInventory(["AA", "AA", EPSILON])


def test_epsilon_required_exactly_once():
    with pytest.raises(ValidationError):
        PhonemeInventory(["AA", "BB"])
    with pytest.raises(ValidationError):
        PhonemeInventory(["AA", EPSILON, EPSILON])


def test_from_text_roundtrip(inv):
    text = "\n".join(inv.symbols) + "\n"
    assert PhonemeInventory.from_text(text) == inv


def test_custom_ordering_allowed():
    custom = PhonemeInventory([EPSILON, "T", "D"])
    assert custom.epsilon_index == 0
    assert custom.index("D") == 2


@pytest.mark.parametrize(
    "raw,expected",
    [("AH0", "AH"), ("AH1", "AH"), ("AH2", "AH"), ("Z", "Z"), ("AY2", "AY")],
)
def test_strip_stress(raw, expected, inv):
    assert strip_stress(raw, inv) == expected


def test_strip_stress_rejects_unknown(inv):
    with pytest.raises(ValidationError):
        strip_stress("QX1", inv)


def test_strip_stress_without_inventory_does_not_validate():
    assert strip_stress("QX1") == "QX"


@pytest.mark.parametrize("symbol", ["T,H", 'T"', "T H", "T\tH", "\xa0T", "T\x00",
                                    "T\x7f", "T\u2028", "T\ud800"])
def test_symbol_the_outputs_cannot_carry_rejected(symbol):
    with pytest.raises(ValidationError, match="no symbol may hold"):
        PhonemeInventory(["AA", symbol, EPSILON])


def test_symbols_beyond_ascii_allowed():
    assert PhonemeInventory(["θ", "t͡ʃ", "ʔ", EPSILON]).index("t͡ʃ") == 1


@pytest.mark.parametrize("text,line,message", [
    ("AA\n\nT,H\n<eps>\n", 3, "holds ','"),
    ("AA\nT\n\nAA\n<eps>\n", 4, "duplicate inventory symbol: AA"),
    ("<eps>\nAA\n<eps>\n", 3, "exactly once"),
    ("AA\nT\n", None, "exactly once"),
    ("AA\n", None, "at least one phoneme"),
])
def test_load_inventory_names_the_file_and_line(tmp_path, text, line, message):
    path = tmp_path / "phones.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as err:
        load_inventory(path)
    assert (err.value.source, err.value.line) == (path, line)
