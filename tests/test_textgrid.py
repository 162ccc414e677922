import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonoscope import ParseError, PhonemeInventory, parse_textgrid
from phonoscope.textgrid import parse_textgrid_file

INV = PhonemeInventory.default()


def long_form(labels, tier="annotations"):
    n = len(labels)
    lines = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        "xmin = 0",
        f"xmax = {n or 1}",
        "tiers? <exists>",
        "size = 1",
        "item []:",
        "    item [1]:",
        '        class = "IntervalTier"',
        f'        name = "{tier}"',
        "        xmin = 0",
        f"        xmax = {n or 1}",
        f"        intervals: size = {n}",
    ]
    for i, lab in enumerate(labels):
        lines += [
            f"        intervals [{i + 1}]:",
            f"            xmin = {i}",
            f"            xmax = {i + 1}",
            f'            text = "{lab}"',
        ]
    return "\n".join(lines) + "\n"


def short_form(labels, tier="annotations"):
    n = len(labels)
    lines = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        "0",
        str(n or 1),
        "<exists>",
        "1",
        '"IntervalTier"',
        f'"{tier}"',
        "0",
        str(n or 1),
        str(n),
    ]
    for i, lab in enumerate(labels):
        lines += [str(i), str(i + 1), f'"{lab}"']
    return "\n".join(lines) + "\n"


def test_minimal_tier_long_form():
    result = parse_textgrid(long_form(["T", "T,D,s"]), "annotations", inventory=INV)
    recs = result.annotations.records
    assert [(r.kind, INV.label(r.target), INV.label(r.observed)) for r in recs] == [
        ("correct", "T", "T"),
        ("substitution", "T", "D"),
    ]
    assert [r.position for r in recs] == [0, 1]
    assert result.skipped == []


def test_short_form_matches_long_form():
    labels = ["T", "T,D,s", "HH,,d", ",AH,i"]
    a = parse_textgrid(long_form(labels), "annotations", inventory=INV)
    b = parse_textgrid(short_form(labels), "annotations", inventory=INV)
    assert a.annotations.records == b.annotations.records


def test_deletion_and_insertion_labels():
    result = parse_textgrid(long_form(["HH,<eps>,d", "<eps>,AH,i"]),
                            "annotations", inventory=INV)
    kinds = [r.kind for r in result.annotations.records]
    assert kinds == ["deletion", "insertion"]


def test_empty_tier():
    result = parse_textgrid(long_form([]), "annotations", inventory=INV)
    assert result.annotations.records == []


def test_blank_intervals_ignored_silently():
    result = parse_textgrid(long_form(["", "T", ""]), "annotations", inventory=INV)
    assert len(result.annotations.records) == 1
    assert result.annotations.records[0].position == 1
    assert result.skipped == []


def test_missing_tier_names_available():
    with pytest.raises(ParseError) as err:
        parse_textgrid(long_form(["T"], tier="phones"), "annotations", inventory=INV,
                       source="spk.TextGrid")
    assert "phones" in str(err.value)
    assert err.value.source == "spk.TextGrid"


def test_unmatched_labels_skipped_with_reason():
    result = parse_textgrid(long_form(["T", "QX", "a,b,c,d", "T,D,x"]),
                            "annotations", inventory=INV)
    assert len(result.annotations.records) == 1
    reasons = {s.label: s.reason for s in result.skipped}
    assert "QX" in reasons and "phoneme" in reasons["QX"]
    assert "a,b,c,d" in reasons
    assert "T,D,x" in reasons and "kind code" in reasons["T,D,x"]
    assert [s.position for s in result.skipped] == [1, 2, 3]


def test_malformed_header_reports_offset():
    with pytest.raises(ParseError) as err:
        parse_textgrid_file("not a textgrid\nat all\n")
    assert err.value.offset is not None


def test_truncated_file_fails():
    text = long_form(["T", "T,D,s"])
    truncated = "\n".join(text.splitlines()[:-2])
    with pytest.raises(ParseError):
        parse_textgrid_file(truncated)


def test_quoted_quotes_unescaped():
    tiers = parse_textgrid_file(long_form(['he said ""hi""']))
    assert tiers == [("annotations", ['he said "hi"'])]


def test_point_tiers_walked_but_empty():
    lines = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "xmin = 0",
        "xmax = 1",
        "tiers? <exists>",
        "size = 2",
        "item []:",
        "    item [1]:",
        '        class = "TextTier"',
        '        name = "points"',
        "        xmin = 0",
        "        xmax = 1",
        "        points: size = 1",
        "        points [1]:",
        "            number = 0.5",
        '            mark = "x"',
        "    item [2]:",
        '        class = "IntervalTier"',
        '        name = "annotations"',
        "        xmin = 0",
        "        xmax = 1",
        "        intervals: size = 1",
        "        intervals [1]:",
        "            xmin = 0",
        "            xmax = 1",
        '            text = "T"',
    ]
    tiers = parse_textgrid_file("\n".join(lines) + "\n")
    assert tiers == [("points", []), ("annotations", ["T"])]


def short_form_tiers(*tiers):
    """A short-form TextGrid of (class, name, labels) tiers."""
    lines = ['File type = "ooTextFile"', 'Object class = "TextGrid"', "0", "1",
             "<exists>", str(len(tiers))]
    for tier_class, name, labels in tiers:
        lines += [f'"{tier_class}"', f'"{name}"', "0", "1", str(len(labels))]
        for i, lab in enumerate(labels):
            times = [str(i), str(i + 1)] if tier_class == "IntervalTier" else [str(i)]
            lines += [*times, f'"{lab}"']
    return "\n".join(lines) + "\n"


def test_first_tier_of_the_name_wins():
    text = short_form_tiers(("IntervalTier", "annotations", ["T"]),
                            ("IntervalTier", "annotations", ["D", "T,D,s"]))
    records = parse_textgrid(text, "annotations", inventory=INV).annotations.records
    assert [(r.position, INV.label(r.target)) for r in records] == [(0, "T")]


def test_point_tier_of_the_name_gives_no_annotations():
    text = short_form_tiers(("TextTier", "annotations", ["T", "QX"]),
                            ("IntervalTier", "annotations", ["T"]))
    result = parse_textgrid(text, "annotations", inventory=INV)
    assert (result.annotations.records, result.skipped) == ([], [])


def test_bundled_sample_textgrid_parses():
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "sample_corpus" / \
        "annotations" / "spk_k1_u1.TextGrid"
    result = parse_textgrid(path.read_text(), "annotations", inventory=INV)
    subs = [r for r in result.annotations.records if r.kind == "substitution"]
    assert len(subs) == 2
    assert all(INV.label(r.target) == "Z" for r in subs)


class _Lines:
    """Line cursor that remembers byte offsets for error reporting."""

    def __init__(self, text: str, source=None):
        self.source = source
        self.lines: list[tuple[int, str]] = []
        offset = 0
        for raw in text.splitlines(keepends=True):
            self.lines.append((offset, raw.rstrip("\r\n")))
            offset += len(raw.encode("utf-8"))
        self.pos = 0

    def peek(self) -> str | None:
        while self.pos < len(self.lines) and not self.lines[self.pos][1].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            return None
        return self.lines[self.pos][1]

    def take(self, what: str) -> str:
        line = self.peek()
        if line is None:
            raise ParseError(f"unexpected end of file, expected {what}",
                             offset=self.offset(), source=self.source)
        self.pos += 1
        return line

    def offset(self) -> int:
        idx = min(self.pos, len(self.lines) - 1)
        return self.lines[idx][0] if self.lines else 0

    def fail(self, message: str):
        raise ParseError(message, offset=self.offset(), source=self.source)


_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_QUOTED_RE = re.compile(r'"((?:[^"]|"")*)"')


def _field_number(cur: _Lines, what: str) -> float:
    line = cur.take(what)
    m = _NUMBER_RE.search(line)
    if m is None:
        cur.pos -= 1
        cur.fail(f"expected a number for {what}, got {line.strip()!r}")
    return float(m.group(0))


def _field_count(cur: _Lines, what: str) -> int:
    number = _field_number(cur, what)
    if not (number >= 0 and number.is_integer()):
        cur.pos -= 1
        cur.fail(f"expected a whole number >= 0 for {what}, got {number!r}")
    return int(number)


def _field_string(cur: _Lines, what: str) -> str:
    line = cur.take(what)
    m = _QUOTED_RE.search(line)
    if m is None:
        cur.pos -= 1
        cur.fail(f"expected a quoted string for {what}, got {line.strip()!r}")
    return m.group(1).replace('""', '"')


def _skip_header(cur: _Lines, name: str) -> None:
    """Consume a long-form header line such as ``item [1]:`` if one is next."""
    line = cur.peek()
    if line is not None and line.strip().startswith(name + " ["):
        cur.pos += 1


def line_reader(text: str, source=None) -> list[tuple[str, list[str]]]:
    """The first TextGrid reader, one value per line; the oracle for
    parse_textgrid_file on files that keep to that layout."""
    cur = _Lines(text, source)
    header = cur.take("file type header")
    if "ooTextFile" not in header:
        cur.pos -= 1
        cur.fail("not a TextGrid: missing ooTextFile header")
    object_class = cur.take("object class header")
    if "TextGrid" not in object_class:
        cur.pos -= 1
        cur.fail("not a TextGrid: object class is not TextGrid")

    _field_number(cur, "xmin")
    _field_number(cur, "xmax")
    line = cur.peek()
    if line is not None and ("tiers?" in line or "exists" in line):
        cur.pos += 1
    size = _field_count(cur, "tier count")
    _skip_header(cur, "item")  # the "item []:" container line

    tiers = []
    for _ in range(size):
        _skip_header(cur, "item")
        tier_class = _field_string(cur, "tier class")
        name = _field_string(cur, "tier name")
        _field_number(cur, "tier xmin")
        _field_number(cur, "tier xmax")
        count = _field_count(cur, "interval count")
        texts = []
        if tier_class == "IntervalTier":
            for _ in range(count):
                _skip_header(cur, "intervals")
                _field_number(cur, "interval xmin")
                _field_number(cur, "interval xmax")
                texts.append(_field_string(cur, "interval text"))
        else:
            for _ in range(count):
                _skip_header(cur, "points")
                _field_number(cur, "point time")
                _field_string(cur, "point mark")
        tiers.append((name, texts))
    return tiers


# every character str.splitlines breaks at, which one-line labels leave out
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
one_line = st.text(st.one_of(
    st.characters(exclude_categories=["Cs"], exclude_characters=LINE_BREAKS),
    st.sampled_from('"[]<>0123456789.-e ')))


def quoted(text: str) -> str:
    return text.replace('"', '""')


@settings(max_examples=300, deadline=None)
@given(st.lists(one_line, max_size=5), one_line,
       st.sampled_from([long_form, short_form]))
def test_reader_equals_the_line_reader(labels, name, form):
    text = form([quoted(lab) for lab in labels], tier=quoted(name))
    tiers = parse_textgrid_file(text)
    assert tiers == line_reader(text)
    assert tiers == [(name, labels)]


def test_label_spanning_lines():
    tiers = parse_textgrid_file(long_form(["T,D,s", "first\nsecond", "T"]))
    assert tiers == [("annotations", ["T,D,s", "first\nsecond", "T"])]


def test_several_values_on_one_line():
    text = ('File type = "ooTextFile"\nObject class = "TextGrid"\n'
            '0 2 <exists> 1\n"IntervalTier" "annotations" 0 2 2\n'
            '0 1 "T" 1 2 "T,D,s"\n')
    assert parse_textgrid_file(text) == parse_textgrid_file(short_form(["T", "T,D,s"]))


@pytest.mark.parametrize("form", [long_form, short_form])
def test_crlf_line_ends(form):
    text = form(["T", 'say ""hi""', ""])
    assert parse_textgrid_file(text.replace("\n", "\r\n")) == parse_textgrid_file(text)


@pytest.mark.parametrize("extra", ["5\n", '"x"\n', '"\n'])
def test_value_after_the_last_tier_fails_at_its_offset(extra):
    text = short_form(["T"])
    with pytest.raises(ParseError) as err:
        parse_textgrid_file(text + extra, source="grid.TextGrid")
    assert err.value.offset == len(text.encode("utf-8"))
    assert err.value.source == "grid.TextGrid"


def test_error_offset_is_the_offending_value():
    bad = long_form(["é", "T"]).replace('text = "T"', "text = 7")
    with pytest.raises(ParseError) as err:
        parse_textgrid_file(bad)
    assert err.value.offset == len(bad[:bad.index("7\n")].encode("utf-8"))
    assert "interval text" in str(err.value)
