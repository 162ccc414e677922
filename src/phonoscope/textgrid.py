"""Praat TextGrid reader covering both the long and short text forms.

Both forms are the same sequence of values: quoted strings, in which
``""`` is a literal quote and which may span lines, and numbers. The long
form only adds labels such as ``xmin =`` and ``item [1]:`` around them,
so the reader takes the values in order and skips everything else,
``[...]`` indices and ``<flag>``s included. It keeps only what annotation
ingestion reads: each tier's name and the texts of its intervals. Every
xmin, xmax and point time must still be a number, and point marks are
read so the values stay in step, but none of these is kept. Structural
problems raise ParseError with the byte offset of the offending value,
or of the end of the file.
"""

from __future__ import annotations

import re

from .errors import ParseError


_NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
# group 1 a quoted string, 2 a number, 3 a quote that no other quote closes;
# an index, a flag or a run of characters that start none of these matches
# no group and is skipped
_VALUE_RE = re.compile(rf'"([^"]*(?:""[^"]*)*)"|({_NUMBER})|(")'
                       r'|\[[^\]\n]*\]|<[^>\n]*>|[^"\d\[<-]+')


class _Values:
    """The file's strings and numbers in order, each with its byte offset."""

    def __init__(self, text: str, source=None):
        self.text = text
        self.source = source
        self.matches = (m for m in _VALUE_RE.finditer(text) if m.lastindex)
        self.last: re.Match | None = None

    def fail(self, message: str, match: re.Match | None = None):
        end = len(self.text) if match is None else match.start()
        raise ParseError(message, offset=len(self.text[:end].encode("utf-8")),
                         source=self.source)

    def take(self, what: str) -> re.Match:
        self.last = next(self.matches, None)
        if self.last is None:
            self.fail(f"unexpected end of file, expected {what}")
        if self.last.lastindex == 3:
            self.fail(f"unterminated quoted string for {what}", self.last)
        return self.last

    def string(self, what: str) -> str:
        match = self.take(what)
        if match.lastindex != 1:
            self.fail(f"expected a quoted string for {what}, got {match[0]!r}", match)
        return match[1].replace('""', '"')

    def number(self, what: str) -> float:
        match = self.take(what)
        if match.lastindex != 2:
            self.fail(f"expected a number for {what}, got {match[0]!r}", match)
        return float(match[2])

    def count(self, what: str) -> int:
        number = self.number(what)
        if not (number >= 0 and number.is_integer()):
            self.fail(f"expected a whole number >= 0 for {what}, got {number!r}",
                      self.last)
        return int(number)


def parse_textgrid_file(text: str, source=None) -> list[tuple[str, list[str]]]:
    """Each tier's name and interval texts, in file order; a point tier
    has no texts. Times are checked to be numbers, then dropped."""
    values = _Values(text, source)
    header = values.take("file type header")
    if "ooTextFile" not in (header[1] or ""):
        values.fail("not a TextGrid: missing ooTextFile header", header)
    object_class = values.take("object class header")
    if "TextGrid" not in (object_class[1] or ""):
        values.fail("not a TextGrid: object class is not TextGrid", object_class)

    values.number("xmin")
    values.number("xmax")
    tiers = []
    for _ in range(values.count("tier count")):
        tier_class = values.string("tier class")
        name = values.string("tier name")
        values.number("tier xmin")
        values.number("tier xmax")
        count = values.count("interval count")
        texts = []
        if tier_class == "IntervalTier":
            for _ in range(count):
                values.number("interval xmin")
                values.number("interval xmax")
                texts.append(values.string("interval text"))
        else:
            for _ in range(count):
                values.number("point time")
                values.string("point mark")
        tiers.append((name, texts))
    extra = next(values.matches, None)
    if extra is not None:
        values.fail(f"unexpected value {extra[0]!r} after the last tier", extra)
    return tiers
