"""Praat TextGrid reader covering both the long and short text forms.

Both forms are the same sequence of values: quoted strings, in which
``""`` is a literal quote and which may span lines, and numbers. The long
form only adds labels such as ``xmin =`` and ``item [1]:`` around them,
so the reader takes the values in order and skips everything else,
``[...]`` indices and ``<flag>``s included. Only the structure needed for
annotation ingestion is modelled: interval tiers with (xmin, xmax, text)
triples. Point tiers are read (so the values stay in step) but carry no
intervals. Structural problems raise ParseError with the byte offset of
the offending value, or of the end of the file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError


@dataclass
class Interval:
    xmin: float
    xmax: float
    text: str


@dataclass
class Tier:
    name: str
    tier_class: str
    xmin: float
    xmax: float
    intervals: list[Interval] = field(default_factory=list)


@dataclass
class TextGrid:
    xmin: float
    xmax: float
    tiers: list[Tier] = field(default_factory=list)

    def tier(self, name: str, source=None) -> Tier:
        for t in self.tiers:
            if t.name == name:
                return t
        available = ", ".join(repr(t.name) for t in self.tiers) or "(none)"
        raise ParseError(f"no tier named {name!r}; available tiers: {available}",
                         source=source)


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


def parse_textgrid_file(text: str, source=None) -> TextGrid:
    values = _Values(text, source)
    header = values.take("file type header")
    if "ooTextFile" not in (header[1] or ""):
        values.fail("not a TextGrid: missing ooTextFile header", header)
    object_class = values.take("object class header")
    if "TextGrid" not in (object_class[1] or ""):
        values.fail("not a TextGrid: object class is not TextGrid", object_class)

    grid = TextGrid(values.number("xmin"), values.number("xmax"))
    for _ in range(values.count("tier count")):
        tier_class = values.string("tier class")
        tier = Tier(values.string("tier name"), tier_class,
                    values.number("tier xmin"), values.number("tier xmax"))
        count = values.count("interval count")
        if tier_class == "IntervalTier":
            for _ in range(count):
                tier.intervals.append(Interval(values.number("interval xmin"),
                                               values.number("interval xmax"),
                                               values.string("interval text")))
        else:
            for _ in range(count):
                values.number("point time")
                values.string("point mark")
        grid.tiers.append(tier)
    extra = next(values.matches, None)
    if extra is not None:
        values.fail(f"unexpected value {extra[0]!r} after the last tier", extra)
    return grid
