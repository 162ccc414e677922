"""Praat TextGrid reader covering both the long and short text forms.

Only the structure needed for annotation ingestion is modelled: interval
tiers with (xmin, xmax, text) triples. Point tiers are parsed (so the
file walks correctly) but carry no intervals. Structural problems raise
ParseError with the byte offset of the offending line.
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

    def tier(self, name: str) -> Tier:
        for t in self.tiers:
            if t.name == name:
                return t
        available = ", ".join(repr(t.name) for t in self.tiers) or "(none)"
        raise ParseError(f"no tier named {name!r}; available tiers: {available}")


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


def parse_textgrid_file(text: str, source=None) -> TextGrid:
    """Parse either text form: the long form only adds labels to the short
    form's values, plus header lines that _skip_header consumes."""
    cur = _Lines(text, source)
    header = cur.take("file type header")
    if "ooTextFile" not in header:
        cur.pos -= 1
        cur.fail("not a TextGrid: missing ooTextFile header")
    object_class = cur.take("object class header")
    if "TextGrid" not in object_class:
        cur.pos -= 1
        cur.fail("not a TextGrid: object class is not TextGrid")

    xmin = _field_number(cur, "xmin")
    xmax = _field_number(cur, "xmax")
    line = cur.peek()
    if line is not None and ("tiers?" in line or "exists" in line):
        cur.pos += 1
    size = _field_count(cur, "tier count")
    _skip_header(cur, "item")  # the "item []:" container line

    grid = TextGrid(xmin, xmax)
    for _ in range(size):
        _skip_header(cur, "item")
        tier_class = _field_string(cur, "tier class")
        name = _field_string(cur, "tier name")
        t_xmin = _field_number(cur, "tier xmin")
        t_xmax = _field_number(cur, "tier xmax")
        count = _field_count(cur, "interval count")
        tier = Tier(name, tier_class, t_xmin, t_xmax)
        if tier_class == "IntervalTier":
            for _ in range(count):
                _skip_header(cur, "intervals")
                i_xmin = _field_number(cur, "interval xmin")
                i_xmax = _field_number(cur, "interval xmax")
                text = _field_string(cur, "interval text")
                tier.intervals.append(Interval(i_xmin, i_xmax, text))
        else:
            for _ in range(count):
                _skip_header(cur, "points")
                _field_number(cur, "point time")
                _field_string(cur, "point mark")
        grid.tiers.append(tier)
    return grid
