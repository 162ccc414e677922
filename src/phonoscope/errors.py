"""Exception types shared across the package, and the input-file reader.

The CLI maps these onto exit codes: parse/validation problems exit 2,
out-of-vocabulary failures exit 3, anything else exits 1.
"""


class PhonoscopeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PhonoscopeError):
    """A structured input file could not be parsed.

    Carries optional location info (1-based line number or byte offset)
    so the CLI can point at the offending spot.
    """

    def __init__(self, message, *, line=None, offset=None, source=None):
        self.line = line
        self.offset = offset
        self.source = source
        where = []
        if source is not None:
            where.append(str(source))
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte {offset}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class ValidationError(PhonoscopeError):
    """An input value violates a documented precondition or invariant."""


class OovError(PhonoscopeError):
    """One or more words were missing from the lexicon under the fail policy."""

    def __init__(self, words):
        self.words = sorted(set(words))
        listing = ", ".join(self.words)
        super().__init__(f"out-of-vocabulary words: {listing}")


class UndefinedRateError(PhonoscopeError):
    """A rate was requested for a phoneme that never occurred (row sum 0)."""


def read_input(path) -> str:
    """Text of a UTF-8 input file; undecodable bytes raise a located ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", offset=exc.start,
                         source=path) from None
