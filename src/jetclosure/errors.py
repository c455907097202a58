"""Exception types shared across the library.

Domain errors carry a stable ``code`` used by the CLI when rendering
failures; parse errors carry a source position; internal errors mark a
broken invariant of the library itself.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for errors arising from mathematically invalid input."""

    code = "Domain"


class RingMismatchError(DomainError):
    code = "RingMismatch"


class NotProperError(DomainError):
    code = "NotProper"


class NotArtinianError(DomainError):
    """S/I is infinite-dimensional, so the Artinian commands have no
    finite local algebra to work on; a modulus with zeros away from the
    origin is answered for its local algebra at the origin instead."""

    code = "NotArtinian"


class InfiniteDimensionalError(NotArtinianError):
    code = "InfiniteDimensional"


class NotGorensteinError(DomainError):
    code = "NotGorenstein"


class PowersNotContainedError(DomainError):
    code = "PowersNotContained"


class InternalError(Exception):
    """An internal invariant failed: a bug in the library, not bad input."""


class ParseError(Exception):
    """Syntax error in a session file or polynomial string."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class UnknownVariableError(ParseError):
    """An identifier in a polynomial is not a variable of the ring."""

    def __init__(self, name: str, line: int, column: int):
        super().__init__(f"unknown variable '{name}'", line, column)
        self.name = name
