"""Exception hierarchy.

Validation failures always carry a witness: the smallest piece of data
(an element index, a triple, a table entry) that exhibits the violation.
"""

from __future__ import annotations


class BrnrError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BrnrError):
    """An input object violates one of its structural invariants."""

    def __init__(self, message: str, witness=None):
        super().__init__(message if witness is None else f"{message} (witness: {witness!r})")
        self.witness = witness


class NonAssociative(ValidationError):
    """Multiplication table fails associativity; witness is a triple (g, h, k)."""


class NoIdentity(ValidationError):
    """Index 0 is not a two-sided identity; witness is the offending element."""


class NoInverse(ValidationError):
    """Inverse table is wrong; witness is the offending element."""


class NotASubgroup(ValidationError):
    """An element set is not closed under multiplication/inverses."""


class NotACocycle(ValidationError):
    """A table fails the relevant cocycle identity; witness is the failing tuple."""


class NotSurjective(ValidationError):
    """A structure map required to be onto is not."""


class PreconditionViolated(ValidationError):
    """An operation's stated precondition fails; witness explains which."""


class CapError(BrnrError):
    """A configured size cap would be exceeded."""

    def __init__(self, cap_name: str, limit: int, measured: int):
        super().__init__(f"cap {cap_name}={limit} exceeded (required {measured})")
        self.cap_name = cap_name
        self.limit = limit
        self.measured = measured


class OrderBound(CapError):
    """A group-order or enumeration cap would be exceeded."""


class CapExceeded(CapError):
    """A generic work-size cap would be exceeded."""


class ParseError(BrnrError):
    """A job file does not parse; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = "" if line is None else f" at line {line}" + ("" if column is None else f", column {column}")
        super().__init__(message + loc)
        self.line = line
        self.column = column
