"""Error types shared across the calculator, and the argument guards.

Parse errors carry a character position into the offending text; validation
errors describe semantic problems (bad group data, mismatched specs, broken
document schemas) and carry a field path when one exists.  Library entry
points check an argument's type through _require (isinstance) or
_require_iter (iter), the only places that write "<what>, got <type name>";
documents._expect keeps its own JSON type names.  Constructors whose message
names no type use _iterate, iter with that exact message.
"""

from __future__ import annotations


class DaxError(Exception):
    """Base class for all calculator errors."""


class ParseError(DaxError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ValidationError(DaxError):
    def __init__(self, message: str, path: str | None = None):
        self.path = path
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


def _require(value, types, what: str):
    """value, once isinstance(value, types) holds; what states the rule."""
    if isinstance(value, types):
        return value
    raise ValidationError(f"{what}, got {type(value).__name__}")


def _require_iter(value, what: str):
    """iter(value); an error raised later, while the iterator is walked, passes through."""
    try:
        return iter(value)
    except TypeError:
        raise ValidationError(f"{what}, got {type(value).__name__}") from None


def _iterate(value, message: str):
    """iter(value), else ValidationError(message); errors raised while it is walked pass through."""
    try:
        return iter(value)
    except TypeError:
        raise ValidationError(message) from None
