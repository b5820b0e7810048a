"""Error types shared across the calculator, and the argument guards.

Parse errors carry a character position into the offending text; validation
errors describe semantic problems (bad group data, mismatched specs, broken
document schemas) and carry a field path when one exists.  A library error's
path is relative to the argument it names ("generators[1]"), and
documents._at puts it under the document's own path.  Library entry points
check an argument's type through the two guards _require (isinstance) and
_require_iter (iter), the only places that write "<what>, got <type name>";
documents._expect keeps its own JSON type names.
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
        self.message, self.path = message, path  # message without the path prefix
        super().__init__(message if path is None else f"{path}: {message}")


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

