"""Parsers for the word and ring-expression grammars.

    word     := "1" | syllable ("*" syllable)*
    syllable := name ("^" signed_int)?
    ringexpr := ["-"] term (("+"|"-") term)* | "0"
    term     := [unsigned_int "*"] word

Whitespace is ignored between tokens.  Names and integers use ASCII letters,
digits and "_" only.  An integer literal may have at most as many digits as
the interpreter converts (sys.get_int_max_str_digits(), 4300 by default); a
longer digit run is a ParseError at its first digit.  Canonical output is
produced by str() on GroupElement and RingElement; parse and str round-trip.
"""

from __future__ import annotations

import re

from .errors import ParseError, ValidationError
from .groups import GroupElement, GroupSpec
from .ring import RingElement

_IDENTITY_TERM = (
    "the identity word '1' is not a valid term: values live in the "
    "group ring with the identity removed"
)

_Token = tuple[str, object, int]  # (kind, value, position)

# ASCII classes on purpose: \d would accept non-ASCII digits.  A whitespace run is
# its own match; as a \s* prefix of each token it would take quadratic time.
_TOKEN = re.compile(r"\s+|(?P<op>[-*+^])|(?P<int>[0-9]+)|(?P<name>[A-Za-z0-9_]+)|(?P<bad>.)", re.S)


def _tokenize(text: str) -> list[_Token]:
    """(kind, value, position) tokens, then ("end", None, end of the last token or 0)."""
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        kind, value, pos = match.lastgroup, match.group(), match.start()
        if kind is None:
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                raise ParseError(f"integer literal of {len(value)} digits is too long", pos) from None
        tokens.append((value if kind == "op" else kind, value, pos))
    tokens.append(("end", None, len(text.rstrip())))
    return tokens


def _parse_syllables(tokens: list[_Token], i: int, spec: GroupSpec) -> tuple[list[tuple[int, int]], int]:
    """Parse syllable ("*" syllable)* starting at token i."""
    syllables: list[tuple[int, int]] = []
    while True:
        kind, name, pos = tokens[i]
        if kind != "name":
            raise ParseError("expected a factor name", pos)
        try:
            index = spec.index_of(name)
        except ValidationError:
            raise ParseError(f"unknown factor name {name!r}", pos) from None
        i += 1
        exp = 1
        if tokens[i][0] == "^":
            i += 1
            sign = -1 if tokens[i][0] == "-" else 1
            if tokens[i][0] in ("+", "-"):
                i += 1
            if tokens[i][0] != "int":
                raise ParseError("expected an integer exponent after '^'", tokens[i][2])
            exp = sign * tokens[i][1]
            i += 1
        syllables.append((index, exp))
        if tokens[i][0] != "*":
            return syllables, i
        i += 1


def parse_word(text: str, spec: GroupSpec) -> GroupElement:
    """Parse a word and return its reduced normal form; "1" is the identity."""
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty word", 0)
    if tokens[0][0] == "int":
        if tokens[0][1] == 1 and len(tokens) == 2:
            return spec.identity()
        raise ParseError("expected a factor name or the identity word '1'", tokens[0][2])
    syllables, i = _parse_syllables(tokens, 0, spec)
    if tokens[i][0] != "end":
        raise ParseError("unexpected trailing input", tokens[i][2])
    return spec.element(syllables)


def parse_ringexpr(text: str, spec: GroupSpec) -> RingElement:
    """Parse a signed sum of terms into a ring element, combining like terms."""
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty expression", 0)
    if len(tokens) == 2 and tokens[0][0] == "int" and tokens[0][1] == 0:
        return RingElement.zero(spec)
    combined: dict[GroupElement, int] = {}
    sign = -1 if tokens[0][0] == "-" else 1
    i = 1 if sign < 0 else 0
    while True:
        coeff = 1
        if tokens[i][0] == "int" and tokens[i + 1][0] == "*":
            coeff = tokens[i][1]
            i += 2
        elif tokens[i][0] == "int" and tokens[i][1] != 1:
            raise ParseError("an integer term must be followed by '*' and a word", tokens[i][2])
        if tokens[i][0] == "int" and tokens[i][1] == 1:
            raise ValidationError(_IDENTITY_TERM)
        syllables, i = _parse_syllables(tokens, i, spec)
        g = spec.element(syllables)
        if g.is_identity:
            raise ValidationError(
                "term reduces to the identity, which is excluded from the group ring support"
            )
        combined[g] = combined.get(g, 0) + sign * coeff
        if tokens[i][0] == "end":
            break
        if tokens[i][0] not in ("+", "-"):
            raise ParseError("expected '+' or '-' between terms", tokens[i][2])
        sign = -1 if tokens[i][0] == "-" else 1
        i += 1
    return RingElement.from_mapping(spec, combined)
