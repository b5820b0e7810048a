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

Accept, then locate: one fullmatch of the grammar accepts well-formed text;
only then do str splits on whitespace and "*" cut its syllables.  Each is one
lookup in its spec's fixed table of printed spellings, or else is split at
"^", and all go to GroupSpec._merge unchecked.  _locate alone raises errors;
the only values it builds are the words of the terms it walks.
Classes are ASCII, and no pattern has two optional whitespace runs side by
side: rejection is linear.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .errors import ParseError, ValidationError, _require
from .groups import _NAME, GroupElement, GroupSpec
from .ring import RingElement

_TOKEN = re.compile(r"\s+|(?P<op>[-*+^])|(?P<int>[0-9]+)|(?P<name>[A-Za-z0-9_]+)|(?P<bad>.)", re.S)
_WORD_TEXT = r"{0}(?:\s*\*\s*{0})*".format(rf"{_NAME}(?:\s*\^\s*(?:[-+]\s*)?[0-9]+)?")
_WORD = re.compile(rf"\s*(?:0*(1)|{_WORD_TEXT})\s*")
_TERM = re.compile(rf"(?:\A|([-+]))\s*(?:([0-9]+)\s*\*\s*)?({_WORD_TEXT})")
_RINGEXPR = re.compile(r"\s*(?:0+|(?:-\s*)?{0}(?:\s*[-+]\s*{0})*)\s*".format(rf"(?:[0-9]+\s*\*\s*)?{_WORD_TEXT}"))


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, position) tokens, then ("end", None, end of the last token or 0)."""
    tokens: list[tuple[str, object, int]] = []
    for match in _TOKEN.finditer(text):
        kind, value, pos = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                raise ParseError(f"integer literal of {len(value)} digits is too long", pos) from None
        if kind is not None:  # None: a whitespace run
            tokens.append((value if kind == "op" else kind, value, pos))
    return tokens + [("end", None, len(text.rstrip()))]


def _walk_word(tokens: list[tuple[str, object, int]], i: int, spec: GroupSpec) -> int:
    """Check syllable ("*" syllable)* from token i; return the index of the token after it."""
    while True:
        kind, name, pos = tokens[i]
        if kind != "name" or name not in spec._index:
            raise ParseError(f"unknown factor name {name!r}" if kind == "name" else "expected a factor name", pos)
        if tokens[i + 1][0] == "^":
            i += 3 if tokens[i + 2][0] in ("+", "-") else 2
            if tokens[i][0] != "int":
                raise ParseError("expected an integer exponent after '^'", tokens[i][2])
        if tokens[i + 1][0] != "*":
            return i + 1
        i += 2


def _locate(text: str, spec: GroupSpec, ring: bool) -> NoReturn:
    """Raise the first error in a text that the fast pass rejected."""
    tokens = _tokenize(text)
    kind, value, pos = tokens[0]
    if kind == "end":
        raise ParseError("empty expression" if ring else "empty word", 0)
    if not ring and kind == "int":
        raise ParseError("expected a factor name or the identity word '1'", pos)
    if not ring:
        raise ParseError("unexpected trailing input", tokens[_walk_word(tokens, 0, spec)][2])
    i = 1 if kind == "-" else 0
    while True:
        kind, value, pos = tokens[i]
        if kind == "int" and tokens[i + 1][0] == "*":
            i += 2
        elif kind == "int" and value != 1:
            raise ParseError("an integer term must be followed by '*' and a word", pos)
        if tokens[i][:2] == ("int", 1):
            raise ValidationError("the identity word '1' is not a valid term: "
                                  "values live in the group ring with the identity removed")
        start, i = tokens[i][2], _walk_word(tokens, i, spec)
        if spec._merge([], _syllables(text[start : tokens[i][2]], spec)).is_identity:
            raise ValidationError("term reduces to the identity, which is excluded from the group ring support")
        if tokens[i][0] not in ("+", "-"):
            raise ParseError("expected '+' or '-' between terms", tokens[i][2])
        i += 1


def _syllables(word: str, spec: GroupSpec) -> list[tuple[int, int]]:
    """The (factor index, exponent) pairs of a word _WORD or _TERM accepted; KeyError or ValueError if unreadable."""
    spellings, index = spec._spellings, spec._index  # a spelling not in the table ("t^1", "t^17") is split at "^"
    pieces = "".join(word.split()).split("*")
    return [spellings.get(p) or (index[(split := p.partition("^"))[0]], int(split[2] or 1)) for p in pieces]


def parse_word(text: str, spec: GroupSpec) -> GroupElement:
    """Parse a word and return its reduced normal form; "1" is the identity."""
    _require(text, str, "text must be a string")
    _require(spec, GroupSpec, "spec must be a GroupSpec")
    try:
        if match := _WORD.fullmatch(text):
            return spec.identity() if match[1] else spec._merge([], _syllables(text, spec))
    except (KeyError, ValueError):  # an unknown name or an overlong literal
        pass
    _locate(text, spec, ring=False)


def parse_ringexpr(text: str, spec: GroupSpec) -> RingElement:
    """Parse a signed sum of terms into a ring element, combining like terms."""
    _require(text, str, "text must be a string")
    _require(spec, GroupSpec, "spec must be a GroupSpec")
    try:
        if _RINGEXPR.fullmatch(text):
            combined: dict[GroupElement, int] = {}
            for sign, coeff, word in _TERM.findall(text):
                if (g := spec._merge([], _syllables(word, spec))).is_identity:
                    _locate(text, spec, ring=True)  # names this error, or an earlier one
                combined[g] = combined.get(g, 0) + int(sign + (coeff or "1"))
            return RingElement._counted(spec, combined)
    except (KeyError, ValueError):  # an unknown name or an overlong literal
        pass
    _locate(text, spec, ring=True)
