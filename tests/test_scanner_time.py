"""Hostile input costs the parsers linear time.

The accepting patterns never put two optional whitespace runs side by side,
and only rejected text is tokenized, so neither a long word with one bad last
character nor a long whitespace run makes a regular expression backtrack
super-linearly.  Each input is parsed once, in-process, and must give its
expected value or error within its bound of perf_counter time.  On a 2-vCPU
VM the 100,000-syllable words and the 30,000-term expressions take 0.3-0.7 s
and every other input under 0.02 s; a quadratic pattern would need minutes
for either.  A rejected expression builds no ring value on the way.
"""

import sys
import time

import pytest

from daxcalc import Factor, GroupSpec, ParseError, RingElement, ValidationError, parse_ringexpr, parse_word

SPEC = GroupSpec((Factor("t"), Factor("a", 2)))
T, A = SPEC.generator("t"), SPEC.generator("a")
LIMIT = sys.get_int_max_str_digits()  # 4300 by default
LONG_WORD = "*".join(["t^-2*a"] * 50_000)  # 100,000 syllables
SPACES = " " * 50_000
LONG_TERMS = " + ".join(["2*t^2*a"] * 30_000)

CASES = {
    # id: (parser, text, expected value or (message, position), bound in seconds)
    "long-word-bad-char": (parse_word, LONG_WORD + "!", ("unexpected character '!'", len(LONG_WORD)), 5.0),
    "long-word-bare-caret": (
        parse_word, LONG_WORD + "^", ("expected an integer exponent after '^'", len(LONG_WORD) + 1), 5.0
    ),
    "long-word-bare-star": (parse_word, LONG_WORD + "*", ("expected a factor name", len(LONG_WORD) + 1), 5.0),
    "long-term-bare-star": (parse_ringexpr, LONG_WORD + "*", ("expected a factor name", len(LONG_WORD) + 1), 5.0),
    "long-term-no-sign": (
        parse_ringexpr, LONG_WORD + " t", ("expected '+' or '-' between terms", len(LONG_WORD) + 1), 5.0
    ),
    "many-terms-bare-star": (
        parse_ringexpr, LONG_TERMS + " *", ("expected a factor name", len(LONG_TERMS) + 2), 5.0
    ),
    "spaces-between-syllables": (parse_word, "t" + SPACES + "*a", T * A, 0.5),
    "spaces-between-terms": (parse_ringexpr, "t" + SPACES + "+ a", RingElement.from_mapping(SPEC, {T: 1, A: 1}), 0.5),
    "spaces-then-trailing-input": (
        parse_word, "t" + SPACES + "a", ("unexpected trailing input", len(SPACES) + 1), 0.5
    ),
    "spaces-after-caret": (
        parse_word, "t^" + SPACES + "a", ("expected an integer exponent after '^'", len(SPACES) + 2), 0.5
    ),
    "trailing-spaces-word": (parse_word, "t" + SPACES, T, 0.5),
    "trailing-spaces-ringexpr": (parse_ringexpr, "t" + SPACES, RingElement.from_mapping(SPEC, {T: 1}), 0.5),
    "exponent-at-digit-limit": (parse_word, "t^" + "7" * LIMIT, SPEC.element([(0, int("7" * LIMIT))]), 0.5),
    "exponent-past-digit-limit": (
        parse_word, "t^" + "7" * (LIMIT + 1), (f"integer literal of {LIMIT + 1} digits is too long", 2), 0.5
    ),
    "coefficient-past-digit-limit": (
        parse_ringexpr, "t + " + "7" * (LIMIT + 1) + "*a",
        (f"integer literal of {LIMIT + 1} digits is too long", 4), 0.5,
    ),
}


@pytest.mark.parametrize("parser, text, expected, bound", CASES.values(), ids=CASES.keys())
def test_hostile_input_is_parsed_in_linear_time(parser, text, expected, bound):
    start = time.perf_counter()
    try:
        result = parser(text, SPEC)
    except ParseError as exc:
        result = exc
    elapsed = time.perf_counter() - start
    if isinstance(expected, tuple):
        message, position = expected
        assert isinstance(result, ParseError), result
        assert str(result).startswith(message), str(result)
        assert result.position == position
    else:
        assert result == expected
    assert elapsed < bound, f"{parser.__name__} took {elapsed:.2f} s on {len(text)} characters"


def test_identity_last_term_is_rejected_in_linear_time():
    text = LONG_TERMS + " + t*t^-1"
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="^term reduces to the identity"):
        parse_ringexpr(text, SPEC)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"parse_ringexpr took {elapsed:.2f} s on {len(text)} characters"


def test_rejected_expression_builds_no_ring_element(monkeypatch):
    built = []
    post_init, trusted = RingElement.__post_init__, RingElement._trusted.__func__

    def counted_post_init(self):
        built.append("__post_init__")
        post_init(self)

    def counted_trusted(cls, *args):
        built.append("_trusted")
        return trusted(cls, *args)

    monkeypatch.setattr(RingElement, "__post_init__", counted_post_init)
    monkeypatch.setattr(RingElement, "_trusted", classmethod(counted_trusted))
    with pytest.raises(ParseError, match="expected a factor name"):
        parse_ringexpr(LONG_TERMS + " *", SPEC)
    assert not built, f"{len(built)} ring elements built"
