import random

import pytest
from daxcalc import (
    Factor,
    GroupSpec,
    ParseError,
    RingElement,
    ValidationError,
    monomial,
    parse_ringexpr,
    parse_word,
)
from daxcalc.words import _tokenize

from helpers import (
    random_code_point_text,
    random_element,
    random_ring_element,
    random_scanner_text,
    random_spec,
    reference_scan,
)

SPEC = GroupSpec((Factor("t"), Factor("a", 2)))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1", "1"),
        ("t", "t"),
        ("t^3", "t^3"),
        ("t^-1", "t^-1"),
        ("t^+2", "t^2"),
        ("a^-1", "a"),
        ("t*a", "t*a"),
        ("t^2*a*t^-2", "t^2*a*t^-2"),
        ("t*t", "t^2"),
        ("t*t^-1", "1"),
        ("a*a", "1"),
        (" t ^ 2 * a ", "t^2*a"),
        ("t^0", "1"),
    ],
)
def test_parse_word(text, expected):
    assert str(parse_word(text, SPEC)) == expected


def test_parse_word_keeps_conjugate_reduced():
    g = parse_word("t^2*a*t^-2", SPEC)
    assert len(g.syllables) == 3
    assert not g.is_identity


@pytest.mark.parametrize(
    "text",
    ["", "  ", "t^", "t*", "*t", "t**a", "x", "t^x", "12", "1*t", "t %", "t^1 t"],
)
def test_parse_word_errors(text):
    with pytest.raises(ParseError):
        parse_word(text, SPEC)


def test_parse_word_error_position():
    with pytest.raises(ParseError) as excinfo:
        parse_word("t*x^2", SPEC)
    assert excinfo.value.position == 2
    assert "position 2" in str(excinfo.value)
    with pytest.raises(ParseError) as excinfo:
        parse_word("t^?", SPEC)
    assert excinfo.value.position == 2


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0", "0"),
        ("t", "t"),
        ("-t", "-t"),
        ("t + t^-1", "t + t^-1"),
        ("2*t - t - t", "0"),
        ("3*t^2", "3*t^2"),
        ("-2*t - a", "-2*t - a"),
        ("2*t^2*a", "2*t^2*a"),
        ("t+t", "2*t"),
        ("a + a^-1", "2*a"),
        ("0*t", "0"),
        ("1*t", "t"),
        ("t - 0*a", "t"),
        ("t*a^2", "t"),
    ],
)
def test_parse_ringexpr(text, expected):
    assert str(parse_ringexpr(text, SPEC)) == expected


@pytest.mark.parametrize("text", ["3*1", "1", "-1", "t + 1", "t - 3*1", "a^2", "t*t^-1"])
def test_parse_ringexpr_identity_terms_rejected(text):
    with pytest.raises(ValidationError) as excinfo:
        parse_ringexpr(text, SPEC)
    assert "identity" in str(excinfo.value)


@pytest.mark.parametrize("text", ["", "+", "t +", "+ t", "t + * a", "2*", "3 t", "t^- 	-2"])
def test_parse_ringexpr_errors(text):
    with pytest.raises(ParseError):
        parse_ringexpr(text, SPEC)


def test_parse_ringexpr_requires_an_operator_between_terms():
    with pytest.raises(ParseError, match="expected '\\+' or '-' between terms") as excinfo:
        parse_ringexpr("t u", SPEC)
    assert excinfo.value.position == 2


def test_parse_ringexpr_unknown_name_position():
    with pytest.raises(ParseError) as excinfo:
        parse_ringexpr("t + 2*q", SPEC)
    assert excinfo.value.position == 6


def test_word_round_trip_fuzz():
    rng = random.Random(51)
    for _ in range(300):
        spec = random_spec(rng)
        g = random_element(rng, spec)
        assert parse_word(str(g), spec) == g
    # raw syllables over SPEC, zero exponents and ones that wrap around a's order included
    rng = random.Random(53)
    for _ in range(300):
        g = SPEC.element([(rng.randint(0, 1), rng.randint(-6, 6)) for _ in range(rng.randint(0, 6))])
        assert parse_word(str(g), SPEC) == g


def test_ringexpr_round_trip_fuzz():
    rng = random.Random(52)
    for _ in range(300):
        spec = random_spec(rng)
        x = random_ring_element(rng, spec)
        assert parse_ringexpr(str(x), spec) == x
    # raw maps over SPEC: identity syllables are dropped, and syllables that
    # spell one element sum their coefficients, which may cancel to zero
    rng = random.Random(54)
    for _ in range(300):
        mapping = {}
        for _ in range(rng.randint(0, 5)):
            g = SPEC.element([(rng.randint(0, 1), rng.randint(-4, 4))])
            if not g.is_identity:
                mapping[g] = mapping.get(g, 0) + rng.randint(-9, 9)
        x = RingElement.from_mapping(SPEC, mapping)
        assert parse_ringexpr(str(x), SPEC) == x


def test_large_exponents():
    g = parse_word("t^123456789012345", SPEC)
    assert g == SPEC.generator("t") ** 123456789012345
    x = parse_ringexpr("999999999999*t", SPEC)
    assert x == monomial(SPEC.generator("t"), 999999999999)


def _scan(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("error", str(exc), exc.position)


def _check_scanner(text):
    """The scanner's tokens, end token included, or its error equal the reference's."""
    assert _scan(_tokenize, text) == _scan(reference_scan, text), text


def test_scanner_matches_reference_tokenizer():
    rng = random.Random(61)
    for _ in range(6000):
        _check_scanner(random_scanner_text(rng))
    rng = random.Random(63)
    for _ in range(1000):
        _check_scanner(random_code_point_text(rng))


@pytest.mark.parametrize(
    "parser, text, position",
    [(parse_word, "t^-" + "7" * 4400, 3), (parse_ringexpr, "t + " + "7" * 4400 + "*t", 4)],
)
def test_overlong_integer_literal_is_a_parse_error(parser, text, position):
    with pytest.raises(ParseError) as excinfo:
        parser(text, SPEC)
    assert excinfo.value.position == position
