"""Differential tests: the regular-expression parsers agree with the token parser.

parse_word and parse_ringexpr accept well-formed text with one fullmatch,
read its syllables with plain str splits on whitespace, "*" and "^" into an
unchecked merge, and tokenize only the text they reject.  On a fixed-seed corpus
of valid and malformed words and ring expressions they must return equal
values, or raise the same exception class with the same message and
position, as the token parser kept in helpers.  The malformed cases cover
whitespace runs, "^"/"+"/"-" sign runs, digit-led names, non-ASCII letters
and digits, and integer literals at and just past the interpreter's digit
limit.  A fixed list pins the order of the identity-term error against
each parse error that can come before or after it.  Since the splits trust
the fullmatch, a second corpus targets what they must read alike: Unicode
whitespace inside a syllable, exponents with leading zeros, a "+" sign or
as many digits as the limit allows, exponents that wrap around a finite
order, and words that cancel to the identity.  Short texts drawn from the
scanner's alphabet, from it plus the malformed pieces, and from any
non-surrogate code point close the corpus; since outcome catches only a
DaxError, they also check that neither parser raises anything else.
"""

import random
import sys

from daxcalc import DaxError, Factor, GroupSpec, parse_ringexpr, parse_word

from helpers import (
    SCANNER_ALPHABET,
    random_code_point_text,
    random_scanner_text,
    reference_parse_ringexpr,
    reference_parse_word,
)

# "_", "T9" and "x_2" stay unknown names
SPEC = GroupSpec((Factor("t"), Factor("a", 2), Factor("b", 3), Factor("x_1")))
NAMES = ("t", "a", "b", "x_1")
LIMIT = sys.get_int_max_str_digits()
SPACES = ("", "", "", " ", "  ", "\t", "\n", "\u2003", " " * 40)
MALFORMED = (
    " ", "   \t\n ", "\u2003\xa0", "\x1c",  # whitespace runs, ASCII and not
    "^", "^^", "++", "--", "+-", "-+", "^-", "^+", "^--2", "*", "**", "* +",  # operator and sign runs
    "9t", "0a", "12x_1", "3b^2", "_", "T9",  # digit-led and unknown names
    "\u00e9", "\u00df", "\u0430", "\u0663", "\uff11", "\u00b2", "!", "(", "\x00",  # non-ASCII letters and digits, junk
    "1", "0", "00", "01", "1*", "0*", "1*1", "3*1",  # identity and zero pieces
)
PARSERS = ((parse_word, reference_parse_word), (parse_ringexpr, reference_parse_ringexpr))
# whitespace that str.split() and the patterns' \s both drop, inside syllables
SYLLABLE_SPACES = ("", "", "", " ", "\x1c", "\u2003", "\xa0", "\u3000", "\x85")
EXPONENTS = (
    "", "0", "1", "-1", "+2", "3", "-4", "+0", "007", "-007", "+0010",  # zero-led and "+"-signed
    "300000000000000000001", "-299999999999999999999",  # wrap around the orders 2 and 3
    "7" * LIMIT, "-" + "7" * LIMIT, "+" + "0" * LIMIT,  # at the digit limit
)
TRUSTED_PATH = (
    "t ^ - 3", "b^\x1c+2", "a\u2003^\xa0-1", "t\u3000^\u3000-\u30003", "x_1\x85^\x85+\x8505",
    "t^007", "t^+5", "t^-007 * a^+0001", "t^00", "t^" + "7" * LIMIT, "t^-" + "0" * (LIMIT - 1) + "5",
    "a^3", "a^-1", "b^-4", "b^+300000000000000000001", "a^" + "7" * LIMIT, "b^-" + "8" * LIMIT,
    "t*t^-1", "t^2 * a * a * t^-2", "b*b^2", "a*b*b^+2*a", "x_1^5 * x_1^-05", "b^3", "a^2 * t",
)
# each parse error with an identity term before it and after it
IDENTITY_TERMS = ("t*t^-1", "1")
ERROR_PIECES = (
    (" + ", "q"),  # an unknown name
    (" + ", "7" * (LIMIT + 1) + "*t"),  # a literal one digit past the limit
    (" + ", "!"),  # a bad character
    (" + ", "t^*a"),  # a bare "^"
    (" ", "t"),  # no operator between terms
)
ERROR_ORDER = [
    text
    for identity in IDENTITY_TERMS
    for join, piece in ERROR_PIECES
    for text in (identity + join + piece, piece + join + identity)
]


def outcome(parser, text):
    """Not helpers.outcome: a parser may raise only a DaxError, and its position is compared too."""
    try:
        return "value", parser(text, SPEC)
    except DaxError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def check(text):
    for parser, reference in PARSERS:
        assert outcome(parser, text) == outcome(reference, text), (parser.__name__, text[:200])


def literal(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.02:
        return "7" * LIMIT
    if roll < 0.04:
        return "7" * (LIMIT + 1)
    return rng.choice(("0", "1", "2", "3", "5", "007", "12", "99999999999999999999"))


def valid_word(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return rng.choice(SPACES) + rng.choice(("1", "01", "001")) + rng.choice(SPACES)
    parts = []
    for _ in range(rng.randint(1, 6)):
        part = "x_2" if rng.random() < 0.02 else rng.choice(NAMES)
        if rng.random() < 0.6:
            sign = rng.choice(("", "", "-", "+"))
            part += rng.choice(SPACES) + "^" + rng.choice(SPACES) + sign + rng.choice(SPACES) + literal(rng)
        parts.append(part)
    joins = [rng.choice(SPACES) + "*" + rng.choice(SPACES) for _ in parts[1:]]
    body = parts[0] + "".join(j + p for j, p in zip(joins, parts[1:]))
    return rng.choice(SPACES) + body + rng.choice(SPACES)


def valid_ringexpr(rng: random.Random) -> str:
    if rng.random() < 0.05:
        return rng.choice(SPACES) + rng.choice(("0", "00")) + rng.choice(SPACES)
    text = rng.choice(("", "", "-")) + rng.choice(SPACES)
    for k in range(rng.randint(1, 4)):
        if k:
            text += rng.choice(SPACES) + rng.choice("+-") + rng.choice(SPACES)
        if rng.random() < 0.4:
            text += literal(rng) + rng.choice(SPACES) + "*" + rng.choice(SPACES)
        text += valid_word(rng).strip()
    return text + rng.choice(SPACES)


def spaced(rng: random.Random, *pieces: str) -> str:
    return "".join(piece + rng.choice(SYLLABLE_SPACES) for piece in pieces)


def trusted_path_word(rng: random.Random) -> str:
    """A word with whitespace inside its syllables and awkward exponents; often followed by its inverse."""
    syllables = [(rng.choice(NAMES), rng.choice(EXPONENTS)) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.3:  # the word times its inverse cancels to the identity
        syllables += [(name, str(-int(exp or 1))) for name, exp in reversed(syllables)]
    parts = []
    for name, exp in syllables:
        sign, digits = (exp[0], exp[1:]) if exp[:1] in ("-", "+") else ("", exp)
        parts.append(spaced(rng, name, "^", sign, digits) if exp else spaced(rng, name))
    return "".join(spaced(rng, "*") + part for part in parts)[1:]  # [1:] drops the first "*"


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.6:
            text = text[:i] + rng.choice(MALFORMED) + text[i:]
        elif roll < 0.8:
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + rng.choice(SCANNER_ALPHABET) + text[i + 1 :]
    return text


def test_valid_text_matches_the_token_parser():
    rng = random.Random(1101)
    for _ in range(3000):
        check(valid_word(rng))
        check(valid_ringexpr(rng))


def test_malformed_text_matches_the_token_parser():
    rng = random.Random(1102)
    for _ in range(3000):
        check(mutate(rng, valid_word(rng)))
        check(mutate(rng, valid_ringexpr(rng)))


def test_identity_term_and_parse_error_come_in_the_token_parser_order():
    for text in ERROR_ORDER:
        check(text)


def test_scanner_alphabet_text_matches_the_token_parser():
    rng = random.Random(1103)
    for _ in range(4000):
        check(random_scanner_text(rng))
    rng = random.Random(1105)
    for _ in range(1000):
        check(random_scanner_text(rng, 14, SCANNER_ALPHABET + list(MALFORMED)))
    rng = random.Random(1106)
    for _ in range(1000):
        check(random_code_point_text(rng))


def test_trusted_path_fixed_cases_match_the_token_parser():
    for word in TRUSTED_PATH:
        for text in (word, f" {word} ", f"-2 * {word} + t", f"a - {word}", f"{word} + 3*{word}"):
            check(text)


def test_trusted_path_corpus_matches_the_token_parser():
    rng = random.Random(1104)
    for _ in range(1500):
        word = trusted_path_word(rng)
        check(word)
        check(rng.choice(("", "-", "3*", "- 007 * ")) + word + rng.choice(("", " + t", " - 2*" + trusted_path_word(rng))))
