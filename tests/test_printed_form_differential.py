"""Differential tests: text in printed form is read alike with and without the grammar regex.

parse_word and parse_ringexpr first read text in the form str() prints it
(no whitespace but one space on each side of a term's sign, every "*"-piece
a spelling in the spec's table) by str splits and table lookups, and send
any other text to the grammar's fullmatch.  No printed text ends in a space,
so text + " " always takes the grammar path, and trailing whitespace changes
no value, message or position.  On a fixed-seed corpus of printed words and
ring expressions over infinite and finite factors, some with junk inserted,
each parser must give the same value, or the same error class, message and
position, on text and on text + " "; clean texts must also give the oracle's
value.  Counting wrappers around the patterns show that both paths ran, and
that a clean text was read with no regex call exactly when it is not "1" or
"0" and every exponent in it has a spelling in the table (1 <= |e| <= 16).

The same wrappers guard the decode of a whole session: a session whose word
and ring fields are all str() output, with every exponent in the table
(1 <= |e| <= 16), is decoded with no regex call, and the same session with
one space after each field makes one fullmatch per distinct word text and
per ring field.
"""

import json
import random
import sys
from collections import Counter

import pytest

import oracle
from daxcalc import DaxError, ExplicitKernel, Factor, GroupSpec, ManifoldModel, ValidationError, parse_ringexpr, parse_word
from daxcalc import words as words_module
from daxcalc.documents import disc_to_json, manifold_to_json, session_from_json

from helpers import random_nontrivial, random_ring_element, random_srdata

PLAIN = (("t", None), ("x", None), ("a", 2), ("b", 3), ("c", 20))  # c: exponents 16 and 17 both below its order
SPEC = GroupSpec(tuple(Factor(name, order) for name, order in PLAIN))
SESSION_SPEC = GroupSpec(SPEC.factors[:4])  # orders up to 17: every reduced exponent of a finite factor is in the table
EXPONENTS = (1, 1, 1, 1, -1, -1, 2, -2, 3, -5, 16, -16, 17, -17, 19, -40)
COEFFICIENTS = ("", "", "", "", "2", "0", "1", "12", "007", "00", "300000000000000000000")
JUNK = ("", "*", "1", "0", "3", "٣", "--", "+", "x^+2", "x^02", "a^2", "x*x^-1", "7" * 5000)
TEXTS = 40_000
PARSERS = (parse_word, parse_ringexpr)


class Counting:
    """A compiled pattern that records each call to fullmatch and findall."""

    def __init__(self, pattern, calls: Counter):
        self.pattern, self.calls = pattern, calls

    def fullmatch(self, text):
        self.calls["fullmatch"] += 1
        return self.pattern.fullmatch(text)

    def findall(self, text):
        self.calls["findall"] += 1
        return self.pattern.findall(text)


@pytest.fixture
def regex_calls(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for name in ("_WORD", "_RINGEXPR", "_TERM"):
        monkeypatch.setattr(words_module, name, Counting(getattr(words_module, name), calls))
    return calls


def outcome(parser, text):
    try:
        return "value", parser(text, SPEC)
    except DaxError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def raw_word(rng: random.Random) -> tuple:
    """Unreduced syllables, or a reduced word (maybe the identity) as str() prints it."""
    word = tuple((rng.randrange(len(PLAIN)), rng.choice(EXPONENTS)) for _ in range(rng.randint(1, 5)))
    return oracle.reduce_word(PLAIN, word) if rng.random() < 0.5 else word


def ring_text(rng: random.Random) -> tuple[str, object, bool]:
    """A sum in printed layout with any coefficient spelling, its oracle terms or "identity", and whether it fits the table."""
    parts, total, identity, fits = [], Counter(), False, True
    for k in range(rng.randint(1, 6)):
        word, coeff, negative = raw_word(rng), rng.choice(COEFFICIENTS), rng.random() < 0.4
        body = oracle.word_text(PLAIN, word) if not coeff else f"{coeff}*{oracle.word_text(PLAIN, word)}"
        parts.append(("-" if negative else "") + body if not k else f"{'-' if negative else '+'} {body}")
        reduced = oracle.reduce_word(PLAIN, word)
        identity, fits = identity or not reduced, fits and spelled(word)
        total[reduced] += (-1 if negative else 1) * int(coeff or "1")
    return " ".join(parts), "identity" if identity else oracle.terms(total), fits


def spelled(word) -> bool:
    """Whether every syllable of a nonempty word has a spelling in the table: 1 <= |exponent| <= 16."""
    return bool(word) and all(abs(e) <= 16 for _, e in word)


def clean_text(rng: random.Random) -> tuple[str, object, object, bool]:
    """(text, parse_word's value, parse_ringexpr's value, whether it is read with no regex); None: not checked."""
    roll = rng.random()
    if roll < 0.35:
        word = raw_word(rng)
        reduced = oracle.reduce_word(PLAIN, word)
        return oracle.word_text(PLAIN, word), reduced, [(reduced, 1)] if reduced else "identity", spelled(word)
    if roll < 0.5:
        value = Counter({oracle.reduce_word(PLAIN, raw_word(rng)): rng.choice((1, -1, 2, -3, 40)) for _ in range(4)})
        value.pop((), None)
        return oracle.ring_text(PLAIN, value), None, oracle.terms(value), all(map(spelled, value))
    text, value, fits = ring_text(rng)
    return text, None, value, fits


def with_junk(rng: random.Random, text: str) -> str:
    """text with one junk piece at a piece boundary or at any character position."""
    junk = rng.choice(JUNK) + rng.choice(("", "", "*", " "))
    cuts = [0, len(text)] + [i + d for i, ch in enumerate(text) if ch in " *" for d in (0, 1)]
    cut = rng.choice(cuts) if rng.random() < 0.7 else rng.randint(0, len(text))
    return text[:cut] + junk + text[cut:]


def corpus() -> list[tuple[str, object, object, bool]]:
    rng = random.Random(34)
    texts = []
    while len(texts) < TEXTS:
        texts.append(clean_text(rng))
        if rng.random() < 0.5:
            texts.append((with_junk(rng, texts[-1][0]), None, None, False))
    return texts


def check_value(result, expected):
    """A parser's outcome on a clean text against the oracle's word, terms or "identity"."""
    if expected == "identity":
        assert result[0] is ValidationError and "identity" in result[1], result
    elif isinstance(expected, tuple):
        assert result[0] == "value" and result[1].syllables == expected, result
    else:
        assert result[0] == "value" and [(g.syllables, c) for g, c in result[1].terms] == expected, result


def test_printed_and_grammar_paths_agree(regex_calls):
    paths = Counter()
    for text, word_value, ring_value, fits in corpus():
        for parser, expected in ((parse_word, word_value), (parse_ringexpr, ring_value)):
            before = regex_calls["fullmatch"]
            result = outcome(parser, text)
            path = "grammar" if regex_calls["fullmatch"] > before else "printed"
            paths[path] += 1
            before = regex_calls["fullmatch"]
            assert result == outcome(parser, text + " "), (parser.__name__, text[:200])
            assert regex_calls["fullmatch"] > before, "text + ' ' must take the grammar path"
            if expected is not None:
                check_value(result, expected)
                assert path == ("printed" if fits and text not in ("0", "1") else "grammar"), (parser.__name__, text)
    assert paths["printed"] > 10_000 and paths["grammar"] > 10_000, paths


def test_fixed_traps_fall_back_to_the_grammar():
    limit = sys.get_int_max_str_digits()
    cases = (
        "0", "3", "00", "1", "3*1", "t + 1", "٣*t", "+3*t", "3_0*t", "-+t", "--t", "t  + x", "t +x", "t+ x",
        "t\t+ x", " t", "-", "", "t + ", "t + x*x^-1", "2*t*t^-1 - x", "t - 0*x*x^-1", "t^+2", "t^02", "t^1",
        "t^17*c^17", "c^16*c^5", "a^2 * t", "a*a + t", "7" * (limit + 1) + "*t", "t + " + "7" * limit + "*x",
        "t*t^-1 + " + "7" * (limit + 1) + "*x", "7" * (limit + 1) + "*t + t*t^-1",
    )
    for text in cases:
        for parser in PARSERS:
            assert outcome(parser, text) == outcome(parser, text + " "), (parser.__name__, text[:80])


def session(rng: random.Random, suffix: str) -> tuple[dict, list[str], list[str]]:
    """A session whose word and ring fields are str() output plus suffix; its word texts and ring fields."""
    generators = [g for g in (random_ring_element(rng, SESSION_SPEC, max_terms=3) for _ in range(6)) if not g.is_zero]
    manifold = manifold_to_json(ManifoldModel(SESSION_SPEC, ExplicitKernel(tuple(generators))))
    manifold["dax_kernel"]["generators"] = [text + suffix for text in manifold["dax_kernel"]["generators"]]
    words, rings = [], list(manifold["dax_kernel"]["generators"])
    discs = {}
    for n in range(20):
        data = disc_to_json(random_srdata(rng, SESSION_SPEC))
        data["double_tubes"] = [text + suffix for text in data["double_tubes"]]
        for disc in data["sr_discs"]:
            disc["word"] += suffix
        words += data["double_tubes"] + [disc["word"] for disc in data["sr_discs"]]
        discs[f"d{n}"] = data
    queries = []
    for _ in range(10):
        element = str(random_ring_element(rng, SESSION_SPEC, max_terms=4) + random_ring_element(rng, SESSION_SPEC, max_terms=1))
        if element != "0":
            queries.append({"kind": "reduce", "element": element + suffix})
            rings.append(element + suffix)
        points = [{"sign": rng.choice((1, -1)), "word": str(random_nontrivial(rng, SESSION_SPEC)) + suffix} for _ in range(3)]
        queries.append({"kind": "pairing", "points": points})
        words += [point["word"] for point in points]
    return {"manifold": manifold, "discs": discs, "queries": queries}, words, rings


@pytest.mark.parametrize("seed", range(5))
def test_printed_session_decodes_without_regex(regex_calls, seed):
    printed, words, rings = session(random.Random(seed), "")
    assert words and rings and "1" not in words
    decoded = session_from_json(json.loads(json.dumps(printed)))
    assert not regex_calls, regex_calls

    spaced, spaced_words, spaced_rings = session(random.Random(seed), " ")
    assert session_from_json(json.loads(json.dumps(spaced))) == decoded
    assert regex_calls == {"fullmatch": len(set(spaced_words)) + len(spaced_rings), "findall": len(spaced_rings)}
