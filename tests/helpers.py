"""Shared random generators, the oracle's plain forms and the old word parsers.

The lattice oracle decides whether a vector lies in the integer row span of
a generator matrix without calling any kernel reduction code.  Independent
rows leave a unique rational solution, found by exact elimination; a
dependency yields a primitive integer null vector u with some u[j] > 0,
so any solution can be shifted until 0 <= c_j < u[j], and that coefficient
is enumerated while the remaining rows recurse.  Both paths are exact, so
the oracle is a sound and complete decision procedure for the small
instances the tests generate.

plain_* give daxcalc values in tests/oracle.py's form, through public
attributes only.  reference_parse_word and reference_parse_ringexpr are the
parsers' reference for values, error messages and positions: the token
parser daxcalc.words had before its regular-expression parsers, reading the
tokens of the hand-written tokenizer it had before its regex scanner.
Neither holds a pattern or shares code with daxcalc.words.
"""

from __future__ import annotations

import random
import string
from fractions import Fraction
from math import gcd

from daxcalc import (
    DaxValue,
    ExplicitKernel,
    Factor,
    GroupElement,
    GroupSpec,
    InversePairsKernel,
    ParseError,
    RingElement,
    SRData,
    TrivialKernel,
    ValidationError,
    canonical_key,
)

FACTOR_NAMES = ("a", "b", "c")


def random_spec(rng: random.Random, max_factors: int = 3) -> GroupSpec:
    count = rng.randint(1, max_factors)
    factors = []
    for name in FACTOR_NAMES[:count]:
        order = rng.choice((None, None, 2, 2, 3, 4))
        factors.append(Factor(name, order))
    return GroupSpec(tuple(factors))


def random_element(rng: random.Random, spec: GroupSpec, max_syllables: int = 4) -> GroupElement:
    syllables = []
    for _ in range(rng.randint(0, max_syllables)):
        index = rng.randrange(len(spec.factors))
        exp = rng.choice((-3, -2, -1, 1, 2, 3))
        syllables.append((index, exp))
    return spec.element(syllables)


def random_nontrivial(rng: random.Random, spec: GroupSpec, max_syllables: int = 4) -> GroupElement:
    while True:
        g = random_element(rng, spec, max_syllables)
        if not g.is_identity:
            return g


def random_two_torsion(rng: random.Random, spec: GroupSpec, max_syllables: int = 2):
    """A random conjugate w x^(n/2) w^-1 over an even factor, or None."""
    evens = [i for i, f in enumerate(spec.factors) if f.order is not None and f.order % 2 == 0]
    if not evens:
        return None
    index = rng.choice(evens)
    core = spec.element([(index, spec.factors[index].order // 2)])
    w = random_element(rng, spec, max_syllables)
    return w * core * ~w


def random_ring_element(
    rng: random.Random, spec: GroupSpec, max_terms: int = 4, max_coeff: int = 3
) -> RingElement:
    mapping: dict[GroupElement, int] = {}
    for _ in range(rng.randint(0, max_terms)):
        g = random_nontrivial(rng, spec, max_syllables=2)
        coeff = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        mapping[g] = mapping.get(g, 0) + coeff
    return RingElement.from_mapping(spec, mapping)


def random_srdata(rng: random.Random, spec: GroupSpec, max_discs: int = 4) -> SRData:
    tubes = []
    for _ in range(rng.randint(0, 2)):
        tube = random_two_torsion(rng, spec, max_syllables=1)
        if tube is not None:
            tubes.append(tube)
    discs = []
    for _ in range(rng.randint(0, max_discs)):
        discs.append((rng.choice((1, -1)), random_nontrivial(rng, spec)))
    return SRData(tuple(tubes), tuple(discs))


def random_kernel(rng: random.Random, spec: GroupSpec):
    roll = rng.random()
    if roll < 0.3:
        return TrivialKernel()
    if roll < 0.6:
        return InversePairsKernel()
    generators = []
    for _ in range(rng.randint(1, 3)):
        gen = random_ring_element(rng, spec, max_terms=3)
        if not gen.is_zero:
            generators.append(gen)
    if not generators:
        return TrivialKernel()
    return ExplicitKernel(tuple(generators))


def ring_to_rows(elements: list[RingElement]) -> tuple[list[list[int]], list[GroupElement]]:
    """Coordinate rows of the given ring elements over their union support."""
    support = sorted({g for x in elements for g in x.support()}, key=canonical_key)
    index = {g: i for i, g in enumerate(support)}
    rows = []
    for x in elements:
        row = [0] * len(support)
        for g, c in x.items():
            row[index[g]] = c
        rows.append(row)
    return rows, support


def _null_vector(rows: list[list[int]]):
    """A primitive integer u with u . rows = 0, or None if rows are independent."""
    k, n = len(rows), len(rows[0])
    m = [[Fraction(v) for v in row] for row in rows]
    t = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, k) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        t[r], t[pivot] = t[pivot], t[r]
        for i in range(k):
            if i != r and m[i][c] != 0:
                ratio = m[i][c] / m[r][c]
                m[i] = [a - ratio * b for a, b in zip(m[i], m[r])]
                t[i] = [a - ratio * b for a, b in zip(t[i], t[r])]
        r += 1
        if r == k:
            return None
    scale = 1
    for f in t[r]:
        scale = scale * f.denominator // gcd(scale, f.denominator)
    u = [int(f * scale) for f in t[r]]
    shrink = 0
    for v in u:
        shrink = gcd(shrink, v)
    return [v // shrink for v in u]


def _solve_independent(rows: list[list[int]], target: list[int]) -> bool:
    """Exact solve of c . rows = target for independent rows; True iff integral."""
    k, n = len(rows), len(rows[0])
    aug = [[Fraction(rows[i][c]) for i in range(k)] + [Fraction(target[c])] for c in range(n)]
    r = 0
    for col in range(k):
        pivot = next(i for i in range(r, n) if aug[i][col] != 0)
        aug[r], aug[pivot] = aug[pivot], aug[r]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                ratio = aug[i][col] / aug[r][col]
                aug[i] = [a - ratio * b for a, b in zip(aug[i], aug[r])]
        r += 1
    if any(aug[i][k] != 0 for i in range(r, n)):
        return False
    return all((aug[i][k] / aug[i][i]).denominator == 1 for i in range(k))


def lattice_member(rows: list[list[int]], target: list[int]) -> bool:
    """True iff target is an integer combination of the rows."""
    if not any(target):
        return True
    if not rows:
        return False
    u = _null_vector(rows)
    if u is None:
        return _solve_independent(rows, target)
    j = next(i for i, v in enumerate(u) if v != 0)
    if u[j] < 0:
        u = [-v for v in u]
    rest = rows[:j] + rows[j + 1 :]
    for value in range(u[j]):
        shifted = [t - value * rj for t, rj in zip(target, rows[j])]
        if lattice_member(rest, shifted):
            return True
    return False


# The hand-written tokenizer of daxcalc.words from before it became one regex
# scanner, with each run read by str.lstrip and the digit-limit error added.
_NAME_CHARS = string.ascii_letters + string.digits + "_"
_ReferenceToken = tuple[str, object, int]  # (kind, value, position)


def _run_length(text: str, i: int, chars: str | None = None) -> int:
    """The length of the run of chars, or of whitespace, at text[i]; read in 64-character windows, not text[i:]."""
    window = text[i : i + 64]
    n = len(window) - len(window.lstrip(chars))
    return n if n < 64 else n + _run_length(text, i + 64, chars)


def reference_tokenize(text: str) -> list[_ReferenceToken]:
    tokens: list[_ReferenceToken] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += _run_length(text, i)
        elif ch in "*+-^":
            tokens.append((ch, ch, i))
            i += 1
        elif ch in string.digits:
            n = _run_length(text, i, string.digits)
            try:
                tokens.append(("int", int(text[i : i + n]), i))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError(f"integer literal of {n} digits is too long", i) from None
            i += n
        elif ch in _NAME_CHARS:
            n = _run_length(text, i, _NAME_CHARS)
            tokens.append(("name", text[i : i + n], i))
            i += n
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def reference_scan(text: str) -> list[_ReferenceToken]:
    """reference_tokenize's tokens, then ("end", None, end of the last token or 0)."""
    return reference_tokenize(text) + [("end", None, len(text.rstrip()))]


# names, "_", ASCII digits, operators, ASCII and Unicode whitespace
# (\x1c is a separator that str.isspace accepts), Unicode digits and junk
SCANNER_ALPHABET = (
    ["t", "a", "b", "x_1", "_", "T9", "0", "1", "7", "42", "*", "+", "-", "^", " ", "\t", "\n"]
    + ["\x1c", "\u2003", "\xa0", "\u0663", "\uff11", "\u00b2", "\u00e9", "!", "(", "/", ".", "\x00"]
)


def random_scanner_text(rng: random.Random, max_pieces: int = 12, alphabet: list[str] = SCANNER_ALPHABET) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_pieces)))


def random_code_point_text(rng: random.Random, max_chars: int = 40) -> str:
    """Up to max_chars characters, each any code point but a surrogate: ASCII half the time, else uniform."""
    chars = []
    for _ in range(rng.randint(0, max_chars)):
        code = rng.randint(0, 0x7F) if rng.random() < 0.5 else rng.randint(0, 0x10FFFF - 0x800)
        chars.append(chr(code if code < 0xD800 else code + 0x800))  # steps over the 0x800 surrogates
    return "".join(chars)


def outcome(fn, *args):
    """str() of the result, or the error class and message."""
    try:
        result = fn(*args)
    except Exception as exc:  # the class is part of what is compared
        return type(exc).__name__, str(exc)
    if isinstance(result, DaxValue):
        return "ok", str(result.value), result.dropped
    return "ok", str(result)


def plain_spec(spec: GroupSpec) -> tuple:
    return tuple((f.name, f.order) for f in spec.factors)


def plain_ring(x: RingElement) -> dict:
    return {g.syllables: c for g, c in x.terms}


def plain_data(data: SRData) -> tuple:
    return tuple(t.syllables for t in data.double_tubes), tuple((sign, g.syllables) for sign, g in data.sr_discs)


def plain_kernel(kernel):
    """The oracle's kernel: "inverse_pairs", or the generators' plain ring values, none for the trivial kernel."""
    if isinstance(kernel, InversePairsKernel):
        return "inverse_pairs"
    return tuple(map(plain_ring, kernel.generators)) if isinstance(kernel, ExplicitKernel) else ()


# The token parser of daxcalc.words from before well-formed text was read by
# regular expressions alone: it walks reference_scan's tokens and builds the
# syllables.  Kept verbatim (only the names changed) as the reference for the
# scanner differential tests.
_REFERENCE_IDENTITY_TERM = (
    "the identity word '1' is not a valid term: values live in the "
    "group ring with the identity removed"
)


def _reference_parse_syllables(tokens: list[_ReferenceToken], i: int, spec: GroupSpec) -> tuple[list[tuple[int, int]], int]:
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


def reference_parse_word(text: str, spec: GroupSpec) -> GroupElement:
    """Parse a word and return its reduced normal form; "1" is the identity."""
    tokens = reference_scan(text)
    if tokens[0][0] == "end":
        raise ParseError("empty word", 0)
    if tokens[0][0] == "int":
        if tokens[0][1] == 1 and len(tokens) == 2:
            return spec.identity()
        raise ParseError("expected a factor name or the identity word '1'", tokens[0][2])
    syllables, i = _reference_parse_syllables(tokens, 0, spec)
    if tokens[i][0] != "end":
        raise ParseError("unexpected trailing input", tokens[i][2])
    return spec.element(syllables)


def reference_parse_ringexpr(text: str, spec: GroupSpec) -> RingElement:
    """Parse a signed sum of terms into a ring element, combining like terms."""
    tokens = reference_scan(text)
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
            raise ValidationError(_REFERENCE_IDENTITY_TERM)
        syllables, i = _reference_parse_syllables(tokens, i, spec)
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
