"""Shared random generators, the oracle's plain forms and three verbatim copies.

The lattice oracle decides whether a vector lies in the integer row span of
a generator matrix without calling any kernel reduction code.  Independent
rows leave a unique rational solution, found by exact elimination; a
dependency yields a primitive integer null vector u with some u[j] > 0,
so any solution can be shifted until 0 <= c_j < u[j], and that coefficient
is enumerated while the remaining rows recurse.  Both paths are exact, so
the oracle is a sound and complete decision procedure for the small
instances the tests generate.

plain_* give daxcalc values in tests/oracle.py's form, through public
attributes only.  The old tokenizer, token parser and decoder stay as
verbatim copies: they are the only pins of parse and decode error positions
and field paths.
"""

from __future__ import annotations

import random
import re
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
    instantiate,
    parse_ringexpr,
    parse_word,
)
from daxcalc.documents import SessionDocument, manifold_from_json

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


# The hand-written tokenizer of daxcalc.words before it became one regex
# scanner, kept verbatim as the reference for the differential tests.
def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_name_char(ch: str) -> bool:
    return ch == "_" or _is_digit(ch) or ("a" <= ch <= "z") or ("A" <= ch <= "Z")


def reference_tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "*+-^":
            tokens.append((ch, ch, i))
            i += 1
        elif _is_digit(ch):
            j = i
            while j < len(text) and _is_digit(text[j]):
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif _is_name_char(ch):
            j = i
            while j < len(text) and _is_name_char(text[j]):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


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
# regular expressions alone: a scanner that makes one token per match, and a
# parser that walks the tokens and builds the syllables.  Kept verbatim (only
# the names changed) as the reference for the scanner differential tests.
_REFERENCE_IDENTITY_TERM = (
    "the identity word '1' is not a valid term: values live in the "
    "group ring with the identity removed"
)

_ReferenceToken = tuple[str, object, int]  # (kind, value, position)

# ASCII classes on purpose: \d would accept non-ASCII digits.  A whitespace run is
# its own match; as a \s* prefix of each token it would take quadratic time.
_REFERENCE_TOKEN = re.compile(r"\s+|(?P<op>[-*+^])|(?P<int>[0-9]+)|(?P<name>[A-Za-z0-9_]+)|(?P<bad>.)", re.S)


def reference_scan(text: str) -> list[_ReferenceToken]:
    """(kind, value, position) tokens, then ("end", None, end of the last token or 0)."""
    tokens: list[_ReferenceToken] = []
    for match in _REFERENCE_TOKEN.finditer(text):
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


# documents.session_from_json and the decoders under it from before each
# distinct word text was parsed once per document: every field calls
# parse_word, and no two fields share an element.  Kept verbatim (only the
# names changed) as the reference for the decode differential, with one other
# change: the sign check is spelled out, since helpers read no private name.
_REFERENCE_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _reference_expect(value, kind: type, path: str):
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"expected {_REFERENCE_TYPE_NAMES[kind]}, got {type(value).__name__}", path)
    return value


def _reference_object(value, path: str, required: set, optional: set = frozenset()) -> dict:
    """An object with every required key and no key outside required and optional."""
    data = _reference_expect(value, dict, path)
    missing = required - data.keys()
    if missing:  # the smallest, so the message does not depend on hash order
        raise ValidationError(f"missing required key {min(missing)!r}", path)
    for key in data:
        if key not in required and key not in optional:
            raise ValidationError(f"unknown key {key!r}", path)
    return data


def _reference_at(path: str, build, *args):
    """build(*args), its ParseError or ValidationError re-raised under path; an error's own path goes below path."""
    try:
        return build(*args)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.message}", exc.position) from None
    except ValidationError as exc:
        raise ValidationError(exc.message, path if exc.path is None else f"{path}.{exc.path}") from None


def _reference_list(value, path: str, decode, *args) -> tuple:
    """A list field, each entry decoded by decode(entry, *args, f"{path}[{i}]")."""
    return tuple(decode(entry, *args, f"{path}[{i}]") for i, entry in enumerate(_reference_expect(value, list, path)))


def _reference_field(value, parse, spec: GroupSpec, path: str):
    """A string field parsed by parse_word or parse_ringexpr, errors prefixed by path."""
    return _reference_at(path, parse, _reference_expect(value, str, path), spec)


def _reference_signed_word(value, spec: GroupSpec, path: str) -> tuple[int, GroupElement]:
    """An object {"sign": 1 or -1, "word": WORD} in sr_discs or a point list; evaluation drops identity loops."""
    data = _reference_object(value, path, {"sign", "word"})
    sign = _reference_expect(data["sign"], int, f"{path}.sign")
    if type(sign) is not int or sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign}", f"{path}.sign")
    return sign, _reference_field(data["word"], parse_word, spec, f"{path}.word")


def reference_disc_from_json(obj, spec: GroupSpec, path: str = "disc") -> SRData:
    data = _reference_object(obj, path, set(), {"double_tubes", "sr_discs"})
    tubes = _reference_list(data.get("double_tubes", []), f"{path}.double_tubes", _reference_field, parse_word, spec)
    discs = _reference_list(data.get("sr_discs", []), f"{path}.sr_discs", _reference_signed_word, spec)
    return SRData(tubes, discs)


def _reference_query_from_json(obj, declared: dict, spec: GroupSpec, path: str):
    data = _reference_expect(obj, dict, path)
    kind = _reference_expect(data.get("kind"), str, f"{path}.kind")

    def disc_name(value, dpath: str) -> str:
        name = _reference_expect(value, str, dpath)
        if name not in declared:
            raise ValidationError(f"undeclared disc {name!r}", dpath)
        return name

    if kind in ("invariant", "normalize"):
        _reference_object(data, path, {"kind", "disc"})
        return kind, disc_name(data["disc"], f"{path}.disc")
    if kind == "compare":
        _reference_object(data, path, {"kind", "discs"})
        if len(_reference_expect(data["discs"], list, f"{path}.discs")) != 2:
            raise ValidationError("compare takes exactly two disc names", f"{path}.discs")
        return kind, _reference_list(data["discs"], f"{path}.discs", disc_name)
    if kind == "reduce":
        _reference_object(data, path, {"kind", "element"})
        return kind, _reference_field(data["element"], parse_ringexpr, spec, f"{path}.element")
    if kind == "pairing":
        _reference_object(data, path, {"kind", "points"})
        return kind, _reference_list(data["points"], f"{path}.points", _reference_signed_word, spec)
    raise ValidationError(f"unknown query kind {kind!r}", f"{path}.kind")


def reference_session_from_json(obj, path: str = "session") -> SessionDocument:
    data = _reference_object(obj, path, {"manifold"}, {"discs", "queries"})
    if isinstance(data["manifold"], str):
        manifold = _reference_at(f"{path}.manifold", instantiate, data["manifold"])
    else:
        manifold = manifold_from_json(data["manifold"], f"{path}.manifold")
    discs: dict[str, SRData] = {}
    for name, entry in _reference_expect(data.get("discs", {}), dict, f"{path}.discs").items():
        discs[name] = reference_disc_from_json(entry, manifold.group, f"{path}.discs.{name}")
    queries = _reference_list(data.get("queries", []), f"{path}.queries", _reference_query_from_json, discs, manifold.group)
    return SessionDocument(manifold, discs, queries)
