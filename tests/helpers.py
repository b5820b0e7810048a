"""Shared random generators and an exact lattice membership oracle.

The oracle decides whether a vector lies in the integer row span of a
generator matrix without calling any kernel reduction code.  Independent
rows leave a unique rational solution, found by exact elimination; a
dependency yields a primitive integer null vector u with some u[j] > 0,
so any solution can be shifted until 0 <= c_j < u[j], and that coefficient
is enumerated while the remaining rows recurse.  Both paths are exact, so
the oracle is a sound and complete decision procedure for the small
instances the tests generate.
"""

from __future__ import annotations

import random
import re
from collections import Counter
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
from daxcalc.forms import validate_or_raise

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


# GroupElement.__invert__ from before it built the inverse directly: it sends
# the reversed, negated syllables back through GroupSpec.element's merges.  Kept
# verbatim (only the name changed, and the method is a function) as the
# reference for the differential test.
def reference_invert(g: GroupElement) -> GroupElement:
    return g.spec.element((index, -exp) for index, exp in reversed(g.syllables))


# The per-term `total = total + ...` versions of phi, dax_sum, the pairing sums
# and the inverse-pairs fold, and the direct-construction monomial, from before
# each ring value was summed in one dict and built once; kept verbatim (only the
# names changed, and the inverse-pairs method is a function) as references for
# the differential tests.  One rule changed since: the monomial's zero test
# takes only an int 0, as monomial does since it drops only an int 0.
def reference_monomial(g: GroupElement, coeff: int) -> RingElement:
    """The single-term combination coeff*g; only an int 0 gives zero."""
    if type(coeff) is int and coeff == 0:
        return RingElement.zero(g.spec)
    if g.is_identity:
        raise ValidationError("monomial requires a nontrivial group element")
    return RingElement(g.spec, ((g, coeff),))


def reference_dax_sum(g: GroupElement, sign: int) -> RingElement:
    """The signed pair sign*(g + g^-1); for 2-torsion g this is sign*2g."""
    if sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign}")
    if g.is_identity:
        raise ValidationError("dax_sum is undefined on the identity element")
    inv = ~g
    if inv == g:
        return reference_monomial(g, 2 * sign)
    return reference_monomial(g, sign) + reference_monomial(inv, sign)


def reference_phi(data, manifold) -> RingElement:
    """Invariant value of a presentation, reduced modulo the manifold kernel."""
    validate_or_raise(data, manifold)
    total = RingElement.zero(manifold.group)
    for tube in data.double_tubes:
        total = total + reference_monomial(tube, 1)
    for sign, g in data.sr_discs:
        total = total + reference_dax_sum(g, sign)
    return manifold.kernel.reduce(total)


# name is the one change from the verbatim copy: spin_composition_value names a
# bad entry after its own parameter, spins[i]
def _reference_check_points(points, spec: GroupSpec, name: str = "points") -> None:
    for i, (sign, loop) in enumerate(points):
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ValidationError(f"{name}[{i}]: sign must be +1 or -1, got {sign}")
        if loop.spec != spec:
            raise ValidationError(f"{name}[{i}]: element is not over the given group spec")


def reference_dax_value(points, spec: GroupSpec) -> DaxValue:
    """Signed sum of the nontrivial loops; identity loops are dropped and counted."""
    _reference_check_points(points, spec)
    total = RingElement.zero(spec)
    dropped = 0
    for sign, loop in points:
        if loop.is_identity:
            dropped += 1
        else:
            total = total + reference_monomial(loop, sign)
    return DaxValue(total, dropped)


def reference_spin_composition_value(spins, spec: GroupSpec) -> RingElement:
    _reference_check_points(spins, spec, "spins")
    for i, (_, g) in enumerate(spins):
        if g.is_identity:
            raise ValidationError(f"spins[{i}]: spin element must be nontrivial")
    total = RingElement.zero(spec)
    for sign, g in spins:
        total = total + reference_monomial(g, sign)
    return total


def reference_inverse_pairs_reduce(x: RingElement) -> RingElement:
    folded: dict = {}
    for g, c in x.items():
        inv = ~g
        rep = inv if canonical_key(inv) < canonical_key(g) else g
        folded[rep] = folded.get(rep, 0) + c
    return RingElement.from_mapping(x.spec, folded)


# ExplicitKernel.reduce and hermite_normal_form from before the lattice basis
# was taken over the generators' support alone: the basis here also spans x's
# support, and the elimination rescans rows r.. on every round.  Kept verbatim
# (only the names changed, and the method is a function of the generators) as
# references for the differential tests.
def reference_explicit_reduce(generators: tuple[RingElement, ...], x: RingElement) -> RingElement:
    if not generators:
        return x
    # __post_init__ guarantees that all generators share one spec
    if generators[0].spec != x.spec:
        raise ValidationError("kernel generators use a different group spec")
    support = {g for g, _ in x.items()}
    for gen in generators:
        support.update(gen.support())
    basis = sorted(support, key=canonical_key)
    index = {g: i for i, g in enumerate(basis)}
    rows = []
    for gen in generators:
        row = [0] * len(basis)
        for g, c in gen.items():
            row[index[g]] = c
        rows.append(row)
    hnf, pivots = reference_hermite_normal_form(rows)
    vec = [0] * len(basis)
    for g, c in x.items():
        vec[index[g]] = c
    for ri, ci in pivots:
        pivot = hnf[ri][ci]
        q = vec[ci] // pivot
        if q:
            vec = [a - q * b for a, b in zip(vec, hnf[ri])]
    return RingElement.from_mapping(
        x.spec, {basis[i]: c for i, c in enumerate(vec) if c != 0}
    )


def reference_hermite_normal_form(rows: list[list[int]]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Row-style HNF over the integers.

    Returns the reduced nonzero rows together with their (row, column) pivot
    positions.  Pivots are positive, strictly ordered by column, entries above
    a pivot lie in [0, pivot), and the rows span the same lattice as the input.
    """
    mat = [list(row) for row in rows]
    n_cols = len(mat[0]) if mat else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n_cols):
        # Euclidean elimination below row r until at most one nonzero remains.
        while True:
            live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if len(live) <= 1:
                break
            i0 = min(live, key=lambda i: abs(mat[i][c]))
            for i in live:
                if i == i0:
                    continue
                q = mat[i][c] // mat[i0][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
        live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
        if not live:
            continue
        i0 = live[0]
        mat[r], mat[i0] = mat[i0], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
    return mat[:r], pivots


# forms.normalize with its second sort, and GroupSpec.element, GroupSpec._push
# and GroupElement.__mul__, from before each step had one implementation (one
# sort over the net counts, one syllable-merge loop); kept verbatim (only the
# names changed, and the methods are functions) as references for the
# differential tests.
def reference_normalize(data: SRData, manifold) -> SRData:
    """Apply tube merging, disc cancellation and canonical sorting to a fixed point."""
    validate_or_raise(data, manifold)
    tube_counts = Counter(data.double_tubes)
    tubes = [t for t, count in tube_counts.items() if count % 2 == 1]
    net = Counter({t: count // 2 for t, count in tube_counts.items()})
    for sign, g in data.sr_discs:
        net[g] += sign
    discs: list[tuple[int, GroupElement]] = []
    for g, total in net.items():
        if total:
            discs.extend([(1 if total > 0 else -1, g)] * abs(total))
    tubes.sort(key=canonical_key)
    discs.sort(key=lambda item: (canonical_key(item[1]), -item[0]))
    return SRData(tuple(tubes), tuple(discs))


def reference_element(spec: GroupSpec, syllables) -> GroupElement:
    """Build the reduced word with the given syllables, merging as needed."""
    stack: list[tuple[int, int]] = []
    for ref, exp in syllables:
        idx = ref if isinstance(ref, int) else spec.index_of(ref)
        _reference_push(spec, stack, idx, exp)
    return GroupElement(spec, tuple(stack))


def _reference_push(spec: GroupSpec, stack: list[tuple[int, int]], index: int, exp: int) -> None:
    if stack and stack[-1][0] == index:
        exp += stack.pop()[1]
    # the seed's GroupSpec._normalize_exponent, copied so that the reference
    # does not share the exponent rule of the code it checks
    if not 0 <= index < len(spec.factors):
        raise ValidationError(f"factor index {index} out of range")
    order = spec.factors[index].order
    exp = exp % order if order is not None else exp
    if exp != 0:
        stack.append((index, exp))


def reference_mul(self: GroupElement, other: GroupElement) -> GroupElement:
    if not isinstance(other, GroupElement):
        return NotImplemented
    if other.spec != self.spec:
        raise ValidationError("cannot multiply elements over different group specs")
    stack = list(self.syllables)
    for index, exp in other.syllables:
        _reference_push(self.spec, stack, index, exp)
    return GroupElement(self.spec, tuple(stack))


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
